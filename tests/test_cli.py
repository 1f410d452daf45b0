"""Subcommand behavior: outputs, manifests, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import svbayes
from svbayes import cli, engine, grid_oracle, posterior
from svbayes.distributions import Dataset, DomainError, ModelKind, pdf, sample_data
from svbayes.posterior import PriorSpec, mvn_log_pdf
from svbayes.rng import Rng


def run(argv):
    return cli.main(argv)


def read(path):
    return path.read_bytes()


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run([
        "generate", "--model", "gaussian", "--mu", "1", "--variance", "4",
        "--n", "100", "--seed", "42", "--out", str(out),
    ]) == 0
    return tmp_path / "data.csv"


def test_parsed_defaults_are_the_library_constants(capsys):
    """The flags carry the library's defaults, and the help text states them."""
    parser = cli.build_parser()
    args = parser.parse_args(["generate", "--out", "d"])
    assert (args.mu, args.variance, args.n) == (cli._TRUE_MU, cli._TRUE_VARIANCE, cli._N_SAMPLES)
    for command in ("fit", "grid"):
        args = parser.parse_args([command, "--data", "d.csv", "--out", "o"])
        assert args.prior_mean == [posterior.DEFAULT_PRIOR_MEAN]
        assert args.prior_var == [posterior.DEFAULT_PRIOR_VAR]
    with pytest.raises(SystemExit):
        parser.parse_args(["fit", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "prior mean, one shared or two per-dimension values (default 0)" in help_text
    assert "prior variance per dimension (default 100, noninformative)" in help_text


@pytest.mark.parametrize(
    "error, code",
    [
        (grid_oracle.GridUnderflowError("no mass"), 6),
        (engine.DivergenceError("non-finite objective", engine.Trace(*[()] * 5), [0.0]), 5),
        (DomainError("negative data"), 4),
        (cli.DataFileError("cannot read"), 3),
        (ValueError("bad value"), 2),
    ],
    ids=["grid-underflow", "divergence", "domain", "data-file", "value"],
)
def test_exit_code_table(monkeypatch, capsys, error, code):
    """Each error class exits with its code and one `error: ` line; a
    DomainError is a ValueError, yet exits 4, not 2."""
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_generate", fail)
    assert run(["generate", "--out", "unused"]) == code
    prefix = "optimization diverged: " if code == 5 else ""
    assert capsys.readouterr().err == f"error: {prefix}{error}\n"
    assert isinstance(error, ValueError) == (code in (2, 4))


def test_an_error_outside_the_table_propagates(monkeypatch):
    def fail(args):
        raise KeyError("not an exit code")

    monkeypatch.setattr(cli, "cmd_generate", fail)
    with pytest.raises(KeyError):
        run(["generate", "--out", "unused"])


class TestCachedParser:
    """`main` builds its parser once a process, and a call carries nothing to the next."""

    ENV = {**os.environ, "PYTHONPATH": str(Path(svbayes.__file__).parents[1])}

    def test_import_builds_no_parser(self):
        code = "import svbayes.cli as cli; print(cli.build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], check=True, env=self.ENV, capture_output=True, text=True
        )
        assert done.stdout == "0\n"

    def test_built_once_across_calls(self, dataset, tmp_path):
        cli.build_parser.cache_clear()
        assert run(["generate", "--n", "10", "--out", str(tmp_path / "a")]) == 0
        parser = cli.build_parser()
        argv = ["fit", "--data", str(dataset), "--epochs", "2", "--final-fe-samples", "10"]
        assert run([*argv, "--out", str(tmp_path / "b")]) == 0
        assert cli.build_parser() is parser
        assert cli.build_parser.cache_info().misses == 1

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        """Fits, a usage error, a help exit and a grid in one process write
        the bytes of the same commands each run in a fresh interpreter."""
        data = tmp_path / "fdata"
        argv = ["generate", "--model", "folded-normal", "--n", "100", "--seed", "3"]
        assert run([*argv, "--out", str(data)]) == 0
        data = f"{data}.csv"
        runs = {
            "prior": ["fit", "--data", data, "--prior-mean", "1", "2", "--prior-var", "50"],
            "default": ["fit", "--data", data],
            "grid": ["grid", "--data", data, "--model", "folded-normal"],
            "batch30": ["fit", "--data", data, "--batch-size", "30", "--shuffle"],
        }
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        assert run([*runs["prior"], "--out", str(here / "prior")]) == 0
        assert run(["fit", "--data", data, "--batch-size", "2.5", "--out", str(here / "bad")]) == 2
        with pytest.raises(SystemExit) as exit_info:
            run(["fit", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: svbayes fit")
        for name in ("default", "grid", "batch30"):
            assert run([*runs[name], "--out", str(here / name)]) == 0
        for name, argv in runs.items():
            subprocess.run(
                [sys.executable, "-m", "svbayes.cli", *argv, "--out", str(fresh / name)],
                check=True, env=self.ENV, capture_output=True,
            )
        names = sorted(path.name for path in fresh.iterdir())
        assert len(names) == 12 and sorted(path.name for path in here.iterdir()) == names
        for name in names:
            assert read(here / name) == read(fresh / name), name
        manifest = json.loads((here / "default.manifest.json").read_text())
        assert manifest["configuration"]["prior_mean"] == [0.0, 0.0]


class TestGenerate:
    def test_writes_expected_rows(self, dataset):
        lines = dataset.read_text().splitlines()
        assert lines[0] == "y"
        assert len(lines) == 101
        float(lines[1])  # parses

    def test_manifest_written(self, dataset, tmp_path):
        doc = json.loads((tmp_path / "data.manifest.json").read_text())
        assert doc["subcommand"] == "generate"
        assert doc["seed"] == 42
        assert doc["configuration"]["n"] == 100

    def test_repeat_is_bitwise_identical(self, tmp_path):
        args = ["generate", "--n", "50", "--seed", "3", "--out"]
        assert run(args + [str(tmp_path / "a")]) == 0
        assert run(args + [str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a.csv") == read(tmp_path / "b.csv")

    @pytest.mark.parametrize("variance", ["inf", "0", "-1", "nan"])
    def test_invalid_variance_is_usage_error(self, tmp_path, capsys, variance):
        """Exit 2 with a message that names the variance, and no file written."""
        code = run(["generate", "--variance", variance, "--out", str(tmp_path / "x")])
        assert code == 2
        want = f"error: variance must be finite and positive, got {float(variance)}\n"
        assert capsys.readouterr().err == want
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mu", ["inf", "-inf", "nan"])
    def test_non_finite_mean_is_usage_error(self, tmp_path, capsys, mu):
        """Exit 2 with a message that names the mean, and no file written."""
        code = run(["generate", f"--mu={mu}", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == f"error: mean mu must be finite, got {float(mu)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_invalid_n_is_usage_error(self, tmp_path):
        code = run(["generate", "--n", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_variance_49_draws_with_sigma_7(self, tmp_path):
        """The variance reaches the sampler as given: sigma is exactly 7."""
        out = str(tmp_path / "d")
        assert run(["generate", "--variance", "49", "--seed", "42", "--out", out]) == 0
        want = 1.0 + 7.0 * Rng(42).standard_normals(100)
        assert (tmp_path / "d.csv").read_bytes() == row_csv("y", ([v] for v in want))


class TestFit:
    def test_writes_result_and_trace(self, dataset, tmp_path):
        out = tmp_path / "fit"
        code = run([
            "fit", "--data", str(dataset), "--epochs", "12", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert len(doc["posterior"]["m"]) == 2
        assert len(doc["posterior"]["C"]) == 2
        assert "trace" not in doc
        trace_lines = (tmp_path / "fit.trace.csv").read_text().splitlines()
        assert trace_lines[0] == "epoch,step,F,kl,mc_loglik"
        assert len(trace_lines) == 13

    def test_minibatch_trace_rows(self, dataset, tmp_path):
        code = run([
            "fit", "--data", str(dataset), "--epochs", "3", "--batch-size", "10",
            "--out", str(tmp_path / "mb"),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "mb.json").read_text())
        assert "trace" not in doc
        trace_lines = (tmp_path / "mb.trace.csv").read_text().splitlines()
        assert len(trace_lines) == 1 + 30

    def test_no_correlation_flag(self, dataset, tmp_path):
        code = run([
            "fit", "--data", str(dataset), "--epochs", "5", "--no-correlation",
            "--out", str(tmp_path / "nc"),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "nc.json").read_text())
        assert doc["posterior"]["correlation_enabled"] is False
        assert doc["posterior"]["rho"] == 0.0

    def test_repeat_is_bitwise_identical(self, dataset, tmp_path):
        args = [
            "fit", "--data", str(dataset), "--epochs", "10", "--seed", "5", "--out",
        ]
        assert run(args + [str(tmp_path / "f1")]) == 0
        assert run(args + [str(tmp_path / "f2")]) == 0
        assert read(tmp_path / "f1.json") == read(tmp_path / "f2.json")
        assert read(tmp_path / "f1.trace.csv") == read(tmp_path / "f2.trace.csv")

    def test_folded_domain_violation_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y\n1.0\n-0.5\n2.0\n")
        code = run([
            "fit", "--data", str(bad), "--model", "folded-normal",
            "--epochs", "2", "--out", str(tmp_path / "f"),
        ])
        assert code == 4

    def test_missing_data_file_exit(self, tmp_path):
        code = run([
            "fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f"),
        ])
        assert code == 3

    def test_malformed_data_file_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y\n1.0\npotato\n")
        code = run(["fit", "--data", str(bad), "--out", str(tmp_path / "f")])
        assert code == 3

    def test_manifest_records_the_prior(self, dataset, tmp_path):
        """The fit manifest records the prior in the grid manifest's form;
        the fit JSON does not name it."""
        flags = ["--data", str(dataset), "--prior-mean", "3", "--prior-var", "0.5"]
        assert run(["fit", *flags, "--epochs", "5", "--out", str(tmp_path / "f")]) == 0
        assert run(["grid", *flags, "--resolution", "21", "--out", str(tmp_path / "g")]) == 0
        fit_config = json.loads((tmp_path / "f.manifest.json").read_text())["configuration"]
        grid_config = json.loads((tmp_path / "g.manifest.json").read_text())["configuration"]
        for config in (fit_config, grid_config):
            assert (config["prior_mean"], config["prior_var"]) == ([3.0, 3.0], [0.5, 0.5])
        assert "prior" not in (tmp_path / "f.json").read_text()

    def test_bad_batch_size_exit(self, dataset, tmp_path):
        code = run([
            "fit", "--data", str(dataset), "--batch-size", "0",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 2

    @pytest.mark.parametrize("value", ["2.5", "ten", ""])
    def test_non_integer_batch_size_names_the_flag(self, dataset, tmp_path, capsys, value):
        """A batch size that is neither a whole number nor 'full' is a usage
        error that names the flag, not int()'s own message."""
        out = tmp_path / "f"
        assert run(["fit", "--data", str(dataset), "--batch-size", value, "--out", str(out)]) == 2
        want = f"error: --batch-size must be a whole number or 'full', got {value!r}\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("model", ["gaussian", "folded-normal"])
    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    @pytest.mark.parametrize(
        "values",
        [(1e308, 1.5e308, 1.0, 2.0), (1e200, 1e200, 2e200, 3e200)],
        ids=["sum-overflows", "squares-overflow"],
    )
    def test_huge_finite_data_is_divergence(self, tmp_path, capsys, model, shuffle, values):
        """Finite data whose batch sums or squares overflow abort the fit as
        a divergence, with or without shuffling, never with a traceback."""
        data = tmp_path / "huge.csv"
        data.write_text("y\n" + "".join(f"{v!r}\n" for v in values))
        args = [
            "fit", "--data", str(data), "--model", model, "--batch-size", "2",
            "--epochs", "3", "--out", str(tmp_path / "f"),
        ]
        assert run(args + ["--shuffle"] * shuffle) == 5
        assert "optimization diverged" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_shuffled_batch_summary_overflow_is_divergence(self, tmp_path, capsys):
        """Each ordered batch of +-1e200 pairs has zero spread, so the fit
        starts; a shuffle that mixes signs overflows the batch summary."""
        data = tmp_path / "huge.csv"
        data.write_text("y\n" + "1e+200\n" * 4 + "-1e+200\n" * 4)
        code = run([
            "fit", "--data", str(data), "--batch-size", "4", "--epochs", "3", "--shuffle",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 5
        assert "optimization diverged" in capsys.readouterr().err

    def test_divergence_message_shows_the_last_free_energies(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        """A fit that diverges at step 7 prints F of the 5 steps before it,
        as the trace of the same fit without the fault records them."""
        args = ["fit", "--data", str(dataset), "--epochs", "10", "--out"]
        assert run(args + [str(tmp_path / "clean")]) == 0
        rows = (tmp_path / "clean.trace.csv").read_text().splitlines()[1:]
        want = ", ".join(row.split(",")[2] for row in rows[2:7])
        step_fn, steps = engine.free_energy_and_grad, []

        def nan_gradient_at_step_7(*step_args):
            fe, mc, kl, grad = step_fn(*step_args)
            steps.append(fe)
            return fe, mc, kl, [math.nan] * len(grad) if len(steps) == 8 else grad

        monkeypatch.setattr(engine, "free_energy_and_grad", nan_gradient_at_step_7)
        capsys.readouterr()
        assert run(args + [str(tmp_path / "f")]) == 5
        err = capsys.readouterr().err
        assert "(step 7, zeta=" in err
        assert f"F over the 5 steps before: {want}\n" in err

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_is_usage_error(self, dataset, tmp_path, capsys, lr):
        code = run([
            "fit", "--data", str(dataset), f"--lr={lr}", "--epochs", "2",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 2
        assert "learning rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("command", ["fit", "grid"])
    @pytest.mark.parametrize("var", ["nan", "inf", "0", "1e-320"])
    def test_bad_prior_variance_is_usage_error(self, dataset, tmp_path, capsys, command, var):
        """PriorSpec judges the prior: 1e-320 is positive, but its inverse is
        not finite, so it exits 2 instead of diverging or underflowing."""
        code = run([
            command, "--data", str(dataset), "--prior-var", var,
            "--out", str(tmp_path / "out" / "f"),
        ])
        assert code == 2
        message = {
            "nan": "prior covariance entries must be finite",
            "inf": "prior covariance entries must be finite",
            "0": "prior covariance must be positive definite",
            "1e-320": "prior covariance must have a finite inverse",
        }[var]
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "grid"])
    @pytest.mark.parametrize("mean", ["nan", "inf", "-inf"])
    def test_non_finite_prior_mean_is_usage_error(self, dataset, tmp_path, capsys, command, mean):
        code = run([
            command, "--data", str(dataset), f"--prior-mean={mean}",
            "--out", str(tmp_path / "out" / "f"),
        ])
        assert code == 2
        assert "prior mean entries must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["fit", "grid"])
    @pytest.mark.parametrize("flag", ["--prior-mean", "--prior-var"])
    def test_three_prior_values_are_usage_error(self, dataset, tmp_path, capsys, command, flag):
        code = run([
            command, "--data", str(dataset), flag, "1", "2", "3",
            "--out", str(tmp_path / "out" / "f"),
        ])
        assert code == 2
        name = "mean" if flag == "--prior-mean" else "variance"
        message = f"prior {name} takes one shared or two per-dimension values, got"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGrid:
    def test_outputs_and_mass_normalization(self, dataset, tmp_path):
        code = run([
            "grid", "--data", str(dataset), "--resolution", "41",
            "--out", str(tmp_path / "grid"),
        ])
        assert code == 0
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "mu,logvar,mass"
        assert len(lines) == 1 + 41 * 41
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-12)
        summary = json.loads((tmp_path / "grid.summary.json").read_text())
        assert len(summary["means"]) == 2

    def test_no_prior_flag(self, dataset, tmp_path):
        assert run([
            "grid", "--data", str(dataset), "--resolution", "31", "--no-prior",
            "--out", str(tmp_path / "g1"),
        ]) == 0
        assert run([
            "grid", "--data", str(dataset), "--resolution", "31",
            "--prior-var", "1e12", "--out", str(tmp_path / "g2"),
        ]) == 0
        s1 = json.loads((tmp_path / "g1.summary.json").read_text())
        s2 = json.loads((tmp_path / "g2.summary.json").read_text())
        np.testing.assert_allclose(s1["means"], s2["means"], atol=1e-9)

    def test_no_prior_builds_and_records_no_prior(self, dataset, tmp_path):
        """Under --no-prior the prior flags are not read: a nan variance is
        no error, and the manifest's prior fields are null."""
        assert run([
            "grid", "--data", str(dataset), "--resolution", "31", "--no-prior",
            "--prior-var", "nan", "--out", str(tmp_path / "g"),
        ]) == 0
        config = json.loads((tmp_path / "g.manifest.json").read_text())["configuration"]
        assert config["include_prior"] is False
        assert config["prior_mean"] is None and config["prior_var"] is None
        assert run([
            "grid", "--data", str(dataset), "--resolution", "31", "--out", str(tmp_path / "p"),
        ]) == 0
        config = json.loads((tmp_path / "p.manifest.json").read_text())["configuration"]
        assert (config["include_prior"], config["prior_mean"], config["prior_var"]) == (
            True, [0.0, 0.0], [100.0, 100.0]
        )

    def test_manifest_records_a_given_mu_range(self, dataset, tmp_path):
        assert run([
            "grid", "--data", str(dataset), "--mu-range", "-0.7", "2.9", "--resolution", "31",
            "--out", str(tmp_path / "g"),
        ]) == 0
        manifest = json.loads((tmp_path / "g.manifest.json").read_text())
        assert manifest["configuration"]["mu_range"] == [-0.7, 2.9]

    def test_underflow_exit_code(self, dataset, tmp_path):
        code = run([
            "grid", "--data", str(dataset), "--resolution", "11",
            "--logvar-range", "-800", "-700", "--out", str(tmp_path / "g"),
        ])
        assert code == 6

    def test_non_finite_range_is_usage_error(self, dataset, tmp_path):
        code = run([
            "grid", "--data", str(dataset), "--mu-range", "-1", "1e400", "--out", str(tmp_path / "g"),
        ])
        assert code == 2

    def test_one_node_mass_exit_code(self, tmp_path):
        """10,000 points on 5 nodes per axis put all mass on one mu node;
        the grid exits 6 instead of writing a zero variance."""
        assert run([
            "generate", "--n", "10000", "--seed", "0", "--out", str(tmp_path / "big"),
        ]) == 0
        code = run([
            "grid", "--data", str(tmp_path / "big.csv"), "--resolution", "5",
            "--out", str(tmp_path / "g"),
        ])
        assert code == 6
        assert not (tmp_path / "g.summary.json").exists()

    @pytest.mark.parametrize("resolution", [7, 9, 11, 15, 21, 41])
    def test_under_resolved_exit_code(self, tmp_path, resolution):
        """On 10,000 points these grids resolve a marginal with less than
        half a cell; the grid exits 6 without writing a summary."""
        assert run([
            "generate", "--n", "10000", "--seed", "0", "--out", str(tmp_path / "big"),
        ]) == 0
        code = run([
            "grid", "--data", str(tmp_path / "big.csv"), "--resolution", str(resolution),
            "--out", str(tmp_path / "g"),
        ])
        assert code == 6
        assert not (tmp_path / "g.summary.json").exists()

    def test_folded_domain_violation_exit(self, tmp_path):
        data = tmp_path / "zero.csv"
        data.write_text("y\n1.5\n0.0\n2.0\n")
        code = run([
            "grid", "--data", str(data), "--model", "folded-normal",
            "--resolution", "11", "--out", str(tmp_path / "g"),
        ])
        assert code == 4


class TestCompare:
    def test_grid_against_itself_reports_zeros(self, dataset, tmp_path, capsys):
        assert run([
            "grid", "--data", str(dataset), "--resolution", "41",
            "--out", str(tmp_path / "grid"),
        ]) == 0
        summary = json.loads((tmp_path / "grid.summary.json").read_text())
        # repackage the grid moments as a fit result document
        v1, v2 = summary["variances"]
        rho = summary["rho"]
        c01 = rho * (v1 * v2) ** 0.5
        fit_doc = {
            "posterior": {
                "m": summary["means"],
                "C": [[v1, c01], [c01, v2]],
                "rho": rho,
                "correlation_enabled": True,
            }
        }
        (tmp_path / "selffit.json").write_text(json.dumps(fit_doc))
        code = run([
            "compare", str(tmp_path / "selffit.json"),
            str(tmp_path / "grid.summary.json"), "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert report["mean_abs_diff"] == [0.0, 0.0]
        assert report["variance_ratio"] == [1.0, 1.0]
        assert report["rho_abs_diff"] == 0.0
        out = capsys.readouterr().out
        assert "parameter" in out

    def test_missing_file_exit(self, tmp_path):
        code = run(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 3

    def test_incompatible_artifact_exit(self, dataset, tmp_path):
        (tmp_path / "notafit.json").write_text("{}")
        assert run([
            "grid", "--data", str(dataset), "--resolution", "21",
            "--out", str(tmp_path / "grid"),
        ]) == 0
        code = run([
            "compare", str(tmp_path / "notafit.json"),
            str(tmp_path / "grid.summary.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "document, field, value",
        [
            ("fit", "C", None),
            ("fit", "posterior", [1.0, 2.0]),
            ("fit", "C", [[1.0, 0.0]]),
            ("grid", "variances", [1.0]),
            ("fit", "C", [[1.0, float("nan")], [float("nan"), 1.0]]),
            ("grid", "variances", [0.0, 1.0]),
            ("fit", "C", [[0.0, 0.0], [0.0, 1.0]]),
            ("fit", "C", [[1.0, 2.0], [2.0, 1.0]]),
            ("grid", "rho", -3.0),
        ],
        ids=[
            "null-C", "list-posterior", "C-1x2", "one-grid-variance", "nan-C",
            "zero-grid-variance", "zero-fit-variance", "fit-rho-2", "grid-rho-minus-3",
        ],
    )
    def test_malformed_field_exit(self, dataset, tmp_path, capsys, document, field, value):
        """A field of the wrong type or shape, a non-finite value or a zero
        variance is an input error, not a traceback or a table of broadcast,
        infinite or nan ratios."""
        assert run([
            "grid", "--data", str(dataset), "--resolution", "21", "--out", str(tmp_path / "grid"),
        ]) == 0
        grid_doc = json.loads((tmp_path / "grid.summary.json").read_text())
        fit_doc = {"posterior": {"m": [1.0, 1.0], "C": [[1.0, 0.1], [0.1, 1.0]], "rho": 0.1}}
        if document == "grid":
            grid_doc[field] = value
        elif field == "posterior":
            fit_doc[field] = value
        else:
            fit_doc["posterior"][field] = value
        (tmp_path / "f.json").write_text(json.dumps(fit_doc))
        (tmp_path / "g.json").write_text(json.dumps(grid_doc))
        capsys.readouterr()
        assert run(["compare", str(tmp_path / "f.json"), str(tmp_path / "g.json")]) == 3
        assert capsys.readouterr().out == ""

    def test_negative_fit_variance_is_refused_by_name(self, dataset, tmp_path, capsys):
        assert run([
            "grid", "--data", str(dataset), "--resolution", "21", "--out", str(tmp_path / "grid"),
        ]) == 0
        fit_doc = {"posterior": {"m": [1.0, 1.0], "C": [[-1.0, 0.0], [0.0, 1.0]]}}
        (tmp_path / "f.json").write_text(json.dumps(fit_doc))
        capsys.readouterr()
        assert run(["compare", str(tmp_path / "f.json"), str(tmp_path / "grid.summary.json")]) == 3
        assert capsys.readouterr().err == (
            "error: incompatible artifacts: moments must be finite and variances positive\n"
        )

    def test_fit_correlation_comes_from_its_covariance(self, dataset, tmp_path):
        """The fit JSON's `rho` is a view of its `C`; compare reads C only, so
        a stray rho field neither passes nor changes the report."""
        assert run([
            "grid", "--data", str(dataset), "--resolution", "21", "--out", str(tmp_path / "grid"),
        ]) == 0
        fit_doc = {"posterior": {"m": [1.0, 1.0], "C": [[4.0, 0.5], [0.5, 1.0]], "rho": 5.0}}
        (tmp_path / "f.json").write_text(json.dumps(fit_doc))
        assert run([
            "compare", str(tmp_path / "f.json"), str(tmp_path / "grid.summary.json"),
            "--out", str(tmp_path / "cmp"),
        ]) == 0
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert report["rho_fit"] == 0.25

    def test_huge_fit_covariance_reports_its_correlation(self, dataset, tmp_path, capsys):
        """Variances of 1e200 multiply past the float range; the roots taken
        apart give rho 0.9, with no overflow warning."""
        assert run([
            "grid", "--data", str(dataset), "--resolution", "21", "--out", str(tmp_path / "grid"),
        ]) == 0
        fit_doc = {"posterior": {"m": [1.0, 1.0], "C": [[1e200, 0.9e200], [0.9e200, 1e200]]}}
        (tmp_path / "f.json").write_text(json.dumps(fit_doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([
                "compare", str(tmp_path / "f.json"), str(tmp_path / "grid.summary.json"),
                "--out", str(tmp_path / "cmp"),
            ]) == 0
        assert " fit=0.9000 " in capsys.readouterr().out
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert report["rho_fit"] == pytest.approx(0.9, rel=1e-15)


class TestFigure:
    def test_invalid_id_is_usage_error(self, tmp_path):
        assert run(["figure", "9", "--out-dir", str(tmp_path)]) == 2

    def test_figure2_trace_bundle(self, tmp_path):
        out = tmp_path / "fig2"
        assert run(["figure", "2", "--seed", "7", "--out-dir", str(out)]) == 0
        for label in ("nocorr", "corr"):
            lines = (out / f"trace_{label}.csv").read_text().splitlines()
            assert len(lines) == 401
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["configuration"]["figure_id"] == 2
        assert not (out / "panel_b_grid.csv").exists()

    def test_figure1_panel_bundle(self, tmp_path):
        out = tmp_path / "fig1"
        assert run(["figure", "1", "--seed", "3", "--out-dir", str(out)]) == 0
        for name in (
            "panel_a_data.csv",
            "panel_a_true_pdf.csv",
            "panel_b_grid.csv",
            "panel_c_svb_nocorr.csv",
            "panel_d_svb_corr.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        grid_lines = (out / "panel_b_grid.csv").read_text().splitlines()
        assert grid_lines[0] == "mu,logvar,variance,mass"
        svb_lines = (out / "panel_d_svb_corr.csv").read_text().splitlines()
        assert len(svb_lines) == len(grid_lines)
        mass = sum(float(line.split(",")[3]) for line in svb_lines[1:])
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestSeedRange:
    """A seed outside [0, 2^64) is a usage error that writes nothing: it
    would otherwise alias the in-range seed it equals modulo 2^64."""

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["generate", "fit", "figure"])
    def test_out_of_range_seed_exits_2_without_artifacts(self, dataset, tmp_path, command, seed):
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--n", "5", "--out", str(out)],
            "fit": ["fit", "--data", str(dataset), "--epochs", "2", "--out", str(out)],
            "figure": ["figure", "6", "--out-dir", str(out)],
        }[command]
        before = sorted(tmp_path.iterdir())
        assert run(argv + ["--seed", seed]) == 2
        assert sorted(tmp_path.iterdir()) == before

    def test_largest_seed_still_runs(self, dataset, tmp_path):
        argv = ["fit", "--data", str(dataset), "--epochs", "2", "--seed", str(2**64 - 1)]
        assert run(argv + ["--out", str(tmp_path / "f")]) == 0
        assert json.loads((tmp_path / "f.json").read_text())["config"]["seed"] == 2**64 - 1


class TestDottedOutputBases:
    """Every artifact is named `<base><suffix>`, so two bases that differ only
    after a dot write disjoint files, each manifest naming its own."""

    OUTPUTS = {
        "data": {"data": ".csv"},
        "run": {"result": ".json", "trace": ".trace.csv"},
        "grid": {"mass": ".csv", "summary": ".summary.json"},
        "cmp": {"report": ".json"},
    }

    def test_two_dotted_bases_in_one_directory(self, tmp_path):
        for seed in (1, 2):
            base = {kind: str(tmp_path / f"{kind}.seed{seed}") for kind in self.OUTPUTS}
            assert run(["generate", "--n", "30", "--seed", str(seed), "--out", base["data"]]) == 0
            assert run([
                "fit", "--data", f"{base['data']}.csv", "--epochs", "5", "--seed", str(seed),
                "--final-fe-samples", "10", "--out", base["run"],
            ]) == 0
            assert run([
                "grid", "--data", f"{base['data']}.csv", "--resolution", "21",
                "--out", base["grid"],
            ]) == 0
            assert run([
                "compare", f"{base['run']}.json", f"{base['grid']}.summary.json",
                "--out", base["cmp"],
            ]) == 0
        for seed in (1, 2):
            for kind, suffixes in self.OUTPUTS.items():
                name = f"{kind}.seed{seed}"
                manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
                assert manifest["outputs"] == {k: name + s for k, s in suffixes.items()}
                for artifact in manifest["outputs"].values():
                    assert (tmp_path / artifact).is_file(), artifact
            result = json.loads((tmp_path / f"run.seed{seed}.json").read_text())
            assert result["config"]["seed"] == seed


def row_csv(header, rows):
    """The per-row CSV formatting as an oracle: one `repr(float(x))` per
    cell, comma-joined, a newline after each row."""
    lines = [header + "\n"]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row) + "\n")
    return "".join(lines).encode("utf-8")


def grid_rows(mu_axis, logvar_axis, mass, variance):
    for i, mu in enumerate(mu_axis):
        for j, lv in enumerate(logvar_axis):
            yield (mu, lv, math.exp(lv), mass[i, j]) if variance else (mu, lv, mass[i, j])


def trace_of(n):
    """A `Trace` of `n` steps: awkward floats first, then floats at the scale
    of a fit's F, KL and Monte Carlo log-likelihood."""
    awkward = [-0.0, 5e-324, 1e16, 1e-5, -2.0, 1.0 / 3.0, -1.7976931348623157e308]
    values = np.random.default_rng(5).normal([-200.0, 5.0, -195.0], 50.0, (n, 3)).tolist()
    values[: len(awkward)] = [[a, -a, a / 3.0] for a in awkward]
    steps = range(n)
    return engine.Trace(
        tuple(i // 10 for i in steps), tuple(i % 10 for i in steps), *map(tuple, zip(*values))
    )


def trace_csv(trace):
    """The trace file step by step: two integers, then three `repr` floats."""
    lines = ["epoch,step,F,kl,mc_loglik\n"]
    for i in range(len(trace.step)):
        row = [c[i] for c in trace]
        lines.append(",".join([str(row[0]), str(row[1]), *map(repr, row[2:])]) + "\n")
    return "".join(lines).encode("utf-8")


class TestRowWriter:
    """Every CSV the CLI writes is byte-identical to the per-row formatting."""

    AWKWARD = [-0.0, 5e-324, 1e16, 1e-5, 3.0, 0.0, -2.0, 1.0 / 3.0, 1.7976931348623157e308]

    def test_awkward_floats(self, tmp_path):
        path = tmp_path / "w.csv"
        pairs = zip(cli._reprs(self.AWKWARD), cli._reprs(self.AWKWARD[::-1]))
        cli._write_rows(path, "a,b", [[f"{a},{b}\n" for a, b in pairs]])
        assert path.read_bytes() == row_csv("a,b", zip(self.AWKWARD, self.AWKWARD[::-1]))
        assert path.read_text().splitlines()[1] == "-0.0,1.7976931348623157e+308"

    def test_data_csv(self, tmp_path):
        data = Dataset(np.array(self.AWKWARD))
        cli.write_data_csv(tmp_path / "d.csv", data)
        assert (tmp_path / "d.csv").read_bytes() == row_csv("y", ([v] for v in data.values))

    def test_data_csv_longer_than_one_chunk(self, tmp_path):
        """Two full chunks and a short one: the same bytes as one unchunked
        write, and every value reads back exactly."""
        n = 2 * cli.DATA_CHUNK_ROWS + 3
        values = np.resize(np.array(self.AWKWARD[:-1]), n) * np.arange(1, n + 1)
        path = tmp_path / "big.csv"
        cli.write_data_csv(path, Dataset(values))
        assert path.read_bytes() == row_csv("y", ([v] for v in values))
        np.testing.assert_array_equal(cli.read_data_csv(path).values, values)

    def test_generated_data_csv(self, dataset):
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, 42)
        assert dataset.read_bytes() == row_csv("y", ([v] for v in data.values))

    def test_grid_rows_cover_grid(self):
        """One block per mu-line, each line's rows in logvar order."""
        data = Dataset(np.array([0.5, 1.0]))
        spec = grid_oracle.GridSpec(resolution=7)
        prior = PriorSpec.diagonal([0.0, 0.0], [100.0, 100.0])
        grid = grid_oracle.grid_posterior(ModelKind.GAUSSIAN, data, prior, spec)
        blocks = list(cli._grid_rows(grid.mu_axis, grid.logvar_axis, grid.mass, False))
        assert [len(rows) for rows in blocks] == [7] * 7
        cells = [row.rstrip("\n").split(",") for rows in blocks for row in rows]
        assert [c[0] for c in cells[:8]] == [repr(float(grid.mu_axis[0]))] * 7 + [
            repr(float(grid.mu_axis[1]))
        ]
        assert [c[1] for c in cells[:7]] == [repr(x) for x in grid.logvar_axis.tolist()]
        assert sum(float(c[2]) for c in cells) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("chunk_rows", [10, 3], ids=["line-within-a-chunk", "line-too-long"])
    def test_grid_csv_in_blocks(self, tmp_path, monkeypatch, chunk_rows):
        """One block per mu-line (7 lines of 4 nodes), also where a line is
        longer than DATA_CHUNK_ROWS: the bytes of the per-row formatting."""
        monkeypatch.setattr(cli, "DATA_CHUNK_ROWS", chunk_rows)
        mu, lv = np.linspace(-1.0, 3.0, 7), np.linspace(-0.7, 2.8, 4)
        mass = np.random.default_rng(3).dirichlet(np.ones(28)).reshape(7, 4)
        assert [len(rows) for rows in cli._grid_rows(mu, lv, mass, True)] == [4] * 7
        path, header = tmp_path / "g.csv", "mu,logvar,variance,mass"
        cli._write_rows(path, header, cli._grid_rows(mu, lv, mass, True))
        assert path.read_bytes() == row_csv(header, grid_rows(mu, lv, mass, True))

    def test_large_grid_write_is_blocked(self, tmp_path):
        """A 600 x 600 grid CSV (360,000 rows, ~27 MB of text) is written
        within 2 MB of traced peak (about 106 MB formatted in one piece): one
        mu-line of 600 rows is formatted at a time."""
        import tracemalloc

        mu, lv = np.linspace(-1.0, 3.0, 600), np.linspace(-0.7, 2.8, 600)
        mass = np.random.default_rng(4).random((600, 600))
        path = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            cli._write_rows(path, "mu,logvar,variance,mass", cli._grid_rows(mu, lv, mass, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = path.read_text().splitlines()
        assert len(lines) == 600 * 600 + 1 and lines[-1].endswith(repr(float(mass[-1, -1])))
        assert peak < 2 * 2**20, peak

    def test_trace_csv_in_blocks(self, tmp_path, monkeypatch):
        """A trace of 23 steps, three blocks of 7 and one of 2: the bytes of
        the step-by-step formatting."""
        monkeypatch.setattr(cli, "DATA_CHUNK_ROWS", 7)
        trace = trace_of(23)
        cli.write_trace_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == trace_csv(trace)

    def test_large_trace_write_is_blocked(self, tmp_path):
        """200,000 steps (about 12 MB of text) are written within 15 MB of
        traced peak (about 48 MB formatted in one piece): at most
        DATA_CHUNK_ROWS rows are formatted at a time."""
        import tracemalloc

        trace = trace_of(200_000)
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            cli.write_trace_csv(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = path.read_text().splitlines()
        assert len(lines) == 200_000 + 1 and lines[-1].endswith(repr(trace.mc_loglik[-1]))
        assert peak < 15 * 2**20, peak

    @pytest.mark.parametrize("model", ["gaussian", "folded-normal"])
    def test_grid_mass_csv(self, tmp_path, model):
        assert run([
            "generate", "--model", model, "--n", "100", "--seed", "5", "--out", str(tmp_path / "d"),
        ]) == 0
        assert run([
            "grid", "--data", str(tmp_path / "d.csv"), "--model", model, "--out", str(tmp_path / "g"),
        ]) == 0
        kind = ModelKind(model)
        data = cli.read_data_csv(tmp_path / "d.csv")
        mu_range = (0.0, 3.0) if kind is ModelKind.FOLDED_NORMAL else grid_oracle.DEFAULT_MU_RANGE
        prior = PriorSpec.diagonal([0.0, 0.0], [100.0, 100.0])
        grid = grid_oracle.grid_posterior(kind, data, prior, grid_oracle.GridSpec(mu_range=mu_range))
        expected = row_csv(
            "mu,logvar,mass", grid_rows(grid.mu_axis, grid.logvar_axis, grid.mass, False)
        )
        assert (tmp_path / "g.csv").read_bytes() == expected
        manifest = json.loads((tmp_path / "g.manifest.json").read_text())
        assert manifest["configuration"]["mu_range"] == list(mu_range)

    @pytest.mark.parametrize("figure_id", [1, 5])
    def test_figure_panels(self, tmp_path, figure_id):
        out = tmp_path / "fig"
        assert run(["figure", str(figure_id), "--seed", "2", "--out-dir", str(out)]) == 0
        kind = ModelKind.GAUSSIAN if figure_id == 1 else ModelKind.FOLDED_NORMAL
        data = sample_data(kind, 1.0, 4.0, 100, 2)
        assert (out / "panel_a_data.csv").read_bytes() == row_csv("y", ([v] for v in data.values))
        lo = 1e-6 if kind is ModelKind.FOLDED_NORMAL else 1.0 - 8.0
        ys = np.linspace(lo, 9.0, 201)
        assert (out / "panel_a_true_pdf.csv").read_bytes() == row_csv(
            "y,pdf", zip(ys, pdf(kind, ys, 1.0, 4.0))
        )
        mu_range = (0.0, 3.0) if kind is ModelKind.FOLDED_NORMAL else grid_oracle.DEFAULT_MU_RANGE
        grid = grid_oracle.grid_posterior(kind, data, None, grid_oracle.GridSpec(mu_range=mu_range))
        header = "mu,logvar,variance,mass"
        assert (out / "panel_b_grid.csv").read_bytes() == row_csv(
            header, grid_rows(grid.mu_axis, grid.logvar_axis, grid.mass, True)
        )
        nodes = grid_oracle.grid_nodes(grid.mu_axis, grid.logvar_axis)
        for panel, label in (("c", "nocorr"), ("d", "corr")):
            post = json.loads((out / f"fit_{label}.json").read_text())["posterior"]
            log_q = mvn_log_pdf(nodes, np.array(post["m"]), np.array(post["C"]))
            mass = grid_oracle.normalize_log_density(log_q)
            assert (out / f"panel_{panel}_svb_{label}.csv").read_bytes() == row_csv(
                header, grid_rows(grid.mu_axis, grid.logvar_axis, mass, True)
            )


class TestWriteJson:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_is_refused_and_writes_nothing(self, tmp_path, value):
        """A document JSON cannot hold (`Infinity`, `NaN`) raises before the
        file is opened, so no file and no directory is left behind."""
        path = tmp_path / "out" / "fit.json"
        with pytest.raises(ValueError):
            cli._write_json(path, {"posterior": {"rho": value}})
        assert list(tmp_path.iterdir()) == []

    def test_finite_document_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        cli._write_json(path, {"b": [1.5, 2], "a": None})
        assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1.5,\n    2\n  ]\n}\n'


class TestReadDataCsv:
    def test_blank_lines_and_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"y\r\n1.5\r\n\r\n  -2e3 \n\n0.25")
        assert cli.read_data_csv(path).values.tolist() == [1.5, -2000.0, 0.25]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "expected a CSV with header 'y'"),
            ("x\n1.0\n", "expected a CSV with header 'y'"),
            ("y\n1.0\npotato\n", "malformed value (could not convert string to float: 'potato')"),
            ("y\n\n  \n", "no data rows"),
            ("y\n1.0\nnan\n", "non-finite"),
        ],
        ids=["empty", "header", "malformed", "no-rows", "non-finite"],
    )
    def test_rejections(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(cli.DataFileError) as err:
            cli.read_data_csv(path)
        assert message in str(err.value)

    def test_streams_large_file(self, tmp_path):
        """200,000 rows (about 4 MB of text) read within 8 MB of traced peak:
        the lines are never all held at once."""
        import tracemalloc

        values = np.random.default_rng(0).normal(1.0, 2.0, 200_000)
        path = tmp_path / "big.csv"
        cli.write_data_csv(path, Dataset(values))
        tracemalloc.start()
        try:
            data = cli.read_data_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(data.values, values)
        assert peak < 8 * 2**20, peak
