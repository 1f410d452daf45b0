"""The public namespace of the package."""

import ast
import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import svbayes
from svbayes import cli, distributions, engine, grid_oracle, optimizer, posterior


def test_every_exported_name_resolves():
    missing = [name for name in svbayes.__all__ if not hasattr(svbayes, name)]
    assert missing == []


def test_autodiff_tape_names_are_gone():
    gone = {"Tape", "finite_diff_check", "estimate_free_energy", "Gradient", "FiniteDiffReport"}
    assert gone.isdisjoint(svbayes.__all__)
    assert not [name for name in gone if hasattr(svbayes, name)]


def test_unused_names_and_adam_settings_are_gone():
    gone = {"ThetaVector", "extract_posterior", "PosteriorSummary"}
    assert gone.isdisjoint(svbayes.__all__)
    assert not [name for name in gone if hasattr(svbayes, name)]
    assert not hasattr(distributions, "ThetaVector")
    assert not [n for n in ("extract_posterior", "PosteriorSummary", "_raw") if hasattr(posterior, n)]
    assert not [n for n in ("_pack", "_unpack") if hasattr(engine, n)]
    assert "params" not in {f.name for f in dataclasses.fields(svbayes.FitResult)}
    # a fit starts from PosteriorParams.initial; no setting overrides it
    assert "init" not in {f.name for f in dataclasses.fields(svbayes.TrainConfig)}
    assert not hasattr(svbayes.PosteriorParams, "__iter__")
    prior = svbayes.PriorSpec.diagonal([0.0, 0.0], [1.0, 1.0])
    assert not [name for name in ("C0_inv", "log_det_C0") if hasattr(prior, name)]
    # Adam is one function over the fit's own state, with beta1, beta2 and
    # eps_hat fixed constants of the optimizer module: no optimizer object
    assert not hasattr(svbayes, "Adam") and not hasattr(optimizer, "Adam")
    assert not [v for v in vars(optimizer).values() if inspect.isclass(v)]
    assert list(inspect.signature(optimizer.adam_step).parameters) == [
        "zeta", "grad", "first", "second", "t", "learning_rate"
    ]


def test_the_step_and_the_likelihood_take_no_input_they_can_derive():
    """A `Batch` carries its model and both counts, so the likelihood and the
    step take no model or N beside it; zeta carries its correlation (five
    entries); the unchecked likelihood has no data check of its own."""

    def parameters(fn):
        return list(inspect.signature(fn).parameters)

    assert parameters(engine.free_energy_and_grad) == ["batch", "zeta", "noise", "prior"]
    assert parameters(distributions.loglik_terms) == ["batch", "mu", "theta2", "partials"]
    assert parameters(distributions.loglik_at) == ["batch", "thetas"]
    assert parameters(posterior.factor) == ["zeta"]
    assert parameters(posterior.kl_and_grad) == ["zeta", "s", "prior"]
    assert {"kind", "count", "n_total"} <= set(distributions.Batch._fields)
    assert distributions.Batch._field_defaults == {}
    assert not hasattr(distributions, "_checked_data")


def test_the_cut_sets_every_batch_count():
    """`distributions.make_batches` is the one maker of a `Batch` from data:
    the summarizer that takes counts is private, and the engine has no cut
    or summary helpers of its own."""
    engine_defs = ast.parse(Path(engine.__file__).read_text(encoding="utf-8")).body
    defined = {n.name for n in engine_defs if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint({"make_batches", "_cut", "_summaries"})
    assert list(inspect.signature(distributions.make_batches).parameters) == [
        "kind", "values", "batch_size"
    ]
    assert svbayes.make_batches is distributions.make_batches
    assert not hasattr(distributions, "summarize")


def test_every_module_level_name_is_used():
    """No op or helper that shipped code does not use: each module-level def
    or class of the package is referenced (by name or attribute) somewhere
    in it outside its own definition, or exported in `svbayes.__all__`."""
    defined, used = {}, set()
    for path in sorted(Path(svbayes.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
                refs.discard(node.name)
            used |= refs
    unused = {n: f for n, f in defined.items() if n not in used and n not in svbayes.__all__}
    assert unused == {}


def test_the_posterior_record_is_its_zeta():
    """`PosteriorParams` holds zeta alone, with no converter to or from it,
    no m/v/u arrays beside it and no prior density wrapper beside `mvn_log_pdf`."""
    assert [f.name for f in dataclasses.fields(svbayes.PosteriorParams)] == ["zeta"]
    record = svbayes.PosteriorParams((0.0, 0.0, 0.0, 0.0))
    assert not [n for n in ("from_zeta", "m", "v", "u") if hasattr(record, n)]
    assert not hasattr(svbayes.PriorSpec, "log_pdf")


def test_train_config_owns_the_default_learning_rate():
    learning_rate = inspect.signature(optimizer.adam_step).parameters["learning_rate"]
    assert learning_rate.default is inspect.Parameter.empty
    assert svbayes.TrainConfig().learning_rate == 0.1


def test_generating_distribution_is_its_mean_and_variance():
    """`sample_data` and `pdf` take the mean and the variance; no precision
    record stands between them and the caller."""
    assert "NaturalParams" not in svbayes.__all__
    assert not hasattr(distributions, "NaturalParams")
    assert list(inspect.signature(svbayes.sample_data).parameters) == [
        "kind", "mu", "variance", "n", "seed"
    ]
    assert list(inspect.signature(svbayes.pdf).parameters) == ["kind", "y", "mu", "variance"]


def test_learning_rate_rule_has_one_owner():
    """`TrainConfig` refuses a learning rate through one function, the only
    place its message is written, and is that function's only caller."""
    sources = [p.read_text(encoding="utf-8") for p in Path(svbayes.__file__).parent.glob("*.py")]
    assert sum(s.count("learning rate must be") for s in sources) == 1
    assert sum(s.count("check_learning_rate(") for s in sources) == 2  # its def and one call
    for lr in (-0.1, math.nan, math.inf):
        messages = set()
        checks = (
            optimizer.check_learning_rate,
            lambda x: svbayes.TrainConfig(learning_rate=x),
        )
        for check in checks:
            with pytest.raises(ValueError) as err:
                check(lr)
            messages.add(str(err.value))
        assert messages == {f"learning rate must be finite and >= 0, got {lr}"}


def test_csv_writing_lives_in_the_cli():
    """`write_trace_csv` lives in `cli` alone: the package does not re-export
    it; `engine` writes no file, and the generator has no scalar draw methods."""
    assert callable(cli.write_trace_csv)
    assert "write_trace_csv" not in svbayes.__all__
    assert not [n for n in ("write_trace_csv", "__getattr__") if hasattr(svbayes, n)]
    assert not [n for n in ("write_trace_csv", "TRACE_CSV_HEADER") if hasattr(engine, n)]
    assert "open(" not in Path(engine.__file__).read_text(encoding="utf-8")
    assert not [n for n in ("_write_columns", "_grid_columns") if hasattr(cli, n)]
    assert not [n for n in ("uniform", "standard_normal") if hasattr(svbayes.Rng, n)]


def test_oracle_does_not_import_the_engine():
    """`grid_oracle` compares a `PosteriorParams`, not a `FitResult`, so it
    needs nothing from the engine."""
    source = Path(grid_oracle.__file__).read_text(encoding="utf-8")
    assert not re.search(r"^from \.engine import|^from \. import .*\bengine\b", source, re.M)
    assert list(inspect.signature(grid_oracle.compare).parameters) == ["grid", "q"]


def test_cli_runs_as_a_module_once():
    """`import svbayes` does not load `cli`, so `python -m svbayes.cli` runs
    the module once, without runpy's warning."""
    env = {**os.environ, "PYTHONPATH": str(Path(svbayes.__file__).parents[1])}
    code = "import sys, svbayes; assert 'svbayes.cli' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "svbayes.cli", "--version"],
        check=True, env=env, capture_output=True, text=True,
    )
    assert (done.stdout, done.stderr) == (f"svbayes {svbayes.__version__}\n", "")


def test_domain_error_is_the_distributions_class():
    assert svbayes.DomainError is distributions.DomainError
    assert issubclass(svbayes.DomainError, ValueError)


def test_autodiff_placeholder_is_empty_and_not_imported():
    """The placeholder module holds no code, and the package and the CLI run
    without loading it."""
    code = (
        "import sys, svbayes, svbayes.cli; assert 'svbayes.autodiff' not in sys.modules; "
        "import svbayes.autodiff as a; "
        "assert [n for n in vars(a) if not n.startswith('__')] == [], vars(a)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(svbayes.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_readme_library_example_runs(capsys, tmp_path, monkeypatch):
    """The "Library use" block of README.md runs as written against the package."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    monkeypatch.chdir(tmp_path)  # the example writes its trace to the working directory
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].steps == 400
    assert "rho" in capsys.readouterr().out
    assert len((tmp_path / "fit.trace.csv").read_text().splitlines()) == 401
