"""The public namespace of the package."""

import os
import subprocess
import sys
from pathlib import Path

import svbayes
from svbayes import distributions


def test_every_exported_name_resolves():
    missing = [name for name in svbayes.__all__ if not hasattr(svbayes, name)]
    assert missing == []


def test_autodiff_tape_names_are_gone():
    gone = {"Tape", "finite_diff_check", "estimate_free_energy", "Gradient", "FiniteDiffReport"}
    assert gone.isdisjoint(svbayes.__all__)
    assert not [name for name in gone if hasattr(svbayes, name)]


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
