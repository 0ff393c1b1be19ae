"""The public surface: each module's ``__all__``, the package re-export, and the demos."""

import subprocess
import sys
from pathlib import Path

import pytest

import randaudit
from randaudit import audit, exact, sequences, simulate, verdicts

MODULES = (audit, exact, sequences, simulate, verdicts)
ROOT = Path(__file__).resolve().parents[1]
# Public names bound to a class defined elsewhere.
ALIASES = {"ExactProb"}  # fractions.Fraction


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_defined_in_its_module(module):
    for name in module.__all__:
        obj = vars(module)[name]
        assert getattr(randaudit, name) is obj
        if callable(obj) and name not in ALIASES:
            assert (obj.__name__, obj.__module__) == (name, module.__name__)


def test_module_lists_are_disjoint_and_make_up_the_package_list():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(randaudit.__all__)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
