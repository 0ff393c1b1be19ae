"""The public surface: each module's ``__all__``, the package re-export, and the demos."""

import subprocess
import sys
from pathlib import Path

import pytest

import randaudit
from randaudit import audit, exact, sequences, simulate, verdicts

MODULES = (audit, exact, sequences, simulate, verdicts)
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_defined_in_its_module(module):
    for name in module.__all__:
        obj = vars(module)[name]
        assert getattr(randaudit, name) is obj
        if callable(obj):
            assert (obj.__name__, obj.__module__) == (name, module.__name__)


def test_module_lists_are_disjoint_and_make_up_the_package_list():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(randaudit.__all__)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


# Bad input that no cap is involved in: a plain ValueError, exit 2 through the CLI.
REFUSALS = [
    (randaudit.statistic_pvalue, (randaudit.RUNS, 0, 1), "length must be at least 1"),
    (randaudit.statistic_count, (randaudit.BINOMIAL, 0, 0), "length must be at least 1"),
    (randaudit.rejection_set, (randaudit.RUNS, 0), "length must be at least 1"),
    (randaudit.BinarySequence.from_int, (8, 3), "value 8 does not fit in 3 bits"),
    (randaudit.RelabelMask.from_int, (0, 0), "mask length must be at least 1"),
    (randaudit.mask_from_index_set, ([], 0), "mask length must be at least 1"),
    (randaudit.mask_from_index_set, ([1.5], 3), "index 1.5 is not an integer"),
    (randaudit.BinarySequence, ((1, 2),), "sequence bits must be 0 or 1"),
    (randaudit.RelabelMask, ((),), "a mask must cover at least one position"),
    (randaudit.RelabelMask, ((True, 2),), "mask entries must be booleans"),
    (randaudit.runs_distribution(3).count, (0,), r"run count 0 out of range 1\.\.3"),
    (randaudit.enumerate_runs_distribution, (0,), "length must be at least 1"),
    (randaudit.check_null_invariance, (0,), "length must be at least 1"),
    # Text probabilities that a report could not render, from the library as from the CLI.
    (randaudit.runs_test, (randaudit.parse_sequence("HTTH"), "1e-4400"), "denominator of more than"),
    (randaudit.SourceModel, ("biased", "1e-4400"), "denominator of more than"),
]


@pytest.mark.parametrize("func, args, message", REFUSALS, ids=[f"{f.__qualname__}{args}" for f, args, _ in REFUSALS])
def test_bad_input_is_a_plain_value_error(func, args, message):
    with pytest.raises(ValueError, match=message) as refused:
        func(*args)
    assert not isinstance(refused.value, exact.CapExceededError)
