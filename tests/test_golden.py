"""Golden CLI reports: stdout and exit code, byte for byte.

Each case's expected stdout and exit code are stored in
``tests/golden/<name>.json``.  They pin the JSON and ``--pretty``
output of every subcommand, plus usage, parse, cap and rendering errors.  The two seeded ``simulate``
reports pin the sampler's stream too, so a change to the sampled bits
has to be deliberate.  After an intended change to a report, rewrite
the files with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from randaudit.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "runs-test": ["runs-test", "--seq", "HTTHTHHHT"],
    "runs-test-pretty": ["runs-test", "--seq", "HHHHHTTTT", "--alpha", "0.05", "--pretty"],
    "binomial-test-doubled": ["binomial-test", "--seq", "TTTTTTTTT", "--convention", "two-sided-doubled"],
    "relabel": ["relabel", "--seq", "HTTHTHHHT", "--x-set", "1,4,9", "--vocab", "heads/tails"],
    "audit-binomial": [
        "audit", "--seq", "HTTHTHHHT", "--x-set", "2,3,5,9", "--test", "binomial",
        "--convention", "two-sided-doubled", "--emit-witness",
    ],
    "audit-runs-pretty": ["audit", "--seq", "HHHHHTTTT", "--mask", "011011110", "--test", "runs", "--pretty"],
    "flip-search-runs": ["flip-search", "--seq", "HTTHTHHHT", "--test", "runs", "--emit-witness"],
    "flip-search-binomial-pretty": [
        "flip-search", "--seq", "HTHHTTHTHHTHTTHHTHHT", "--test", "binomial", "--minimize", "--pretty",
    ],
    "flip-search-none": ["flip-search", "--seq", "H", "--test", "runs"],
    "spectrum": ["spectrum", "--seq", "HTTHTHHHT", "--test", "runs"],
    "distribution-csv": ["distribution", "--n", "12", "--format", "csv"],
    "distribution-oracle": ["distribution", "--n", "10", "--oracle"],
    "rejection-set-explicit": ["rejection-set", "--test", "runs", "--n", "9", "--explicit"],
    "rejection-set-binomial-pretty": [
        "rejection-set", "--test", "binomial", "--n", "20", "--alpha", "1/100",
        "--convention", "two-sided-doubled", "--pretty",
    ],
    "simulate-fair-runs": ["simulate", "--test", "runs", "--n", "9", "--trials", "5000", "--seed", "7"],
    "simulate-markov-binomial-doubled": [
        "simulate", "--model", "markov:stay=3/4", "--test", "binomial", "--n", "12",
        "--convention", "two-sided-doubled", "--trials", "5000", "--seed", "11",
    ],
    "posterior-markov": ["posterior", "--seq", "HHHHHHHHHT", "--model", "markov:stay=3/4", "--prior-odds", "1/3"],
    "posterior-biased-pretty": ["posterior", "--seq", "HTTH", "--model", "biased:p=3/5", "--pretty"],
    "reproduce-paper": ["reproduce-paper"],
    "binomial-test-pretty": ["binomial-test", "--seq", "HTTHTHHHT", "--pretty"],
    "relabel-pretty": ["relabel", "--seq", "HHHHHTTTT", "--x-set", "1,4,9", "--pretty"],
    "flip-search-none-pretty": ["flip-search", "--seq", "H", "--test", "runs", "--pretty"],
    "spectrum-doubled-pretty": [
        "spectrum", "--seq", "HTTHTHHHT", "--test", "binomial", "--convention", "two-sided-doubled", "--pretty",
    ],
    "distribution-pretty": ["distribution", "--n", "9", "--pretty"],
    "distribution-csv-pretty": ["distribution", "--n", "5", "--format", "csv", "--pretty"],
    "rejection-set-explicit-pretty": ["rejection-set", "--test", "runs", "--n", "9", "--explicit", "--pretty"],
    "simulate-biased-pretty": [
        "simulate", "--model", "biased:p=1/3", "--test", "runs", "--n", "9", "--trials", "5000", "--seed", "3",
        "--pretty",
    ],
    "reproduce-paper-pretty": ["reproduce-paper", "--pretty"],
    "error-illegal-character": ["runs-test", "--seq", "HXT"],
    "error-bad-alpha": ["runs-test", "--seq", "HT", "--alpha", "7/2"],
    "error-unknown-flag": ["runs-test", "--seq", "HT", "--sideways"],
    "error-posterior-unrenderable": ["posterior", "--seq", "HTTH", "--model", "biased:p=3/5", "--prior-odds", "1e5000"],
    "error-mask-length": ["relabel", "--seq", "HTT", "--mask", "0101"],
    "error-oracle-cap": ["distribution", "--n", "25", "--oracle"],
    "rejection-set-dyadic-alpha": ["rejection-set", "--test", "runs", "--n", "1000", "--alpha", "1/2^985"],
    "error-alpha-power-cap": ["rejection-set", "--test", "runs", "--n", "1000", "--alpha", "1/2^5001"],
    "error-alpha-exponent-cap": ["rejection-set", "--test", "runs", "--n", "1000", "--alpha", "1e-9999999"],
}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == CASES[name]
    code, stdout = run(CASES[name])
    assert code == golden["exit"]
    assert stdout == golden["stdout"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, stdout = run(argv)
        record = {"argv": argv, "exit": code, "stdout": stdout}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"{name}: exit {code}, {len(stdout)} bytes", file=sys.stderr)
