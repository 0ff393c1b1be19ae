"""Tests of the benchmark itself: generator, oracle and span accounting.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer, overdrawn  # noqa: E402
from worker import run_ops  # noqa: E402

workloads.setup()

FAMILY_KEY = {"cli-paper": "cmd", "verdict-long": "text", "search-batch": "family"}


def family_mix(workload, seed: int, block: int) -> Counter:
    key = FAMILY_KEY[workload.name]
    return Counter(op[key] is None if key == "text" else op[key] for op in workload.block(seed, block))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_share_the_mix_and_differ_in_content(name):
    workload = workloads.WORKLOADS[name]
    for block in range(3):
        assert family_mix(workload, 1, block) == family_mix(workload, 2, block)
        assert repr(workload.block(1, block)) == repr(workload.block(1, block))
        assert repr(workload.block(1, block)) != repr(workload.block(2, block))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_second_seed_runs_without_failures(name, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    workload = workloads.WORKLOADS[name]
    size = len(workload.block(2, 0))
    result = run_ops(workload, 2, NullTracer(), ops=size)
    assert (result["attempted"], result["failed"]) == (size, 0), result["errors"]


def test_one_wrong_pvalue_raises_the_failure_ratio(monkeypatch):
    workload = workloads.WORKLOADS["verdict-long"]
    clean = run_ops(workload, 3, NullTracer(), ops=16)
    assert clean["failed"] == 0, clean["errors"]

    real = workloads.ra.verdicts.runs_pvalue
    calls = []

    def wrong_once(n, r, tail):
        calls.append(n)
        p = real(n, r, tail)
        return p + Fraction(1, 1 << n) if len(calls) == 1 else p

    monkeypatch.setattr(workloads.ra.verdicts, "runs_pvalue", wrong_once)
    injected = run_ops(workload, 3, NullTracer(), ops=16)
    assert injected["failed"] == 1
    assert "p at n=" in injected["errors"][0]


def traced_call(call_s: float, replay_s: float) -> dict:
    """One operation: a verdict span that sleeps, with a tail replay that sleeps."""
    tracer = Tracer()
    tracer.operation(
        lambda t: t.call(
            "verdicts.verdict", time.sleep, call_s, replay=lambda _: t.call("exact.tail", time.sleep, replay_s)
        )
    )
    return tracer.summary()


def test_a_replay_slower_than_its_call_is_rejected():
    assert overdrawn(traced_call(0.010, 0.008)) == []
    assert overdrawn(traced_call(0.002, 0.020)) == ["verdicts.verdict"]


def test_a_traced_run_attributes_time_below_its_calls():
    tracer = Tracer()
    run_ops(workloads.WORKLOADS["search-batch"], 4, tracer, ops=8)
    assert [s.name for s in tracer.spans].count("op") == 8
    assert {s.name for s in tracer.spans} >= {"exact.tail", "audit.flip_search", "simulate.rejection_rate"}
    assert overdrawn(tracer.summary()) == []


def test_oracle_tails_match_direct_sums():
    from math import comb

    for n in (1, 2, 9, 40):
        for r in range(1, n + 1):
            lower = sum(2 * comb(n - 1, i - 1) for i in range(1, r + 1))
            assert oracle.lower_count(oracle.RUNS, n, r) == lower
        for k in range(n + 1):
            assert oracle.upper_count(oracle.BINOMIAL, n, k) == sum(comb(n, i) for i in range(k, n + 1))
    # The paper's length-9 examples: runs p-values 186/512 and 18/512.
    assert oracle.judge(oracle.RUNS, "100101110", Fraction(1, 20))[2] == Fraction(186, 512)
    assert oracle.judge(oracle.RUNS, "111110000", Fraction(1, 20))[2] == Fraction(18, 512)
    assert oracle.minimal_reversal(oracle.RUNS, "111110000", Fraction(1, 20)).count("1") == 1
