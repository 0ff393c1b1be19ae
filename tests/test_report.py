"""The report renderer against json.dumps itself, its oracle."""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from randaudit import report
from randaudit.report import to_json

GOLDEN = Path(__file__).parent / "golden"


def oracle(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


text = st.one_of(
    st.text(),
    st.text(st.characters(exclude_categories=())),  # lone surrogates included
    st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "🎲", " ", "\ud800", "/"])),
)
scalars = st.one_of(
    text,
    st.integers(),
    st.integers(-(2**5000), 2**5000),
    st.sampled_from([0, -1, 2**5000, -(2**5000)]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(st.integers(), max_size=6),
        st.dictionaries(text, inner, max_size=6),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.dictionaries(text, values, max_size=4), values))
def test_matches_json_on_nested_values(value):
    assert to_json(value) == oracle(value)


@pytest.mark.parametrize(
    "value",
    [{}, [], (), {"a": []}, {"a": {}}, [[]], [True, False, None, 0, 1], [1, True, 0, False], {"x": (1, 2)}, 1, True, None],
    ids=repr,
)
def test_edge_cases(value):
    assert to_json(value) == oracle(value)


# A --pretty, CSV or error golden holds no JSON report.
REPORTS = {
    path.stem: stdout
    for path in sorted(GOLDEN.glob("*.json"))
    if (stdout := json.loads(path.read_text(encoding="utf-8"))["stdout"]).startswith("{")
}


@pytest.mark.parametrize("name", REPORTS)
def test_rerenders_every_golden_report(name):
    report = json.loads(REPORTS[name])
    assert to_json(report) == oracle(report) == REPORTS[name]


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {2: "b"}}, [{None: 1}], {"p": Fraction(1, 2)}, [Fraction(1, 3)], {1, 2}])
def test_refuses_what_it_cannot_render(value):
    with pytest.raises(TypeError):
        to_json(value)


# The shared text table of int lists, at its edges.
CAP = report._INT_TEXT_CAP


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, CAP + 3), max_size=40))
def test_int_lists_across_the_table_range_match_json(value):
    assert to_json(value) == oracle(value)
    assert to_json(tuple(value)) == oracle(value)


@pytest.mark.parametrize(
    "value",
    [[True, 1, 0, False], [1, 2, True], [CAP, False], [False, CAP + 1], [0, 1, 2, True, 3], [True] * 5],
    ids=repr,
)
def test_lists_mixing_bools_and_ints_render_bools_as_json_does(value):
    assert to_json(value) == oracle(value)


@pytest.mark.parametrize("value", [[2**5000], [-1], [CAP], [CAP + 1], [0, -(2**5000)], [CAP, CAP + 1, 0]], ids=str)
def test_int_lists_at_and_beyond_the_table_edges(value):
    assert to_json(value) == oracle(value)
    assert len(report._int_text) <= CAP + 1


# [300] is one text of several digits, read from the warm table by a one-key itemgetter.
@pytest.mark.parametrize("table", ["cold", "warm"])
@pytest.mark.parametrize("value", [[0], [300], [2**70], [True], (3,), [1, True], [2, 2.0]], ids=repr)
def test_one_element_and_inexact_int_lists(value, table, monkeypatch):
    monkeypatch.setattr(report, "_int_text", {} if table == "cold" else report._grow_int_text(CAP))
    assert to_json(value) == oracle(value)
    assert to_json({"x": value}) == oracle({"x": value})


def test_int_lists_beyond_the_digit_limit_raise_as_json_does():
    value = [10**5000]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        with pytest.raises(ValueError):
            oracle(value)
        with pytest.raises(ValueError):
            to_json(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_table_grows_several_times_in_one_process(monkeypatch):
    monkeypatch.setattr(report, "_int_text", {})
    sizes = []
    for top in [0, 40, 300, 1000, 2600, CAP - 1, CAP]:
        value = [top, *range(0, top, max(1, top // 7))]
        assert to_json(value) == oracle(value)
        sizes.append(len(report._int_text))
        assert top < sizes[-1] <= CAP + 1
    assert len(set(sizes)) >= 5 and sizes == sorted(sizes)
    assert to_json([CAP + 1]) == oracle([CAP + 1])
    assert len(report._int_text) == CAP + 1


def test_threads_growing_a_cold_table_render_as_json_does(monkeypatch):
    monkeypatch.setattr(report, "_int_text", {})
    tops = [7, 90, 256, 700, 1500, 3000, CAP - 2, CAP]
    values = [[*range(0, top, 3), top] for top in tops]
    start = threading.Barrier(len(values))

    def render(value):
        start.wait()
        return [to_json(value) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(values)) as pool:
            futures = [pool.submit(render, value) for value in values]
            outputs = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for value, texts in zip(values, outputs):
        assert texts == [oracle(value)] * 20
    assert len(report._int_text) <= CAP + 1
