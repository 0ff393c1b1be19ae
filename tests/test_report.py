"""The report renderer against json.dumps itself, its oracle."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
