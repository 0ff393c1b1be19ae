"""Reports as one line of JSON: the goldens, a round trip through the CLI, and what cannot be rendered."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from randaudit import cli
from randaudit.report import to_json

GOLDEN = Path(__file__).parent / "golden"

# A --pretty, CSV or error golden holds no JSON report.
REPORTS = {
    path.stem: stdout
    for path in sorted(GOLDEN.glob("*.json"))
    if (stdout := json.loads(path.read_text(encoding="utf-8"))["stdout"]).startswith("{")
}


@pytest.mark.parametrize("name", REPORTS)
def test_every_golden_report_is_one_line_of_json(name):
    stdout = REPORTS[name]
    assert stdout.count("\n") == 1 and stdout.endswith("\n")
    report = json.loads(stdout)
    assert stdout == json.dumps(report, ensure_ascii=False) + "\n" == to_json(report)


def test_strings_stay_unescaped_on_one_line():
    report = {"vocab": "schmails/schmeads é 🎲", "note": "a\nb\t\"c\""}
    text = to_json(report)
    assert text.count("\n") == 1 and "é 🎲" in text
    assert json.loads(text) == report


@pytest.mark.parametrize("value", [{"p": Fraction(1, 2)}, [Fraction(1, 3)], {1, 2}, {"s": {1}}], ids=repr)
def test_refuses_what_json_cannot_render(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_ints_beyond_the_digit_limit_raise():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        with pytest.raises(ValueError):
            to_json({"count": [10**5000]})
    finally:
        sys.set_int_max_str_digits(limit)


def typed(value):
    """``value`` with its types and key order spelled out, tuples as lists, so == compares what JSON keeps."""
    if type(value) is dict:
        return ["dict", [[key, typed(item)] for key, item in value.items()]]
    if type(value) in (list, tuple):
        return ["list", [typed(item) for item in value]]
    return [type(value).__name__, value]


def assert_round_trips(value):
    text = to_json(value)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert typed(json.loads(text)) == typed(value)


@pytest.mark.parametrize(
    "value",
    [{}, [], (), {"a": []}, {"a": {}}, [[]], [True, False, None, 0, 1], [1, True, 0, False], {"x": (1, 2)}, 1, True, None],
    ids=repr,
)
def test_edge_cases(value):
    assert_round_trips(value)


# A bool is an int to Python; it must come back as true or false, never 1 or 0.
@pytest.mark.parametrize(
    "value",
    [[True, 1, 0, False], [1, 2, True], [4096, False], [False, 4097], [0, 1, 2, True, 3], [True] * 5],
    ids=repr,
)
def test_lists_mixing_bools_and_ints_render_bools_as_json_does(value):
    assert_round_trips(value)


@pytest.mark.parametrize("value", [[0], [300], [2**70], [True], (3,), [1, True], [2, 2.0]], ids=repr)
def test_one_element_and_inexact_int_lists(value):
    assert_round_trips(value)
    assert_round_trips({"x": value})


@pytest.mark.parametrize(
    "value",
    [[2**5000], [-1], [2**63], [-(2**63) - 1], [0, -(2**5000)], list(range(-3, 5003))],
    ids=["2**5000", "-1", "2**63", "-(2**63)-1", "0,-(2**5000)", "-3..5002"],
)
def test_long_and_negative_int_lists(value):
    assert_round_trips(value)


# json writes a non-str key as a string; no report holds one (test_every_report_kind_round_trips).
@pytest.mark.parametrize(
    "value, parsed",
    [({1: "a"}, {"1": "a"}), ({"a": {2: "b"}}, {"a": {"2": "b"}}), ([{None: 1}], [{"null": 1}])],
    ids=["int key", "nested int key", "None key"],
)
def test_non_str_keys_come_back_as_strings(value, parsed):
    assert json.loads(to_json(value)) == parsed


_rng = random.Random(2048)
LONG_SEQ = "".join(_rng.choice("HT") for _ in range(2048))
LONG_X_SET = ",".join(str(i) for i in range(1, 2049) if _rng.random() < 0.2)

# One CLI invocation per result kind the CLI emits as JSON.
KINDS = {
    "runs verdict": ["runs-test", "--seq", "HTTHTHHHT"],
    "binomial verdict": ["binomial-test", "--seq", "TTTTTTTTT", "--convention", "two-sided-doubled"],
    "relabel": ["relabel", "--seq", "HTTHTHHHT", "--x-set", "1,4,9", "--vocab", "teads/hails"],
    "audit with witness": [
        "audit", "--seq", "HTTHTHHHT", "--x-set", "2,3,5,9", "--test", "binomial", "--emit-witness",
    ],
    "audit with witness at n = 2048": [
        "audit", "--seq", LONG_SEQ, "--x-set", LONG_X_SET, "--test", "runs", "--emit-witness",
    ],
    "flip search": ["flip-search", "--seq", "HTTHTHHHT", "--test", "runs", "--emit-witness"],
    "flip search, minimized": ["flip-search", "--seq", "HTHHTTHTHHTHTTHH", "--test", "binomial", "--minimize"],
    "flip search, none": ["flip-search", "--seq", "H", "--test", "runs"],
    "explicit rejection set": ["rejection-set", "--test", "runs", "--n", "9", "--explicit"],
    "spectrum rows": ["spectrum", "--seq", "HTTHTHHHT", "--test", "binomial"],
    "distribution": ["distribution", "--n", "40"],
    "distribution oracle": ["distribution", "--n", "10", "--oracle"],
    "simulate": ["simulate", "--model", "markov:stay=3/4", "--test", "runs", "--n", "12", "--trials", "500"],
    "posterior": ["posterior", "--seq", "HHHHHHHHHT", "--model", "biased:p=3/5", "--prior-odds", "1/3"],
    "reproduce-paper": ["reproduce-paper"],
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_report_kind_round_trips(kind, monkeypatch, capsys):
    rendered = []

    def capture(report):
        rendered.append(report)
        return to_json(report)

    monkeypatch.setattr(cli, "to_json", capture)
    assert cli.run_cli(KINDS[kind]) == 0
    (report,) = rendered
    text = capsys.readouterr().out
    assert text == to_json(report)
    assert typed(json.loads(text)) == typed(report)
