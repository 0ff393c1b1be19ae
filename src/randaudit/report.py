"""Machine-readable reports and the pinned worked-example reproduction.

Reports are plain dicts with a fixed key order and no timestamps, so a
repeated invocation yields byte-identical JSON.  Every probability is
emitted as an exact numerator/denominator pair together with a 3-place
decimal rendering.

``reproduce_paper`` recomputes the toolkit's built-in worked examples,
two length-9 outputs judged by both tests, their relabelings under the
index sets X = {1,4,9} and Y = {2,3,5,9}, and the resulting verdict
reversals, and compares every value against pinned expectations.  Any
deviation is reported and turns the run into a failure.

``to_json`` writes a report as one line of JSON, on json's C encoder.
``--pretty`` is the CLI's view for people; ``python -m json.tool`` indents
a report.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .audit import AuditResult, verdict_under_relabeling
from .exact import decimal_string, prob_dict
from .sequences import mask_from_index_set, parse_sequence
from .verdicts import BINOMIAL, ONE_SIDED, RUNS, TWO_SIDED_DOUBLED, TestVerdict, binomial_test, runs_test

SCHEMA_VERSION = "2"


def build_report(command: str, inputs: dict, results: list, notes: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "notes": notes,
    }


def to_json(report: dict) -> str:
    """The report as one line of JSON text, ending in a newline."""
    return json.dumps(report, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Pinned worked examples.

_ALPHA = Fraction(1, 20)
_SEQ_A = "HTTHTHHHT"
_SEQ_B = "HHHHHTTTT"
_SEQ_D = "TTTTTTTTT"
_X_SET = (1, 4, 9)
_Y_SET = (2, 3, 5, 9)

CONVENTION_NOTE = (
    "The 2/512 = 0.004 figure for the all-tails reading uses the "
    "two-sided-doubled convention; the one-sided tail is 1/512 = 0.002. "
    "Both are reported."
)
ALPHA_NOTE = "Significance threshold alpha = 1/20 is a conventional choice, not a derived one."


def _expect(checks: list, name: str, actual, expected) -> None:
    checks.append(
        {"name": name, "expected": _as_json_value(expected), "actual": _as_json_value(actual), "ok": actual == expected}
    )


def _as_json_value(value):
    return prob_dict(value) if isinstance(value, Fraction) else value


def _verdict_row(label: str, verdict: TestVerdict, rendering: str) -> dict:
    row = verdict.as_dict()
    row["label"] = label
    row["sequence"] = rendering
    return row


def _audit_row(label: str, audit: AuditResult) -> dict:
    row = audit.as_dict(emit_witness=True, x_set=True)
    row["label"] = label
    return row


def reproduce_paper() -> tuple[dict, list[str]]:
    """Recompute the worked examples; return (report, deviation names)."""
    checks: list[dict] = []

    a = parse_sequence(_SEQ_A)
    b = parse_sequence(_SEQ_B)
    d = parse_sequence(_SEQ_D)

    # Base verdicts for the two featured outputs.
    runs_a = runs_test(a, _ALPHA)
    runs_b = runs_test(b, _ALPHA)
    binom_a = binomial_test(a, _ALPHA)
    binom_b = binomial_test(b, _ALPHA)
    _expect(checks, "runs(A) statistic", runs_a.statistic, 6)
    _expect(checks, "runs(A) p", runs_a.p, Fraction(186, 512))
    _expect(checks, "runs(A) p rendering", decimal_string(runs_a.p), "0.363")
    _expect(checks, "runs(A) rejected", runs_a.rejected, False)
    _expect(checks, "runs(B) statistic", runs_b.statistic, 2)
    _expect(checks, "runs(B) p", runs_b.p, Fraction(18, 512))
    _expect(checks, "runs(B) p rendering", decimal_string(runs_b.p), "0.035")
    _expect(checks, "runs(B) rejected", runs_b.rejected, True)
    _expect(checks, "binomial(A) statistic", binom_a.statistic, 5)
    _expect(checks, "binomial(A) p", binom_a.p, Fraction(256, 512))
    _expect(checks, "binomial(A) p rendering", decimal_string(binom_a.p), "0.500")
    _expect(checks, "binomial(A) rejected", binom_a.rejected, False)
    _expect(checks, "binomial(B) p", binom_b.p, Fraction(256, 512))
    _expect(checks, "binomial(B) rejected", binom_b.rejected, False)

    # Relabeling table under X: the runs verdicts reverse both ways.
    x_mask = mask_from_index_set(_X_SET, 9)
    audit_a_x = verdict_under_relabeling(a, x_mask, RUNS, _ALPHA, relabeled_vocab="teads/hails")
    audit_b_x = verdict_under_relabeling(b, x_mask, RUNS, _ALPHA, relabeled_vocab="teads/hails")
    _expect(checks, "relabeled(A, X) text", audit_a_x.relabeled_sequence.text(lower=True), "hhhhhtttt")
    _expect(checks, "relabeled(B, X) text", audit_b_x.relabeled_sequence.text(lower=True), "htththhht")
    _expect(checks, "relabeled(A, X) runs p", audit_a_x.relabeled.p, Fraction(18, 512))
    _expect(checks, "relabeled(B, X) runs p", audit_b_x.relabeled.p, Fraction(186, 512))
    _expect(checks, "runs verdict on (A, X) flips", audit_a_x.flipped, True)
    _expect(checks, "runs verdict on (B, X) flips", audit_b_x.flipped, True)

    # Relabeling table under Y: the head-count verdicts reverse, with the
    # doubled convention carrying the 0.004 figure.
    y_mask = mask_from_index_set(_Y_SET, 9)
    audit_a_y = verdict_under_relabeling(
        a, y_mask, BINOMIAL, _ALPHA, convention=TWO_SIDED_DOUBLED, relabeled_vocab="schmails/schmeads"
    )
    audit_d_y = verdict_under_relabeling(
        d, y_mask, BINOMIAL, _ALPHA, convention=TWO_SIDED_DOUBLED, relabeled_vocab="schmails/schmeads"
    )
    one_sided_c = binomial_test(audit_a_y.relabeled_sequence, _ALPHA, ONE_SIDED)
    _expect(checks, "relabeled(A, Y) text", audit_a_y.relabeled_sequence.text(lower=True), "ttttttttt")
    _expect(checks, "relabeled(D, Y) text", audit_d_y.relabeled_sequence.text(lower=True), "htththhht")
    _expect(checks, "relabeled(A, Y) doubled p", audit_a_y.relabeled.p, Fraction(2, 512))
    _expect(checks, "relabeled(A, Y) doubled p rendering", decimal_string(audit_a_y.relabeled.p), "0.004")
    _expect(checks, "relabeled(A, Y) one-sided p", one_sided_c.p, Fraction(1, 512))
    _expect(checks, "binomial verdict on (A, Y) flips", audit_a_y.flipped, True)
    _expect(checks, "binomial verdict on (D, Y) flips", audit_d_y.flipped, True)

    deviations = [c["name"] for c in checks if not c["ok"]]
    report = build_report(
        command="reproduce-paper",
        inputs={
            "alpha": prob_dict(_ALPHA),
            "sequences": {"A": _SEQ_A, "B": _SEQ_B, "D": _SEQ_D},
            "x_set": list(_X_SET),
            "y_set": list(_Y_SET),
        },
        results=[
            {
                "section": "base verdicts",
                "rows": [
                    _verdict_row("runs A", runs_a, _SEQ_A),
                    _verdict_row("runs B", runs_b, _SEQ_B),
                    _verdict_row("binomial A", binom_a, _SEQ_A),
                    _verdict_row("binomial B", binom_b, _SEQ_B),
                ],
            },
            {
                "section": "relabeling X = {1,4,9}, runs test",
                "rows": [_audit_row("A -> a", audit_a_x), _audit_row("B -> b", audit_b_x)],
            },
            {
                "section": "relabeling Y = {2,3,5,9}, binomial test (two-sided-doubled)",
                "rows": [
                    _audit_row("A -> c", audit_a_y),
                    _audit_row("D -> d", audit_d_y),
                    {
                        "label": "A -> c, one-sided tail",
                        "p_one_sided": prob_dict(one_sided_c.p),
                    },
                ],
            },
            {"section": "checks", "rows": checks},
        ],
        notes=[CONVENTION_NOTE, ALPHA_NOTE],
    )
    if deviations:
        report["deviations"] = deviations
    return report, deviations
