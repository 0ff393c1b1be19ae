"""Verdicts under relabeled vocabularies, and their minimal reversals.

The central operation replays a test on a relabeled reading of the same
physical output and reports both verdicts side by side.  Masks act on
{0,1}^n as a transitive group (any sequence is carried to any other by
exactly one mask), which answers the questions about all 2^n masks
without enumerating them:

* The p-value spectrum over all relabelings is the null law itself: the
  number of masks reaching a statistic value is the number of sequences
  attaining it, so :func:`~randaudit.verdicts.pvalue_spectrum` is read
  from the null law alongside the verdicts.
* A verdict-reversing mask exists iff some statistic value carries the
  opposite verdict.  The reversal with the fewest redefined positions,
  ties broken by the lexicographically smallest flip string, is exact
  at every length.  For the head count it has a closed form; for the
  run count it is a dynamic program over (position, mask bit, breaks),
  because a mask m toggles the adjacent-pair breaks m ^ (m >> 1).

Two capped oracles still enumerate: the null-invariance check here, over
every mask, and :func:`~randaudit.exact.enumerate_runs_distribution`,
over every sequence, for the run-count law.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import CapExceededError, _lane_planes, as_probability
from .sequences import BinarySequence, RelabelMask, apply_relabeling
from .verdicts import (
    DEFAULT_ALPHA,
    ONE_SIDED,
    RUNS,
    TestVerdict,
    judge,
    rejection_set,
    statistic,
    statistic_domain,
)

__all__ = [
    "INVARIANCE_CAP",
    "AuditResult",
    "FlipSearchResult",
    "NullInvarianceReport",
    "check_null_invariance",
    "find_flipping_mask",
    "verdict_under_relabeling",
]

INVARIANCE_CAP = 12


class AuditResult(NamedTuple):
    original: TestVerdict
    relabeled: TestVerdict
    mask: RelabelMask
    relabeled_sequence: BinarySequence

    @property
    def flipped(self) -> bool:
        return self.original.rejected != self.relabeled.rejected

    def as_dict(self, emit_witness: bool = False) -> dict:
        payload = {
            "original": self.original.as_dict(),
            "relabeled": self.relabeled.as_dict(),
            "mask": self.mask.flip_string(),
            "x_set": list(self.mask.index_set()),
            "flipped": self.flipped,
        }
        if emit_witness:
            payload["witness"] = self.relabeled_sequence.text(lower=True)
        return payload


def verdict_under_relabeling(
    seq: BinarySequence,
    mask: RelabelMask,
    test: str,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
    relabeled_vocab: str | None = None,
) -> AuditResult:
    """Run one test on both readings of the same output."""
    alpha = as_probability(alpha)
    original = judge(seq, test, alpha, convention)
    relabeled_seq = apply_relabeling(seq, mask, vocab=relabeled_vocab)
    return AuditResult(original, judge(relabeled_seq, test, alpha, convention), mask, relabeled_seq)


class FlipSearchResult(NamedTuple):
    audit: AuditResult

    guaranteed_minimal = True  # every search is exact

    @property
    def mask(self) -> RelabelMask:
        return self.audit.mask

    @property
    def method(self) -> str:
        """``dp`` for a run-count search and ``closed-form`` for a head-count one: the test fixes the method."""
        return "dp" if self.audit.original.test == RUNS else "closed-form"

    def as_dict(self, emit_witness: bool = False) -> dict:
        audit = self.audit.as_dict(emit_witness=emit_witness)
        return {
            "found": True,
            "mask": audit["mask"],
            "x_set": list(audit["x_set"]),
            "flip_count": self.mask.flip_count(),
            "method": self.method,
            "guaranteed_minimal": self.guaranteed_minimal,
            "audit": audit,
        }


def _binomial_reversal(bits: tuple[int, ...], k: int, targets: list[int]) -> tuple[bool, ...]:
    """Fewest flips carrying the head count k into ``targets``.

    Each flip moves k by one, so with d the distance to the nearest
    target exactly d flips are needed: d zeros flipped to reach k + d, or
    d ones to reach k - d.  Flipping the last d of them gives the
    smallest flip string; if both k + d and k - d are targets, the
    smaller of the two strings wins.
    """
    d = min(abs(v - k) for v in targets)
    options = []
    for target, bit in ((k + d, 0), (k - d, 1)):
        if target in targets:
            chosen = set([i for i, b in enumerate(bits) if b == bit][-d:])
            options.append(tuple(i in chosen for i in range(len(bits))))
    return min(options)


def _runs_reversal(bits: tuple[int, ...], targets: list[int]) -> tuple[bool, ...]:
    """Fewest flips carrying the run count into ``targets``.

    The relabeled sequence breaks between positions i and i + 1 iff
    bits[i] ^ bits[i + 1] ^ m[i] ^ m[i + 1] is set, and b breaks make
    b + 1 runs.  ``cost[i, c, b]`` is the fewest flips among positions
    after i, given m[i] = c and b breaks before position i, that end on a
    target run count (n + 1 if none does).  One of the two continuations
    takes m[i + 1] = 0 at no cost, so no entry exceeds n + 1.  The forward
    pass takes bit 0 wherever it still attains the optimum, which yields
    the smallest flip string among the fewest-flip masks.

    A row ``cost[i, c, ·]`` is one int whose lane b, ``w`` bits wide,
    holds the cost at b breaks.  Values reach n + 2 before a minimum is
    taken, so each lane has one more bit on top, the guard bit, and a
    subtraction with every guard set compares all lanes at once without
    a borrow crossing between them.  Position i has at most i breaks
    before it, so row i holds lanes 0..i: the guards of the minimum
    cover lane i + 1 too, where the shifted operand is 0, so that lane
    comes out 0 and the int ends below it.  The forward pass reads only
    the rows with c = 0, so only those are kept.  Time is O(n^2 log n)
    bit operations and memory at most n^2 w / 2 bits: at n = 300 the DP
    takes about 1 ms; at n = 5000, 0.1-0.2 s and at most 22 MB (2-vCPU
    x86-64 machine, Python 3.11).
    """
    n = len(bits)
    inf = n + 1
    w = (n + 2).bit_length() + 1
    lane = (1 << w) - 1
    ones = int("1".zfill(w) * n, 2)  # 1 in each lane of row n - 1
    inf_lane = format(inf, f"0{w}b")
    wanted = set(targets)
    r0 = r1 = int("".join("0" * w if r in wanted else inf_lane for r in range(n, 0, -1)), 2)
    rows = [r0]  # cost[i, 0, ·] for i = n - 1 down to 0
    for i in range(n - 2, -1, -1):
        # ``keep`` continues with m[i + 1] = c ^ edge, which adds no break;
        # ``turn`` continues with the other bit and adds one.
        guard = ones << (w - 1)
        keep0, keep1 = r0, r1 + ones
        if bits[i] ^ bits[i + 1]:
            keep0, keep1 = keep1, keep0
        turn0, turn1 = keep1 >> w, keep0 >> w
        # A guard survives the subtraction iff keep >= turn in its lane.
        ge = (((keep0 | guard) - turn0) & guard) >> (w - 1)
        r0 = keep0 ^ ((keep0 ^ turn0) & (ge * lane))
        ge = (((keep1 | guard) - turn1) & guard) >> (w - 1)
        r1 = keep1 ^ ((keep1 ^ turn1) & (ge * lane))
        rows.append(r0)
        ones >>= w
    rows.reverse()
    m = 0 if r0 <= 1 + r1 else 1
    flips = [m]
    remaining = r1 if m else r0
    breaks = 0
    for i in range(n - 1):
        x = bits[i] ^ bits[i + 1] ^ m  # break added if m[i + 1] = 0
        m = 0 if (rows[i + 1] >> ((breaks + x) * w)) & lane == remaining else 1
        breaks += x ^ m
        remaining -= m
        flips.append(m)
    return tuple(bool(f) for f in flips)


def find_flipping_mask(
    seq: BinarySequence,
    test: str,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
    minimize: bool = False,
) -> FlipSearchResult | None:
    """The fewest-flip mask under which the test's verdict reverses, if any.

    A reversal exists iff some statistic value carries the opposite
    verdict, since every value is reachable through some mask.  The mask
    returned has the fewest flips, ties broken by the lexicographically
    smallest flip string, at every length: the head count is solved in
    closed form, the run count by a dynamic program, and the result's
    ``method`` names which.  ``minimize`` is still accepted but no
    longer selects anything; every result is guaranteed minimal.
    """
    alpha = as_probability(alpha)
    rejected = frozenset(rejection_set(test, seq.n, alpha, convention).statistic_values)
    value = statistic(test).of(seq)
    targets = [v for v in statistic_domain(test, seq.n) if (v in rejected) != (value in rejected)]
    if not targets:
        return None
    flips = _runs_reversal(seq.bits, targets) if test == RUNS else _binomial_reversal(seq.bits, value, targets)
    audit = verdict_under_relabeling(seq, RelabelMask(flips), test, alpha, convention)
    if not audit.flipped:  # pragma: no cover - targets carry the opposite verdict
        raise AssertionError("minimal reversal search returned a non-reversing mask")
    return FlipSearchResult(audit)


class NullInvarianceReport(NamedTuple):
    n: int
    masks_checked: int
    passed: bool

    def as_dict(self) -> dict:
        return {"n": self.n, "masks_checked": self.masks_checked, "passed": self.passed}


def check_null_invariance(n: int) -> NullInvarianceReport:
    """Verify every mask permutes {0,1}^n, so the uniform law is fixed.

    Each of the 2^n masks maps {0,1}^n, kept as one 2^n-bit int, and the
    image must be all of {0,1}^n: 2^n sequences then cover it exactly
    once, and a bijection carries the equal-weight law to itself.  The
    masks are taken in Gray-code order, so the i-th differs from the one
    before in bit j, the trailing zeros of i, and its image is the one
    before it with one block swap on plane j.  Exhaustive, hence capped.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > INVARIANCE_CAP:
        raise CapExceededError(f"invariance check over 2^{n} masks exceeds cap {INVARIANCE_CAP}")
    size, planes = 1 << n, _lane_planes(n)
    full = image = (1 << size) - 1  # bit y is set iff y = x ^ m for some x; mask 0 maps onto all
    for i in range(1, size):
        j = (i & -i).bit_length() - 1
        plane, width = planes[j], 1 << j
        image = (image & plane) >> width | (image ^ (image & plane)) << width
        if image != full:
            return NullInvarianceReport(n, i + 1, False)
    return NullInvarianceReport(n, size, True)
