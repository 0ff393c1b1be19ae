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
  because a mask m toggles the adjacent-pair breaks m ^ (m >> 1).  A pass
  keeps the breaks that F flips reach, and F doubles until one returns a mask.

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
    _rejected_values,
    judge,
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

    def as_dict(self, emit_witness: bool = False, x_set: bool = False) -> dict:
        """The record as a report dict; ``x_set`` adds the mask's index set X after the mask."""
        payload = {
            "original": self.original.as_dict(),
            "relabeled": self.relabeled.as_dict(),
            "mask": self.mask.flip_string(),
        }
        if x_set:
            payload["x_set"] = list(self.mask.index_set())
        payload["flipped"] = self.flipped
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
    """Run one test on both readings of the same output; the mask goes first, so a wrong length reads no tail."""
    relabeled_seq = apply_relabeling(seq, mask, vocab=relabeled_vocab)
    original = judge(seq, test, alpha, convention)
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
            "flip_count": self.mask.flip_count(),
            "method": self.method,
            "guaranteed_minimal": self.guaranteed_minimal,
            "audit": audit,
        }


def _highest_bits(x: int, d: int) -> int:
    """The d highest set bits of x, which has at least d set."""
    cut = len(format(x, "b").split("1", d)[-1])  # the digits below the d-th 1 from the top
    return x >> cut << cut


def _binomial_reversal(value: int, n: int, targets: set[int]) -> int:
    """Fewest flips carrying the head count of the packed sequence into ``targets``, as a packed mask.

    Each flip moves the head count k by one, so with d the distance to
    the nearest target exactly d flips are needed: d zeros flipped to
    reach k + d, or d ones to reach k - d.  Flipping the last d of them
    gives the smallest flip string; if both k + d and k - d are targets,
    the two masks are disjoint, and the one whose first flip comes later
    has the smaller string.
    """
    k = value.bit_count()
    d = min(abs(v - k) for v in targets)
    options = []
    if k + d in targets:
        options.append(_highest_bits(value ^ ((1 << n) - 1), d))
    if k - d in targets:
        options.append(_highest_bits(value, d))
    return max(options, key=lambda mask: mask & -mask)


def _band_pass(edges: str, total: int, targets: set[int], f: int) -> int | None:
    """One pass of :func:`_runs_reversal`'s table for at most f flips.

    Returns the fewest-flip mask, packed, when the band's optimum is at
    most f, and None otherwise.  Here n = len(edges) + 1 and ``total``
    counts the sequence's breaks.

    A backward pass fills the rows ``cost[i, 0, ·]`` for i = n - 1 down
    to 0.  A row ``cost[i, c, ·]`` is one int whose lane j, ``w`` bits
    wide, holds u = cap + (n - 1 - i) - cost at b = lo(i) + j, with
    cap = F + 1.  A step then adds 1 to the continuation with m[i + 1] = 0
    and nothing to the flip, and takes a lane-wise maximum, so u stays in
    0..n + F.  A lane outside the band reads 0, a cost of at least cap,
    which no mask within F flips reaches; the shifts that move a row
    between bands fill such lanes without a mask.  Each lane carries one
    more bit on top, the guard bit, and a subtraction with every guard
    set compares all lanes at once without a borrow crossing between
    them.  The forward pass reads only the rows with c = 0, so only those
    are kept.

    A pass takes O(n F log n) bit operations and as many bits of memory,
    and never more than the whole triangle, n^2 w / 2 bits.  At n = 5000
    on a 2-vCPU x86-64 machine with Python 3.11 (median of 5 in one
    process, row warm, alpha = 1/20), random inputs at seeds 1-3 (16-29
    flips, one pass each) took 6-8 ms a pass and 12-15 ms for the whole
    search, scan and audit included, with at most 1.3 MB of traced memory;
    an alternating one (1,221 flips, nearly the whole triangle) took
    60-63 ms a pass, 63-73 ms whole and 17.5 MB.
    """
    n = len(edges) + 1
    radius, cap, w = 2 * f, f + 1, (n + f).bit_length() + 1
    top = w - 1
    width = min(n, 2 * radius + 1)  # lanes in the widest row
    all_ones = int("1".zfill(w) * width, 2)
    b0 = total  # the sequence's own breaks before position i
    lo, hi = max(0, b0 - radius), min(n - 1, b0 + radius)
    target, other = format(cap, f"0{w}b"), "0" * w
    r0 = r1 = int("".join(target if b + 1 in targets else other for b in range(hi, lo - 1, -1)), 2)
    k = hi - lo  # the row's lanes, less one
    ones = all_ones >> (w * (width - 1 - k))
    guard = ones << top
    rows = [r0] * n  # rows[i] is cost[i, 0, ·]
    for i in range(n - 2, -1, -1):
        # The continuation with m[i + 1] = 0 gains 1, the flip nothing.
        # After the swap across a break of the sequence, x continues
        # m[i] = 0 without a break (``keep``, read at b) and y with one
        # (``turn``, read at b + 1); from m[i] = 1 they trade places.
        x, y = r0 + ones, r1
        edge = edges[i] == "1"
        if edge:
            b0 -= 1
            x, y = y, x
        if edge and b0 >= radius:  # lo(i) = lo(i + 1) - 1
            lo -= 1
            keep_x, keep_y, turn_x, turn_y = x << w, y << w, x, y
        else:
            keep_x, keep_y, turn_x, turn_y = x, y, x >> w, y >> w
        hi = b0 + radius if b0 + radius < i else i
        if hi - lo != k:
            k = hi - lo
            ones = all_ones >> (w * (width - 1 - k))
            guard = ones << top
        # A guard survives the subtraction iff keep >= turn in its lane;
        # there the low bits of d, keep - turn, lift turn to keep.
        d = (keep_x | guard) - turn_y
        ge = d & guard
        r0 = turn_y + (d & (ge - (ge >> top)))
        d = (keep_y | guard) - turn_x
        ge = d & guard
        r1 = turn_x + (d & (ge - (ge >> top)))
        rows[i] = r0
    cost0, cost1 = cap + n - 1 - r0, cap + n - 1 - r1
    best = min(cost0, 1 + cost1)
    if best > f:
        return None
    lane = (1 << w) - 1
    m = mask = 0 if cost0 == best else 1
    want = cap + n - 2 - (best - m)  # cost[i + 1, 0, b] is the flips left iff its lane holds want - i
    b0 = b = 0
    for i in range(n - 1):
        edge = edges[i] == "1"
        x = edge ^ m  # break added if m[i + 1] = 0
        b0 += edge
        lo = b0 - radius if b0 > radius else 0
        m = 0 if (rows[i + 1] >> ((b + x - lo) * w)) & lane == want - i else 1
        if m:
            want += 1
            mask |= 1 << (i + 1)
        b += x ^ m
    return mask


def _runs_reversal(value: int, n: int, targets: set[int]) -> int:
    """Fewest flips carrying the run count of the packed sequence into ``targets``, as a packed mask.

    The relabeled sequence breaks between positions i and i + 1 iff bit i
    of ``value ^ (value >> 1)`` differs from m[i] ^ m[i + 1], and b breaks
    make b + 1 runs.  ``cost[i, c, b]`` is the fewest flips among
    positions after i, given m[i] = c and b breaks before position i,
    that end on a target run count.  The forward pass takes bit 0
    wherever it still attains the optimum, which yields the smallest flip
    string among the fewest-flip masks.

    A mask with at most F flips has at most 2F transitions before any
    position, so it keeps the breaks there within 2F of the sequence's
    own count B(i), and the table keeps only the offsets b in
    B(i) - 2F..B(i) + 2F, clipped to 0..i: a band.  An optimum of at most
    F found in the band is the global one, and every fewest-flip mask
    lies in the band, so the tie-break holds too.  F starts at ⌈δ/2⌉,
    where δ is the distance from the run count to the nearest target: a
    flip moves the count by at most two, so no fewer flips reach a target.  F then doubles until
    :func:`_band_pass` finds the band's optimum at most F.
    """
    edges = format(value ^ (value >> 1), f"0{n}b")[:0:-1]  # edges[i] == "1": positions i and i + 1 differ
    total = edges.count("1")
    f = max(1, (min(abs(t - 1 - total) for t in targets) + 1) // 2)  # at least 1, so doubling moves it
    while (mask := _band_pass(edges, total, targets, f)) is None:
        f *= 2
    return mask


def find_flipping_mask(
    seq: BinarySequence,
    test: str,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
    minimize: bool = False,
) -> FlipSearchResult | None:
    """The fewest-flip mask under which the test's verdict reverses, if any.

    A reversal exists iff some statistic value carries the opposite
    verdict, since every value is reachable through some mask.  The
    targets are read off the rejected values alone, with no rejection
    set and no size built.  The mask returned has the fewest flips, ties
    broken by the lexicographically smallest flip string, at every
    length: the head count is solved in closed form, the run count by a
    banded dynamic program, and the result's ``method`` names which.
    ``minimize`` is still accepted but no longer selects anything; every
    result is guaranteed minimal.
    """
    alpha = as_probability(alpha)
    rejected = _rejected_values(test, seq.n, alpha, convention)
    n, value = seq.n, statistic(test).of(seq)
    if value in rejected:
        targets = set(statistic_domain(test, n)).difference(rejected)
    else:
        targets = set(rejected)
    if not targets:
        return None
    reverse = _runs_reversal if test == RUNS else _binomial_reversal
    mask = RelabelMask.from_int(reverse(seq.value, n, targets), n)
    audit = verdict_under_relabeling(seq, mask, test, alpha, convention)
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
