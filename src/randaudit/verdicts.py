"""Reject/not-reject verdicts for the runs and head-count tests.

Both tests sit behind one table, ``STATISTICS``, keyed by test name and
read through :func:`statistic`, the one place an unknown name is refused.
An entry holds the statistic of a packed sequence ``(value, n)``, its
tail rule and its offset ``low``: under the null, statistic - low is
Binomial(n - low, 1/2) (R - 1 for the run count R, the head count itself),
so 2^low * C(n - low, v - low) sequences attain each value v in low..n.
The entry also generates those sequences, for explicit rejection sets.

A verdict pairs an observed statistic with its exact tail probability
and a significance threshold.  The threshold is always an exact
rational; the comparison ``p <= alpha`` never touches floating point,
so boundary cases are unambiguous.

Tail selection for the runs test: the run-count law is symmetric about
(n+1)/2, so a count above the center is judged by its upper tail and a
count below by its lower tail.  At the center (odd n only) both tails
are equal by symmetry and the lower one is reported; the choice is
arbitrary but fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator

from .exact import (
    ENUMERATION_CAP,
    ONE_SIDED,
    CapExceededError,
    as_probability,
    binomial_count_between,
    binomial_tail,
    check_tail_length,
    runs_pvalue,
)
from .sequences import BinarySequence, runs_of

RUNS = "runs"
BINOMIAL = "binomial"
TESTS = (RUNS, BINOMIAL)

DEFAULT_ALPHA = Fraction(1, 20)

# An explicit rejection set lists at most this many sequences.  The count
# is the exact size's numerator, known before any sequence is built.
# Listing all 2^22 sequences of n = 22 (runs, alpha = 1/2) took 30 s and
# 2.2 GB.
LISTING_LIMIT = 1 << 16


@dataclass(frozen=True)
class TestVerdict:
    test: str
    statistic: int
    tail_used: str  # 'lower' | 'upper' | 'doubled'
    p: Fraction
    alpha: Fraction
    rejected: bool
    vocab: str

    def as_dict(self) -> dict:
        from .report import prob_dict

        return {
            "test": self.test,
            "statistic": self.statistic,
            "tail": self.tail_used,
            "p": prob_dict(self.p),
            "alpha": prob_dict(self.alpha),
            "rejected": self.rejected,
            "vocab": self.vocab,
        }


def _runs_tail(n: int, r: int, convention: str) -> tuple[str, Fraction]:
    """Tail and p-value for an observed run count; ``convention`` is unused."""
    tail = "upper" if 2 * r > n + 1 else "lower"
    return tail, runs_pvalue(n, r, tail)


def _with_ones(width: int, k: int) -> Iterator[int]:
    """Every int below 2^width with exactly k bits set."""
    for chosen in combinations(range(width), k):
        yield sum(1 << i for i in chosen)


def _with_runs(n: int, r: int) -> Iterator[int]:
    """Every packed length-n sequence with r runs.

    Bit i of a break mask marks a break between positions i + 1 and
    i + 2; choosing r - 1 of the n - 1 breaks and the first bit fixes the
    sequence, whose bit j is the first bit XOR the breaks below j.
    """
    full = (1 << n) - 1
    for breaks in _with_ones(n - 1, r - 1):
        value, shift = breaks << 1, 1
        while shift < n:  # prefix XOR toward the high bits
            value ^= value << shift
            shift <<= 1
        value &= full
        yield value  # first bit 0
        yield value ^ full  # first bit 1


@dataclass(frozen=True)
class Statistic:
    """One test's statistic and null law."""

    of: Callable[[int, int], int]  # the statistic of a packed (value, n)
    low: int  # statistic - low is Binomial(n - low, 1/2) under the null
    tail: Callable[[int, int, str], tuple[str, Fraction]]  # (n, value, convention) -> (tail, p)
    attaining: Callable[[int, int], Iterator[int]]  # (n, value) -> every packed sequence with that statistic


STATISTICS = {
    RUNS: Statistic(runs_of, 1, _runs_tail, _with_runs),
    BINOMIAL: Statistic(lambda value, n: value.bit_count(), 0, binomial_tail, _with_ones),
}


def statistic(test: str) -> Statistic:
    """The table entry for ``test``; unknown names are refused here."""
    try:
        return STATISTICS[test]
    except KeyError:
        raise ValueError(f"unknown test {test!r}; expected one of {TESTS}") from None


def judge(
    seq: BinarySequence,
    test: str,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
) -> TestVerdict:
    """Judge ``seq`` by the named test; ``convention`` applies to the head count."""
    alpha = as_probability(alpha)
    stat = statistic(test)
    value = stat.of(seq.value, seq.n)
    tail, p = stat.tail(seq.n, value, convention)
    return TestVerdict(test, value, tail, p, alpha, p <= alpha, seq.vocab)


def runs_test(seq: BinarySequence, alpha: Fraction = DEFAULT_ALPHA) -> TestVerdict:
    """Judge the observed run count against the exact null tails.

    A single-outcome sequence is permitted; its run count is forced, so
    p = 1 and nothing can be rejected.
    """
    return judge(seq, RUNS, alpha)


def binomial_test(
    seq: BinarySequence,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
) -> TestVerdict:
    """Judge the observed count of first-symbol outcomes."""
    return judge(seq, BINOMIAL, alpha, convention)


def statistic_domain(test: str, n: int) -> range:
    return range(statistic(test).low, n + 1)


def statistic_pvalue(test: str, n: int, value: int, convention: str = ONE_SIDED) -> tuple[str, Fraction]:
    """Tail and p-value a verdict would use for a given statistic value."""
    return statistic(test).tail(n, value, convention)


def statistic_count(test: str, n: int, value: int) -> int:
    """Number of length-n sequences whose statistic equals ``value``, by table lookup."""
    low = statistic(test).low
    check_tail_length(n)
    return binomial_count_between(n - low, value - low, value - low) << low


@dataclass(frozen=True)
class RejectionSet:
    """The statistic values rejected at a threshold, with exact mass."""

    test: str
    n: int
    alpha: Fraction
    convention: str | None
    statistic_values: tuple[int, ...]
    exact_size: Fraction  # total null probability of the rejected sequences
    sequences: tuple[BinarySequence, ...] | None = None

    def as_dict(self) -> dict:
        from .report import prob_dict

        payload = {
            "test": self.test,
            "n": self.n,
            "alpha": prob_dict(self.alpha),
            "statistic_values": list(self.statistic_values),
            "exact_size": prob_dict(self.exact_size),
        }
        if self.convention is not None:
            payload["convention"] = self.convention
        if self.sequences is not None:
            payload["sequences"] = [s.text() for s in self.sequences]
        return payload


def rejection_set(
    test: str,
    n: int,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
    include_sequences: bool = False,
    cap: int = ENUMERATION_CAP,
) -> RejectionSet:
    """All statistic values whose verdict at ``alpha`` is a rejection.

    The exact size is the null probability of attaining any rejected
    value.  With ``include_sequences`` the sequences themselves are
    listed in packed order, which requires n within the enumeration cap
    and at most LISTING_LIMIT of them; they are built from the rejected
    statistic values, so the work is proportional to the listing, not
    to 2^n.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    alpha = as_probability(alpha)
    stat = statistic(test)
    values = tuple(v for v in range(stat.low, n + 1) if stat.tail(n, v, convention)[1] <= alpha)
    mass = sum(statistic_count(test, n, v) for v in values)
    sequences = None
    if include_sequences:
        if n > cap:
            raise CapExceededError(f"explicit listing over 2^{n} sequences exceeds cap {cap}")
        if mass > LISTING_LIMIT:
            raise CapExceededError(f"explicit listing of {mass} sequences exceeds the limit {LISTING_LIMIT}")
        listed = sorted(x for v in values for x in stat.attaining(n, v))
        sequences = tuple(BinarySequence.from_int(x, n) for x in listed)
    return RejectionSet(
        test=test,
        n=n,
        alpha=alpha,
        convention=convention if test == BINOMIAL else None,
        statistic_values=values,
        exact_size=Fraction(mass, 1 << n),
        sequences=sequences,
    )
