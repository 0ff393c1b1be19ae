"""The two tests' null laws, and reject/not-reject verdicts from them.

Both tests sit behind one table, ``STATISTICS``, keyed by test name and
read through :func:`statistic`, the one place unknown names are refused.
An entry holds the statistic (:func:`count_runs` or :func:`count_ones`), its
tail rule and its offset ``low``: under the null, statistic - low is
Binomial(n - low, 1/2) (R - 1 for the run count R, the head count itself;
Mood 1940), so 2^low * C(n - low, v - low) sequences attain each value v
in low..n.  Every count, tail and distribution below is read from that
law by :func:`~randaudit.exact.binomial_count_between`, with the entry's
``low``; it refuses a length beyond TAIL_LENGTH_LIMIT, or a range
outside the domain, before any table is built.  Both laws at length n
read the same cached row, row n - 1 of Pascal's triangle, so a verdict
pair at a new length builds one row.  The entry also generates the
sequences attaining a value, for explicit rejection sets.

Every tail is a count of sequences over 2^n: an entry's tail rule
returns the tail's name and count, the doubled head-count tail clipped
on counts, min(2 c, 2^n).  Counts stay ints until a record exposes a
probability (``TestVerdict.p``, ``RejectionSet.exact_size``, the
spectrum's keys, ``RunsDistribution.pmf``), where
:func:`~randaudit.exact.dyadic` builds the reduced Fraction without a
gcd: a rejection set builds one, a spectrum one per distinct tail.

A verdict pairs an observed statistic with its exact tail probability
and a significance threshold, and derives whether it rejects from the
two.  The threshold is always an exact rational, and ``p <= alpha`` is
decided on ints, never in floating point, so boundary cases are
unambiguous: as ``p.numerator * alpha.denominator <= alpha.numerator *
p.denominator`` for a verdict, and as ``count * alpha.denominator <=
alpha.numerator << n`` for each value that a rejection set or a flip
search scans.

Tail selection for the runs test: the run-count law is symmetric about
(n+1)/2, so a count above the center is judged by its upper tail and a
count below by its lower tail.  At the center (odd n only) both tails
are equal by symmetry and the lower one is reported; the choice is
arbitrary but fixed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, NamedTuple

from .exact import (
    CapExceededError,
    RunsDistribution,
    as_probability,
    binomial_count_between,
    check_tail_length,
    dyadic,
    prob_dict,
)
from .sequences import BinarySequence, count_ones, count_runs

__all__ = [
    "BINOMIAL",
    "CONVENTIONS",
    "DEFAULT_ALPHA",
    "LISTING_LIMIT",
    "ONE_SIDED",
    "RUNS",
    "TWO_SIDED_DOUBLED",
    "RejectionSet",
    "TestVerdict",
    "binomial_test",
    "pvalue_spectrum",
    "rejection_set",
    "runs_distribution",
    "runs_pvalue",
    "runs_test",
    "statistic_count",
    "statistic_domain",
    "statistic_pvalue",
]

RUNS = "runs"
BINOMIAL = "binomial"

# Tail conventions for the head-count test.
ONE_SIDED = "paper-one-sided"
TWO_SIDED_DOUBLED = "two-sided-doubled"
CONVENTIONS = (ONE_SIDED, TWO_SIDED_DOUBLED)

DEFAULT_ALPHA = Fraction(1, 20)

# An explicit rejection set lists at most this many sequences.  The count
# is the exact size's numerator, known before any sequence is built.
# Listing all 2^22 sequences of n = 22 (runs, alpha = 1/2) took 30 s and
# 2.2 GB.
LISTING_LIMIT = 1 << 16
# A listing also holds at most this many symbols, 2^16 sequences of
# length 24: 20,000 of length 5000 took 8.8 s and 418 MB to list and render.
_LISTING_SYMBOL_LIMIT = LISTING_LIMIT * 24


class TestVerdict(NamedTuple):
    test: str
    statistic: int
    tail_used: str  # 'lower' | 'upper' | 'doubled'
    p: Fraction
    alpha: Fraction
    vocab: str

    @property
    def rejected(self) -> bool:
        """``p <= alpha``, compared exactly as the cross products of their numerators and denominators."""
        p, alpha = self.p, self.alpha
        return p.numerator * alpha.denominator <= alpha.numerator * p.denominator

    def as_dict(self) -> dict:
        return {
            "test": self.test,
            "statistic": self.statistic,
            "tail": self.tail_used,
            "p": prob_dict(self.p),
            "alpha": prob_dict(self.alpha),
            "rejected": self.rejected,
            "vocab": self.vocab,
        }


def runs_pvalue(n: int, r: int, tail: str) -> Fraction:
    """Exact tail probability of the run count: P(R <= r) for ``lower``, P(R >= r) for ``upper``."""
    if tail == "lower":
        return dyadic(binomial_count_between(n, 1, r, 1), n)
    if tail == "upper":
        return dyadic(binomial_count_between(n, r, n, 1), n)
    raise ValueError(f"unknown tail {tail!r}; expected 'lower' or 'upper'")


def runs_distribution(n: int) -> RunsDistribution:
    """Run-count distribution from the table, for n up to TAIL_LENGTH_LIMIT."""
    check_tail_length(n)
    return RunsDistribution(tuple(binomial_count_between(n, r, r, 1) for r in range(1, n + 1)))


def _runs_tail(n: int, r: int, convention: str) -> tuple[str, int]:
    """Tail name and count for an observed run count; every convention gives the same."""
    if 2 * r > n + 1:
        return "upper", binomial_count_between(n, r, n, 1)
    return "lower", binomial_count_between(n, 1, r, 1)


def _binomial_tail(n: int, k: int, convention: str) -> tuple[str, int]:
    """Tail name and count for the count k of first-symbol outcomes, K binomial(n, 1/2) under the null.

    ``upper`` counts K >= k when k >= n/2 and ``lower`` K <= k otherwise;
    ``two-sided-doubled`` reports ``doubled``, that count doubled and clipped at 2^n.
    """
    tail, count = (
        ("upper", binomial_count_between(n, k, n, 0)) if 2 * k >= n else ("lower", binomial_count_between(n, 0, k, 0))
    )
    if convention == TWO_SIDED_DOUBLED:
        return "doubled", min(2 * count, 1 << n)
    return tail, count


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


class Statistic(NamedTuple):
    """One test's statistic and null law."""

    of: Callable[[BinarySequence], int]  # the statistic of a sequence
    low: int  # statistic - low is Binomial(n - low, 1/2) under the null
    tail: Callable[[int, int, str], tuple[str, int]]  # (n, value, convention) -> (tail, sequences in it)
    attaining: Callable[[int, int], Iterator[int]]  # (n, value) -> every packed sequence with that statistic


STATISTICS = {
    RUNS: Statistic(count_runs, 1, _runs_tail, _with_runs),
    BINOMIAL: Statistic(count_ones, 0, _binomial_tail, _with_ones),
}
TESTS = tuple(STATISTICS)


def statistic(test: str, convention: str = ONE_SIDED) -> Statistic:
    """The table entry for ``test``, with ``convention`` checked too; an unknown test is named first."""
    try:
        stat = STATISTICS[test]
    except KeyError:
        raise ValueError(f"unknown test {test!r}; expected one of {TESTS}") from None
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    return stat


def judge(
    seq: BinarySequence,
    test: str,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
) -> TestVerdict:
    """Judge ``seq`` by the named test; ``convention`` applies to the head count."""
    alpha = as_probability(alpha)
    stat = statistic(test, convention)
    n, value = seq.n, stat.of(seq)
    tail, count = stat.tail(n, value, convention)
    # Every runs p goes through runs_pvalue, which bench/test_bench.py patches to inject a wrong p.
    p = runs_pvalue(n, value, tail) if test == RUNS else dyadic(count, n)
    return TestVerdict(test, value, tail, p, alpha, seq.vocab)


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
    tail, count = statistic(test, convention).tail(n, value, convention)
    return tail, dyadic(count, n)


def statistic_count(test: str, n: int, value: int) -> int:
    """Number of length-n sequences whose statistic equals ``value``, by table lookup."""
    return binomial_count_between(n, value, value, statistic(test).low)


def pvalue_spectrum(seq: BinarySequence, test: str, convention: str = ONE_SIDED) -> Counter:
    """Multiset of p-values of the relabeled sequence over all 2^n masks.

    Exactly one mask carries ``seq`` to each sequence of {0,1}^n, so the
    count for a statistic value is its null count, 2*C(n-1, r-1) runs or
    C(n, k) heads, whatever ``seq`` is: the spectrum is the null law of
    the p-value.  Distinct statistic values may share a p-value (the runs
    tails are symmetric), so the tally is keyed on the tail's count and
    one Fraction is built per distinct p-value.
    """
    n, stat = seq.n, statistic(test, convention)
    tally: dict[int, int] = {}
    for v in statistic_domain(test, n):
        count = stat.tail(n, v, convention)[1]
        tally[count] = tally.get(count, 0) + binomial_count_between(n, v, v, stat.low)
    return Counter({dyadic(count, n): sequences for count, sequences in tally.items()})


class RejectionSet(NamedTuple):
    """The statistic values rejected at a threshold, with exact mass."""

    test: str
    n: int
    alpha: Fraction
    convention: str | None
    statistic_values: tuple[int, ...]
    exact_size: Fraction  # total null probability of the rejected sequences
    sequences: tuple[BinarySequence, ...] | None = None

    def as_dict(self) -> dict:
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


def _rejected_values(test: str, n: int, alpha: Fraction, convention: str) -> tuple[int, ...]:
    """The statistic values a verdict at the probability ``alpha`` rejects, in increasing order.

    Every value of the domain is decided by its tail count as ``count *
    alpha.denominator <= alpha.numerator << n``, on ints; a length beyond
    TAIL_LENGTH_LIMIT is refused first.
    """
    check_tail_length(n)
    stat = statistic(test, convention)
    den, bound = alpha.denominator, alpha.numerator << n  # count / 2^n <= alpha, on ints
    return tuple(v for v in range(stat.low, n + 1) if stat.tail(n, v, convention)[1] * den <= bound)


def rejection_set(
    test: str,
    n: int,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
    include_sequences: bool = False,
) -> RejectionSet:
    """All statistic values whose verdict at ``alpha`` is a rejection.

    The exact size is the null probability of attaining any rejected
    value.  With ``include_sequences`` the sequences themselves are
    listed in packed order, at most LISTING_LIMIT of them and at most
    LISTING_LIMIT * 24 symbols; they are built from the rejected
    statistic values, so the work is proportional to the listing, not
    to 2^n.
    """
    alpha = as_probability(alpha)
    values = _rejected_values(test, n, alpha, convention)
    stat = statistic(test)
    mass = sum(binomial_count_between(n, v, v, stat.low) for v in values)
    sequences = None
    if include_sequences:
        if mass > LISTING_LIMIT:
            raise CapExceededError(f"explicit listing of {mass} sequences exceeds the limit {LISTING_LIMIT}")
        if mass * n > _LISTING_SYMBOL_LIMIT:
            raise CapExceededError(f"explicit listing of {mass * n} symbols exceeds the limit {_LISTING_SYMBOL_LIMIT}")
        listed = sorted(x for v in values for x in stat.attaining(n, v))
        sequences = tuple(BinarySequence.from_int(x, n) for x in listed)
    return RejectionSet(
        test=test,
        n=n,
        alpha=alpha,
        convention=convention if test == BINOMIAL else None,
        statistic_values=values,
        exact_size=dyadic(mass, n),
        sequences=sequences,
    )
