"""Reject/not-reject verdicts for the runs and head-count tests.

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

from .exact import (
    CONVENTIONS,
    ENUMERATION_CAP,
    ONE_SIDED,
    TWO_SIDED_DOUBLED,
    CapExceededError,
    as_probability,
    binomial_pvalue,
    heads_count_between,
    runs_count_between,
    runs_pvalue,
)
from .sequences import BinarySequence, count_ones, count_runs

RUNS = "runs"
BINOMIAL = "binomial"
TESTS = (RUNS, BINOMIAL)

DEFAULT_ALPHA = Fraction(1, 20)


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


def _runs_tail_choice(n: int, r: int) -> tuple[str, Fraction]:
    """Tail and p-value for an observed run count."""
    center = Fraction(n + 1, 2)
    if r > center:
        return "upper", runs_pvalue(n, r, "upper")
    if r < center:
        return "lower", runs_pvalue(n, r, "lower")
    lower = runs_pvalue(n, r, "lower")
    upper = runs_pvalue(n, r, "upper")
    # Symmetry makes the two center tails equal; report the lower one.
    return ("lower", lower) if lower <= upper else ("upper", upper)


def _binomial_tail_choice(n: int, k: int, convention: str) -> tuple[str, Fraction]:
    p = binomial_pvalue(n, k, convention)
    if convention == TWO_SIDED_DOUBLED:
        return "doubled", p
    return ("upper" if 2 * k >= n else "lower"), p


def runs_test(seq: BinarySequence, alpha: Fraction = DEFAULT_ALPHA) -> TestVerdict:
    """Judge the observed run count against the exact null tails.

    A single-outcome sequence is permitted; its run count is forced, so
    p = 1 and nothing can be rejected.
    """
    alpha = as_probability(alpha)
    r = count_runs(seq)
    tail, p = _runs_tail_choice(seq.n, r)
    return TestVerdict(RUNS, r, tail, p, alpha, p <= alpha, seq.vocab)


def binomial_test(
    seq: BinarySequence,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
) -> TestVerdict:
    """Judge the observed count of first-symbol outcomes."""
    alpha = as_probability(alpha)
    k = count_ones(seq)
    tail, p = _binomial_tail_choice(seq.n, k, convention)
    return TestVerdict(BINOMIAL, k, tail, p, alpha, p <= alpha, seq.vocab)


def statistic_domain(test: str, n: int) -> range:
    if test == RUNS:
        return range(1, n + 1)
    if test == BINOMIAL:
        return range(0, n + 1)
    raise ValueError(f"unknown test {test!r}; expected one of {TESTS}")


def statistic_pvalue(test: str, n: int, value: int, convention: str = ONE_SIDED) -> tuple[str, Fraction]:
    """Tail and p-value a verdict would use for a given statistic value."""
    if test == RUNS:
        if not 1 <= value <= n:
            raise ValueError(f"run count {value} out of range 1..{n}")
        return _runs_tail_choice(n, value)
    if test == BINOMIAL:
        return _binomial_tail_choice(n, value, convention)
    raise ValueError(f"unknown test {test!r}; expected one of {TESTS}")


def statistic_count(test: str, n: int, value: int) -> int:
    """Number of length-n sequences whose statistic equals ``value``, by table lookup."""
    if test == RUNS:
        return runs_count_between(n, value, value)
    if test == BINOMIAL:
        return heads_count_between(n, value, value)
    raise ValueError(f"unknown test {test!r}; expected one of {TESTS}")


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
    listed, which requires n within the enumeration cap; the statistic
    is computed on each packed candidate and only the rejected ones
    become sequences.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    alpha = as_probability(alpha)
    if test == BINOMIAL and convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    values = tuple(
        v for v in statistic_domain(test, n) if statistic_pvalue(test, n, v, convention)[1] <= alpha
    )
    mass = sum(statistic_count(test, n, v) for v in values)
    sequences = None
    if include_sequences:
        if n > cap:
            raise CapExceededError(f"explicit listing over 2^{n} sequences exceeds cap {cap}")
        wanted = frozenset(values)
        if test == RUNS:
            pairs = (1 << (n - 1)) - 1
            candidates = (x for x in range(1 << n) if ((x ^ (x >> 1)) & pairs).bit_count() + 1 in wanted)
        else:
            candidates = (x for x in range(1 << n) if x.bit_count() in wanted)
        sequences = tuple(BinarySequence.from_int(x, n) for x in candidates)
    return RejectionSet(
        test=test,
        n=n,
        alpha=alpha,
        convention=convention if test == BINOMIAL else None,
        statistic_values=values,
        exact_size=Fraction(mass, 1 << n),
        sequences=sequences,
    )
