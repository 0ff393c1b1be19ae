"""Exact null distributions of the run-count and head-count statistics.

Under the null model (two equiprobable symbols, independent trials)
every length-n sequence has probability 2^-n, so every tail probability
is a dyadic rational.  All computations here use exact integer and
Fraction arithmetic; decimals exist only as renderings.

Every count and tail goes through one count kernel,
:func:`binomial_count_between`, a lookup in one cached table: the prefix
sums of row m of Pascal's triangle, C(m, 0) + ... + C(m, j) for
j = 0..m, filled by the recurrence C(m, j+1) = C(m, j)*(m-j)/(j+1).  The
head count K of a length-n sequence is Binomial(n, 1/2), so it reads row
m = n.  The run count R has 2*C(n-1, r-1) sequences with exactly r runs
(choose which of the n-1 adjacent pairs are breaks, times 2 for the
first symbol), so R - 1 is Binomial(n-1, 1/2) and it reads row m = n - 1.
A verdict-level call reads both rows, so the two most recently used
tables are kept.

A table holds about m^2 bits: 0.54 MB and 2 ms to build at m = 2047,
3 MB and 10 ms at m = 5000.  Exact tails refuse lengths above
TAIL_LENGTH_LIMIT = 5000 with CapExceededError, before anything is
allocated.

The enumeration route tallies the statistic over all 2^n sequences and
is the oracle the table is validated against in the tests.  It is the
only code here that uses numpy, and it imports numpy itself, so the
table route never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

# Exact probabilities are plain Fractions; the alias marks intent.
ExactProb = Fraction

# Tail conventions for the head-count test.
ONE_SIDED = "paper-one-sided"
TWO_SIDED_DOUBLED = "two-sided-doubled"
CONVENTIONS = (ONE_SIDED, TWO_SIDED_DOUBLED)

# Full enumeration of {0,1}^n is refused above this length.
ENUMERATION_CAP = 24

# Enumeration works through 2^16 sequences at a time, so its arrays stay
# near 256 KiB each and a process's peak memory does not grow with n.
_CHUNK = 1 << 16
_KERNEL_BITS = 32  # enumeration packs each sequence in a uint32

# Exact tails are refused above this length.  Two cached tables then
# take 6 MB, and 2^n has 1,506 decimal digits, within Python's 4,300-digit
# limit on int-to-str conversion that JSON reports of counts rely on.  The
# largest report, the exact distribution table, takes about 6 s and
# 220 MB to render 44 MB of decimals at this length; at 10,000 it took
# 37 s and 790 MB.
TAIL_LENGTH_LIMIT = 5000
# A verdict-level call reads the head-count row n and the run-count row n - 1.
TAIL_TABLES_CACHED = 2


class CapExceededError(ValueError):
    """An exhaustive computation was requested beyond its configured cap."""


def as_probability(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact Fraction and require it to lie in [0, 1]."""
    p = Fraction(value)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def parse_probability(text: str) -> Fraction:
    """Parse ``1/20`` or ``0.05`` style text to an exact probability.

    Decimal strings are expanded exactly (0.05 becomes 1/20), never
    routed through floating point.
    """
    try:
        p = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse probability from {text!r}: {exc}") from None
    return as_probability(p)


def decimal_string(p: Fraction, places: int = 3) -> str:
    """Round to ``places`` decimal digits, exactly (ties to even)."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    if p < 0:
        raise ValueError("negative probabilities are not rendered")
    scale = 10**places
    q = round(p * scale)  # Fraction.__round__ is exact
    if places == 0:
        return str(q)
    return f"{q // scale}.{q % scale:0{places}d}"


def exact_decimal_string(p: Fraction) -> str:
    """Exact terminating decimal expansion when one exists.

    Dyadic probabilities always terminate.  Non-terminating values fall
    back to 12 rounded places.
    """
    den = p.denominator
    twos = (den & -den).bit_length() - 1
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return decimal_string(p, places=12)
    k = max(twos, fives)
    if k == 0:
        return str(p.numerator)
    # p * 10^k is an integer, as the denominator is 2^twos * 5^fives.
    # Decimal renders it at any length; str() of an int refuses more
    # than 4,300 digits.
    scaled = p.numerator * 2 ** (k - twos) * 5 ** (k - fives)
    digits = str(Decimal(scaled)).rjust(k + 1, "0")
    text = f"{digits[:-k]}.{digits[-k:]}"
    return text.rstrip("0").rstrip(".")


def sequence_probability(n: int) -> Fraction:
    """Probability 2^-n of any single length-n sequence under the null."""
    if n < 1:
        raise ValueError("length must be at least 1")
    return Fraction(1, 1 << n)


def check_tail_length(n: int) -> None:
    """Refuse a length outside 1..TAIL_LENGTH_LIMIT before any table is built."""
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > TAIL_LENGTH_LIMIT:
        raise CapExceededError(f"exact tails at length {n} exceed the limit {TAIL_LENGTH_LIMIT}")


@lru_cache(maxsize=TAIL_TABLES_CACHED)
def _binomial_prefix_sums(m: int) -> tuple[int, ...]:
    """``sums[j]`` = C(m, 0) + ... + C(m, j - 1), for j = 0..m + 1."""
    sums = [0] * (m + 2)
    c = 1
    for j in range(m + 1):
        sums[j + 1] = sums[j] + c
        c = c * (m - j) // (j + 1)
    return tuple(sums)


def binomial_count_between(m: int, lo: int, hi: int) -> int:
    """C(m, lo) + ... + C(m, hi), from row m of the cached table; m is at most TAIL_LENGTH_LIMIT."""
    if m > TAIL_LENGTH_LIMIT:
        raise CapExceededError(f"binomial row {m} exceeds the limit {TAIL_LENGTH_LIMIT}")
    if not 0 <= lo <= hi <= m:
        raise ValueError(f"count range {lo}..{hi} outside 0..{m}")
    sums = _binomial_prefix_sums(m)
    return sums[hi + 1] - sums[lo]


def runs_count_exact(n: int, r: int) -> int:
    """Number of length-n binary sequences with exactly r runs.

    2*C(n-1, r-1), read from the table; the enumeration oracle below
    certifies it.
    """
    if not 1 <= r <= n:
        raise ValueError(f"run count {r} out of range 1..{n}")
    check_tail_length(n)
    return 2 * binomial_count_between(n - 1, r - 1, r - 1)


@dataclass(frozen=True)
class RunsDistribution:
    """Exact counts of sequences by run count, for one length n."""

    n: int
    counts: tuple[int, ...]  # counts[r - 1] = number of sequences with r runs

    @property
    def total(self) -> int:
        return 1 << self.n

    def count(self, r: int) -> int:
        if not 1 <= r <= self.n:
            raise ValueError(f"run count {r} out of range 1..{self.n}")
        return self.counts[r - 1]

    def pmf(self, r: int) -> Fraction:
        return Fraction(self.count(r), self.total)

    def to_csv(self) -> str:
        lines = ["r,count,pmf-numerator,pmf-denominator,pmf-decimal"]
        for r in range(1, self.n + 1):
            p = self.pmf(r)
            lines.append(
                f"{r},{self.count(r)},{p.numerator},{p.denominator},{exact_decimal_string(p)}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        rows = []
        for r in range(1, self.n + 1):
            p = self.pmf(r)
            rows.append(
                {
                    "r": r,
                    "count": self.count(r),
                    "pmf": {
                        "num": p.numerator,
                        "den": p.denominator,
                        "decimal": exact_decimal_string(p),
                    },
                }
            )
        return {"n": self.n, "total": self.total, "rows": rows}


def runs_distribution(n: int) -> RunsDistribution:
    """Run-count distribution from the table, for n up to TAIL_LENGTH_LIMIT."""
    check_tail_length(n)
    return RunsDistribution(n, tuple(2 * binomial_count_between(n - 1, j, j) for j in range(n)))


def enumerate_runs_distribution(n: int, cap: int = ENUMERATION_CAP) -> RunsDistribution:
    """Run-count distribution by tallying the statistic over all 2^n sequences.

    This is the oracle route: independent of the table above.  The
    run count of a packed sequence x is one more than the number of set
    bits in ``x ^ (x >> 1)`` restricted to the n-1 adjacent pairs.  The
    kernel packs sequences in uint32, so n above 32 is refused whatever
    the cap.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    limit = min(cap, _KERNEL_BITS)
    if n > limit:
        raise CapExceededError(f"enumeration over 2^{n} sequences exceeds cap {limit}")
    import numpy as np

    counts = np.zeros(n + 1, dtype=np.int64)
    pair_mask = (1 << (n - 1)) - 1
    for start in range(0, 1 << n, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.uint32)
        r = np.bitwise_count((x ^ (x >> np.uint32(1))) & np.uint32(pair_mask)) + 1
        counts += np.bincount(r, minlength=n + 1)
    return RunsDistribution(n, tuple(int(c) for c in counts[1:]))


def runs_pvalue(n: int, r: int, tail: str) -> Fraction:
    """Exact tail probability of the run count under the uniform null.

    ``lower`` gives P(R <= r), ``upper`` gives P(R >= r); both are one
    table lookup.
    """
    if not 1 <= r <= n:
        raise ValueError(f"run count {r} out of range 1..{n}")
    check_tail_length(n)
    if tail == "lower":
        return Fraction(2 * binomial_count_between(n - 1, 0, r - 1), 1 << n)
    if tail == "upper":
        return Fraction(2 * binomial_count_between(n - 1, r - 1, n - 1), 1 << n)
    raise ValueError(f"unknown tail {tail!r}; expected 'lower' or 'upper'")


def binomial_tail(n: int, k: int, convention: str = ONE_SIDED) -> tuple[str, Fraction]:
    """Tail name and exact tail probability of the count of first-symbol outcomes.

    Under ``paper-one-sided`` this is ``upper``, P(K >= k), when k >= n/2
    and ``lower``, P(K <= k), otherwise, for K binomial(n, 1/2).  Under
    ``two-sided-doubled`` it is ``doubled``: the one-sided value doubled
    and clipped at 1.
    """
    if not 0 <= k <= n:
        raise ValueError(f"count {k} out of range 0..{n}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    check_tail_length(n)
    tail, lo, hi = ("upper", k, n) if 2 * k >= n else ("lower", 0, k)
    p = Fraction(binomial_count_between(n, lo, hi), 1 << n)
    if convention == TWO_SIDED_DOUBLED:
        return "doubled", min(Fraction(1), 2 * p)
    return tail, p


def binomial_pvalue(n: int, k: int, convention: str = ONE_SIDED) -> Fraction:
    """The p-value of :func:`binomial_tail`."""
    return binomial_tail(n, k, convention)[1]
