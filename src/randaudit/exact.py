"""Exact binomial prefix sums, exact probabilities and their renderings.

Under the null model (two equiprobable symbols, independent trials)
every length-n sequence has probability 2^-n, so every tail probability
is a dyadic rational.  All computations here use exact integer and
Fraction arithmetic; decimals exist only as renderings.  The null laws
themselves, and every count and tail read from them, live in
:mod:`randaudit.verdicts`.

Every count is a lookup in one cached table, read by
:func:`binomial_count_between`: the prefix sums S(j) = C(m, 0) + ... +
C(m, j - 1) of row m of Pascal's triangle.  A count at length n reads row
m = n - 1 alone.  Its law is low + Binomial(n - low, 1/2) for low 0 or 1,
and by Pascal's rule C(m, v - 1) + C(m, v - low) outcomes attain the
value v (2 C(m, v - 1) for low = 1, C(n, v) for low = 0), so a count over
lo..hi is four prefix sums, S(hi) + S(hi + 1 - low) - S(lo - 1) -
S(lo - low).  Each row ends in two fixed entries, S(m + 2) = 2^m and
S(-1) = 0, the latter stored last, so no read branches or clamps at an
end of the law.  The rows of the two most recent lengths are kept.

A row starts at its centre, where S(m//2 + 1) is 2^(m-1) for odd m and
(2^m + C(m, m/2)) / 2 for even m, and is filled outward only as far as a
query reaches, both halves at once since S(j) + S(m + 1 - j) = 2^m.  The
observed statistic of a typical sequence lies within about sqrt(m) of
the centre, so a verdict at a new length costs the centre coefficient
and a few dozen steps, and a query at an end of a law fills the whole
row, m/2 steps.  Exact tails refuse lengths above TAIL_LENGTH_LIMIT =
5000 with CapExceededError, before anything is allocated.

The centre coefficients C(m, m//2) come from one shared table, grown
from its last entry to the longest row a process asks for by
C(2k + 1, k) = C(2k, k) (2k + 1) / (k + 1) and C(2k + 2, k + 1) =
2 C(2k + 1, k): one multiply and exact divide by a small int, or one
shift, per length.  Grown to m = 2047, the table and its ints take
about 0.35 MB (``sys.getsizeof``) and 0.7 ms of one-time work; grown to
the limit, about 1.8 MB and 3 ms.  A row built again after it left the
two-row cache reads its centre from the table.

Every probability built here is a count over 2^n, and :func:`dyadic`
builds it: shifting out the count's trailing zeros gives the reduced
pair, and a private constructor of ``fractions`` skips the gcd that
``Fraction(count, 1 << n)`` would take.  :func:`as_probability` passes
a Fraction through and checks its range on ints.

The enumeration route tallies the run count over all 2^n sequences and
is the oracle the table is validated against in the tests.  It runs on
the bit-sliced column tally that ``simulate`` counts its rejections
with, so the package needs nothing beyond the standard library.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

__all__ = [
    "ENUMERATION_CAP",
    "CapExceededError",
    "TAIL_LENGTH_LIMIT",
    "RunsDistribution",
    "as_probability",
    "decimal_string",
    "enumerate_runs_distribution",
    "exact_decimal_string",
    "parse_probability",
    "parse_rational",
]

# Full enumeration of {0,1}^n is refused above this length, where it
# takes about 1 ms over 2^10 chunks; each length above doubles the chunks.
ENUMERATION_CAP = 24

# Enumeration tallies 2^14 sequences at a time, one per lane of a 2 KiB
# plane.  Over n = 16..22 a call took 0.19 ms on average, against 0.22 ms
# with 2^13 lanes, 0.25 ms with 2^15 and 0.42 ms with 2^16: fewer lanes
# make the two tallies cheaper and the loop over chunks longer.
_CHUNK = 1 << 14

# Exact tails are refused above this length.  Two full cached rows then
# take 6 MB, and 2^n has 1,506 decimal digits, within Python's 4,300-digit
# limit on int-to-str conversion that JSON reports of counts rely on.  The
# largest report, the exact distribution table, takes about 3.8 s and a
# 179 MB peak RSS as a `python -m randaudit distribution --n 5000` process
# writing 44 MB of decimals (2-vCPU x86_64, Python 3.11); with the limit
# lifted to 10,000 it took 25 s and 535 MB to write 174 MB.
TAIL_LENGTH_LIMIT = 5000
# Rows are kept for the two most recent lengths, one row per length.  A row
# is kept partly filled and extended in place, so a later query at the same
# length pays only for the entries it adds.
TAIL_TABLES_CACHED = 2


class CapExceededError(ValueError):
    """An exhaustive computation was requested beyond its configured cap."""


def as_probability(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact Fraction and require it to lie in [0, 1]; text is read by :func:`parse_rational`.

    A Fraction is returned as it is.  The range is checked on its
    numerator and denominator as ints.
    """
    if type(value) is Fraction:
        p = value
    else:
        p = parse_rational(value, "probability") if isinstance(value, str) else Fraction(value)
    if not 0 <= p.numerator <= p.denominator:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def _coprime_route() -> Callable[[int, int], Fraction]:
    """The cheapest way this Python has to build a Fraction from a coprime pair with a positive denominator.

    Both fast routes are private to ``fractions``: ``_from_coprime_ints``
    from Python 3.12, the ``_normalize=False`` keyword up to 3.11.  A
    Python with neither gets ``Fraction`` itself, which reduces by a gcd.
    """
    route = getattr(Fraction, "_from_coprime_ints", None)
    if route is not None:
        return route
    try:
        Fraction(1, 2, _normalize=False)
    except TypeError:
        return Fraction
    return lambda num, den: Fraction(num, den, _normalize=False)


_from_coprime = _coprime_route()
_ZERO = Fraction(0)


def dyadic(count: int, n: int) -> Fraction:
    """count / 2^n as a reduced Fraction, for count >= 0 and n >= 0.

    Every null probability is a count over 2^n.  Shifting out the
    count's trailing zeros (at most n of them) leaves a coprime pair, so
    no gcd is taken.
    """
    if not count:
        return _ZERO
    shift = min((count & -count).bit_length() - 1, n)
    return _from_coprime(count >> shift, 1 << (n - shift))


# The exponent of a decimal such as ``1e-9``, in the digit classes
# ``Fraction`` itself reads: any Unicode decimal digit, and underscores.
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """Parse ``3/4``, ``0.05``, ``1e-9`` or ``1/2^985`` style text to an exact Fraction.

    Reads everything ``Fraction`` reads, exactly, never through floating
    point (0.05 becomes 1/20).  A dyadic ``<int>/2^<k>`` is read for
    0 <= k <= TAIL_LENGTH_LIMIT, and a decimal exponent e for
    |e| <= TAIL_LENGTH_LIMIT, so a huge power is never built.  ``what``
    names the value in the error message.
    """
    stripped = text.strip()
    num, dyadic, power = stripped.partition("/2^")
    try:
        if dyadic and num.isdecimal() and power.isdecimal():
            if int(power) > TAIL_LENGTH_LIMIT:
                raise ValueError(f"power of two above 2^{TAIL_LENGTH_LIMIT}")
            return Fraction(int(num), 1 << int(power))
        exponent = _EXPONENT.search(stripped)
        if exponent and abs(int(exponent[1])) > TAIL_LENGTH_LIMIT:
            raise ValueError(f"decimal exponent of magnitude above {TAIL_LENGTH_LIMIT}")
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {what} from {text!r}: {exc}") from None


def parse_probability(text: str) -> Fraction:
    """Parse text as :func:`parse_rational` does and require it to lie in [0, 1].

    A probability whose denominator, and so its numerator, has more
    decimal digits than ``sys.get_int_max_str_digits()`` allows (0: no
    limit) is refused here, as a report could not render it.
    """
    p = as_probability(text)
    limit = sys.get_int_max_str_digits()
    # A denominator of at most 3 * limit bits is below 8^limit, so the power of ten is built only near the limit.
    if limit and p.denominator.bit_length() > 3 * limit and p.denominator >= 10**limit:
        raise ValueError(f"cannot parse probability from {text!r}: denominator of more than {limit} digits")
    return p


def decimal_string(p: Fraction, places: int = 3) -> str:
    """Round to ``places`` decimal digits, exactly (ties to even)."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    if p.numerator < 0:
        raise ValueError("negative probabilities are not rendered")
    scale = 10**places
    den = p.denominator
    q, r = divmod(p.numerator * scale, den)
    if 2 * r > den or (2 * r == den and q & 1):  # round half to even
        q += 1
    if places == 0:
        return str(q)
    return f"{q // scale}.{q % scale:0{places}d}"


def prob_dict(p: Fraction) -> dict:
    """An exact probability as its numerator, denominator and 3-place decimal."""
    return {"num": p.numerator, "den": p.denominator, "decimal": decimal_string(p)}


def exact_decimal_string(p: Fraction) -> str:
    """Exact terminating decimal expansion when one exists.

    Dyadic probabilities always terminate.  Non-terminating values fall
    back to 12 rounded places.
    """
    if p.numerator < 0:
        raise ValueError("negative probabilities are not rendered")
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


def check_tail_length(n: int) -> None:
    """Refuse a length outside 1..TAIL_LENGTH_LIMIT before any table is built."""
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > TAIL_LENGTH_LIMIT:
        raise CapExceededError(f"exact tails at length {n} exceed the limit {TAIL_LENGTH_LIMIT}")


# C(m, m//2) for m = 0..len - 1: empty until the first row is built, then
# grown to the longest row asked for and published whole in one assignment,
# so a concurrent reader sees the old table or the new one.  A table
# published late by a racing thread is shorter, never wrong.
_centres: tuple[int, ...] = ()


def _central_binomial(m: int) -> int:
    """C(m, m//2), for 0 <= m <= TAIL_LENGTH_LIMIT, from the shared table of centres."""
    global _centres
    centres = _centres
    if m < len(centres):
        return centres[m]
    grown = list(centres) or [1]
    c = grown[-1]
    for j in range(len(grown), m + 1):
        # C(2k + 1, k) = C(2k, k) (2k + 1) / (k + 1), and C(2k + 2, k + 1) = 2 C(2k + 1, k).
        c = c * j // (j + 1 >> 1) if j & 1 else c << 1
        grown.append(c)
    _centres = tuple(grown)
    return c


class _PrefixRow:
    """Prefix sums of row m of Pascal's triangle, filled outward from the centre.

    ``sums[j]`` = C(m, 0) + ... + C(m, j - 1), for j = 0..m + 1; an entry
    not yet filled is None.  Two fixed entries follow: ``sums[m + 2]`` =
    S(m + 2) = 2^m and, last so that ``sums[-1]`` reads it, S(-1) = 0.
    ``edge`` is ``(h, C(m, h))``: every entry from m + 1 - h to h is
    filled.  It is published as one tuple after the entries it covers are
    written, so a thread that extends the row from a stale edge writes only
    values that are already correct, and an edge published late costs at
    most a refill.
    """

    __slots__ = ("m", "sums", "edge")

    def __init__(self, m: int) -> None:
        total = 1 << m
        half = m // 2
        middle = _central_binomial(m)
        sums: list[int | None] = [None] * (m + 4)
        sums[0], sums[m + 1], sums[m + 2], sums[m + 3] = 0, total, total, 0
        centre = (total + middle) >> 1 if m % 2 == 0 else total >> 1
        sums[half + 1], sums[m - half] = centre, total - centre
        self.m, self.sums = m, sums
        self.edge = (half + 1, middle * (m - half) // (half + 1))

    def fill(self, j: int) -> None:
        """Fill every entry at least as close to the centre as ``sums[j]``, for j in 0..m + 1."""
        m, sums = self.m, self.sums
        reach = max(j, m + 1 - j)
        h, term = self.edge
        total, s = sums[m + 1], sums[h]
        while h < reach:
            s += term
            term = term * (m - h) // (h + 1)
            h += 1
            sums[h], sums[m + 1 - h] = s, total - s
        self.edge = (h, term)


@lru_cache(maxsize=TAIL_TABLES_CACHED)
def _binomial_prefix_sums(m: int) -> _PrefixRow:
    """Row m of the table, filled on demand by :func:`binomial_count_between`."""
    return _PrefixRow(m)


def binomial_count_between(n: int, lo: int, hi: int, low: int) -> int:
    """2^low (C(n - low, lo - low) + ... + C(n - low, hi - low)), from row n - 1 of the cached table.

    That is the number of the 2^n equiprobable outcomes at which low +
    Binomial(n - low, 1/2) lies in lo..hi, for ``low`` 0 or 1.  Its one
    caller in the package checks 1 <= n <= TAIL_LENGTH_LIMIT and
    low <= lo <= hi <= n first.
    """
    row = _binomial_prefix_sums(n - 1)
    sums = row.sums
    try:
        return sums[hi] + sums[hi + 1 - low] - sums[lo - 1] - sums[lo - low]
    except TypeError:  # an entry not yet filled is None; the try is free on a filled row
        for j in (hi, hi + 1 - low, lo - 1, lo - low):
            if sums[j] is None:
                row.fill(j)
        return sums[hi] + sums[hi + 1 - low] - sums[lo - 1] - sums[lo - low]


class RunsDistribution(NamedTuple):
    """Exact counts of sequences by run count, for one length n = ``len(counts)``."""

    counts: tuple[int, ...]  # counts[r - 1] = number of sequences with r runs

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return 1 << self.n

    def count(self, r: int) -> int:
        if not 1 <= r <= self.n:
            raise ValueError(f"run count {r} out of range 1..{self.n}")
        return self.counts[r - 1]

    def pmf(self, r: int) -> Fraction:
        return dyadic(self.count(r), self.n)

    def _rows(self) -> Iterator[tuple[int, int, Fraction, str]]:
        """(r, count, pmf, exact decimal pmf) for r = 1..n."""
        n = self.n
        for r, count in enumerate(self.counts, 1):
            p = dyadic(count, n)
            yield r, count, p, exact_decimal_string(p)

    def to_csv(self) -> str:
        lines = ["r,count,pmf-numerator,pmf-denominator,pmf-decimal"]
        for r, count, p, decimal in self._rows():
            lines.append(f"{r},{count},{p.numerator},{p.denominator},{decimal}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        rows = [
            {"r": r, "count": count, "pmf": {"num": p.numerator, "den": p.denominator, "decimal": decimal}}
            for r, count, p, decimal in self._rows()
        ]
        return {"n": self.n, "total": self.total, "rows": rows}


def _lane_planes(k: int) -> list[int]:
    """The k lane planes over 2^k lanes: lane x of plane i holds bit i of x."""
    planes: list[int] = []
    for i in range(k):
        width = 1 << i
        planes = [p | p << width for p in planes] + [((1 << width) - 1) << width]
    return planes


def _column_tally(planes: list[int], lanes: int) -> dict[int, int]:
    """How many of the first ``lanes`` lanes have each column sum over ``planes``; no count is 0.

    The sums are kept bit-sliced, ``counter[i]`` holding bit i of every
    lane's running sum in m.bit_length() ints for m planes, and each
    plane is added with a ripple carry.  The lanes are then split on each
    counter bit, top bit first, until ``by_sum`` pairs each sum s some
    lane has with exactly the lanes whose sum is s.  Empty halves are
    dropped, so the split costs in proportion to the spread of the sums.
    """
    counter = [0] * len(planes).bit_length()
    for plane in planes:
        i = 0
        while plane:
            counter[i], plane = counter[i] ^ plane, counter[i] & plane
            i += 1
    by_sum = [(0, (1 << lanes) - 1)]
    for bit in reversed(counter):
        split = []
        for s, g in by_sum:
            one = g & bit
            if g ^ one:
                split.append((2 * s, g ^ one))
            if one:
                split.append((2 * s + 1, one))
        by_sum = split
    return {s: g.bit_count() for s, g in by_sum}


def enumerate_runs_distribution(n: int) -> RunsDistribution:
    """Run-count distribution by tallying the statistic over all 2^n sequences.

    This is the oracle route, independent of the table above.  The
    sequences are the lanes of n bit planes, _CHUNK at a time: positions
    below k = min(n, log2 _CHUNK) are lane planes, the rest all-0 or all-1
    for the chunk.  A run count is one more than the lane's sum over the
    switch planes.  Only the switch between positions k - 1 and k depends
    on the chunk within its lanes, through the chunk's bit 0, so the lanes
    are tallied once for each value of that bit; every higher switch is
    the same in all lanes and adds the number of switches among the
    chunk's own bits to each lane's sum.  The two tallies come out equal,
    as complementing a lane keeps its other switches, but both are built
    so that every sequence is counted from its own bits, not by symmetry.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"enumeration over 2^{n} sequences exceeds cap {ENUMERATION_CAP}")
    k = min(n, _CHUNK.bit_length() - 1)
    lanes, full = _lane_planes(k), (1 << (1 << k)) - 1
    switches = [a ^ b for a, b in zip(lanes, lanes[1:])]
    if n == k:
        tallies = [_column_tally(switches, 1 << k)]
    else:
        tallies = [_column_tally(switches + [lanes[-1] ^ edge], 1 << k) for edge in (0, full)]
    chunks = 1 << (n - k)
    high = chunks // 2 - 1  # the chunk bits below its top one; -1 for the single chunk 0
    counts = [0] * n
    for chunk in range(chunks):
        shift = ((chunk ^ chunk >> 1) & high).bit_count()
        for s, c in tallies[chunk & 1].items():
            counts[s + shift] += c
    return RunsDistribution(tuple(counts))
