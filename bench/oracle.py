"""Independent exact oracle for the randaudit benchmark.

Nothing here imports ``randaudit``.  Every value the benchmark checks is
recomputed from first principles:

* binomial coefficients come from the multiplicative recurrence
  C(n, k+1) = C(n, k) * (n - k) / (k + 1), and tail counts are prefix
  sums over them (run counts use 2 * C(n-1, r-1));
* statistics are counted straight from the 0/1 text of a sequence;
* minimal reversing masks are found by scanning all 2^n masks;
* the power of a test under a source model is an exact dynamic program
  over (last outcome, statistic).

Sequences are handled as strings over "1"/"0", position 1 first, which
is also how flip strings are written.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

RUNS = "runs"
BINOMIAL = "binomial"
ONE_SIDED = "paper-one-sided"
DOUBLED = "two-sided-doubled"

_TO_BITS = str.maketrans("HhTt", "1100")


class CheckError(AssertionError):
    """An output of the program disagrees with the oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def bits_of(text: str) -> str:
    """Normalize H/h/1 and T/t/0 text to a "1"/"0" string."""
    return text.translate(_TO_BITS)


def bits_from_int(value: int, n: int) -> str:
    """Bit string of a packed sequence, position 1 in the low bit."""
    return format(value, f"0{n}b")[::-1]


def xor_bits(a: str, b: str) -> str:
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def count_runs(bits: str) -> int:
    return 1 + sum(1 for a, b in zip(bits, bits[1:]) if a != b)


def statistic(test: str, bits: str) -> int:
    return count_runs(bits) if test == RUNS else bits.count("1")


@lru_cache(maxsize=8)
def binomial_row(n: int) -> tuple[int, ...]:
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(row)


@lru_cache(maxsize=8)
def counts(test: str, n: int) -> tuple[int, ...]:
    """Number of length-n sequences per statistic value, indexed by value."""
    if test == RUNS:
        return (0,) + tuple(2 * c for c in binomial_row(n - 1))
    return binomial_row(n)


@lru_cache(maxsize=8)
def _prefix(test: str, n: int) -> tuple[int, ...]:
    sums = [0]
    for c in counts(test, n):
        sums.append(sums[-1] + c)
    return tuple(sums)


def lower_count(test: str, n: int, v: int) -> int:
    return _prefix(test, n)[v + 1]


def upper_count(test: str, n: int, v: int) -> int:
    sums = _prefix(test, n)
    return sums[-1] - sums[v]


def pvalue(test: str, n: int, v: int, convention: str = ONE_SIDED) -> tuple[str, Fraction]:
    """Tail name and exact p-value of statistic value v."""
    total = 1 << n
    if test == RUNS:
        if 2 * v > n + 1:
            return "upper", Fraction(upper_count(test, n, v), total)
        return "lower", Fraction(lower_count(test, n, v), total)
    if 2 * v >= n:
        tail, p = "upper", Fraction(upper_count(test, n, v), total)
    else:
        tail, p = "lower", Fraction(lower_count(test, n, v), total)
    if convention == DOUBLED:
        return "doubled", min(Fraction(1), 2 * p)
    return tail, p


def domain(test: str, n: int) -> range:
    return range(1, n + 1) if test == RUNS else range(0, n + 1)


@lru_cache(maxsize=64)
def rejected_values(test: str, n: int, alpha: Fraction, convention: str = ONE_SIDED) -> tuple[int, ...]:
    return tuple(v for v in domain(test, n) if pvalue(test, n, v, convention)[1] <= alpha)


def rejection_size(test: str, n: int, alpha: Fraction, convention: str = ONE_SIDED) -> Fraction:
    table = counts(test, n)
    return Fraction(sum(table[v] for v in rejected_values(test, n, alpha, convention)), 1 << n)


def judge(test: str, bits: str, alpha: Fraction, convention: str = ONE_SIDED) -> tuple[int, str, Fraction, bool]:
    """(statistic, tail, p, rejected) for one reading of a sequence."""
    v = statistic(test, bits)
    tail, p = pvalue(test, len(bits), v, convention)
    return v, tail, p, p <= alpha


def spectrum(test: str, n: int, convention: str = ONE_SIDED) -> Counter:
    """P-value multiset over all masks: the null law pushed through p.

    Masks act transitively on {0,1}^n, so the relabelings of any one
    sequence visit every sequence exactly once.
    """
    out: Counter = Counter()
    table = counts(test, n)
    for v in domain(test, n):
        if table[v]:
            out[pvalue(test, n, v, convention)[1]] += table[v]
    return out


def minimal_reversal(test: str, bits: str, alpha: Fraction, convention: str = ONE_SIDED) -> str | None:
    """Fewest-flip reversing mask, smallest flip string on ties, by full scan."""
    n = len(bits)
    flags = [False] * (n + 2)
    for v in rejected_values(test, n, alpha, convention):
        flags[v] = True
    x = int(bits[::-1], 2)
    pairs = (1 << (n - 1)) - 1
    original = flags[statistic(test, bits)]
    best_weight = n + 1
    best: list[int] = []
    for m in range(1 << n):
        y = x ^ m
        v = (((y ^ (y >> 1)) & pairs).bit_count() + 1) if test == RUNS else y.bit_count()
        if flags[v] == original:
            continue
        w = m.bit_count()
        if w < best_weight:
            best_weight, best = w, [m]
        elif w == best_weight:
            best.append(m)
    if not best:
        return None
    return min(bits_from_int(m, n) for m in best)


def dec3(p: Fraction) -> str:
    """Three-place decimal, rounded half to even, computed exactly."""
    q = round(p * 1000)
    return f"{q // 1000}.{q % 1000:03d}"


def exact_decimal(p: Fraction) -> str:
    """Terminating decimal expansion of a dyadic probability, no trailing zeros."""
    k = p.denominator.bit_length() - 1
    expect(p.denominator == 1 << k, f"{p} is not dyadic")
    digits = str(p.numerator * 5**k).rjust(k + 1, "0")
    whole, frac = digits[: len(digits) - k], digits[len(digits) - k :].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def check_prob(d: dict, p: Fraction, what: str, decimal=dec3) -> None:
    expect(
        (d.get("num"), d.get("den")) == (p.numerator, p.denominator),
        f"{what}: got {d.get('num')}/{d.get('den')}, oracle {p}",
    )
    if "decimal" in d:
        expect(d["decimal"] == decimal(p), f"{what}: decimal {d['decimal']!r}, oracle {decimal(p)!r}")


# ---------------------------------------------------------------------------
# Source models and exact power.


def parse_model(spec: str) -> tuple[str, Fraction]:
    """("fair"|"biased"|"markov", parameter) from a model spec string."""
    if spec == "fair":
        return "fair", Fraction(1, 2)
    kind, _, arg = spec.partition(":")
    _, _, value = arg.partition("=")
    return kind, Fraction(value)


@lru_cache(maxsize=64)
def statistic_law(spec: str, test: str, n: int) -> dict[int, Fraction]:
    """Exact law of the statistic under a source model."""
    kind, param = parse_model(spec)
    first_one = param if kind == "biased" else Fraction(1, 2)

    def p_one(last: int) -> Fraction:
        if kind == "markov":
            return param if last == 1 else 1 - param
        return first_one

    def step(s: int, last: int, b: int) -> int:
        return s + (b != last) if test == RUNS else s + b

    start_stat = {1: 1, 0: 1} if test == RUNS else {1: 1, 0: 0}
    states: dict[tuple[int, int], Fraction] = {}
    for b, prob in ((1, first_one), (0, 1 - first_one)):
        if prob:
            states[(b, start_stat[b])] = prob
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], Fraction] = {}
        for (last, s), prob in states.items():
            one = p_one(last)
            for b, pb in ((1, one), (0, 1 - one)):
                if pb:
                    key = (b, step(s, last, b))
                    nxt[key] = nxt.get(key, 0) + prob * pb
        states = nxt
    law: dict[int, Fraction] = {}
    for (_, s), prob in states.items():
        law[s] = law.get(s, 0) + prob
    return law


def power(spec: str, test: str, n: int, alpha: Fraction, convention: str = ONE_SIDED) -> Fraction:
    law = statistic_law(spec, test, n)
    return sum((law.get(v, Fraction(0)) for v in rejected_values(test, n, alpha, convention)), Fraction(0))


def check_rejections(hits: int, trials: int, pw: Fraction, what: str) -> None:
    """Sampled rejections lie within 5 standard errors of the exact power."""
    mean = trials * pw
    var = trials * pw * (1 - pw)
    expect((hits - mean) ** 2 <= 25 * var, f"{what}: {hits}/{trials} rejections, exact power {float(pw):.5f}")


def likelihood(spec: str, bits: str) -> Fraction:
    kind, param = parse_model(spec)
    n = len(bits)
    if kind == "fair":
        return Fraction(1, 1 << n)
    if kind == "biased":
        k = bits.count("1")
        return param**k * (1 - param) ** (n - k)
    prob = Fraction(1, 2)
    for a, b in zip(bits, bits[1:]):
        prob *= param if a == b else 1 - param
    return prob
