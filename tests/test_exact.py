"""Exact distributions: closed form against the enumeration oracle."""

import random
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from randaudit import exact
from randaudit import (
    BINOMIAL,
    RUNS,
    BinarySequence,
    CapExceededError,
    ENUMERATION_CAP,
    ONE_SIDED,
    TAIL_LENGTH_LIMIT,
    TWO_SIDED_DOUBLED,
    as_probability,
    binomial_test,
    count_runs,
    decimal_string,
    enumerate_runs_distribution,
    exact_decimal_string,
    parse_probability,
    parse_rational,
    runs_distribution,
    runs_pvalue,
    runs_test,
    statistic_count,
    statistic_pvalue,
)


@lru_cache(maxsize=None)
def _literal_runs_counts(n: int) -> tuple[int, ...]:
    """Run-count counts for r = 1..n from count_runs over every bit tuple: the slowest, most direct route."""
    tallies = [0] * (n + 1)
    for bits in product((0, 1), repeat=n):
        tallies[count_runs(BinarySequence(bits))] += 1
    return tuple(tallies[1:])


class TestRunsCounts:
    def test_known_values(self):
        # 112 frozen from the brute force over all 512 length-9 sequences.
        assert statistic_count(RUNS, 9, 6) == 112
        assert statistic_count(RUNS, 9, 1) == 2
        assert statistic_count(RUNS, 2, 2) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            statistic_count(RUNS, 5, 0)
        with pytest.raises(ValueError):
            statistic_count(RUNS, 5, 6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_literal_oracle_agrees(self, n):
        # The literal tally must match both the fast enumeration and the
        # closed form.
        enumerated = enumerate_runs_distribution(n)
        closed = runs_distribution(n)
        assert _literal_runs_counts(n) == enumerated.counts == closed.counts

    @pytest.mark.parametrize("chunk", [1 << 2, 1 << 3])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_literal_oracle_agrees_over_chunks(self, n, chunk, monkeypatch):
        # Small chunks put up to 2^10 chunks under one enumeration, so the
        # two shared tallies, the switch at the chunk boundary and the
        # shift by the switches among chunk bits all meet the literal tally.
        monkeypatch.setattr(exact, "_CHUNK", chunk)
        assert enumerate_runs_distribution(n).counts == _literal_runs_counts(n)

    @pytest.mark.parametrize("n", [1, 2, 9, 14, ENUMERATION_CAP])
    def test_enumeration_cases(self, n):
        dist = enumerate_runs_distribution(n)
        assert sum(dist.counts) == 2**n
        assert dist.counts == runs_distribution(n).counts
        if n == 2:
            assert dist.counts == (2, 2)
        if n == 9:
            assert dist.count(6) == 112
        if n == 1:
            assert dist.counts == (2,)

    @pytest.mark.parametrize("n", [ENUMERATION_CAP + 1, 33])
    def test_enumeration_cap(self, n):
        # 33 is refused too, before 2^33 sequences are scanned.
        refusal = f"enumeration over 2\\^{n} sequences exceeds cap {ENUMERATION_CAP}"
        with pytest.raises(CapExceededError, match=refusal):
            enumerate_runs_distribution(n)

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 60])
    def test_normalization_closed_form(self, n):
        assert sum(statistic_count(RUNS, n, r) for r in range(1, n + 1)) == 2**n

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_distribution_invariants(self, n):
        dist = runs_distribution(n)
        assert dist.count(1) == 2
        assert dist.count(n) == 2
        for r in range(1, n + 1):
            assert dist.count(r) == dist.count(n + 1 - r)


class TestRunsPvalues:
    def test_paper_tails(self):
        assert runs_pvalue(9, 6, "upper") == Fraction(186, 512)
        assert runs_pvalue(9, 2, "lower") == Fraction(18, 512)

    def test_extreme_tails(self):
        assert runs_pvalue(9, 1, "lower") == Fraction(2, 512)
        assert runs_pvalue(9, 9, "upper") == Fraction(2, 512)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            runs_pvalue(9, 0, "lower")
        with pytest.raises(ValueError):
            runs_pvalue(9, 10, "upper")
        with pytest.raises(ValueError):
            runs_pvalue(9, 5, "sideways")

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tail_complementarity(self, n):
        for r in range(1, n):
            assert runs_pvalue(n, r, "lower") + runs_pvalue(n, r + 1, "upper") == 1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_upper_tail_monotone(self, n):
        values = [runs_pvalue(n, r, "upper") for r in range(1, n + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(st.integers(1, 20))
    def test_full_tails_are_one(self, n):
        assert runs_pvalue(n, 1, "upper") == 1
        assert runs_pvalue(n, n, "lower") == 1


class TestBinomialPvalues:
    def test_paper_values(self):
        assert statistic_pvalue(BINOMIAL, 9, 5, ONE_SIDED)[1] == Fraction(1, 2)
        assert statistic_pvalue(BINOMIAL, 9, 0, TWO_SIDED_DOUBLED)[1] == Fraction(2, 512)
        assert statistic_pvalue(BINOMIAL, 9, 0, ONE_SIDED)[1] == Fraction(1, 512)

    def test_doubled_clips_at_one(self):
        assert statistic_pvalue(BINOMIAL, 2, 1, TWO_SIDED_DOUBLED)[1] == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            statistic_pvalue(BINOMIAL, 9, -1)
        with pytest.raises(ValueError):
            statistic_pvalue(BINOMIAL, 9, 10)
        with pytest.raises(ValueError):
            statistic_pvalue(BINOMIAL, 9, 4, "exotic")

    @given(st.integers(1, 40), st.data())
    def test_symmetry(self, n, data):
        from math import comb

        k = data.draw(st.integers(0, n))
        # P(K >= k) = P(K <= n-k) under the fair null.
        lhs = Fraction(sum(comb(n, i) for i in range(k, n + 1)), 2**n)
        rhs = Fraction(sum(comb(n, i) for i in range(0, n - k + 1)), 2**n)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(1, 13))
    def test_one_sided_matches_explicit_tails(self, n):
        from math import comb

        for k in range(n + 1):
            if 2 * k >= n:
                expected = Fraction(sum(comb(n, i) for i in range(k, n + 1)), 2**n)
            else:
                expected = Fraction(sum(comb(n, i) for i in range(0, k + 1)), 2**n)
            assert statistic_pvalue(BINOMIAL, n, k, ONE_SIDED)[1] == expected
            assert statistic_pvalue(BINOMIAL, n, k, TWO_SIDED_DOUBLED)[1] == min(Fraction(1), 2 * expected)


def _comb_sum(m: int, lo: int, hi: int) -> int:
    """C(m, lo) + ... + C(m, hi), straight from math.comb."""
    return sum(comb(m, j) for j in range(lo, hi + 1))


class TestTailTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 2047, 2048])
    def test_tails_match_comb_sums(self, n):
        # Both ends and the centre of each law, against sums written here.
        total = 2**n
        for r in sorted({1, 2, (n + 1) // 2, n // 2 + 1, n - 1, n} & set(range(1, n + 1))):
            assert runs_pvalue(n, r, "lower") == Fraction(2 * _comb_sum(n - 1, 0, r - 1), total)
            assert runs_pvalue(n, r, "upper") == Fraction(2 * _comb_sum(n - 1, r - 1, n - 1), total)
            assert statistic_count(RUNS, n, r) == 2 * comb(n - 1, r - 1)
        for k in sorted({0, 1, n // 2, (n + 1) // 2, n - 1, n} & set(range(0, n + 1))):
            tail = _comb_sum(n, k, n) if 2 * k >= n else _comb_sum(n, 0, k)
            assert statistic_pvalue(BINOMIAL, n, k, ONE_SIDED)[1] == Fraction(tail, total)
            assert statistic_pvalue(BINOMIAL, n, k, TWO_SIDED_DOUBLED)[1] == min(Fraction(1), Fraction(2 * tail, total))

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 1000])
    def test_distribution_matches_comb(self, n):
        assert runs_distribution(n).counts == tuple(2 * comb(n - 1, r - 1) for r in range(1, n + 1))

    def test_cache_holds_at_most_its_stated_tables(self):
        cached = exact._binomial_prefix_sums
        assert cached.cache_info().maxsize == exact.TAIL_TABLES_CACHED
        for n in [*range(1, 200, 3), 512, 1023, 2048, 3001, TAIL_LENGTH_LIMIT]:
            runs_pvalue(n, 1, "upper")
            statistic_pvalue(BINOMIAL, n, n // 2)
            runs_distribution(n)
            assert cached.cache_info().currsize <= exact.TAIL_TABLES_CACHED

    def test_limit_is_inclusive(self):
        n = TAIL_LENGTH_LIMIT
        assert runs_pvalue(n, 1, "lower") == Fraction(2, 2**n)
        assert statistic_pvalue(BINOMIAL, n, n)[1] == Fraction(1, 2**n)

    def test_one_past_the_limit_is_refused_before_any_table(self):
        n = TAIL_LENGTH_LIMIT + 1
        misses = exact._binomial_prefix_sums.cache_info().misses
        start = time.perf_counter()
        for call in (
            lambda: runs_pvalue(n, 1, "lower"),
            lambda: statistic_pvalue(BINOMIAL, n, 0),
            lambda: runs_distribution(n),
            lambda: statistic_count(RUNS, n, 1),
        ):
            with pytest.raises(CapExceededError):
                call()
        assert time.perf_counter() - start < 0.5
        assert exact._binomial_prefix_sums.cache_info().misses == misses

    def test_long_exact_decimals_render(self):
        # 3/2^5000 has 5000 decimal places, beyond the 4,300 digits that
        # str() of an int accepts.
        p = Fraction(3, 2**5000)
        text = exact_decimal_string(p)
        assert text.startswith("0.") and len(text) == 5002
        assert Fraction(Decimal(text)) == p


@lru_cache(maxsize=None)
def _comb_prefix_sums(m: int) -> tuple[int, ...]:
    """S(j) = C(m, 0) + ... + C(m, j - 1) for j = 0..m + 1, straight from math.comb."""
    sums = [0]
    for j in range(m + 1):
        sums.append(sums[-1] + comb(m, j))
    return tuple(sums)


def _law_count(n: int, lo: int, hi: int, low: int) -> int:
    """2^low (C(n - low, lo - low) + ... + C(n - low, hi - low)), straight from math.comb."""
    sums = _comb_prefix_sums(n - low)
    return (sums[hi + 1 - low] - sums[lo - low]) << low


def _cold_row(m: int):
    exact._binomial_prefix_sums.cache_clear()
    return exact._binomial_prefix_sums(m)


def _filled_entries_are_prefix_sums(row) -> bool:
    """Entries 0..m + 1 that are filled are the prefix sums; the two fixed entries are intact."""
    m = row.m
    filled = all(s is None or s == t for s, t in zip(row.sums[: m + 2], _comb_prefix_sums(m), strict=True))
    return filled and row.sums[m + 2 :] == [2**m, 0]


class TestCentreOutRow:
    """The cached row is filled from the centre outward, only as far as queries reach."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0, 1, 2, 3, 4, 63, 64, 255, 256, 2047, 2048]), st.data())
    def test_queries_match_comb_sums_from_any_start(self, m, data):
        n = m + 1
        row = _cold_row(m)
        start = data.draw(st.sampled_from(["cold", "warm", "partly filled"]))
        if start == "warm":
            exact.binomial_count_between(n, 0, 0, 0)  # S(1) is the farthest entry from the centre
        elif start == "partly filled":
            low = data.draw(st.sampled_from([0, 1]))
            k = data.draw(st.integers(low, n))
            exact.binomial_count_between(n, k, k, low)
        for _ in range(data.draw(st.integers(1, 8))):
            low = data.draw(st.sampled_from([0, 1]))
            end = st.one_of(st.just(low), st.just(n), st.integers(low, n))
            kind = data.draw(st.sampled_from(["range", "single", "lower", "upper"]))
            a = data.draw(end)
            if kind == "range":
                lo, hi = sorted((a, data.draw(end)))
            elif kind == "single":
                lo, hi = a, a
            elif kind == "lower":
                lo, hi = low, a
            else:
                lo, hi = a, n
            assert exact.binomial_count_between(n, lo, hi, low) == _law_count(n, lo, hi, low)
            assert _filled_entries_are_prefix_sums(row)
            assert row.sums[0] == 0 and row.sums[m + 1] == 2**m

    def test_cost_follows_distance_from_the_centre(self):
        n = 5000
        seq = BinarySequence.from_int(random.Random(5000).getrandbits(n), n)
        exact._binomial_prefix_sums.cache_clear()
        runs_test(seq)
        binomial_test(seq)
        m = n - 1
        sums = exact._binomial_prefix_sums(m).sums
        assert sums.count(None) >= 0.9 * len(sums)
        # Each step between two filled entries is one binomial coefficient.
        steps = [j for j in range(m + 1) if sums[j] is not None and sums[j + 1] is not None]
        assert all(sums[j + 1] - sums[j] == comb(m, j) for j in steps)

    def test_constant_sequence_fills_the_whole_row(self):
        n = 5000
        exact._binomial_prefix_sums.cache_clear()
        assert runs_test(BinarySequence.from_int(0, n)).p == Fraction(2, 2**n)
        assert binomial_test(BinarySequence.from_int(0, n)).p == Fraction(1, 2**n)
        m = n - 1
        sums = exact._binomial_prefix_sums(m).sums
        assert None not in sums
        assert sums[:65] == [_comb_sum(m, 0, j - 1) for j in range(65)]

    def test_concurrent_fills_of_one_cold_row(self):
        m, rounds, workers = 2047, 12, 8
        n = m + 1
        for low in (0, 1):
            _comb_prefix_sums(n - low)  # the oracle, built before any thread starts
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(rounds):
                row = _cold_row(m)
                wrong = []
                together = threading.Barrier(workers, timeout=60)

                def ask(seed: int) -> None:
                    rng = random.Random(seed)
                    together.wait()
                    for _ in range(60):
                        low = rng.randint(0, 1)
                        lo = rng.randint(low, n)
                        hi = rng.randint(lo, n)
                        try:
                            count = exact.binomial_count_between(n, lo, hi, low)
                        except Exception as exc:  # a thread's exception would not reach the test
                            count = exc
                        if count != _law_count(n, lo, hi, low):
                            wrong.append((lo, hi, low, count))

                threads = [threading.Thread(target=ask, args=(workers * round_ + i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert wrong == []
                assert _filled_entries_are_prefix_sums(row)
        finally:
            sys.setswitchinterval(interval)


class TestOneRowPerLength:
    """Both null laws at length n are read from row n - 1 alone."""

    @staticmethod
    def _check_values(n: int, values) -> None:
        for test, low in ((RUNS, 1), (BINOMIAL, 0)):
            for v in values:
                if low <= v <= n:
                    assert statistic_count(test, n, v) == comb(n - low, v - low) << low, (test, n, v)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_value_and_tail_of_both_laws(self, n):
        self._check_values(n, range(n + 1))
        for low in (0, 1):
            for v in range(low, n + 1):
                lower = sum(comb(n - low, j - low) for j in range(low, v + 1)) << low
                upper = sum(comb(n - low, j - low) for j in range(v, n + 1)) << low
                assert exact.binomial_count_between(n, low, v, low) == lower, (n, v, low)
                assert exact.binomial_count_between(n, v, n, low) == upper, (n, v, low)

    @pytest.mark.parametrize("n", [2047, 2048, 4999, 5000])
    def test_ends_and_centre_of_long_laws(self, n):
        centre = n // 2
        self._check_values(n, [0, 1, 2, centre - 1, centre, centre + 1, n - 1, n])
        for low in (0, 1):
            # v = low and v = n read the two fixed entries, S(-1) and S(m + 2), when low = 0.
            assert exact.binomial_count_between(n, low, n, low) == 2**n
            for v in (low, low + 1, low + 2):
                lower = sum(comb(n - low, j - low) for j in range(low, v + 1)) << low
                assert exact.binomial_count_between(n, low, v, low) == lower, (n, v, low)
            for v in (n - 2, n - 1, n):
                upper = sum(comb(n - low, j - low) for j in range(v, n + 1)) << low
                assert exact.binomial_count_between(n, v, n, low) == upper, (n, v, low)
            around = sum(comb(n - low, j - low) for j in range(centre - 1, centre + 2)) << low
            assert exact.binomial_count_between(n, centre - 1, centre + 1, low) == around, (n, low)


@pytest.fixture
def centre_calls(monkeypatch):
    """The lengths whose centre coefficient ``exact`` builds while the test runs."""
    calls = []
    central = exact._central_binomial
    monkeypatch.setattr(exact, "_central_binomial", lambda m: calls.append(m) or central(m))
    return calls


def _cold_verdict_pair(seq, centre_calls) -> None:
    """A cold runs_test and binomial_test build row n - 1 alone, with one centre coefficient."""
    cached = exact._binomial_prefix_sums
    cached.cache_clear()
    runs_test(seq)
    binomial_test(seq)
    assert centre_calls == [seq.n - 1]
    assert cached.cache_info().currsize == 1
    hits = cached.cache_info().hits
    cached(seq.n - 1)
    assert cached.cache_info().hits == hits + 1


class TestCentralBinomial:
    """A verdict pair at a new length pays one centre coefficient, that of its one row."""

    def test_one_centre_per_verdict_pair(self, centre_calls):
        _cold_verdict_pair(BinarySequence.from_int(random.Random(2047).getrandbits(2048), 2048), centre_calls)

    @pytest.mark.parametrize("n", [1, 2, 9, 4999, 5000])
    def test_cold_verdict_pair_builds_row_n_minus_1_alone(self, n, centre_calls):
        _cold_verdict_pair(BinarySequence.from_int(random.Random(n).getrandbits(n), n), centre_calls)


@lru_cache(maxsize=None)
def _comb_centres() -> tuple[int, ...]:
    """C(m, m//2) for m = 0..TAIL_LENGTH_LIMIT, by math.comb."""
    return tuple(comb(m, m // 2) for m in range(TAIL_LENGTH_LIMIT + 1))


class TestCentreTable:
    """The shared table of centre coefficients, grown by their two-step recurrence, against math.comb."""

    def test_every_length_to_the_limit(self, monkeypatch):
        expected = _comb_centres()
        monkeypatch.setattr(exact, "_centres", ())
        # Ascending from an empty table, so that each length grows it by one entry.
        wrong = [m for m in range(TAIL_LENGTH_LIMIT + 1) if exact._central_binomial(m) != expected[m]]
        assert wrong == []
        assert exact._centres == expected

    def test_one_growth_from_empty_to_the_limit(self, monkeypatch):
        monkeypatch.setattr(exact, "_centres", ())
        assert exact._central_binomial(TAIL_LENGTH_LIMIT) == comb(TAIL_LENGTH_LIMIT, TAIL_LENGTH_LIMIT // 2)
        assert exact._centres == _comb_centres()

    def test_a_rebuilt_row_reads_its_centre_without_growing_the_table(self, monkeypatch):
        rows = exact._binomial_prefix_sums
        monkeypatch.setattr(exact, "_centres", ())
        rows.cache_clear()
        # Two rows are kept, so row 300 is evicted by 302 and then built again.
        for m in (300, 301, 302):
            rows(m)
        table = exact._centres
        assert len(table) == 303 and table == _comb_centres()[:303]
        row = rows(300)
        assert rows.cache_info().misses == 4
        assert exact._centres is table
        assert row.sums[151] == (2**300 + comb(300, 150)) >> 1

    def test_cold_start_from_many_threads(self, monkeypatch):
        workers, rounds = 8, 6
        lengths = [4999 - 97 * i for i in range(workers)]
        expected = _comb_centres()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                monkeypatch.setattr(exact, "_centres", ())
                wrong = []
                together = threading.Barrier(workers, timeout=60)

                def build(m: int) -> None:
                    together.wait()
                    try:
                        row = exact._PrefixRow(m)
                        h, term = row.edge
                        half = m // 2
                        centre = (2**m + expected[m]) >> 1 if m % 2 == 0 else 2 ** (m - 1)
                        ok = row.sums[half + 1] == centre and term == comb(m, h)
                    except Exception as exc:  # a thread's exception would not reach the test
                        ok = exc
                    if ok is not True:
                        wrong.append((m, ok))

                threads = [threading.Thread(target=build, args=(m,)) for m in lengths]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert wrong == []
                # Whichever growth was published last, the table is a correct prefix past the shortest row.
                table = exact._centres
                assert len(table) > min(lengths) and table == expected[: len(table)]
        finally:
            sys.setswitchinterval(interval)


class TestProbabilityHelpers:
    def test_parse_probability(self):
        assert parse_probability("1/20") == Fraction(1, 20)
        assert parse_probability("0.05") == Fraction(1, 20)
        assert parse_probability(" 1 ") == 1
        with pytest.raises(ValueError):
            parse_probability("3/2")
        with pytest.raises(ValueError):
            parse_probability("h")
        with pytest.raises(ValueError):
            parse_probability("1/0")

    def test_parse_dyadic_probability(self):
        assert parse_probability("1/2^985") == Fraction(1, 2**985)
        assert parse_probability(" 3/2^2 ") == Fraction(3, 4)
        assert parse_probability("1/2^0") == 1
        assert parse_probability(f"1/2^{TAIL_LENGTH_LIMIT}") == Fraction(1, 2**TAIL_LENGTH_LIMIT)
        for text in (f"1/2^{TAIL_LENGTH_LIMIT + 1}", "1/2^" + "9" * 5000, "3/2^1", "1/2^-1", "-1/2^3", "1/3^2"):
            with pytest.raises(ValueError, match="probability"):
                parse_probability(text)

    @pytest.mark.parametrize(
        "text", ["3/4", "-2", " 0.05 ", ".5", "1e-3", "7.5E+2", "1_000e-2", "\u0661/\u0662", "1e5000", "-1e-5000"]
    )
    def test_parse_rational_reads_what_fraction_reads(self, text):
        assert parse_rational(text) == Fraction(text)

    def test_parse_rational_reads_dyadic(self):
        assert parse_rational(" 3/2^2 ") == Fraction(3, 4)
        assert parse_rational(f"5/2^{TAIL_LENGTH_LIMIT}") == Fraction(5, 2**TAIL_LENGTH_LIMIT)

    @pytest.mark.parametrize(
        "text",
        [
            f"1e{TAIL_LENGTH_LIMIT + 1}",
            f"1e-{TAIL_LENGTH_LIMIT + 1}",
            "1e-9999999",
            "1E+9_999_999",
            "1e-\u0669\u0669\u0669\u0669\u0669\u0669\u0669",  # Arabic-Indic digits
            "0.5e-" + "9" * 4000,
        ],
    )
    def test_parse_rational_refuses_large_exponents_before_building_a_power(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exponent of magnitude above {TAIL_LENGTH_LIMIT}"):
            parse_rational(text)
        with pytest.raises(ValueError, match="probability"):
            parse_probability(text)
        assert time.perf_counter() - start < 0.1

    def test_parse_rational_errors_name_the_value(self):
        for text in ("h", "1/0", "1e", "1e5_", f"1/2^{TAIL_LENGTH_LIMIT + 1}"):
            with pytest.raises(ValueError, match="cannot parse rational"):
                parse_rational(text)
        with pytest.raises(ValueError, match="cannot parse prior odds from 'h'"):
            parse_rational("h", "prior odds")

    def test_as_probability_bounds(self):
        for outside in (Fraction(-1, 2), Fraction(-1, 2**5000), Fraction(3, 2), Fraction(2**5000 + 1, 2**5000), 2, -1):
            with pytest.raises(ValueError, match="outside"):
                as_probability(outside)
        assert as_probability(1) == 1
        for inside in (Fraction(0), Fraction(1), Fraction(1, 2**5000), Fraction(2**5000 - 1, 2**5000)):
            assert as_probability(inside) is inside

    def test_parse_probability_refuses_what_a_report_cannot_render(self):
        limit = sys.get_int_max_str_digits()
        assert parse_probability(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
        for text in (f"1e-{limit}", f"9.99e-{limit - 1}"):
            with pytest.raises(ValueError, match=f"cannot parse probability from '{text}'"):
                parse_probability(text)
            assert parse_rational(text) == Fraction(text)
        sys.set_int_max_str_digits(0)  # no limit
        try:
            assert parse_probability(f"1e-{limit}") == Fraction(1, 10**limit)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_exact_decimals_of_powers_of_two_and_five(self):
        for a in range(12):
            for b in range(12):
                d = 2**a * 5**b
                for k in {1, 3, d - 1, d, 7 * d + 1}:
                    p = Fraction(k, d)
                    rendered = exact_decimal_string(p)
                    assert Fraction(Decimal(rendered)) == p, (k, d)
                    assert "." not in rendered or not rendered.endswith("0"), (k, d)

    def test_exact_decimal_of_a_power_of_five_beyond_the_digit_limit(self):
        p = Fraction(1, 5**4400)
        rendered = exact_decimal_string(p)
        assert Fraction(Decimal(rendered)) == p
        assert rendered.startswith("0.") and not rendered.endswith("0")

    def test_decimal_renderings(self):
        assert decimal_string(Fraction(186, 512)) == "0.363"
        assert decimal_string(Fraction(18, 512)) == "0.035"
        assert decimal_string(Fraction(256, 512)) == "0.500"
        assert decimal_string(Fraction(2, 512)) == "0.004"
        assert decimal_string(Fraction(1, 512)) == "0.002"
        assert decimal_string(Fraction(1), places=0) == "1"
        assert decimal_string(Fraction(1, 16), places=3) == "0.062"  # exact tie, to even

    def test_decimal_rendering_matches_the_fraction_rule(self):
        ties = 0
        for d in range(1, 200):
            for k in range(d + 1):
                p = Fraction(k, d)
                for places in (0, 1, 2, 3, 12):
                    scale = 10**places
                    q = round(p * scale)  # Fraction.__round__: exact, ties to even
                    expected = str(q) if places == 0 else f"{q // scale}.{q % scale:0{places}d}"
                    assert decimal_string(p, places) == expected, (p, places)
                    ties += (p * scale).denominator == 2
        assert ties > 100

    def test_decimal_rendering_refusals(self):
        with pytest.raises(ValueError, match="places"):
            decimal_string(Fraction(1, 2), places=-1)
        with pytest.raises(ValueError, match="negative"):
            decimal_string(Fraction(-1, 2))
        for p in (Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 2), Fraction(-3), Fraction(-1, 3)):
            with pytest.raises(ValueError, match="negative probabilities are not rendered"):
                exact_decimal_string(p)

    def test_exact_decimal(self):
        assert exact_decimal_string(Fraction(1, 512)) == "0.001953125"
        assert exact_decimal_string(Fraction(1, 2)) == "0.5"
        assert exact_decimal_string(Fraction(1)) == "1"
        assert exact_decimal_string(Fraction(0)) == "0"
        assert exact_decimal_string(Fraction(1, 3)) == "0.333333333333"


def _assert_reduced_equal(got: Fraction, count: int, n: int) -> None:
    want = Fraction(count, 2**n)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)


class TestDyadic:
    """``dyadic`` against Fraction's own reduction, on this Python's private route and on the plain fallback."""

    @pytest.fixture(params=["private route", "fallback"], autouse=True)
    def route(self, request, monkeypatch):
        if request.param == "fallback":
            monkeypatch.setattr(exact, "_from_coprime", Fraction)

    def test_every_count_at_every_n_up_to_12(self):
        for n in range(13):
            for count in range(2**n + 1):
                _assert_reduced_equal(exact.dyadic(count, n), count, n)

    @pytest.mark.parametrize("n", [*range(13, 65), 2047, 2048, 5000])
    def test_random_counts(self, n):
        rng = random.Random(n)
        counts = [0, 1, 2**n - 1, 2**n, *(rng.getrandbits(n) for _ in range(8))]
        counts += [rng.getrandbits(n - shift) << shift for shift in rng.sample(range(n), 8)]
        for count in counts:
            _assert_reduced_equal(exact.dyadic(count, n), count, n)


def test_a_python_without_either_private_route_builds_plain_fractions(monkeypatch):
    class Plain(Fraction):
        """A Fraction as a Python with neither private route would have it."""

        _from_coprime_ints = None

        def __new__(cls, numerator=0, denominator=None):
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(exact, "Fraction", Plain)
    assert exact._coprime_route() is Plain


class TestExport:
    def test_csv_shape(self):
        dist = runs_distribution(3)
        lines = dist.to_csv().strip().splitlines()
        assert lines[0] == "r,count,pmf-numerator,pmf-denominator,pmf-decimal"
        assert lines[1] == "1,2,1,4,0.25"
        assert len(lines) == 4

    def test_json_shape(self):
        payload = runs_distribution(2).to_json_dict()
        assert payload["n"] == 2
        assert payload["total"] == 4
        assert payload["rows"][0] == {
            "r": 1,
            "count": 2,
            "pmf": {"num": 1, "den": 2, "decimal": "0.5"},
        }
