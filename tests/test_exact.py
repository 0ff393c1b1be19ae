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
    BinarySequence,
    CapExceededError,
    ENUMERATION_CAP,
    ONE_SIDED,
    TAIL_LENGTH_LIMIT,
    TWO_SIDED_DOUBLED,
    as_probability,
    binomial_pvalue,
    binomial_test,
    count_runs,
    decimal_string,
    enumerate_runs_distribution,
    exact_decimal_string,
    parse_probability,
    parse_rational,
    runs_count_exact,
    runs_distribution,
    runs_pvalue,
    runs_test,
    sequence_probability,
)


class TestRunsCounts:
    def test_known_values(self):
        # 112 frozen from the brute force over all 512 length-9 sequences.
        assert runs_count_exact(9, 6) == 112
        assert runs_count_exact(9, 1) == 2
        assert runs_count_exact(2, 2) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            runs_count_exact(5, 0)
        with pytest.raises(ValueError):
            runs_count_exact(5, 6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_literal_oracle_agrees(self, n):
        # Tally count_runs over every bit tuple: the slowest, most direct
        # route.  It must match both the fast enumeration and the closed
        # form.
        tallies = [0] * (n + 1)
        for bits in product((0, 1), repeat=n):
            tallies[count_runs(BinarySequence(bits))] += 1
        enumerated = enumerate_runs_distribution(n)
        closed = runs_distribution(n)
        assert tuple(tallies[1:]) == enumerated.counts == closed.counts

    @pytest.mark.parametrize("n", [1, 2, 9, 14])
    def test_enumeration_cases(self, n):
        dist = enumerate_runs_distribution(n)
        assert sum(dist.counts) == 2**n
        if n == 2:
            assert dist.counts == (2, 2)
        if n == 9:
            assert dist.count(6) == 112
        if n == 1:
            assert dist.counts == (2,)

    def test_enumeration_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_runs_distribution(ENUMERATION_CAP + 1)

    def test_enumeration_refuses_lengths_beyond_uint32(self):
        # The kernel packs sequences in uint32; a length past 32 must be
        # refused before it scans 2^32 masks and overflows.
        with pytest.raises(CapExceededError):
            enumerate_runs_distribution(33)

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 60])
    def test_normalization_closed_form(self, n):
        assert sum(runs_count_exact(n, r) for r in range(1, n + 1)) == 2**n

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
        assert binomial_pvalue(9, 5, ONE_SIDED) == Fraction(1, 2)
        assert binomial_pvalue(9, 0, TWO_SIDED_DOUBLED) == Fraction(2, 512)
        assert binomial_pvalue(9, 0, ONE_SIDED) == Fraction(1, 512)

    def test_doubled_clips_at_one(self):
        assert binomial_pvalue(2, 1, TWO_SIDED_DOUBLED) == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_pvalue(9, -1)
        with pytest.raises(ValueError):
            binomial_pvalue(9, 10)
        with pytest.raises(ValueError):
            binomial_pvalue(9, 4, "exotic")

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
            assert binomial_pvalue(n, k, ONE_SIDED) == expected
            assert binomial_pvalue(n, k, TWO_SIDED_DOUBLED) == min(Fraction(1), 2 * expected)


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
            assert runs_count_exact(n, r) == 2 * comb(n - 1, r - 1)
        for k in sorted({0, 1, n // 2, (n + 1) // 2, n - 1, n} & set(range(0, n + 1))):
            tail = _comb_sum(n, k, n) if 2 * k >= n else _comb_sum(n, 0, k)
            assert binomial_pvalue(n, k, ONE_SIDED) == Fraction(tail, total)
            assert binomial_pvalue(n, k, TWO_SIDED_DOUBLED) == min(Fraction(1), Fraction(2 * tail, total))

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 1000])
    def test_distribution_matches_comb(self, n):
        assert runs_distribution(n).counts == tuple(2 * comb(n - 1, r - 1) for r in range(1, n + 1))

    def test_cache_holds_at_most_its_stated_tables(self):
        cached = exact._binomial_prefix_sums
        assert cached.cache_info().maxsize == exact.TAIL_TABLES_CACHED
        for n in [*range(1, 200, 3), 512, 1023, 2048, 3001, TAIL_LENGTH_LIMIT]:
            runs_pvalue(n, 1, "upper")
            binomial_pvalue(n, n // 2)
            runs_distribution(n)
            assert cached.cache_info().currsize <= exact.TAIL_TABLES_CACHED

    def test_limit_is_inclusive(self):
        n = TAIL_LENGTH_LIMIT
        assert runs_pvalue(n, 1, "lower") == Fraction(2, 2**n)
        assert binomial_pvalue(n, n) == Fraction(1, 2**n)

    def test_one_past_the_limit_is_refused_before_any_table(self):
        n = TAIL_LENGTH_LIMIT + 1
        misses = exact._binomial_prefix_sums.cache_info().misses
        start = time.perf_counter()
        for call in (
            lambda: runs_pvalue(n, 1, "lower"),
            lambda: binomial_pvalue(n, 0),
            lambda: runs_distribution(n),
            lambda: runs_count_exact(n, 1),
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


def _cold_row(m: int):
    exact._binomial_prefix_sums.cache_clear()
    return exact._binomial_prefix_sums(m)


def _filled_entries_are_prefix_sums(row) -> bool:
    return all(s is None or s == t for s, t in zip(row.sums, _comb_prefix_sums(row.m), strict=True))


class TestCentreOutRow:
    """The cached row is filled from the centre outward, only as far as queries reach."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0, 1, 2, 3, 4, 63, 64, 255, 256, 2047, 2048]), st.data())
    def test_queries_match_comb_sums_from_any_start(self, m, data):
        row = _cold_row(m)
        start = data.draw(st.sampled_from(["cold", "warm", "partly filled"]))
        if start == "warm":
            exact.binomial_count_between(m, 0, 0)  # S(1) is the farthest entry from the centre
        elif start == "partly filled":
            k = data.draw(st.integers(0, m))
            exact.binomial_count_between(m, k, k)
        end = st.one_of(st.just(0), st.just(m), st.integers(0, m))
        reference = _comb_prefix_sums(m)
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(["range", "single", "lower", "upper"]))
            a = data.draw(end)
            if kind == "range":
                lo, hi = sorted((a, data.draw(end)))
            elif kind == "single":
                lo, hi = a, a
            elif kind == "lower":
                lo, hi = 0, a
            else:
                lo, hi = a, m
            assert exact.binomial_count_between(m, lo, hi) == reference[hi + 1] - reference[lo]
            assert _filled_entries_are_prefix_sums(row)
            assert row.sums[0] == 0 and row.sums[m + 1] == 2**m

    def test_cost_follows_distance_from_the_centre(self):
        n = 5000
        seq = BinarySequence.from_int(random.Random(5000).getrandbits(n), n)
        exact._binomial_prefix_sums.cache_clear()
        runs_test(seq)
        binomial_test(seq)
        for m in (n - 1, n):
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
        for m in (n - 1, n):
            sums = exact._binomial_prefix_sums(m).sums
            assert None not in sums
            assert sums[:65] == [_comb_sum(m, 0, j - 1) for j in range(65)]

    def test_concurrent_fills_of_one_cold_row(self):
        m, rounds, workers = 2047, 12, 8
        reference = _comb_prefix_sums(m)
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
                        lo = rng.randint(0, m)
                        hi = rng.randint(lo, m)
                        try:
                            count = exact.binomial_count_between(m, lo, hi)
                        except Exception as exc:  # a thread's exception would not reach the test
                            count = exc
                        if count != reference[hi + 1] - reference[lo]:
                            wrong.append((lo, hi, count))

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


@pytest.fixture
def comb_calls(monkeypatch):
    """The lengths ``exact`` passes to math.comb while the test runs."""
    calls = []
    monkeypatch.setattr(exact, "comb", lambda m, k: calls.append(m) or comb(m, k))
    return calls


class TestCentralBinomial:
    """A row one step from the last one built derives C(m, m // 2) without math.comb."""

    @pytest.mark.parametrize("lengths", [range(301), range(300, -1, -1)], ids=["upward", "downward"])
    def test_walks_call_comb_at_most_once(self, lengths, comb_calls):
        for m in lengths:
            assert exact._central_binomial(m) == comb(m, m // 2), m
        assert len(comb_calls) <= 1

    def test_jumps_and_steps(self, comb_calls):
        rng = random.Random(300)
        m = rng.randint(0, 300)
        for _ in range(3000):
            m = min(300, max(0, m + rng.choice([-1, 1, 0, rng.randint(-300, 300)])))
            assert exact._central_binomial(m) == comb(m, m // 2), m

    def test_one_comb_per_verdict_pair(self, monkeypatch, comb_calls):
        seq = BinarySequence.from_int(random.Random(2047).getrandbits(2048), 2048)
        exact._binomial_prefix_sums.cache_clear()
        monkeypatch.setattr(exact, "_last_centre", (0, 1))
        runs_test(seq)  # row 2047
        binomial_test(seq)  # row 2048, its centre derived from row 2047's
        assert comb_calls == [2047]


class TestProbabilityHelpers:
    def test_sequence_probability(self):
        assert sequence_probability(9) == Fraction(1, 512)
        assert sequence_probability(1) == Fraction(1, 2)
        assert sequence_probability(20) == Fraction(1, 1048576)
        with pytest.raises(ValueError):
            sequence_probability(0)

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
        with pytest.raises(ValueError):
            as_probability(Fraction(-1, 2))
        assert as_probability(1) == 1

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

    def test_exact_decimal(self):
        assert exact_decimal_string(Fraction(1, 512)) == "0.001953125"
        assert exact_decimal_string(Fraction(1, 2)) == "0.5"
        assert exact_decimal_string(Fraction(1)) == "1"
        assert exact_decimal_string(Fraction(0)) == "0"
        assert exact_decimal_string(Fraction(1, 3)) == "0.333333333333"


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
