"""Verdict semantics, tail selection, and rejection sets."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randaudit import verdicts
from randaudit import (
    BINOMIAL,
    BinarySequence,
    CapExceededError,
    LISTING_LIMIT,
    ONE_SIDED,
    RUNS,
    TWO_SIDED_DOUBLED,
    binomial_test,
    count_runs,
    parse_sequence,
    pvalue_spectrum,
    rejection_set,
    runs_test,
    statistic_count,
    statistic_domain,
    statistic_pvalue,
)

ALPHA = Fraction(1, 20)
# 18/512 is the runs p-value of r = 2 and r = 8 at n = 9: p == alpha exactly.
ALPHAS = (Fraction(0), Fraction(1, 100), Fraction(1, 20), Fraction(18, 512), Fraction(1, 2), Fraction(1))


class TestRunsVerdicts:
    def test_mixed_sequence_not_rejected(self):
        v = runs_test(parse_sequence("HTTHTHHHT"), ALPHA)
        assert (v.statistic, v.tail_used, v.p, v.rejected) == (6, "upper", Fraction(186, 512), False)

    def test_blocky_sequence_rejected(self):
        v = runs_test(parse_sequence("HHHHHTTTT"), ALPHA)
        assert (v.statistic, v.tail_used, v.p, v.rejected) == (2, "lower", Fraction(18, 512), True)

    def test_constant_sequence_rejected(self):
        v = runs_test(parse_sequence("HHHHHHHHH"), ALPHA)
        assert (v.statistic, v.p, v.rejected) == (1, Fraction(2, 512), True)

    def test_single_outcome_p_is_one(self):
        v = runs_test(parse_sequence("H"), ALPHA)
        assert v.p == 1
        assert not v.rejected
        assert runs_test(parse_sequence("H"), Fraction(1)).rejected

    def test_center_tie_uses_equal_tails(self):
        # 110011001 has 5 runs, dead center for n = 9; both tails agree.
        seq = BinarySequence((1, 1, 0, 0, 1, 1, 0, 0, 1))
        v = runs_test(seq, ALPHA)
        assert v.statistic == 5
        assert v.tail_used == "lower"
        assert v.p == Fraction(326, 512)

    def test_vocab_copied_and_ignored(self):
        v = runs_test(parse_sequence("HHHHHTTTT", vocab="teads/hails"), ALPHA)
        assert v.vocab == "teads/hails"
        assert v.p == runs_test(parse_sequence("HHHHHTTTT"), ALPHA).p

    def test_alpha_comparison_is_exact(self):
        seq = parse_sequence("HHHHHTTTT")  # p = 18/512 exactly
        assert runs_test(seq, Fraction(18, 512)).rejected
        assert not runs_test(seq, Fraction(17, 512)).rejected


class TestBinomialVerdicts:
    def test_five_heads_of_nine(self):
        for text in ("HTTHTHHHT", "HHHHHTTTT"):
            v = binomial_test(parse_sequence(text), ALPHA)
            assert (v.statistic, v.tail_used, v.p, v.rejected) == (5, "upper", Fraction(1, 2), False)

    def test_all_tails_rejected_one_sided(self):
        v = binomial_test(parse_sequence("TTTTTTTTT"), ALPHA, ONE_SIDED)
        assert (v.statistic, v.tail_used, v.p, v.rejected) == (0, "lower", Fraction(1, 512), True)

    def test_doubled_convention_tail_label(self):
        v = binomial_test(parse_sequence("TTTTTTTTT"), ALPHA, TWO_SIDED_DOUBLED)
        assert (v.tail_used, v.p, v.rejected) == ("doubled", Fraction(2, 512), True)

    def test_exact_half_count_uses_upper_tail(self):
        v = binomial_test(parse_sequence("HHTT"), ALPHA)
        assert v.statistic == 2
        assert v.tail_used == "upper"


class TestRejectionSets:
    def test_runs_n9(self):
        # Frozen from enumerating all 512 sequences: both extremes of
        # each tail reject, including r = 8 whose upper tail equals the
        # r = 2 lower tail (18/512) by symmetry.
        result = rejection_set(RUNS, 9, ALPHA)
        assert result.statistic_values == (1, 2, 8, 9)
        assert result.exact_size == Fraction(36, 512)

    def test_runs_n9_explicit_sequences(self):
        result = rejection_set(RUNS, 9, ALPHA, include_sequences=True)
        assert result.sequences is not None
        assert len(result.sequences) == 36
        assert result.exact_size == Fraction(len(result.sequences), 512)

    def test_runs_n2_empty(self):
        result = rejection_set(RUNS, 2, ALPHA)
        assert result.statistic_values == ()
        assert result.exact_size == 0

    def test_binomial_n9(self):
        # P(K <= 1) = 10/512 <= 1/20 but P(K <= 2) = 46/512 > 1/20.
        result = rejection_set(BINOMIAL, 9, ALPHA, ONE_SIDED)
        assert result.statistic_values == (0, 1, 8, 9)
        assert result.exact_size == Fraction(20, 512)

    def test_alpha_extremes(self):
        assert rejection_set(RUNS, 9, Fraction(0)).statistic_values == ()
        assert rejection_set(RUNS, 9, Fraction(1)).statistic_values == tuple(range(1, 10))
        assert rejection_set(RUNS, 9, Fraction(1)).exact_size == 1

    @pytest.mark.parametrize("n", [1, 2, 9, 1000])
    @pytest.mark.parametrize("convention", [ONE_SIDED, TWO_SIDED_DOUBLED])
    @pytest.mark.parametrize("test", [RUNS, BINOMIAL])
    def test_rejected_values_are_a_prefix_and_a_suffix_of_the_domain(self, test, convention, n):
        # Each rejected set is cut from the domain by at most two cut points.
        domain = tuple(statistic_domain(test, n))
        for alpha in (Fraction(0), Fraction(1, 100), Fraction(1, 20), Fraction(1, 2), Fraction(1)):
            values = rejection_set(test, n, alpha, convention).statistic_values
            head = 0
            while head < len(values) and values[head] == domain[head]:
                head += 1
            tail = values[head:]
            assert tail == domain[len(domain) - len(tail) :], (alpha, values)

    def test_explicit_listing_past_the_enumeration_cap(self):
        # Rejected run counts {1, 2, 29, 30}: 2 + 58 + 58 + 2 sequences.
        listed = rejection_set(RUNS, 30, Fraction(1, 10_000_000), include_sequences=True)
        assert listed.statistic_values == (1, 2, 29, 30)
        assert len(listed.sequences) == 120
        assert sorted(count_runs(s) for s in listed.sequences) == [1] * 2 + [2] * 58 + [29] * 58 + [30] * 2

    def test_explicit_listing_symbol_limit(self, monkeypatch):
        # Values {1, 2, 999, 1000} hold 4,000 sequences, within LISTING_LIMIT,
        # but 4,000,000 symbols: refused before any sequence is built.
        def unbuilt(n, r):
            raise AssertionError("a sequence was built")

        monkeypatch.setitem(verdicts.STATISTICS, RUNS, verdicts.STATISTICS[RUNS]._replace(attaining=unbuilt))
        alpha = Fraction(1, 2**985)
        assert rejection_set(RUNS, 1000, alpha).statistic_values == (1, 2, 999, 1000)
        with pytest.raises(CapExceededError, match="4000000 symbols exceeds the limit 1572864"):
            rejection_set(RUNS, 1000, alpha, include_sequences=True)

    def test_explicit_listing_limit(self):
        assert LISTING_LIMIT == 1 << 16
        listed = rejection_set(BINOMIAL, 16, Fraction(1), include_sequences=True)
        assert len(listed.sequences) == LISTING_LIMIT
        with pytest.raises(CapExceededError, match=f"limit {LISTING_LIMIT}"):
            rejection_set(BINOMIAL, 17, Fraction(1), include_sequences=True)

    @pytest.mark.parametrize("test", [RUNS, BINOMIAL])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_consistency_with_verdicts(self, test, n):
        values = frozenset(rejection_set(test, n, ALPHA).statistic_values)
        for bits in product((0, 1), repeat=n):
            seq = BinarySequence(bits)
            verdict = runs_test(seq, ALPHA) if test == RUNS else binomial_test(seq, ALPHA)
            assert verdict.rejected == (verdict.statistic in values)

    @pytest.mark.parametrize("test", [RUNS, BINOMIAL])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_size_matches_enumeration(self, test, n):
        result = rejection_set(test, n, ALPHA)
        hits = 0
        for bits in product((0, 1), repeat=n):
            seq = BinarySequence(bits)
            verdict = runs_test(seq, ALPHA) if test == RUNS else binomial_test(seq, ALPHA)
            hits += verdict.rejected
        assert result.exact_size == Fraction(hits, 2**n)


@pytest.mark.parametrize(
    "test, convention", [(RUNS, ONE_SIDED), (BINOMIAL, ONE_SIDED), (BINOMIAL, TWO_SIDED_DOUBLED)]
)
@pytest.mark.parametrize("n", range(1, 13))
def test_rejection_set_against_rule_and_tally(test, convention, n):
    # Tally every bit tuple by statistic, independently of the tables.
    by_value = {}
    for bits in product((0, 1), repeat=n):
        stat = 1 + sum(a != b for a, b in zip(bits, bits[1:])) if test == RUNS else sum(bits)
        by_value.setdefault(stat, []).append(bits)
    for v in statistic_domain(test, n):
        assert statistic_count(test, n, v) == len(by_value.get(v, []))
    for alpha in ALPHAS:
        result = rejection_set(test, n, alpha, convention, include_sequences=n <= 10)
        rule = tuple(v for v in statistic_domain(test, n) if statistic_pvalue(test, n, v, convention)[1] <= alpha)
        assert result.statistic_values == rule
        hits = [bits for v in rule for bits in by_value.get(v, [])]
        assert result.exact_size == Fraction(len(hits), 2**n)
        if result.sequences is not None:
            listed = [s.value for s in result.sequences]
            assert listed == sorted(BinarySequence(bits).value for bits in hits)


@pytest.mark.parametrize("convention", [ONE_SIDED, TWO_SIDED_DOUBLED])
@pytest.mark.parametrize("test", [RUNS, BINOMIAL])
@pytest.mark.parametrize("n", [*range(1, 65), 1000, 4999, 5000])
def test_rejection_set_is_the_fraction_rule(test, convention, n):
    # The rule on Fractions, against the scan that compares counts on ints.
    pvalues = [(v, statistic_pvalue(test, n, v, convention)[1]) for v in statistic_domain(test, n)]
    # The largest tail at most 1/20, or the smallest tail if none is: an alpha equal to an attained tail.
    attained = max((p for _, p in pvalues if p <= ALPHA), default=min(p for _, p in pvalues))
    for alpha in (Fraction(0), Fraction(1, 100), ALPHA, Fraction(1, 2), Fraction(1), attained):
        result = rejection_set(test, n, alpha, convention)
        rule = tuple(v for v, p in pvalues if p <= alpha)
        assert result.statistic_values == rule, alpha
        mass = sum(statistic_count(test, n, v) for v in rule)
        assert result.exact_size == Fraction(mass, 2**n)


def test_scans_build_one_fraction_per_reported_probability(monkeypatch):
    # A rejection set builds only its exact size; a spectrum one Fraction per distinct p-value.
    built = []

    def counted(count, n):
        built.append(count)
        return real(count, n)

    real = verdicts.dyadic
    monkeypatch.setattr(verdicts, "dyadic", counted)
    seq = parse_sequence("HT" * 500)
    for test, convention in ((RUNS, ONE_SIDED), (BINOMIAL, ONE_SIDED), (BINOMIAL, TWO_SIDED_DOUBLED)):
        built.clear()
        rejection_set(test, 1000, ALPHA, convention)
        assert len(built) == 1
        built.clear()
        spectrum = pvalue_spectrum(seq, test, convention)
        assert len(built) == len(spectrum) > 1


@pytest.mark.parametrize("convention", [ONE_SIDED, TWO_SIDED_DOUBLED])
@pytest.mark.parametrize("test", [RUNS, BINOMIAL])
@pytest.mark.parametrize("n, alpha", [(16, Fraction(1, 4)), (20, Fraction(1, 100))])
def test_listing_matches_packed_scan(n, alpha, test, convention):
    # Scan all 2^n packed sequences in numpy, independently of the listing.
    result = rejection_set(test, n, alpha, convention, include_sequences=True)
    x = np.arange(1 << n, dtype=np.uint32)
    if test == RUNS:
        stats = np.bitwise_count((x ^ (x >> np.uint32(1))) & np.uint32((1 << (n - 1)) - 1)) + 1
    else:
        stats = np.bitwise_count(x)
    scanned = x[np.isin(stats, list(result.statistic_values))].tolist()
    assert scanned
    assert [s.value for s in result.sequences] == scanned


class TestStatisticHelpers:
    def test_domains(self):
        assert list(statistic_domain(RUNS, 4)) == [1, 2, 3, 4]
        assert list(statistic_domain(BINOMIAL, 4)) == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            statistic_domain("median", 4)

    def test_statistic_pvalue_matches_verdicts(self):
        tail, p = statistic_pvalue(RUNS, 9, 6)
        assert (tail, p) == ("upper", Fraction(186, 512))
        tail, p = statistic_pvalue(BINOMIAL, 9, 0, TWO_SIDED_DOUBLED)
        assert (tail, p) == ("doubled", Fraction(2, 512))
        with pytest.raises(ValueError):
            statistic_pvalue(RUNS, 9, 0)


def test_doubled_tail_is_the_one_sided_tail_doubled_and_clipped():
    for n in range(1, 65):
        for k in range(n + 1):
            p = statistic_pvalue(BINOMIAL, n, k, ONE_SIDED)[1]
            assert statistic_pvalue(BINOMIAL, n, k, TWO_SIDED_DOUBLED) == ("doubled", min(Fraction(1), 2 * p))


@given(st.data())
def test_rejected_is_the_fraction_rule(data):
    test = data.draw(st.sampled_from([RUNS, BINOMIAL]))
    convention = data.draw(st.sampled_from([ONE_SIDED, TWO_SIDED_DOUBLED]))
    n = data.draw(st.integers(1, 64))
    value = data.draw(st.sampled_from(statistic_domain(test, n)))
    tail, p = statistic_pvalue(test, n, value, convention)
    # An alpha equal to the tail, one dyadic step either side of it, or any probability.
    step = Fraction(1, 2 ** data.draw(st.integers(n, n + 8)))
    near = st.sampled_from([p, max(p - step, Fraction(0)), min(p + step, Fraction(1))])
    alpha = data.draw(st.one_of(near, st.sampled_from(ALPHAS), st.fractions(0, 1)))
    assert verdicts.TestVerdict(test, value, tail, p, alpha, "heads/tails").rejected == (p <= alpha)


class TestStatisticTable:
    @pytest.mark.parametrize("test", [RUNS, BINOMIAL])
    def test_counts_refuse_lengths_beyond_the_tail_limit(self, test):
        from math import comb

        from randaudit import TAIL_LENGTH_LIMIT

        n, low = TAIL_LENGTH_LIMIT, statistic_domain(test, 1).start
        assert statistic_count(test, n, n // 2) == comb(n - low, n // 2 - low) << low
        with pytest.raises(CapExceededError):
            statistic_count(test, n + 1, 1)

    def test_unknown_test_is_refused_everywhere(self):
        from randaudit import (
            SourceModel,
            find_flipping_mask,
            mask_from_index_set,
            pvalue_spectrum,
            rejection_rate,
            verdict_under_relabeling,
        )

        seq = parse_sequence("HTTH")

        calls = [
            lambda: statistic_domain("chi2", 4),
            lambda: statistic_pvalue("chi2", 4, 1),
            lambda: statistic_count("chi2", 4, 1),
            lambda: rejection_set("chi2", 4),
            lambda: verdict_under_relabeling(seq, mask_from_index_set({1}, 4), "chi2"),
            lambda: find_flipping_mask(seq, "chi2"),
            lambda: pvalue_spectrum(seq, "chi2"),
            lambda: rejection_rate(SourceModel.fair(), "chi2", 4, trials=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="unknown test 'chi2'"):
                call()

    def test_unknown_convention_is_refused_everywhere(self):
        from randaudit import (
            SourceModel,
            find_flipping_mask,
            mask_from_index_set,
            pvalue_spectrum,
            rejection_rate,
            verdict_under_relabeling,
        )

        seq = parse_sequence("HTTH")
        calls = [
            lambda: statistic_pvalue(RUNS, 4, 1, "bogus"),
            lambda: statistic_pvalue(BINOMIAL, 4, 1, "bogus"),
            lambda: binomial_test(seq, ALPHA, "bogus"),
            lambda: rejection_set(RUNS, 9, ALPHA, "bogus"),
            lambda: verdict_under_relabeling(seq, mask_from_index_set({1}, 4), RUNS, ALPHA, "bogus"),
            lambda: find_flipping_mask(seq, RUNS, ALPHA, "bogus"),
            lambda: pvalue_spectrum(seq, RUNS, "bogus"),
            lambda: rejection_rate(SourceModel.fair(), RUNS, 4, ALPHA, "bogus", trials=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="unknown convention 'bogus'"):
                call()
        # An unknown test is named first, before the convention is read.
        with pytest.raises(ValueError, match="unknown test 'chi2'"):
            statistic_pvalue("chi2", 4, 1, "bogus")


PUBLIC_NAMES = """
AuditResult BINOMIAL BLOCK_TRIALS BinarySequence CONVENTIONS CapExceededError
DEFAULT_ALPHA ENUMERATION_CAP FlipSearchResult INVARIANCE_CAP
LISTING_LIMIT NullInvarianceReport ONE_SIDED ParseError RUNS
RejectionRateEstimate RejectionSet RelabelMask RunsDistribution
SIMULATION_WORK_LIMIT SourceModel TAIL_LENGTH_LIMIT TWO_SIDED_DOUBLED
TestVerdict apply_relabeling as_probability binomial_test
check_null_invariance count_ones count_runs decimal_string
enumerate_runs_distribution exact_decimal_string find_flipping_mask
likelihood mask_between mask_from_index_set parse_model parse_rational
parse_sequence posterior_odds pvalue_spectrum rejection_rate rejection_set
runs_distribution runs_pvalue runs_test sample_sequence
statistic_count statistic_domain statistic_pvalue
verdict_under_relabeling
""".split()


def test_public_surface_is_pinned():
    import randaudit
    import randaudit.report

    assert sorted(randaudit.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(randaudit, name) for name in PUBLIC_NAMES)
    # The benchmark patches the first and renders spectra with the second.
    assert callable(randaudit.verdicts.runs_pvalue)
    assert callable(randaudit.report.prob_dict)
