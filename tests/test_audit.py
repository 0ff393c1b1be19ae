"""Relabeling audits: reversal quartet, flip search, spectrum, invariance."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randaudit import (
    BINOMIAL,
    BinarySequence,
    CapExceededError,
    ONE_SIDED,
    RUNS,
    RelabelMask,
    TWO_SIDED_DOUBLED,
    check_null_invariance,
    enumerate_runs_distribution,
    find_flipping_mask,
    mask_between,
    mask_from_index_set,
    parse_sequence,
    pvalue_spectrum,
    rejection_set,
    runs_distribution,
    runs_test,
    statistic_count,
    statistic_domain,
    statistic_pvalue,
    verdict_under_relabeling,
)
from randaudit import audit as audit_mod
from randaudit.audit import _runs_reversal

from oracles import brute_force_minimal

ALPHA = Fraction(1, 20)

A = "HTTHTHHHT"
B = "HHHHHTTTT"
D = "TTTTTTTTT"
X_MASK = mask_from_index_set({1, 4, 9}, 9)
Y_MASK = mask_from_index_set({2, 3, 5, 9}, 9)


class TestVerdictUnderRelabeling:
    def test_blocky_runs_verdict_reverses(self):
        audit = verdict_under_relabeling(parse_sequence(B), X_MASK, RUNS, ALPHA)
        assert audit.original.p == Fraction(18, 512) and audit.original.rejected
        assert audit.relabeled_sequence.text(lower=True) == "htththhht"
        assert audit.relabeled.statistic == 6
        assert audit.relabeled.p == Fraction(186, 512) and not audit.relabeled.rejected
        assert audit.flipped

    def test_mixed_runs_verdict_reverses(self):
        audit = verdict_under_relabeling(parse_sequence(A), X_MASK, RUNS, ALPHA)
        assert not audit.original.rejected
        assert audit.relabeled_sequence.text(lower=True) == "hhhhhtttt"
        assert audit.relabeled.statistic == 2
        assert audit.relabeled.p == Fraction(18, 512) and audit.relabeled.rejected
        assert audit.flipped

    def test_binomial_verdict_reverses_doubled(self):
        audit = verdict_under_relabeling(parse_sequence(A), Y_MASK, BINOMIAL, ALPHA, TWO_SIDED_DOUBLED)
        assert audit.relabeled_sequence.text(lower=True) == "ttttttttt"
        assert audit.relabeled.statistic == 0
        assert audit.relabeled.p == Fraction(2, 512) and audit.relabeled.rejected
        assert audit.flipped

    def test_all_tails_binomial_reverses_both_conventions(self):
        for convention in (ONE_SIDED, TWO_SIDED_DOUBLED):
            audit = verdict_under_relabeling(parse_sequence(D), Y_MASK, BINOMIAL, ALPHA, convention)
            assert audit.original.rejected
            assert audit.relabeled_sequence.text(lower=True) == "htththhht"
            assert not audit.relabeled.rejected
            assert audit.flipped

    def test_identity_mask_never_flips(self):
        for test in (RUNS, BINOMIAL):
            audit = verdict_under_relabeling(parse_sequence(A), RelabelMask.identity(9), test, ALPHA)
            assert not audit.flipped
            # only the vocab label may differ between the two verdicts
            assert audit.relabeled.statistic == audit.original.statistic
            assert audit.relabeled.p == audit.original.p
            assert audit.relabeled.rejected == audit.original.rejected

    def test_result_invariants(self):
        audit = verdict_under_relabeling(parse_sequence(B), X_MASK, RUNS, ALPHA)
        assert audit.flipped == (audit.original.rejected != audit.relabeled.rejected)
        direct = runs_test(audit.relabeled_sequence, ALPHA)
        assert direct.p == audit.relabeled.p and direct.rejected == audit.relabeled.rejected
        assert audit.as_dict()["x_set"] == [1, 4, 9]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verdict_under_relabeling(parse_sequence("HT"), X_MASK, RUNS, ALPHA)


def _packed_statistic(values, n: int, test: str):
    """Run count or head count of sequences packed as ints, position 1 in bit 0."""
    if test == RUNS:
        return ((values ^ (values >> 1)) & ((1 << (n - 1)) - 1)).bit_count() + 1
    return values.bit_count()


def _packed_scan_minimal(seq: BinarySequence, test: str, alpha: Fraction, convention: str):
    """Independent search over every mask as a packed int, in numpy."""
    n = seq.n
    rejected = np.zeros(n + 1, dtype=bool)
    rejected[list(rejection_set(test, n, alpha, convention).statistic_values)] = True
    x = seq.value
    masks = np.arange(1 << n, dtype=np.int64)
    y = masks ^ x
    if test == RUNS:
        stats = np.bitwise_count((y ^ (y >> 1)) & ((1 << (n - 1)) - 1)) + 1
    else:
        stats = np.bitwise_count(y)
    found = masks[rejected[stats] != rejected[_packed_statistic(x, n, test)]]
    if found.size == 0:
        return None
    weights = np.bitwise_count(found)
    lightest = found[weights == weights.min()]
    return min(RelabelMask.from_int(int(m), n).flip_string() for m in lightest)


class TestFlipSearch:
    def test_exists_for_blocky_runs(self):
        result = find_flipping_mask(parse_sequence(B), RUNS, ALPHA)
        assert result is not None
        assert result.audit.flipped
        assert result.method == "dp"
        # the X relabeling qualifies too
        assert verdict_under_relabeling(parse_sequence(B), X_MASK, RUNS, ALPHA).flipped

    def test_exists_for_mixed_runs_via_constant_target(self):
        seq = parse_sequence(A)
        to_constant = mask_between(seq, parse_sequence("HHHHHHHHH"))
        audit = verdict_under_relabeling(seq, to_constant, RUNS, ALPHA)
        assert audit.relabeled.statistic == 1
        assert audit.relabeled.p == Fraction(2, 512)
        assert audit.flipped
        assert find_flipping_mask(seq, RUNS, ALPHA) is not None

    def test_single_toss_has_no_reversal(self):
        assert find_flipping_mask(parse_sequence("H"), RUNS, ALPHA) is None

    def test_minimal_for_blocky_runs(self):
        # One flip at the last position already un-rejects HHHHHTTTT;
        # frozen from the brute force below.
        result = find_flipping_mask(parse_sequence(B), RUNS, ALPHA, minimize=True)
        assert result is not None
        assert result.guaranteed_minimal
        assert result.mask.flip_string() == "000000001"
        brute = brute_force_minimal(parse_sequence(B), RUNS, ALPHA, ONE_SIDED)
        assert brute is not None and result.mask == brute

    @pytest.mark.parametrize("case", range(25))
    def test_minimize_matches_brute_force(self, case):
        rng = random.Random(5000 + case)
        n = rng.randint(1, 10)
        seq = BinarySequence(tuple(rng.randint(0, 1) for _ in range(n)))
        test = rng.choice([RUNS, BINOMIAL])
        convention = rng.choice([ONE_SIDED, TWO_SIDED_DOUBLED])
        result = find_flipping_mask(seq, test, ALPHA, convention, minimize=True)
        brute = brute_force_minimal(seq, test, ALPHA, convention)
        if brute is None:
            assert result is None
        else:
            assert result is not None
            assert result.mask == brute
            assert result.audit.flipped

    def test_dp_minimum_on_an_alternating_30_matches_a_packed_scan(self):
        seq = BinarySequence((0, 1) * 15)  # n = 30, strictly alternating, rejected
        assert runs_test(seq, ALPHA).rejected
        result = find_flipping_mask(seq, RUNS, ALPHA)
        assert result is not None
        assert result.method == "dp"
        assert result.guaranteed_minimal
        assert result.audit.flipped
        assert result.mask.flip_count() == 5
        # Packed-int scan of every mask of weight <= 5, C(30, <= 5) in all:
        # none lighter reverses, and no weight-5 reversal has a smaller
        # flip string.
        n, x = seq.n, seq.value
        rejected = set(rejection_set(RUNS, n, ALPHA).statistic_values)
        reversing = {w: [] for w in range(6)}
        for w in range(6):
            for positions in combinations(range(n), w):
                m = sum(1 << i for i in positions)
                if _packed_statistic(x ^ m, n, RUNS) not in rejected:
                    reversing[w].append(m)
        assert all(not reversing[w] for w in range(5))
        smallest = min(RelabelMask.from_int(m, n).flip_string() for m in reversing[5])
        assert result.mask.flip_string() == smallest

    @pytest.mark.parametrize("case", range(24))
    def test_matches_packed_scan_beyond_c07(self, case):
        rng = random.Random(7000 + case)
        n = rng.randint(13, 18)
        seq = BinarySequence(tuple(rng.randint(0, 1) for _ in range(n)))
        test = (RUNS, BINOMIAL)[case % 2]
        convention = (ONE_SIDED, TWO_SIDED_DOUBLED)[case // 2 % 2]
        alpha = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 3))[case // 4 % 3]
        result = find_flipping_mask(seq, test, alpha, convention)
        expected = _packed_scan_minimal(seq, test, alpha, convention)
        if expected is None:
            assert result is None
        else:
            assert result is not None and result.guaranteed_minimal
            assert result.mask.flip_string() == expected

    def test_absence_when_alpha_is_below_every_tail(self):
        # With alpha below every attainable tail nothing is ever
        # rejected, so no relabeling can flip; decided without scanning.
        seq = BinarySequence((0, 1) * 15)
        assert find_flipping_mask(seq, RUNS, Fraction(1, 2**40)) is None

    def test_search_without_minimize_matches_brute_force(self):
        # Without ``minimize`` the search is still the exact minimum.
        seq = parse_sequence(B)
        result = find_flipping_mask(seq, RUNS, ALPHA)
        assert result is not None
        assert result.mask == brute_force_minimal(seq, RUNS, ALPHA, ONE_SIDED)
        assert result.audit.flipped


class TestSpectrum:
    def test_shared_across_seed_sequences(self):
        spec_a = pvalue_spectrum(parse_sequence(A), RUNS)
        spec_b = pvalue_spectrum(parse_sequence(B), RUNS)
        assert spec_a == spec_b
        assert sum(spec_a.values()) == 512

    def test_single_toss(self):
        spec = pvalue_spectrum(parse_sequence("H"), RUNS)
        assert spec == {Fraction(1): 2}

    def test_minimum_value_multiplicity(self):
        # Frozen from enumerating all 512 masks: the 2/512 tail occurs
        # for the two masks reaching each constant target and the two
        # reaching each alternating target.
        spec = pvalue_spectrum(parse_sequence(A), RUNS)
        assert min(spec) == Fraction(2, 512)
        assert spec[Fraction(2, 512)] == 4

    def test_binomial_spectrum_matches_counts(self):
        spec = pvalue_spectrum(parse_sequence("HT"), BINOMIAL)
        # k over masks: {0: 1, 1: 2, 2: 1}; p(0) = 1/4, p(1) = 3/4, p(2) = 1/4.
        assert spec == {Fraction(1, 4): 2, Fraction(3, 4): 2}

    def test_cap(self):
        # No cap: the spectrum is the null law at any length, checked
        # against enumeration at n = 17 and the closed form at n = 40.
        for n, dist in ((17, enumerate_runs_distribution(17)), (40, runs_distribution(40))):
            spec = pvalue_spectrum(BinarySequence((0,) * n), RUNS)
            assert sum(spec.values()) == 2**n
            expected = Counter()
            for r in range(1, n + 1):
                expected[statistic_pvalue(RUNS, n, r)[1]] += dist.count(r)
            assert spec == expected

    @pytest.mark.parametrize("n", [*range(1, 65), 1000, 5000])
    @pytest.mark.parametrize(
        "test, convention", [(RUNS, ONE_SIDED), (BINOMIAL, ONE_SIDED), (BINOMIAL, TWO_SIDED_DOUBLED)]
    )
    def test_against_a_fraction_keyed_tally(self, test, convention, n):
        # The tally keyed on each value's Fraction p-value, merged by Fraction equality.
        expected = Counter()
        for v in statistic_domain(test, n):
            expected[statistic_pvalue(test, n, v, convention)[1]] += statistic_count(test, n, v)
        spec = pvalue_spectrum(BinarySequence.from_int(random.Random(n).getrandbits(n), n), test, convention)
        assert spec == expected
        assert sum(spec.values()) == 2**n
        for p in spec:
            assert type(p) is Fraction and gcd(p.numerator, p.denominator) == 1


class TestNullInvariance:
    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_passes(self, n):
        report = check_null_invariance(n)
        assert report.passed
        assert report.masks_checked == 2**n

    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_fails_on_a_broken_swap(self, j, monkeypatch):
        # With plane j all 0, the swap on bit j moves every sequence up by
        # 2^j, and Gray order first flips bit j at the (2^j + 1)-th mask.
        planes = audit_mod._lane_planes
        monkeypatch.setattr(audit_mod, "_lane_planes", lambda n: [0 if i == j else p for i, p in enumerate(planes(n))])
        report = check_null_invariance(5)
        assert report.passed is False
        assert report.masks_checked == 2**j + 1

    def test_cap(self):
        with pytest.raises(CapExceededError):
            check_null_invariance(13)

    def test_as_dict(self):
        payload = check_null_invariance(3).as_dict()
        assert payload == {"n": 3, "masks_checked": 8, "passed": True}


def _reference_runs_reversal(bits: tuple[int, ...], targets: list[int]) -> tuple[bool, ...]:
    """The run-count reversal DP on a numpy table of shape (n, 2, n + 1).

    ``cost[i, c, b]`` is the fewest flips among positions after i, given
    m[i] = c and b breaks before position i, that end on a target run
    count (n + 1 if none does); the table uses the narrowest unsigned
    type that holds n + 2.  Kept as the reference for the lane-packed DP.
    """
    n = len(bits)
    inf = n + 1
    dtype = np.min_scalar_type(n + 2)
    cost = np.full((n, 2, n + 1), inf, dtype=dtype)
    cost[n - 1, :, [r - 1 for r in targets]] = 0
    flip_cost = np.array([[0], [1]], dtype=dtype)
    for i in range(n - 2, -1, -1):
        # Row c of ``keep`` continues with m[i + 1] = c ^ edge, which adds
        # no break; the reversed rows continue with the other bit and add one.
        keep = cost[i + 1] + flip_cost
        if bits[i] ^ bits[i + 1]:
            keep = keep[::-1]
        cost[i, :, :n] = np.minimum(keep[:, :n], keep[::-1, 1:])
    m = 0 if cost[0, 0, 0] <= 1 + cost[0, 1, 0] else 1
    flips = [m]
    remaining = int(cost[0, m, 0])
    breaks = 0
    for i in range(n - 1):
        x = bits[i] ^ bits[i + 1] ^ m  # break added if m[i + 1] = 0
        m = 0 if cost[i + 1, 0, breaks + x] == remaining else 1
        breaks += x ^ m
        remaining -= m
        flips.append(m)
    return tuple(bool(f) for f in flips)


def _run_count_targets(seq: BinarySequence, alpha: Fraction, convention: str) -> list[int]:
    """Run counts whose verdict is the opposite of the observed one."""
    rejected = set(rejection_set(RUNS, seq.n, alpha, convention).statistic_values)
    observed = runs_test(seq, alpha).statistic in rejected
    return [r for r in range(1, seq.n + 1) if (r in rejected) != observed]


class TestRunsReversalAgainstReference:
    # Lanes are (n + 2).bit_length() + 1 bits wide, so each pair of
    # lengths straddles a change of width: n + 2 = 63 | 64, 127 | 128, ...
    @pytest.mark.parametrize("n", [61, 62, 125, 126, 253, 254, 509, 510, 1000])
    def test_matches_reference_at_lane_widths(self, n):
        rng = random.Random(n)
        seqs = [BinarySequence((0,) * n), BinarySequence(tuple(i % 2 for i in range(n)))]
        seqs += [BinarySequence(tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(2)]
        seqs += [BinarySequence(tuple(int(rng.random() < 0.1) for _ in range(n))) for _ in range(2)]
        found = 0
        for alpha in (Fraction(1, 1000), ALPHA, Fraction(1, 3)):
            for convention in (ONE_SIDED, TWO_SIDED_DOUBLED):
                for seq in seqs:
                    result = find_flipping_mask(seq, RUNS, alpha, convention)
                    targets = _run_count_targets(seq, alpha, convention)
                    if not targets:
                        assert result is None
                        continue
                    assert result is not None and result.method == "dp"
                    assert result.mask.flips == _reference_runs_reversal(seq.bits, targets)
                    found += 1
        assert found

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_any_target_set_matches_reference(self, n, data):
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        targets = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
        assert _runs_reversal(bits, targets) == _reference_runs_reversal(bits, targets)

    def test_constant_stream_at_the_length_limit(self):
        # One run is rejected; the nearest accepted run count at n = 5000 is
        # 2,442, that is 2,441 breaks, and one flip adds at most two.
        seq = BinarySequence((0,) * 5000)
        result = find_flipping_mask(seq, RUNS, ALPHA)
        assert result is not None and result.method == "dp"
        assert result.mask.flip_count() == 1221
        assert result.audit.flipped

    def test_rows_are_triangular(self):
        # Only the rows with m[i] = 0 are kept, and row i holds lanes
        # 0..i, so the table takes about n^2 w / 2 bits; full-width rows
        # would take twice that.
        n = 2000
        w = (n + 2).bit_length() + 1
        bits = tuple(random.Random(1).randint(0, 1) for _ in range(n))
        tracemalloc.start()
        try:
            _runs_reversal(bits, [1, n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * n * n * w / 8
