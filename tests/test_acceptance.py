"""Acceptance gate: one test per frozen criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.

Criterion 8 is the exact size of the runs test at n = 9, alpha = 1/20,
checked against simulation.  The run-count law is symmetric about
(n + 1) / 2, and a count above the centre is judged by its upper tail,
a count below it by its lower tail.  The lower tail of r = 2 and the
upper tail of r = 8 are therefore both 18/512 <= 1/20, while r = 3 and
r = 7 have tails of 74/512 > 1/20.  The rejected run counts are
{1, 2, 8, 9} and the exact size is 2 + 16 + 16 + 2 = 36/512.  An earlier
revision pinned 20/512, which is the one-sided head-count size at the same
n and alpha (rejected counts {0, 1, 8, 9}); for the runs test it would
need the asymmetric set {1, 2, 9}, which breaks the tail rule above.
"""

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np

from randaudit import (
    BINOMIAL,
    BinarySequence,
    ONE_SIDED,
    RUNS,
    RelabelMask,
    SourceModel,
    TWO_SIDED_DOUBLED,
    apply_relabeling,
    check_null_invariance,
    count_runs,
    decimal_string,
    enumerate_runs_distribution,
    find_flipping_mask,
    likelihood,
    mask_between,
    mask_from_index_set,
    parse_sequence,
    pvalue_spectrum,
    rejection_rate,
    rejection_set,
    runs_distribution,
    runs_pvalue,
    runs_test,
    statistic_pvalue,
    verdict_under_relabeling,
)
from randaudit.cli import run_cli

from oracles import brute_force_minimal

ALPHA = Fraction(1, 20)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {description}")
        raise
    print(f"criterion {num}: PASS  {description}")


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c01_runs_pvalues():
    with criterion(1, "exact runs tails 186/512 and 18/512, under 1 ms"):
        upper = runs_pvalue(9, 6, "upper")
        lower = runs_pvalue(9, 2, "lower")
        assert upper == Fraction(186, 512)
        assert decimal_string(upper) == "0.363"
        assert lower == Fraction(18, 512)
        assert decimal_string(lower) == "0.035"
        assert _best_time(lambda: runs_pvalue(9, 6, "upper")) < 1e-3
        assert _best_time(lambda: runs_pvalue(9, 2, "lower")) < 1e-3


def test_c02_binomial_pvalues(capsys):
    with criterion(2, "binomial 1/2 and doubled 2/512 with one-sided 1/512 and caveat"):
        assert statistic_pvalue(BINOMIAL, 9, 5, ONE_SIDED)[1] == Fraction(1, 2)
        doubled = statistic_pvalue(BINOMIAL, 9, 0, TWO_SIDED_DOUBLED)[1]
        assert doubled == Fraction(2, 512)
        assert doubled == Fraction(1, 256) and float(doubled) == 0.00390625
        assert decimal_string(doubled) == "0.004"
        assert statistic_pvalue(BINOMIAL, 9, 0, ONE_SIDED)[1] == Fraction(1, 512)
        # the reporting surface carries the one-sided value and the caveat
        code = run_cli(["binomial-test", "--seq", "TTTTTTTTT", "--convention", "two-sided-doubled"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        one_sided = next(r for r in report["results"] if "one_sided" in r)
        assert Fraction(one_sided["one_sided"]["p"]["num"], one_sided["one_sided"]["p"]["den"]) == Fraction(1, 512)
        assert any("two-sided-doubled" in note for note in report["notes"])


def test_c03_sequence_correspondences():
    with criterion(3, "relabeling reproduces all four correspondence rows"):
        a = parse_sequence("HTTHTHHHT")
        b = parse_sequence("HHHHHTTTT")
        d = parse_sequence("TTTTTTTTT")
        x = mask_from_index_set({1, 4, 9}, 9)
        y = mask_from_index_set({2, 3, 5, 9}, 9)
        assert apply_relabeling(a, x).text(lower=True) == "hhhhhtttt"
        assert apply_relabeling(b, x).text(lower=True) == "htththhht"
        assert apply_relabeling(a, y).text(lower=True) == "ttttttttt"
        assert apply_relabeling(d, y).text(lower=True) == "htththhht"


def test_c04_reversal_quartet(capsys):
    with criterion(4, "verdict reversals at alpha = 1/20 and reproduce-paper exits 0"):
        a = parse_sequence("HTTHTHHHT")
        b = parse_sequence("HHHHHTTTT")
        x = mask_from_index_set({1, 4, 9}, 9)
        y = mask_from_index_set({2, 3, 5, 9}, 9)

        runs_a = verdict_under_relabeling(a, x, RUNS, ALPHA)
        assert not runs_a.original.rejected and runs_a.relabeled.rejected and runs_a.flipped
        runs_b = verdict_under_relabeling(b, x, RUNS, ALPHA)
        assert runs_b.original.rejected and not runs_b.relabeled.rejected and runs_b.flipped
        binom_a = verdict_under_relabeling(a, y, BINOMIAL, ALPHA, TWO_SIDED_DOUBLED)
        assert not binom_a.original.rejected and binom_a.relabeled.rejected and binom_a.flipped
        assert binom_a.relabeled.p == Fraction(2, 512)

        code = run_cli(["reproduce-paper"])
        capsys.readouterr()
        assert code == 0


def test_c05_oracle_equivalence():
    with criterion(5, "closed-form runs counts equal enumeration for all n <= 14, under 5 s"):
        t0 = time.perf_counter()
        for n in range(1, 15):
            assert runs_distribution(n).counts == enumerate_runs_distribution(n).counts
        assert time.perf_counter() - t0 < 5.0


def test_c06_group_and_measure_properties():
    with criterion(6, "involution, unique transitivity, spectrum equality, null invariance for n <= 12"):
        # Null invariance doubles as the uniqueness certificate: for each
        # mask the action is a permutation of {0,1}^n, so distinct masks
        # reach distinct targets from any fixed source.
        for n in range(1, 13):
            assert check_null_invariance(n).passed

        # Involution and reconstruction, exhaustively over sequences and
        # masks up to n = 8, then over every mask against fixed seed
        # sequences up to n = 12.
        for n in range(1, 9):
            for s in range(1 << n):
                seq = BinarySequence.from_int(s, n)
                for m in range(1 << n):
                    mask = RelabelMask.from_int(m, n)
                    relabeled = apply_relabeling(seq, mask)
                    assert apply_relabeling(relabeled, mask).bits == seq.bits
        rng = random.Random(606)
        for n in range(9, 13):
            seeds = [BinarySequence.from_int(rng.randrange(1 << n), n) for _ in range(8)]
            for m in range(1 << n):
                mask = RelabelMask.from_int(m, n)
                for seq in seeds:
                    relabeled = apply_relabeling(seq, mask)
                    assert apply_relabeling(relabeled, mask).bits == seq.bits
                    assert mask_between(seq, relabeled) == mask

        # Spectrum equality across every seed sequence, each checked
        # against a tally of the statistic over every mask XORed into it.
        for n in range(1, 13):
            masks = np.arange(1 << n, dtype=np.uint32)
            for test in (RUNS, BINOMIAL):
                spectra = {}  # statistic tally -> its p-value multiset
                for s in range(1 << n):
                    y = masks ^ np.uint32(s)
                    if test == RUNS:
                        y = (y ^ (y >> np.uint32(1))) & np.uint32((1 << (n - 1)) - 1)
                    stats = np.bitwise_count(y) + (1 if test == RUNS else 0)
                    tally = tuple(np.bincount(stats).tolist())
                    if tally not in spectra:
                        spectra[tally] = Counter()
                        for v, count in enumerate(tally):
                            if count:
                                spectra[tally][statistic_pvalue(test, n, v)[1]] += count
                    assert pvalue_spectrum(BinarySequence.from_int(s, n), test) == spectra[tally]


def test_c07_minimal_flip_search():
    with criterion(7, "minimize agrees with brute force on 100 seeded cases, n <= 12"):
        rng = random.Random(20260810)
        found = 0
        for _ in range(100):
            n = rng.randint(1, 12)
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
                assert result.guaranteed_minimal
                found += 1
        assert found > 0  # the sample must actually exercise reversals


def test_c08_exact_size_vs_simulation():
    """Exact runs size 36/512 at n = 9, derived from the tails, against Monte Carlo.

    The rejected run counts follow from the symmetric tails (see the
    module docstring): r = 2 and r = 8 both have tail 18/512 <= 1/20,
    r = 3 and r = 7 both have 74/512 > 1/20.
    """
    with criterion(8, "exact runs rejection probability 36/512 at n = 9, counts {1, 2, 8, 9}, vs simulation"):
        t0 = time.perf_counter()
        region = rejection_set(RUNS, 9, ALPHA)
        estimate = rejection_rate(SourceModel.fair(), RUNS, 9, ALPHA, trials=100_000, seed=8)
        elapsed = time.perf_counter() - t0
        inner = Fraction(18, 512)
        assert runs_pvalue(9, 2, "lower") == runs_pvalue(9, 8, "upper") == inner <= ALPHA
        outer = Fraction(74, 512)
        assert runs_pvalue(9, 3, "lower") == runs_pvalue(9, 7, "upper") == outer > ALPHA
        assert region.statistic_values == (1, 2, 8, 9)
        assert region.exact_size == Fraction(36, 512)
        assert estimate.exact_fair_size == region.exact_size
        p = float(region.exact_size)
        se = (p * (1 - p) / estimate.trials) ** 0.5
        assert abs(estimate.rate - p) <= 4 * se
        assert elapsed < 10.0


def test_c08_companion_enumerated_size():
    """Criterion 8 cross-checked by enumeration: tallying every length-9 sequence gives 36/512.

    The Monte Carlo side is c08's alone; repeating it here with the same
    seed would check nothing new.
    """
    with criterion("8*", "companion: enumerated runs rejection size 36/512 at n = 9, under 10 s"):
        t0 = time.perf_counter()
        region = rejection_set(RUNS, 9, ALPHA)
        assert region.exact_size == Fraction(36, 512)
        assert region.statistic_values == (1, 2, 8, 9)
        # independent enumeration of the exact size
        hits = sum(
            runs_test(BinarySequence(bits), ALPHA).rejected for bits in product((0, 1), repeat=9)
        )
        assert Fraction(hits, 512) == region.exact_size
        assert time.perf_counter() - t0 < 10.0


def test_c09_likelihood_normalization():
    with criterion(9, "every rational source model sums to exactly 1 over {0,1}^n, n <= 10"):
        models = [
            SourceModel.fair(),
            SourceModel.biased(Fraction(1, 2)),
            SourceModel.biased(Fraction(1, 3)),
            SourceModel.biased(Fraction(0)),
            SourceModel.biased(Fraction(1)),
            SourceModel.sticky_markov(Fraction(3, 4)),
            SourceModel.sticky_markov(Fraction(9, 10)),
            SourceModel.sticky_markov(Fraction(0)),
            SourceModel.sticky_markov(Fraction(1)),
        ]
        for model in models:
            for n in range(1, 11):
                total = sum(
                    likelihood(model, BinarySequence(bits)) for bits in product((0, 1), repeat=n)
                )
                assert total == 1, (model, n)
