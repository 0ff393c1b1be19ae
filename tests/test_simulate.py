"""Source models: sampling determinism, exact likelihoods, size checks."""

import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import sqrt
from pathlib import Path

import pytest

from randaudit import (
    BINOMIAL,
    BLOCK_TRIALS,
    BinarySequence,
    CapExceededError,
    ONE_SIDED,
    RUNS,
    SIMULATION_WORK_LIMIT,
    SourceModel,
    TWO_SIDED_DOUBLED,
    apply_relabeling,
    as_probability,
    RelabelMask,
    binomial_test,
    likelihood,
    parse_model,
    parse_sequence,
    posterior_odds,
    rejection_rate,
    rejection_set,
    runs_test,
    sample_sequence,
)
from randaudit.exact import _column_tally
from randaudit.simulate import _bernoulli_plane, _bit_planes

ALPHA = Fraction(1, 20)


class TestModels:
    def test_parse_round_trip(self):
        for text in ("fair", "biased:p=1/3", "markov:stay=9/10"):
            assert parse_model(text).spec_string() == text

    def test_parse_errors(self):
        for text in ("", "bias", "biased:q=1/2", "markov:stay", "fair:p=1/2", "biased:p=3/2"):
            with pytest.raises(ValueError):
                parse_model(text)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SourceModel.biased(Fraction(5, 4))
        with pytest.raises(ValueError):
            SourceModel("telepathic")


class TestSampling:
    def test_deterministic_given_seed(self):
        model = SourceModel.fair()
        first = sample_sequence(model, 40, seed=123)
        second = sample_sequence(model, 40, seed=123)
        assert first.bits == second.bits
        assert sample_sequence(model, 40, seed=124).bits != first.bits

    def test_degenerate_bias(self):
        assert sample_sequence(SourceModel.biased(Fraction(1)), 5, seed=0).text() == "HHHHH"
        assert sample_sequence(SourceModel.biased(Fraction(0)), 5, seed=0).text() == "TTTTT"

    def test_absorbing_markov(self):
        seq = sample_sequence(SourceModel.sticky_markov(Fraction(1)), 4, seed=9)
        assert len(set(seq.bits)) == 1

    def test_length_validation(self):
        with pytest.raises(ValueError):
            sample_sequence(SourceModel.fair(), 0, seed=1)


class TestLikelihood:
    def test_fair_is_uniform(self):
        for bits in product((0, 1), repeat=5):
            assert likelihood(SourceModel.fair(), BinarySequence(bits)) == Fraction(1, 32)

    def test_half_bias_equals_fair(self):
        half = SourceModel.biased(Fraction(1, 2))
        for bits in product((0, 1), repeat=6):
            seq = BinarySequence(bits)
            assert likelihood(half, seq) == likelihood(SourceModel.fair(), seq)

    def test_sticky_chain_product(self):
        model = SourceModel.sticky_markov(Fraction(3, 4))
        assert likelihood(model, parse_sequence("HHHH")) == Fraction(1, 2) * Fraction(3, 4) ** 3
        assert likelihood(model, parse_sequence("HTHT")) == Fraction(1, 2) * Fraction(1, 4) ** 3

    @pytest.mark.parametrize(
        "model",
        [
            SourceModel.fair(),
            SourceModel.biased(Fraction(1, 3)),
            SourceModel.biased(Fraction(1)),
            SourceModel.sticky_markov(Fraction(3, 4)),
            SourceModel.sticky_markov(Fraction(0)),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_normalization(self, model, n):
        total = sum(likelihood(model, BinarySequence(bits)) for bits in product((0, 1), repeat=n))
        assert total == 1

    def test_fair_likelihood_is_relabeling_invariant(self):
        fair = SourceModel.fair()
        for n in range(1, 7):
            for s in range(1 << n):
                seq = BinarySequence.from_int(s, n)
                for m in range(1 << n):
                    relabeled = apply_relabeling(seq, RelabelMask.from_int(m, n))
                    assert likelihood(fair, relabeled) == likelihood(fair, seq)

    def test_biased_likelihood_is_not_relabeling_invariant(self):
        biased = SourceModel.biased(Fraction(1, 3))
        seq = parse_sequence("HH")
        flipped = apply_relabeling(seq, RelabelMask.from_flip_string("10"))
        assert likelihood(biased, flipped) != likelihood(biased, seq)


class TestRejectionRate:
    def test_fair_runs_rate_near_exact_size(self):
        est = rejection_rate(SourceModel.fair(), RUNS, 9, ALPHA, trials=20_000, seed=4242)
        assert est.exact_fair_size == Fraction(36, 512)
        assert abs(est.rate - float(est.exact_fair_size)) <= 4 * est.standard_error

    def test_zero_alpha_never_rejects(self):
        est = rejection_rate(SourceModel.fair(), RUNS, 9, Fraction(0), trials=500, seed=1)
        assert est.rejected == 0

    def test_constant_source_always_rejected(self):
        est = rejection_rate(SourceModel.biased(Fraction(1)), RUNS, 9, ALPHA, trials=500, seed=1)
        assert est.rate == 1.0

    def test_deterministic_replay(self):
        a = rejection_rate(SourceModel.fair(), BINOMIAL, 7, ALPHA, trials=2_000, seed=77)
        b = rejection_rate(SourceModel.fair(), BINOMIAL, 7, ALPHA, trials=2_000, seed=77)
        assert a.rejected == b.rejected

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            rejection_rate(SourceModel.fair(), RUNS, 9, ALPHA, trials=0, seed=1)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("test", [RUNS, BINOMIAL])
    def test_seeded_stream_across_blocks_is_pinned(self, test, seed):
        # The documented layout, rebuilt here: block b of 4096 trials draws from
        # random.Random(f"{seed}:{b}"), a fair plane is the complement of one
        # getrandbits(4096), and trial t is bit t mod 4096 of its block's planes.
        # At alpha = 1/3 the regions hold 29% (runs) and 51% of the null mass, so
        # a trial read from another lane moves the count as often as not.
        n, width, trials, alpha = 9, 4096, 2 * 4096 + 100, Fraction(1, 3)
        region = set(rejection_set(test, n, alpha).statistic_values)
        assert region == ({1, 2, 3, 7, 8, 9} if test == RUNS else {0, 1, 2, 3, 6, 7, 8, 9})
        expected = 0
        for block in range(-(-trials // width)):
            rng = random.Random(f"{seed}:{block}")
            planes = [rng.getrandbits(width) ^ (2**width - 1) for _ in range(n)]
            for lane in range(min(width, trials - block * width)):
                bits = [plane >> lane & 1 for plane in planes]
                value = 1 + sum(a != b for a, b in zip(bits, bits[1:])) if test == RUNS else sum(bits)
                expected += value in region
        assert rejection_rate(SourceModel.fair(), test, n, alpha, trials=trials, seed=seed).rejected == expected


class TestPosteriorOdds:
    def test_identical_models_keep_prior(self):
        half = SourceModel.biased(Fraction(1, 2))
        for text in ("H", "HTTHTHHHT"):
            assert posterior_odds(Fraction(7, 3), half, parse_sequence(text)) == Fraction(7, 3)

    def test_sticky_alternative_on_constant_run(self):
        odds = posterior_odds(Fraction(1), SourceModel.sticky_markov(Fraction(9, 10)), parse_sequence("HHHHHHHHH"))
        assert odds == 256 * Fraction(9, 10) ** 8

    def test_odds_grow_with_run_length(self):
        alt = SourceModel.sticky_markov(Fraction(9, 10))
        odds = [posterior_odds(Fraction(1), alt, BinarySequence((1,) * n)) for n in range(2, 12)]
        assert all(a < b for a, b in zip(odds, odds[1:]))

    def test_impossible_alternative_gives_zero(self):
        assert posterior_odds(Fraction(1), SourceModel.biased(Fraction(0)), parse_sequence("HT")) == 0

    def test_prior_must_be_positive(self):
        with pytest.raises(ValueError):
            posterior_odds(Fraction(0), SourceModel.fair(), parse_sequence("H"))


# The library calls that take an exact rational as text, each as a function of that text.
TEXT_ROUTES = {
    "as_probability": as_probability,
    "SourceModel.biased": lambda text: SourceModel.biased(text).p,
    "posterior_odds": lambda text: posterior_odds(text, SourceModel.fair(), parse_sequence("HT")),
}


@pytest.mark.parametrize("route", TEXT_ROUTES.values(), ids=TEXT_ROUTES.keys())
class TestTextRoutes:
    @pytest.mark.parametrize("text", ["1e-9999999", "1e-\u0669\u0669\u0669\u0669\u0669\u0669\u0669"])
    def test_huge_exponent_is_refused_fast(self, route, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent of magnitude above"):
            route(text)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("text", ["3/4", " 0.05 ", "1e-3", "\u0661/\u0662"])
    def test_ordinary_text_reads_as_fraction_reads_it(self, route, text):
        assert route(text) == Fraction(text)

    def test_dyadic_text(self, route):
        assert route("1/2^10") == Fraction(1, 1024)


# ---------------------------------------------------------------------------
# The bit-sliced block sampler, against oracles written here.

MODELS = ("fair", "biased:p=3/5", "markov:stay=3/4")
CONVENTIONS = (ONE_SIDED, TWO_SIDED_DOUBLED)


def stat_of(test: str, bits: tuple) -> int:
    if test == RUNS:
        return 1 + sum(a != b for a, b in zip(bits, bits[1:]))
    return sum(bits)


def sequence_prob(spec: str, bits: tuple) -> Fraction:
    """Exact probability of ``bits`` (1 = H, the first symbol) under the model, by its own product."""
    kind, _, arg = spec.partition(":")
    if kind == "fair":
        return Fraction(1, 2 ** len(bits))
    q = Fraction(arg.partition("=")[2])
    if kind == "biased":
        prob = Fraction(1)
        for b in bits:
            prob *= q if b else 1 - q
        return prob
    prob = Fraction(1, 2)
    for a, b in zip(bits, bits[1:]):
        prob *= q if a == b else 1 - q
    return prob


def exact_power(spec: str, test: str, n: int, alpha: Fraction, convention: str) -> Fraction:
    """Chance the test rejects under the model, summed over all 2^n sequences."""
    rejected = frozenset(rejection_set(test, n, alpha, convention).statistic_values)
    return sum(
        (sequence_prob(spec, bits) for bits in product((0, 1), repeat=n) if stat_of(test, bits) in rejected),
        Fraction(0),
    )


def trial_bits(planes: list, lane: int) -> tuple:
    return tuple((plane >> lane) & 1 for plane in planes)


def first_trials(spec: str, n: int, seed: int, count: int) -> list:
    """The first ``count`` trials as bit tuples, read lane by lane off the block planes."""
    out = []
    for block in range(-(-count // BLOCK_TRIALS)):
        planes = _bit_planes(parse_model(spec), n, seed, block)
        out.extend(trial_bits(planes, lane) for lane in range(min(BLOCK_TRIALS, count - len(out))))
    return out


class TestBlockSampler:
    @pytest.mark.parametrize("spec", MODELS)
    @pytest.mark.parametrize("test", [RUNS, BINOMIAL])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("n", [7, 10])
    def test_rate_within_five_se_of_exact_power(self, spec, test, convention, n):
        trials = 20_000
        est = rejection_rate(parse_model(spec), test, n, ALPHA, convention, trials=trials, seed=20_251)
        power = exact_power(spec, test, n, ALPHA, convention)
        se = sqrt(float(power * (1 - power)) / trials)
        assert abs(est.rate - float(power)) <= 5 * se

    @pytest.mark.parametrize(
        "spec, seed", [("fair", 41), ("biased:p=3/5", 42), ("biased:p=1/3", 43), ("markov:stay=3/4", 44)]
    )
    def test_sequence_frequencies_at_n4(self, spec, seed):
        # Chi-square over all 16 sequences of the first 8,192 trials; 15 degrees
        # of freedom, so 40 is beyond the 0.9995 quantile (37.7 is the 0.999).
        # An unfair Markov first bit of 3/5 moves it to about 330, a reversed
        # 3/5 bias past 1,000.
        n, count = 4, 2 * BLOCK_TRIALS
        tally = {}
        for bits in first_trials(spec, n, seed, count):
            tally[bits] = tally.get(bits, 0) + 1
        chi2 = 0.0
        for bits in product((0, 1), repeat=n):
            expected = count * float(sequence_prob(spec, bits))
            chi2 += (tally.get(bits, 0) - expected) ** 2 / expected
        assert chi2 < 40

    @pytest.mark.parametrize("spec", MODELS)
    @pytest.mark.parametrize("test", [RUNS, BINOMIAL])
    def test_first_trials_do_not_depend_on_trial_count(self, spec, test):
        n, seed = 11, 7
        rejected = frozenset(rejection_set(test, n, Fraction(1, 5)).statistic_values)
        hits = [stat_of(test, bits) in rejected for bits in first_trials(spec, n, seed, 5000)]
        for trials in (1, 100, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 5000):
            est = rejection_rate(parse_model(spec), test, n, Fraction(1, 5), trials=trials, seed=seed)
            assert est.rejected == sum(hits[:trials])

    @pytest.mark.parametrize("spec", MODELS + ("biased:p=1/3",))
    def test_sample_sequence_is_trial_zero(self, spec):
        model = parse_model(spec)
        for seed in range(20):
            seq = sample_sequence(model, 12, seed)
            assert seq.bits == trial_bits(_bit_planes(model, 12, seed, 0), 0)
            for test, verdict in ((RUNS, runs_test(seq, ALPHA)), (BINOMIAL, binomial_test(seq, ALPHA))):
                assert rejection_rate(model, test, 12, ALPHA, trials=1, seed=seed).rejected == verdict.rejected

    @pytest.mark.parametrize("p, planes", [(Fraction(0), 0), (Fraction(1), 0), (Fraction(1, 2), 1), (Fraction(3, 8), 3)])
    def test_dyadic_plane_uses_its_digits(self, p, planes):
        rng, ref = random.Random("plane"), random.Random("plane")
        plane = _bernoulli_plane(rng, p)
        draws = [ref.getrandbits(BLOCK_TRIALS) for _ in range(planes)]
        assert rng.getstate() == ref.getstate()
        all_lanes = (1 << BLOCK_TRIALS) - 1
        if p == 0:
            assert plane == 0
        elif p == 1:
            assert plane == all_lanes
        elif p == Fraction(1, 2):
            assert plane == all_lanes & ~draws[0]  # a lane reading digit 0 has U < 1/2
        else:  # 3/8 = 0.011: U < 3/8 iff U reads 00, or 010
            u1, u2, u3 = draws
            assert plane == all_lanes & ~u1 & (~u2 | (u2 & ~u3))

    @pytest.mark.parametrize("p", [Fraction(3, 8), Fraction(1, 3), Fraction(1, 2**70 + 1)])
    def test_plane_mean(self, p):
        rng = random.Random(f"mean:{p}")
        lanes = 64 * BLOCK_TRIALS
        hits = sum(_bernoulli_plane(rng, p).bit_count() for _ in range(64))
        se = sqrt(float(p * (1 - p)) / lanes)
        assert abs(hits / lanes - float(p)) <= 5 * se

    @pytest.mark.parametrize("seed", [-5, 2**200 + 1, -(2**200)])
    def test_negative_and_wide_seeds(self, seed):
        model = parse_model("biased:p=3/5")
        assert sample_sequence(model, 30, seed).bits == sample_sequence(model, 30, seed).bits
        first = rejection_rate(model, RUNS, 30, ALPHA, trials=300, seed=seed)
        assert rejection_rate(model, RUNS, 30, ALPHA, trials=300, seed=seed).rejected == first.rejected
        assert sample_sequence(model, 30, seed).bits != sample_sequence(model, 30, -seed).bits

    def test_work_limit(self):
        with pytest.raises(CapExceededError, match="work limit"):
            rejection_rate(SourceModel.fair(), RUNS, 1000, ALPHA, trials=SIMULATION_WORK_LIMIT // 1000 + 1)
        with pytest.raises(CapExceededError, match="work limit"):  # one draw is a full block
            sample_sequence(SourceModel.fair(), SIMULATION_WORK_LIMIT // BLOCK_TRIALS + 1, seed=0)

    def test_numpy_random_is_never_imported(self):
        code = (
            "import sys, io, contextlib\n"
            "from randaudit.cli import run_cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert run_cli(['simulate', '--model', 'markov:stay=3/4', '--test', 'runs', '--n', '9',"
            " '--trials', '5000']) == 0\n"
            "assert 'numpy' not in sys.modules and 'numpy.random' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 15, 16, 17, 300])
    def test_tally_matches_column_sums(self, m):
        # Lane t is set with chance t / BLOCK_TRIALS, so the column sums
        # spread over 0..m and both tails are populated.  The counter is
        # m.bit_length() bits wide; m = 7, 8, 15, 16, 17 cross a power of two.
        rng = random.Random(f"tally:{m}")
        rows = [[rng.random() * BLOCK_TRIALS < t for t in range(BLOCK_TRIALS)] for _ in range(m)]
        planes = [sum(1 << t for t, bit in enumerate(row) if bit) for row in rows]
        sums = [0] * BLOCK_TRIALS
        for plane in planes:
            for t in range(BLOCK_TRIALS):
                sums[t] += (plane >> t) & 1
        for lanes in (1, BLOCK_TRIALS - 1, BLOCK_TRIALS):
            assert _column_tally(planes, lanes) == dict(Counter(sums[:lanes])), lanes

    @pytest.mark.parametrize("spec", MODELS)
    def test_hundred_thousand_trials_are_fast(self, spec):
        rejection_set(RUNS, 9, ALPHA)  # tables warm, as in any repeated use
        start = time.perf_counter()
        rejection_rate(parse_model(spec), RUNS, 9, ALPHA, trials=100_000, seed=3)
        assert time.perf_counter() - start < 0.25
