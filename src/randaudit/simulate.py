"""Seeded simulation of output sources and exact likelihood accounting.

Three source models are provided: the fair independent source (the null
itself), a biased independent source, and a sticky two-state Markov
source whose first outcome is fair.  Model parameters are exact
rationals, so every sequence likelihood, and hence every posterior odds
ratio, is an exact Fraction.

Sampling is bit-sliced.  Trials are drawn in blocks of BLOCK_TRIALS =
4096: block b holds trials 4096*b .. 4096*b + 4095 and draws from one
stream, the stdlib Mersenne generator seeded with the ``"seed:b"``
string, which hashes through SHA-512 and is stable across processes and
platforms.  Position i of all 4096 trials is one integer, a bit plane,
whose bit t is trial t's outcome.  A block is always drawn at full
width, so trial t depends only on (model, n, seed, t), never on how
many trials were asked for.  Trial t, read off the planes position 1 in
the low bit, is the packed sequence :mod:`randaudit.sequences` stores.

A plane of exact Bernoulli(num/den) outcomes compares each lane's
uniform real U, one binary digit per ``getrandbits(4096)`` call, with
the binary expansion of num/den (Knuth and Yao 1976): a lane is decided
at the first digit where the two differ, and it is a hit iff U < p
there.  A dyadic p = a/2^k with a odd has k digits, and after the
last one every lane still undecided has U >= p, so it costs exactly k
planes; any other p costs about log2(4096) + 2 planes per position.
There are no floats, no rounding and no limit on the denominator.  The
Markov source draws a fair first plane and XORs switch planes into it;
the switch planes of any source are the XORs of adjacent bit planes.

Rejections are tallied on the planes as well, by the bit-sliced column
tally the enumeration oracle runs on, so sampling and tallying use the
standard library alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import sqrt
from typing import NamedTuple

from .exact import CapExceededError, _column_tally, as_probability, check_tail_length, parse_rational, prob_dict
from .sequences import BinarySequence, count_ones, count_runs, pack
from .verdicts import DEFAULT_ALPHA, ONE_SIDED, RUNS, rejection_set, statistic

__all__ = [
    "BLOCK_TRIALS",
    "SIMULATION_WORK_LIMIT",
    "RejectionRateEstimate",
    "SourceModel",
    "likelihood",
    "parse_model",
    "posterior_odds",
    "rejection_rate",
    "sample_sequence",
]

FAIR = "fair"
BIASED = "biased"
MARKOV = "markov"
_HALF = Fraction(1, 2)


class _SourceFields(NamedTuple):
    kind: str
    p: Fraction = _HALF  # per-trial chance of the first symbol (biased)
    stay: Fraction = _HALF  # chance of repeating the previous outcome (markov)


class SourceModel(_SourceFields):
    """A source of binary outcomes with exact-rational parameters; one its kind does not read must be 1/2."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SourceModel":
        kind, p, stay = super().__new__(cls, *args, **kwargs)
        if kind not in (FAIR, BIASED, MARKOV):
            raise ValueError(f"unknown source kind {kind!r}")
        p, stay = as_probability(p), as_probability(stay)
        if p != _HALF and kind != BIASED:
            raise ValueError(f"a {kind} source takes no p")
        if stay != _HALF and kind != MARKOV:
            raise ValueError(f"a {kind} source takes no stay")
        return super().__new__(cls, kind, p, stay)

    @classmethod
    def _make(cls, fields) -> "SourceModel":
        """Build through ``__new__``, so that ``_replace`` checks the fields too."""
        return cls(*fields)

    @classmethod
    def fair(cls) -> "SourceModel":
        return cls(FAIR)

    @classmethod
    def biased(cls, p: Fraction) -> "SourceModel":
        return cls(BIASED, p=p)

    @classmethod
    def sticky_markov(cls, stay: Fraction) -> "SourceModel":
        return cls(MARKOV, stay=stay)

    def spec_string(self) -> str:
        if self.kind == FAIR:
            return "fair"
        if self.kind == BIASED:
            return f"biased:p={self.p.numerator}/{self.p.denominator}"
        return f"markov:stay={self.stay.numerator}/{self.stay.denominator}"


def parse_model(text: str) -> SourceModel:
    """Parse ``fair``, ``biased:p=NUM/DEN`` or ``markov:stay=NUM/DEN``."""
    spec = text.strip()
    if spec == FAIR:
        return SourceModel.fair()
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"cannot parse model {text!r}")
    name, sep, value = arg.partition("=")
    if kind == BIASED and sep and name == "p":
        return SourceModel.biased(as_probability(value))
    if kind == MARKOV and sep and name == "stay":
        return SourceModel.sticky_markov(as_probability(value))
    raise ValueError(f"cannot parse model {text!r}")


# Trials per block, the width of a bit plane.
BLOCK_TRIALS = 4096
_ALL_LANES = (1 << BLOCK_TRIALS) - 1
# Simulation work, trials times length, is refused above this many
# trial-positions.  At n = 9 that is 11 million trials, which took
# 0.6-1.7 s by model as a CLI run on a 2-vCPU x86-64 machine.
SIMULATION_WORK_LIMIT = 10**8


def _check_work(trials: int, n: int) -> None:
    if trials * n > SIMULATION_WORK_LIMIT:
        raise CapExceededError(
            f"{trials} trials at length {n} exceed the simulation work limit "
            f"{SIMULATION_WORK_LIMIT} (trials x length)"
        )


def _bernoulli_plane(rng: random.Random, prob: Fraction) -> int:
    """BLOCK_TRIALS exact Bernoulli(``prob``) outcomes, one per bit.

    Each lane reads its uniform U one binary digit per plane and stops
    at the first digit that differs from ``prob``'s expansion.
    """
    num, den = prob.numerator, prob.denominator
    if num == den:
        return _ALL_LANES
    hits, live = 0, _ALL_LANES
    while num and live:  # once num is 0 the digits left are 0 and U >= prob
        num <<= 1
        u = rng.getrandbits(BLOCK_TRIALS)
        if num >= den:  # digit 1: lanes reading 0 have U < prob
            num -= den
            hits |= live ^ (live & u)  # live & ~u, without a negative int
            live &= u
        else:  # digit 0: lanes reading 1 have U > prob
            live &= u ^ _ALL_LANES
    return hits


def _bit_planes(model: SourceModel, n: int, seed: int, block: int) -> list[int]:
    """The n bit planes of one block, position 1 first."""
    rng = random.Random(f"{seed}:{block}")
    if model.kind == MARKOV:
        switch = 1 - model.stay
        planes = [_bernoulli_plane(rng, _HALF)]
        for _ in range(n - 1):
            planes.append(planes[-1] ^ _bernoulli_plane(rng, switch))
        return planes
    return [_bernoulli_plane(rng, model.p) for _ in range(n)]


def sample_sequence(model: SourceModel, n: int, seed: int) -> BinarySequence:
    """One deterministic draw from the model: trial 0 of ``rejection_rate`` at the same seed."""
    if n < 1:
        raise ValueError("length must be at least 1")
    _check_work(BLOCK_TRIALS, n)  # the whole first block is drawn
    return BinarySequence.from_int(pack([plane & 1 for plane in _bit_planes(model, n, seed, 0)]), n)


class RejectionRateEstimate(NamedTuple):
    model: SourceModel
    test: str
    n: int
    alpha: Fraction
    convention: str
    trials: int
    seed: int
    rejected: int
    exact_fair_size: Fraction  # exact size of the test under the fair null

    @property
    def rate(self) -> float:
        return self.rejected / self.trials

    @property
    def standard_error(self) -> float:
        r = self.rate
        return sqrt(r * (1.0 - r) / self.trials)

    def as_dict(self) -> dict:
        return {
            "model": self.model.spec_string(),
            "test": self.test,
            "n": self.n,
            "alpha": prob_dict(self.alpha),
            "convention": self.convention,
            "trials": self.trials,
            "seed": self.seed,
            "rejected": self.rejected,
            "rate": self.rate,
            "standard_error": self.standard_error,
            "exact_fair_size": prob_dict(self.exact_fair_size),
        }


def rejection_rate(
    model: SourceModel,
    test: str,
    n: int,
    alpha: Fraction = DEFAULT_ALPHA,
    convention: str = ONE_SIDED,
    trials: int = 100_000,
    seed: int = 0,
) -> RejectionRateEstimate:
    """Fraction of sampled sequences the test rejects at ``alpha``.

    The exact size under the fair null is reported alongside for
    comparison.  Trials are drawn in blocks of BLOCK_TRIALS bit planes,
    the last block at full width too, so trial t is the same draw
    whatever ``trials`` is.  Each lane's statistic is a column sum of
    the planes, the bit planes for the head count and the switch planes
    (plus one) for the run count, tallied bit-sliced by
    :func:`~randaudit.exact._column_tally` and summed over the rejected
    values.  Trial 0 is the sequence :func:`sample_sequence` returns.
    ``trials * n`` above SIMULATION_WORK_LIMIT is refused before any draw.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_tail_length(n)  # a length beyond the tables is reported as such
    _check_work(trials, n)
    alpha = as_probability(alpha)
    region = rejection_set(test, n, alpha, convention)
    low = statistic(test).low
    rejected_sums = {v - low for v in region.statistic_values}
    hits = 0
    for block in range(-(-trials // BLOCK_TRIALS)):
        planes = _bit_planes(model, n, seed, block)
        if test == RUNS:  # R - 1 counts the switches
            planes = [a ^ b for a, b in zip(planes, planes[1:])]
        tally = _column_tally(planes, min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS))
        hits += sum(c for s, c in tally.items() if s in rejected_sums)
    return RejectionRateEstimate(
        model=model,
        test=test,
        n=n,
        alpha=alpha,
        convention=convention,
        trials=trials,
        seed=seed,
        rejected=hits,
        exact_fair_size=region.exact_size,
    )


def likelihood(model: SourceModel, seq: BinarySequence) -> Fraction:
    """Exact probability of the sequence under the model; a fair source is the biased law at p = 1/2."""
    if model.kind != MARKOV:
        k = count_ones(seq)
        return model.p**k * (1 - model.p) ** (seq.n - k)
    # The first outcome is fair; each of the r - 1 breaks leaves the state
    # and each of the other n - r adjacent pairs stays.
    r = count_runs(seq)
    return _HALF * (1 - model.stay) ** (r - 1) * model.stay ** (seq.n - r)


def posterior_odds(prior_odds: Fraction | int | str, alt: SourceModel, seq: BinarySequence) -> Fraction:
    """Exact posterior odds of the alternative against the fair null.

    prior_odds times the likelihood ratio.  The fair likelihood is
    strictly positive, so the ratio always exists; an alternative that
    assigns zero probability yields odds 0.
    """
    prior = parse_rational(prior_odds, "prior odds") if isinstance(prior_odds, str) else Fraction(prior_odds)
    if prior <= 0:
        raise ValueError("prior odds must be positive")
    return prior * likelihood(alt, seq) / likelihood(SourceModel.fair(), seq)
