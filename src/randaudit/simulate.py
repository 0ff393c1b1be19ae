"""Seeded simulation of output sources and exact likelihood accounting.

Three source models are provided: the fair independent source (the null
itself), a biased independent source, and a sticky two-state Markov
source whose first outcome is fair.  Model parameters are exact
rationals, so every sequence likelihood, and hence every posterior odds
ratio, is an exact Fraction.

Sampling is reproducible: each trial owns a substream derived from the
pair (seed, trial index), so the sample set does not depend on how
trials are scheduled.  Streams come from the stdlib Mersenne generator
seeded with the ``"seed:trial"`` string, which hashes through SHA-512
and is stable across processes and platforms.  Draws against a rational
probability num/den use ``randrange(den) < num``; no float thresholds.
Positions are drawn in order and each trial is packed into an integer,
position 1 in the low bit, as :mod:`randaudit.sequences` stores it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .exact import ONE_SIDED, as_probability
from .sequences import BinarySequence, count_ones, count_runs, pack
from .verdicts import DEFAULT_ALPHA, rejection_set, statistic

FAIR = "fair"
BIASED = "biased"
MARKOV = "markov"


@dataclass(frozen=True)
class SourceModel:
    """A source of binary outcomes with exact-rational parameters."""

    kind: str
    p: Fraction = Fraction(1, 2)  # per-trial chance of the first symbol (biased)
    stay: Fraction = Fraction(1, 2)  # chance of repeating the previous outcome (markov)

    def __post_init__(self) -> None:
        if self.kind not in (FAIR, BIASED, MARKOV):
            raise ValueError(f"unknown source kind {self.kind!r}")
        as_probability(self.p)
        as_probability(self.stay)

    @classmethod
    def fair(cls) -> "SourceModel":
        return cls(FAIR)

    @classmethod
    def biased(cls, p: Fraction) -> "SourceModel":
        return cls(BIASED, p=as_probability(p))

    @classmethod
    def sticky_markov(cls, stay: Fraction) -> "SourceModel":
        return cls(MARKOV, stay=as_probability(stay))

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
        return SourceModel.biased(Fraction(value))
    if kind == MARKOV and sep and name == "stay":
        return SourceModel.sticky_markov(Fraction(value))
    raise ValueError(f"cannot parse model {text!r}")


def _draw(rng: random.Random, prob: Fraction) -> int:
    """An exact Bernoulli draw: 1 with probability ``prob``."""
    if prob == 1:
        return 1
    if prob == 0:
        return 0
    return 1 if rng.randrange(prob.denominator) < prob.numerator else 0


def _sample_value(model: SourceModel, n: int, rng: random.Random) -> int:
    if model.kind == MARKOV:
        bits = [_draw(rng, Fraction(1, 2))]
        for _ in range(n - 1):
            same = _draw(rng, model.stay)
            bits.append(bits[-1] if same else 1 - bits[-1])
        return pack(bits)
    p = Fraction(1, 2) if model.kind == FAIR else model.p
    return pack([_draw(rng, p) for _ in range(n)])


def _substream(seed: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def sample_sequence(model: SourceModel, n: int, seed: int) -> BinarySequence:
    """One deterministic draw from the model; same (model, n, seed), same bits."""
    if n < 1:
        raise ValueError("length must be at least 1")
    return BinarySequence.from_int(_sample_value(model, n, _substream(seed, 0)), n)


@dataclass(frozen=True)
class RejectionRateEstimate:
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
        from .report import prob_dict

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
    comparison.  Trial t draws from substream (seed, t), so any
    parallel schedule would produce the same tally.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    alpha = as_probability(alpha)
    region = rejection_set(test, n, alpha, convention)
    rejected_values = frozenset(region.statistic_values)
    exact_size = region.exact_size
    of = statistic(test).of
    hits = 0
    for t in range(trials):
        if of(_sample_value(model, n, _substream(seed, t)), n) in rejected_values:
            hits += 1
    return RejectionRateEstimate(
        model=model,
        test=test,
        n=n,
        alpha=alpha,
        convention=convention,
        trials=trials,
        seed=seed,
        rejected=hits,
        exact_fair_size=exact_size,
    )


def likelihood(model: SourceModel, seq: BinarySequence) -> Fraction:
    """Exact probability of the sequence under the model."""
    if model.kind == FAIR:
        return Fraction(1, 1 << seq.n)
    if model.kind == BIASED:
        k = count_ones(seq)
        return model.p**k * (1 - model.p) ** (seq.n - k)
    # The first outcome is fair; each of the r - 1 breaks leaves the state
    # and each of the other n - r adjacent pairs stays.
    r = count_runs(seq)
    return Fraction(1, 2) * (1 - model.stay) ** (r - 1) * model.stay ** (seq.n - r)


def posterior_odds(prior_odds: Fraction, alt: SourceModel, seq: BinarySequence) -> Fraction:
    """Exact posterior odds of the alternative against the fair null.

    prior_odds times the likelihood ratio.  The fair likelihood is
    strictly positive, so the ratio always exists; an alternative that
    assigns zero probability yields odds 0.
    """
    prior = Fraction(prior_odds)
    if prior <= 0:
        raise ValueError("prior odds must be positive")
    return prior * likelihood(alt, seq) / likelihood(SourceModel.fair(), seq)
