"""The packed (value, n) layout against tuple tallies written here."""

import random
import time
from fractions import Fraction

import pytest

from randaudit import (
    TAIL_LENGTH_LIMIT,
    BinarySequence,
    ParseError,
    RelabelMask,
    SourceModel,
    apply_relabeling,
    count_ones,
    count_runs,
    likelihood,
    mask_from_index_set,
    parse_sequence,
)

LENGTHS = [1, 2, 63, 64, 65, *random.Random(20120525).sample(range(3, 301), 12)]


def tuple_runs(bits: tuple) -> int:
    return 1 + sum(a != b for a, b in zip(bits, bits[1:]))


def tuple_value(flags: tuple) -> int:
    return sum(1 << i for i, f in enumerate(flags) if f)


def bit_patterns(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    fixed = [(0,) * n, (1,) * n, tuple(i % 2 for i in range(n)), tuple(1 - i % 2 for i in range(n))]
    return fixed + [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(16)]


@pytest.mark.parametrize("n", LENGTHS)
def test_sequence_matches_tuple_tally(n):
    for bits in bit_patterns(n, random.Random(n)):
        seq = BinarySequence(bits)
        assert seq.bits == bits and seq.n == len(seq) == n
        assert count_runs(seq) == tuple_runs(bits)
        assert count_ones(seq) == sum(bits)
        assert seq.text() == "".join("H" if b else "T" for b in bits)
        assert seq.text(lower=True) == "".join("h" if b else "t" for b in bits)
        assert seq.value == tuple_value(bits)
        assert BinarySequence.from_int(tuple_value(bits), n) == seq
        assert parse_sequence(seq.text(lower=True)) == seq


@pytest.mark.parametrize("n", LENGTHS)
def test_mask_matches_tuple_tally(n):
    rng = random.Random(-n)
    seq_bits = bit_patterns(n, rng)
    for i, pattern in enumerate(bit_patterns(n, rng)):
        flips = tuple(bool(f) for f in pattern)
        mask = RelabelMask(flips)
        assert mask.flips == flips and mask.n == len(mask) == n
        assert mask.flip_string() == "".join("1" if f else "0" for f in flips)
        assert mask.flip_count() == sum(flips)
        assert mask.value == tuple_value(flips)
        assert RelabelMask.from_int(tuple_value(flips), n) == mask
        assert RelabelMask.from_flip_string(mask.flip_string()) == mask
        bits = seq_bits[i]
        relabeled = apply_relabeling(BinarySequence(bits), mask)
        assert relabeled.bits == tuple(b ^ f for b, f in zip(bits, flips))


def generator_positions(mask: RelabelMask) -> tuple[tuple[bool, ...], tuple[int, ...], tuple[int, ...]]:
    """flips, flipped positions and index set, one digit at a time."""
    flips = tuple(c == "1" for c in format(mask.value, f"0{mask.n}b")[::-1])
    flipped = tuple(i for i, f in enumerate(flips, start=1) if f)
    kept = tuple(i for i, f in enumerate(flips, start=1) if not f)
    return flips, flipped, kept


@pytest.mark.parametrize(
    "masks",
    [
        [RelabelMask.from_int(v, n) for n in range(1, 11) for v in range(1 << n)],
        [RelabelMask.from_int(random.Random(n + i).getrandbits(n), n) for n in (1000, 5000) for i in range(20)],
        [RelabelMask.from_int(v, n) for n in (1000, 5000) for v in (0, (1 << n) - 1, 1, 1 << (n - 1))],
    ],
    ids=["every mask to n=10", "random n=1000,5000", "ends n=1000,5000"],
)
def test_positions_match_generator_expressions(masks):
    for mask in masks:
        flips, flipped, kept = generator_positions(mask)
        assert mask.flips == flips
        assert all(type(f) is bool for f in mask.flips)
        assert mask.flipped_positions() == flipped
        assert mask.index_set() == kept
        assert mask_from_index_set(kept, mask.n) == mask


@pytest.mark.parametrize("char", ["_", " ", "+", "-"])
@pytest.mark.parametrize("position", [1, 2, 1500, 3000])
def test_parsers_refuse_int_literal_characters(char, position):
    # int(text, 2) accepts a sign, surrounding spaces and underscores
    # between digits; the parsers must not.
    def planted(text: str) -> str:
        return text[: position - 1] + char + text[position:]

    with pytest.raises(ParseError) as err:
        parse_sequence(planted("HT" * 1500))
    assert err.value.position == position
    assert f"at position {position}" in str(err.value)
    with pytest.raises(ParseError) as err:
        RelabelMask.from_flip_string(planted("01" * 1500))
    assert err.value.position == position
    assert f"at position {position}" in str(err.value)


@pytest.mark.parametrize("stay", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(999, 1000), Fraction(1)])
def test_markov_likelihood_is_a_product_over_adjacent_pairs(stay):
    model = SourceModel.sticky_markov(stay)
    for n in [1, 2, 9, 64, 65, 200]:
        for bits in bit_patterns(n, random.Random(n)):
            expected = Fraction(1, 2)
            for a, b in zip(bits, bits[1:]):
                expected *= stay if a == b else 1 - stay
            assert likelihood(model, BinarySequence(bits)) == expected


def test_a_million_positions_take_under_a_tenth_of_a_second():
    n = 10**6
    rng = random.Random(6)
    value, flips = rng.getrandbits(n), rng.getrandbits(n)
    mask = RelabelMask.from_int(flips, n)
    seconds = {}

    def timed(name, call):
        start = time.perf_counter()
        result = call()
        seconds[name] = time.perf_counter() - start
        return result

    seq = timed("from_int", lambda: BinarySequence.from_int(value, n))
    runs = timed("count_runs", lambda: count_runs(seq))
    relabeled = timed("apply_relabeling", lambda: apply_relabeling(seq, mask))
    text = timed("text", lambda: seq.text())
    assert all(s < 0.1 for s in seconds.values()), seconds
    assert len(text) == n and text == format(value, f"0{n}b")[::-1].replace("1", "H").replace("0", "T")
    assert runs == 1 + sum(a != b for a, b in zip(text, text[1:]))
    assert relabeled.value == value ^ flips


CAP = TAIL_LENGTH_LIMIT


@pytest.mark.parametrize("n", [1, 9, 300, CAP - 1, CAP, CAP + 1])
def test_positions_around_the_length_limit_match_generator_expressions(n):
    rng = random.Random(n)
    for value in (0, (1 << n) - 1, 1, 1 << (n - 1), rng.getrandbits(n), rng.getrandbits(n)):
        mask = RelabelMask.from_int(value, n)
        _, flipped, kept = generator_positions(mask)
        assert mask.flipped_positions() == flipped
        assert mask.index_set() == kept
        assert mask.index_set() == kept  # a repeated call reads the same set


@pytest.mark.parametrize("n", [1, 2, 300, CAP, CAP + 1])
def test_the_identity_mask_flips_no_position(n):
    assert RelabelMask.from_int(0, n).flipped_positions() == ()
    assert RelabelMask.from_int(0, n).index_set() == tuple(range(1, n + 1))


def test_a_million_position_mask_matches_generator_expressions():
    n = 10**6
    mask = RelabelMask.from_int(random.Random(10).getrandbits(n), n)
    _, flipped, kept = generator_positions(mask)
    assert mask.index_set() == kept and len(kept) == n - mask.flip_count()
    assert mask.flipped_positions() == flipped
