"""Sequences, masks, and the relabeling group action."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from randaudit import (
    BinarySequence,
    ParseError,
    RelabelMask,
    apply_relabeling,
    count_ones,
    count_runs,
    mask_between,
    mask_from_index_set,
    parse_sequence,
)

bit_tuples = st.lists(st.integers(0, 1), min_size=1, max_size=24).map(tuple)


@st.composite
def seq_and_mask(draw):
    bits = draw(bit_tuples)
    flips = draw(st.lists(st.booleans(), min_size=len(bits), max_size=len(bits)).map(tuple))
    return BinarySequence(bits), RelabelMask(flips)


class TestParsing:
    def test_paper_style_sequence(self):
        seq = parse_sequence("HTTHTHHHT")
        assert seq.bits == (1, 0, 0, 1, 0, 1, 1, 1, 0)
        assert seq.n == 9

    def test_single_symbol(self):
        assert parse_sequence("h").bits == (1,)

    def test_case_and_digit_aliases(self):
        assert parse_sequence("Hh1Tt0").bits == (1, 1, 1, 0, 0, 0)

    def test_illegal_character_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("HXT")
        assert err.value.position == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_sequence("")

    @pytest.mark.parametrize(
        "parse, text, message, position",
        [
            (parse_sequence, "", "empty sequence", None),
            (parse_sequence, "HTxH", "illegal character 'x' at position 3", 3),
            (parse_sequence, "HT\u0661", "illegal character '\u0661' at position 3", 3),
            (RelabelMask.from_flip_string, "", "empty mask", None),
            (RelabelMask.from_flip_string, "0H1", "illegal mask character 'H' at position 2", 2),
            (RelabelMask.from_flip_string, "01 ", "illegal mask character ' ' at position 3", 3),
        ],
    )
    def test_parse_error_messages(self, parse, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.position) == (message, position)

    def test_vocab_is_carried(self):
        assert parse_sequence("HT", vocab="hails/teads").vocab == "hails/teads"

    def test_empty_bits_rejected_at_construction(self):
        with pytest.raises(ValueError):
            BinarySequence(())

    def test_rendering_roundtrip(self):
        seq = parse_sequence("HTTHTHHHT")
        assert seq.text() == "HTTHTHHHT"
        assert seq.text(lower=True) == "htththhht"

    def test_int_roundtrip(self):
        seq = parse_sequence("HTTHTHHHT")
        assert BinarySequence.from_int(seq.value, seq.n) == BinarySequence(seq.bits)


class TestStatistics:
    @pytest.mark.parametrize(
        "text,expected",
        [("HTTHTHHHT", 6), ("HHHHHTTTT", 2), ("H", 1), ("HTHTHTHTH", 9), ("TTTTTTTTT", 1)],
    )
    def test_count_runs(self, text, expected):
        assert count_runs(parse_sequence(text)) == expected

    @pytest.mark.parametrize(
        "text,expected", [("HTTHTHHHT", 5), ("TTTTTTTTT", 0), ("HHHHHTTTT", 5)]
    )
    def test_count_ones(self, text, expected):
        assert count_ones(parse_sequence(text)) == expected

    @given(bit_tuples)
    def test_run_count_bounds(self, bits):
        seq = BinarySequence(bits)
        r = count_runs(seq)
        assert 1 <= r <= seq.n
        assert (r == 1) == (len(set(bits)) == 1)
        assert (r == seq.n) == all(a != b for a, b in zip(bits, bits[1:]))

    @given(bit_tuples, st.text(max_size=12))
    def test_statistics_ignore_vocab(self, bits, vocab):
        plain, labeled = BinarySequence(bits), BinarySequence(bits, vocab)
        assert count_runs(plain) == count_runs(labeled)
        assert count_ones(plain) == count_ones(labeled)


class TestMasks:
    def test_index_set_flips_outside(self):
        mask = mask_from_index_set({1, 4, 9}, 9)
        assert mask.flipped_positions() == (2, 3, 5, 6, 7, 8)
        assert mask.index_set() == (1, 4, 9)
        assert mask.flip_string() == "011011110"

    def test_full_index_set_is_identity(self):
        assert mask_from_index_set(range(1, 8), 7).flip_count() == 0

    def test_empty_index_set_flips_everything(self):
        assert mask_from_index_set((), 3).flipped_positions() == (1, 2, 3)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            mask_from_index_set({0}, 3)
        with pytest.raises(ValueError):
            mask_from_index_set({4}, 3)

    def test_flip_string_roundtrip(self):
        mask = RelabelMask.from_flip_string("011011110")
        assert mask.flip_string() == "011011110"
        assert mask.flip_count() == 6
        with pytest.raises(ParseError):
            RelabelMask.from_flip_string("01x")
        with pytest.raises(ParseError):
            RelabelMask.from_flip_string("")

    def test_compose_is_xor(self):
        a = RelabelMask.from_flip_string("0110")
        b = RelabelMask.from_flip_string("0011")
        assert a.compose(b).flip_string() == "0101"
        assert a.compose(a).flip_count() == 0

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            RelabelMask.from_int(0, 3).compose(RelabelMask.from_int(0, 4))


class TestRelabeling:
    @pytest.mark.parametrize(
        "text,indices,expected",
        [
            ("HTTHTHHHT", (1, 4, 9), "hhhhhtttt"),
            ("HHHHHTTTT", (1, 4, 9), "htththhht"),
            ("HTTHTHHHT", (2, 3, 5, 9), "ttttttttt"),
            ("TTTTTTTTT", (2, 3, 5, 9), "htththhht"),
        ],
    )
    def test_correspondence_rows(self, text, indices, expected):
        seq = parse_sequence(text)
        mask = mask_from_index_set(indices, seq.n)
        assert apply_relabeling(seq, mask).text(lower=True) == expected

    def test_identity_mask_preserves_bits(self):
        seq = parse_sequence("HTTHT")
        assert apply_relabeling(seq, RelabelMask.from_int(0, 5)).bits == seq.bits

    def test_new_vocab_label(self):
        seq = parse_sequence("HT", vocab="heads/tails")
        assert apply_relabeling(seq, RelabelMask.from_int(0, 2), vocab="teads/hails").vocab == "teads/hails"
        assert "relabeled" in apply_relabeling(seq, RelabelMask.from_int(0, 2)).vocab

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_relabeling(parse_sequence("HT"), RelabelMask.from_int(0, 3))

    @given(seq_and_mask())
    def test_involution(self, pair):
        seq, mask = pair
        assert apply_relabeling(apply_relabeling(seq, mask), mask).bits == seq.bits

    @given(seq_and_mask())
    def test_index_set_mask_is_self_inverse(self, pair):
        seq, mask = pair
        rebuilt = mask_from_index_set(mask.index_set(), mask.n)
        assert rebuilt == mask
        twice = apply_relabeling(apply_relabeling(seq, rebuilt), rebuilt)
        assert twice.bits == seq.bits


class TestMaskBetween:
    def test_identity_when_equal(self):
        seq = parse_sequence("HTTHT")
        assert mask_between(seq, seq).flip_count() == 0

    def test_paper_style_difference(self):
        a = parse_sequence("HTTHTHHHT")
        target = BinarySequence((1, 1, 1, 1, 1, 0, 0, 0, 0))
        assert mask_between(a, target).flipped_positions() == (2, 3, 5, 6, 7, 8)

    def test_all_tails_to_mixed(self):
        # htththhht reads as bits 100101110; flips are the set positions.
        d = parse_sequence("TTTTTTTTT")
        target = parse_sequence("htththhht")
        mask = mask_between(d, target)
        assert mask.flipped_positions() == (1, 4, 6, 7, 8)
        assert apply_relabeling(d, mask).bits == target.bits

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mask_between(parse_sequence("HT"), parse_sequence("HTT"))

    @given(st.integers(1, 12), st.data())
    def test_transitivity(self, n, data):
        source = BinarySequence(tuple(data.draw(st.integers(0, 1)) for _ in range(n)))
        target = BinarySequence(tuple(data.draw(st.integers(0, 1)) for _ in range(n)))
        mask = mask_between(source, target)
        assert apply_relabeling(source, mask).bits == target.bits

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unique_transitivity_exhaustive(self, n):
        # For every source, distinct masks give distinct images, so the
        # connecting mask is unique; checked over all pairs up to n = 8.
        for src_bits in product((0, 1), repeat=n):
            source = BinarySequence(src_bits)
            images = {apply_relabeling(source, RelabelMask.from_int(m, n)).bits for m in range(1 << n)}
            assert len(images) == 1 << n
            # and mask_between recovers the one connecting mask
            target = BinarySequence(tuple(1 - b for b in src_bits))
            mask = mask_between(source, target)
            assert apply_relabeling(source, mask).bits == target.bits
            assert mask.flip_count() == n
