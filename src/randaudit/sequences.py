"""Binary outcome sequences and position-wise relabeling masks.

A :class:`BinarySequence` records outcomes over a two-symbol alphabet.
The first symbol (written ``H``, ``h`` or ``1``) is stored as bit 1, the
second (``T``, ``t`` or ``0``) as bit 0.  The ``vocab`` field is a free
text label carried along for rendering; it never influences a statistic.

A relabeling redefines, position by position, which physical outcome is
read as the first symbol.  Redefinitions are usually given as a 1-based
index set X ("keep the reading inside X, invert it outside"); they are
normalized here to a :class:`RelabelMask` under the fixed polarity that
the relabeled first symbol maps to bit 1, so the mask flips exactly the
positions outside X.  Masks compose by position-wise exclusive-or, which
makes every mask its own inverse: the masks of length n form a group
acting on the length-n sequences.

Both are stored packed as ``(value, n)``: position i (1-based) is bit
i - 1 of the integer ``value``.  Relabeling is then one exclusive-or, the
head count a popcount, and the run count one more than the popcount of
``value ^ (value >> 1)`` over the n - 1 adjacent pairs (:func:`count_runs`).
"""

from __future__ import annotations

import re
from operator import index
from typing import Iterable, Sequence

__all__ = [
    "BinarySequence",
    "ParseError",
    "RelabelMask",
    "apply_relabeling",
    "count_ones",
    "count_runs",
    "mask_between",
    "mask_from_index_set",
    "parse_sequence",
]

_TO_BINARY = str.maketrans("Hh1Tt0", "111000")
_NOT_SYMBOL = re.compile("[^HhTt01]")
_NOT_FLIP = re.compile("[^01]")
_UPPER = str.maketrans("10", "HT")
_LOWER = str.maketrans("10", "ht")


class ParseError(ValueError):
    """Malformed textual input (sequence, mask or probability).

    ``position`` is the 1-based offset of the offending character when
    one can be pointed at, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def pack(flags: Sequence) -> int:
    """Pack truth values into an integer, the first one in the low bit."""
    return int("".join("1" if f else "0" for f in reversed(flags)), 2)


def _digits(value: int, n: int) -> str:
    """The n low bits of ``value`` as 0/1 text, position 1 first."""
    return format(value, f"0{n}b")[::-1]


def _read_bits(text: str, illegal: re.Pattern, what: str, kind: str) -> int:
    """The packed value of nonempty 0/1 (or H/T) text, position 1 in the low bit.

    Raises :class:`ParseError` naming ``what`` for empty text, and the
    ``kind`` and 1-based position of the first character ``illegal`` matches.
    """
    if text == "":
        raise ParseError(f"empty {what}")
    bad = illegal.search(text)
    if bad:
        i = bad.start() + 1
        raise ParseError(f"illegal {kind} {bad.group()!r} at position {i}", position=i)
    return int(text[::-1].translate(_TO_BINARY), 2)


def _packed(cls, what: str, value: int, n: int):
    """A ``cls`` holding the n low bits of ``value``, checked to fit: every packed value is built here."""
    if n < 1:
        raise ValueError(f"{what} length must be at least 1")
    value = index(value)
    if not 0 <= value < (1 << n):
        raise ValueError(f"value {value} does not fit in {n} bits")
    obj = object.__new__(cls)
    object.__setattr__(obj, "value", value)
    object.__setattr__(obj, "n", n)
    return obj


class _Packed:
    """Frozen base of the packed classes; ``_key()`` holds the fields ``__match_args__`` names.

    Two instances are equal only when they are of one class with equal
    fields.  Constructors, copies and pickles all go through ``from_int``.
    """

    __slots__ = ("value", "n")
    __match_args__ = ("value", "n")

    def _key(self) -> tuple:
        return self.value, self.n

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self.__match_args__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self).from_int, self._key()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return self.n


class BinarySequence(_Packed):
    """An ordered, nonempty record of two-valued outcomes."""

    __slots__ = ("vocab",)
    __match_args__ = ("value", "n", "vocab")

    def __new__(cls, bits: Sequence[int], vocab: str = "heads/tails") -> "BinarySequence":
        if len(bits) == 0:
            raise ValueError("a sequence must contain at least one outcome")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("sequence bits must be 0 or 1")
        return cls.from_int(pack(bits), len(bits), vocab)

    def _key(self) -> tuple:
        return self.value, self.n, self.vocab

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, _digits(self.value, self.n)))

    def text(self, lower: bool = False) -> str:
        """Render as H/T symbols, lowercase when ``lower`` is set.

        Lowercase is the conventional rendering for relabeled
        vocabularies.
        """
        return _digits(self.value, self.n).translate(_LOWER if lower else _UPPER)

    @classmethod
    def from_int(cls, value: int, n: int, vocab: str = "heads/tails") -> "BinarySequence":
        seq = _packed(cls, "sequence", value, n)
        object.__setattr__(seq, "vocab", vocab)
        return seq


def parse_sequence(text: str, vocab: str = "heads/tails") -> BinarySequence:
    """Parse a string over H/h/1 and T/t/0 into a sequence.

    Raises :class:`ParseError` for empty input or for any other
    character, reporting its 1-based position.
    """
    return BinarySequence.from_int(_read_bits(text, _NOT_SYMBOL, "sequence", "character"), len(text), vocab)


def count_runs(seq: BinarySequence) -> int:
    """Number of maximal blocks of equal adjacent symbols, in [1, n]: one more than the breaks."""
    value = seq.value
    return ((value ^ (value >> 1)) & ((1 << (seq.n - 1)) - 1)).bit_count() + 1


def count_ones(seq: BinarySequence) -> int:
    """Number of positions holding the first symbol (bit 1)."""
    return seq.value.bit_count()


class RelabelMask(_Packed):
    """A per-position flip pattern; True inverts the reading there."""

    __slots__ = ()

    def __new__(cls, flips: Sequence[bool]) -> "RelabelMask":
        if len(flips) == 0:
            raise ValueError("a mask must cover at least one position")
        if any(f not in (False, True) for f in flips):
            raise ValueError("mask entries must be booleans")
        return cls.from_int(pack(flips), len(flips))

    @property
    def flips(self) -> tuple[bool, ...]:
        return tuple(map("1".__eq__, _digits(self.value, self.n)))

    @classmethod
    def from_flip_string(cls, text: str) -> "RelabelMask":
        """Parse a flip pattern written as a 0/1 string, position 1 first."""
        return cls.from_int(_read_bits(text, _NOT_FLIP, "mask", "mask character"), len(text))

    @classmethod
    def from_int(cls, value: int, n: int) -> "RelabelMask":
        return _packed(cls, "mask", value, n)

    def flip_string(self) -> str:
        return _digits(self.value, self.n)

    def flip_count(self) -> int:
        return self.value.bit_count()

    def flipped_positions(self) -> tuple[int, ...]:
        """1-based positions whose reading is inverted."""
        return tuple(i for i, digit in enumerate(self.flip_string(), 1) if digit == "1")

    def index_set(self) -> tuple[int, ...]:
        """The kept positions: the 1-based index set X this mask encodes."""
        return tuple(i for i, digit in enumerate(self.flip_string(), 1) if digit == "0")

    def compose(self, other: "RelabelMask") -> "RelabelMask":
        """Apply ``other`` after ``self``; flips combine by exclusive-or."""
        if self.n != other.n:
            raise ValueError(f"mask lengths differ: {self.n} vs {other.n}")
        return RelabelMask.from_int(self.value ^ other.value, self.n)


def mask_from_index_set(indices: Iterable[int], n: int) -> RelabelMask:
    """Canonical mask for the index set X: flip exactly outside X.

    Polarity is fixed so that the relabeled first symbol agrees with the
    original one on the kept positions: inside X the reading is
    unchanged, outside X it is inverted.
    """
    if n < 1:
        raise ValueError("mask length must be at least 1")
    kept = bytearray((n + 7) // 8)  # bit i - 1 set iff i is in X, little-endian
    for i in indices:
        try:
            i = index(i)
        except TypeError:
            raise ValueError(f"index {i!r} is not an integer") from None
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        kept[(i - 1) >> 3] |= 1 << ((i - 1) & 7)
    return RelabelMask.from_int(int.from_bytes(kept, "little") ^ ((1 << n) - 1), n)


def apply_relabeling(seq: BinarySequence, mask: RelabelMask, vocab: str | None = None) -> BinarySequence:
    """Read ``seq`` through ``mask``: bit i is inverted where the mask flips."""
    if seq.n != mask.n:
        raise ValueError(f"sequence length {seq.n} does not match mask length {mask.n}")
    return BinarySequence.from_int(
        seq.value ^ mask.value, seq.n, vocab if vocab is not None else f"relabeled {seq.vocab}"
    )


def mask_between(source: BinarySequence, target: BinarySequence) -> RelabelMask:
    """The unique mask carrying ``source`` to ``target``: flip where they differ."""
    if source.n != target.n:
        raise ValueError(f"sequence lengths differ: {source.n} vs {target.n}")
    return RelabelMask.from_int(source.value ^ target.value, source.n)
