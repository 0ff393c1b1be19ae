"""Independent oracles the tests check the library against, by exhaustive search."""

from fractions import Fraction

from randaudit import RUNS, BinarySequence, RelabelMask, apply_relabeling, binomial_test, runs_test


def brute_force_minimal(seq: BinarySequence, test: str, alpha: Fraction, convention: str) -> RelabelMask | None:
    """The fewest-flip reversing mask, ties to the smallest flip string, by trying all 2^n masks."""

    def rejected(s: BinarySequence) -> bool:
        return (runs_test(s, alpha) if test == RUNS else binomial_test(s, alpha, convention)).rejected

    original = rejected(seq)
    best = None
    for m in range(1 << seq.n):
        mask = RelabelMask.from_int(m, seq.n)
        if rejected(apply_relabeling(seq, mask)) != original:
            key = (mask.flip_count(), mask.flip_string())
            if best is None or key < best[0]:
                best = (key, mask)
    return None if best is None else best[1]
