"""Walkthrough: vocabulary relabelings as an XOR group action.

A relabeling redefines which physical outcome counts as the first
symbol, position by position.  Given an index set X, the reading is
kept inside X and inverted outside; canonically that is a flip mask.
Masks compose by exclusive-or, every mask is its own inverse, and any
sequence can be carried to any other by exactly one mask.

Run:  python demos/02_relabeling.py
"""

from randaudit import (
    apply_relabeling,
    check_null_invariance,
    mask_between,
    mask_from_index_set,
    parse_sequence,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


a = parse_sequence("HTTHTHHHT")
b = parse_sequence("HHHHHTTTT")
d = parse_sequence("TTTTTTTTT")

show("From index set to flip mask")
x = mask_from_index_set({1, 4, 9}, 9)
print(f"X = {{1, 4, 9}} over n = 9 keeps positions {x.index_set()}")
print(f"flip pattern: {x.flip_string()}   (flips at {x.flipped_positions()})")

show("Correspondence table under X (relabeled readings in lowercase)")
for name, seq, relabel_name in (("A", a, "a"), ("B", b, "b")):
    out = apply_relabeling(seq, x, vocab="teads/hails")
    print(f"({name}) {seq.text()}   <->   ({relabel_name}) {out.text(lower=True)}")

show("Correspondence table under Y = {2, 3, 5, 9}")
y = mask_from_index_set({2, 3, 5, 9}, 9)
for name, seq, relabel_name in (("A", a, "c"), ("D", d, "d")):
    out = apply_relabeling(seq, y, vocab="schmails/schmeads")
    print(f"({name}) {seq.text()}   <->   ({relabel_name}) {out.text(lower=True)}")

show("Group structure")
twice = apply_relabeling(apply_relabeling(a, x), x)
print(f"applying X twice returns the original: {twice.bits == a.bits}")
connector = mask_between(a, b)
print(f"the unique mask carrying A to B flips positions {connector.flipped_positions()}")
print(f"round trip works: {apply_relabeling(a, connector).bits == b.bits}")
composed = x.compose(x)
print(f"X composed with itself is the identity: {composed.flip_count() == 0}")

show("The null law is blind to the vocabulary")
for n in (3, 9, 12):
    report = check_null_invariance(n)
    print(
        f"n = {n:>2}: all {report.masks_checked} masks permute the {2**n} sequences "
        f"-> uniform iid law preserved: {report.passed}"
    )
print()
print("A source is unbiased and independent in the original vocabulary")
print("exactly when it is in any relabeled one, so a randomness test is")
print("as applicable to the relabeled reading as to the original.")
