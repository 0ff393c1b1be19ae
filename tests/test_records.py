"""The record contract: frozen fields, value equality, hashing, copies and pickles.

Nine records are named tuples; the two packed classes are slotted
classes that compare only with their own class.
"""

import copy
import pickle
import random
import timeit
from fractions import Fraction

import pytest

from randaudit import (
    BINOMIAL,
    RUNS,
    AuditResult,
    BinarySequence,
    FlipSearchResult,
    NullInvarianceReport,
    RejectionRateEstimate,
    RejectionSet,
    RelabelMask,
    RunsDistribution,
    SourceModel,
    TestVerdict as Verdict,  # renamed so that pytest does not collect it
    check_null_invariance,
    find_flipping_mask,
    likelihood,
    mask_from_index_set,
    parse_sequence,
    rejection_rate,
    rejection_set,
    runs_distribution,
    runs_test,
    verdict_under_relabeling,
)
from randaudit.simulate import BIASED, MARKOV
from randaudit.verdicts import STATISTICS, Statistic

SEQ = "HTTHTHHHT"
X_SET = (1, 4, 9)

# One factory per class; each call builds a new instance with the same fields.
FACTORIES = {
    BinarySequence: lambda: parse_sequence(SEQ, "teads/hails"),
    RelabelMask: lambda: mask_from_index_set(X_SET, 9),
    Verdict: lambda: runs_test(parse_sequence(SEQ)),
    Statistic: lambda: Statistic(*STATISTICS[RUNS]),
    RejectionSet: lambda: rejection_set(RUNS, 9),
    AuditResult: lambda: verdict_under_relabeling(parse_sequence(SEQ), mask_from_index_set(X_SET, 9), RUNS),
    FlipSearchResult: lambda: find_flipping_mask(parse_sequence(SEQ), BINOMIAL),
    NullInvarianceReport: lambda: check_null_invariance(3),
    RunsDistribution: lambda: runs_distribution(9),
    SourceModel: lambda: SourceModel.biased(Fraction(3, 5)),
    RejectionRateEstimate: lambda: rejection_rate(SourceModel.fair(), RUNS, 9, trials=100, seed=1),
}
CLASSES = list(FACTORIES)
ids = [cls.__name__ for cls in CLASSES]


def test_every_class_is_covered():
    assert len(FACTORIES) == 11
    for cls, make in FACTORIES.items():
        assert type(make()) is cls


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = FACTORIES[cls]()
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_equal_fields_are_equal_and_hash_equal(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_copies_and_pickles_are_equal(cls):
    record = FACTORIES[cls]()
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == record and hash(other) == hash(record)


class TestPackedClasses:
    def test_a_sequence_never_equals_a_mask(self):
        seq, mask = BinarySequence.from_int(5, 3), RelabelMask.from_int(5, 3)
        assert seq != mask and mask != seq
        assert seq.__eq__(mask) is NotImplemented
        assert seq != (5, 3, "heads/tails") and mask != (5, 3)

    def test_fields_take_part_in_equality(self):
        seq = BinarySequence.from_int(5, 3)
        assert seq != BinarySequence.from_int(5, 3, "teads/hails")
        assert seq != BinarySequence.from_int(4, 3)
        assert RelabelMask.from_int(5, 3) != RelabelMask.from_int(5, 4)

    def test_len_is_n(self):
        assert len(BinarySequence.from_int(5, 3)) == 3
        assert len(RelabelMask.from_int(0, 2000)) == 2000

    def test_reprs_are_unchanged(self):
        assert repr(BinarySequence.from_int(5, 3)) == "BinarySequence(value=5, n=3, vocab='heads/tails')"
        assert repr(RelabelMask.from_int(5, 3)) == "RelabelMask(value=5, n=3)"

    @pytest.mark.parametrize("n", [1, 64, 2000])
    def test_copies_and_pickles_round_trip(self, n):
        rng = random.Random(n)
        seq = BinarySequence.from_int(rng.getrandbits(n), n, "teads/hails")
        mask = RelabelMask.from_int(rng.getrandbits(n), n)
        audit = verdict_under_relabeling(seq, mask, RUNS, relabeled_vocab="schmails/schmeads")
        for record in (seq, mask, audit):
            copies = [copy.copy(record), copy.deepcopy(record)]
            copies += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for other in copies:
                assert type(other) is type(record) and other == record
        for other in (copy.deepcopy(audit), pickle.loads(pickle.dumps(audit))):
            assert other.relabeled_sequence.vocab == "schmails/schmeads"
            assert other.relabeled_sequence.text() == audit.relabeled_sequence.text()
            assert len(other.mask) == n

    def test_comparison_and_hash_stay_cheap(self):
        """Timed against the same work on plain tuples, so the bounds hold on any machine.

        Fields read one by one, not by a loop over the slots, keep ``==``
        and ``hash`` at 2.5 to 4 times the tuple work; a ``getattr`` loop
        made it about 10 times.  ``from_int`` is bounded loosely, against
        gross regressions only.
        """
        value, n = (1 << 1999) | 12345, 2000
        a, b = BinarySequence.from_int(value, n), BinarySequence.from_int(value, n)
        fields, same = (value, n, "heads/tails"), (value, n, "heads/tails")

        def best(fn) -> float:
            return min(timeit.repeat(fn, number=2000, repeat=7))

        packed = best(lambda: (a == b, hash(a)))
        plain = best(lambda: (fields == same, hash(fields)))
        assert packed < 6 * plain, (packed, plain)
        built = best(lambda: BinarySequence.from_int(value, n))
        assert built < 40 * best(lambda: tuple((value, n, "heads/tails"))), built


class TestRecordsAreNamedTuples:
    def test_fields_iterate_and_index_in_order(self):
        verdict = FACTORIES[Verdict]()
        assert tuple(verdict) == ("runs", 6, "upper", Fraction(93, 256), Fraction(1, 20), "heads/tails")
        assert verdict[1] == verdict.statistic == 6
        assert verdict == tuple(verdict)

    def test_reprs_are_unchanged(self):
        assert repr(FACTORIES[Verdict]()) == (
            "TestVerdict(test='runs', statistic=6, tail_used='upper', p=Fraction(93, 256), "
            "alpha=Fraction(1, 20), vocab='heads/tails')"
        )
        assert repr(FACTORIES[SourceModel]()) == (
            "SourceModel(kind='biased', p=Fraction(3, 5), stay=Fraction(1, 2))"
        )
        assert repr(runs_distribution(3)) == "RunsDistribution(counts=(2, 4, 2))"

    def test_defaults_are_kept(self):
        assert SourceModel("fair") == SourceModel.fair() == ("fair", Fraction(1, 2), Fraction(1, 2))
        assert rejection_set(RUNS, 9).sequences is None


class TestRecordsCannotContradictThemselves:
    """What follows from the stored fields is derived, so no copy or swap makes it stale."""

    def test_fields_are_pinned(self):
        """A new field fails here first, so one that the others already fix is not stored by accident."""
        fields = {cls: cls._fields for cls in CLASSES if issubclass(cls, tuple)}
        assert fields == {
            Verdict: ("test", "statistic", "tail_used", "p", "alpha", "vocab"),
            Statistic: ("of", "low", "tail", "attaining"),
            RejectionSet: ("test", "n", "alpha", "convention", "statistic_values", "exact_size", "sequences"),
            AuditResult: ("original", "relabeled", "mask", "relabeled_sequence"),
            FlipSearchResult: ("audit",),
            NullInvarianceReport: ("n", "masks_checked", "passed"),
            RunsDistribution: ("counts",),
            SourceModel: ("kind", "p", "stay"),
            RejectionRateEstimate: (
                "model", "test", "n", "alpha", "convention", "trials", "seed", "rejected", "exact_fair_size"
            ),
        }

    def test_a_new_alpha_decides_rejected(self):
        verdict = runs_test(parse_sequence("HHHHHTTTT"))
        assert verdict.p == Fraction(9, 256) and verdict.rejected
        assert not verdict._replace(alpha=Fraction(0)).rejected
        assert verdict._replace(alpha=Fraction(9, 256)).rejected
        assert not verdict._replace(alpha=Fraction(9, 256) - Fraction(1, 10**9)).rejected

    def test_a_new_relabeled_verdict_decides_flipped(self):
        audit = FACTORIES[AuditResult]()  # p = 93/256, then 9/256 on HHHHHTTTT
        assert audit.flipped and audit.relabeled.p == runs_test(parse_sequence("HHHHHTTTT")).p
        swapped = audit._replace(relabeled=audit.original)
        assert not swapped.flipped and swapped.as_dict()["flipped"] is False
        assert swapped._replace(original=audit.relabeled).flipped

    def test_a_search_reads_its_mask_from_its_audit(self):
        found = FACTORIES[FlipSearchResult]()
        assert found.mask == found.audit.mask and found.guaranteed_minimal is True
        other = verdict_under_relabeling(parse_sequence(SEQ), mask_from_index_set(X_SET, 9), RUNS)
        assert found._replace(audit=other).mask == other.mask

    def test_a_search_reads_its_method_from_its_audit(self):
        found = FACTORIES[FlipSearchResult]()  # a head-count search
        assert found.method == "closed-form" and found.as_dict()["method"] == "closed-form"
        other = verdict_under_relabeling(parse_sequence(SEQ), mask_from_index_set(X_SET, 9), RUNS)
        swapped = found._replace(audit=other)
        assert swapped.method == "dp" and swapped.as_dict()["method"] == "dp"

    def test_a_distribution_reads_its_length_from_its_counts(self):
        dist = runs_distribution(3)._replace(counts=(2, 2))
        assert dist == RunsDistribution((2, 2)) and dist.n == 2 and dist.total == 4
        assert dist.to_csv().splitlines()[1:] == ["1,2,1,2,0.5", "2,2,1,2,0.5"]
        assert [row["r"] for row in dist.to_json_dict()["rows"]] == [1, 2]
        assert dist.to_json_dict()["n"] == 2 and dist.to_json_dict()["total"] == 4


class TestSourceModelChecksEveryPath:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: SourceModel("bogus"),
            lambda: SourceModel(BIASED, p=Fraction(3, 2)),
            lambda: SourceModel.fair()._replace(stay=Fraction(-1, 2)),
            lambda: SourceModel.fair()._replace(kind="bogus"),
            lambda: SourceModel._make(("fair", Fraction(1, 2), Fraction(2))),
            lambda: SourceModel("fair", p=Fraction(3, 5)),
            lambda: SourceModel(MARKOV, p=Fraction(1, 3), stay=Fraction(3, 4)),
            lambda: SourceModel(BIASED, p=Fraction(1, 3), stay=Fraction(3, 4)),
            lambda: SourceModel.biased(Fraction(1, 3))._replace(kind=MARKOV),
            lambda: SourceModel._make((MARKOV, Fraction(1, 3), Fraction(3, 4))),
        ],
        ids=["kind", "p", "replace-stay", "replace-kind", "make", "fair-p", "markov-p", "biased-stay",
             "replace-biased-kind", "make-markov-p"],
    )
    def test_bad_fields_are_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_good_replacement_is_kept(self):
        model = SourceModel.fair()._replace(kind=BIASED, p=Fraction(1, 3))
        assert type(model) is SourceModel and model == SourceModel.biased(Fraction(1, 3))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SourceModel(BIASED, "1/3"),
            lambda: SourceModel(BIASED, p="1/3"),
            lambda: SourceModel(kind=BIASED, p="1/3"),
        ],
        ids=["positional", "keyword", "all-keyword"],
    )
    def test_text_fields_are_stored_as_fractions(self, build):
        model = build()
        assert model == SourceModel.biased(Fraction(1, 3))
        assert type(model.p) is Fraction and type(model.stay) is Fraction

    def test_replacement_text_is_converted(self):
        model = SourceModel.biased(Fraction(1, 3))._replace(p="2/5")
        assert model == SourceModel.biased(Fraction(2, 5)) and type(model.p) is Fraction

    def test_likelihood_of_text_built_models_is_exact(self):
        seq = parse_sequence("HT")
        assert likelihood(SourceModel(BIASED, p="1/3"), seq) == Fraction(2, 9)
        assert likelihood(SourceModel(MARKOV, stay="3/4"), seq) == Fraction(1, 8)


class TestMaskIndexSetCache:
    """A mask keeps the index set it builds; nothing that compares, copies or renders it sees the cache."""

    @staticmethod
    def _masks(filled: bool) -> tuple[RelabelMask, RelabelMask]:
        a, b = mask_from_index_set(X_SET, 9), mask_from_index_set(X_SET, 9)
        if filled:
            a.index_set()
        return a, b

    @pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
    def test_equality_hash_copies_and_pickles_ignore_the_cache(self, filled):
        a, b = self._masks(filled)
        assert a == b and b == a and hash(a) == hash(b)
        assert repr(a) == "RelabelMask(value=246, n=9)"
        copies = [copy.copy(a), copy.deepcopy(a)]
        copies += [pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is RelabelMask and other == a == b and hash(other) == hash(b)
            assert other.index_set() == X_SET

    @pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
    def test_the_cache_slot_cannot_be_assigned_or_deleted(self, filled):
        mask, _ = self._masks(filled)
        with pytest.raises(AttributeError):
            setattr(mask, "_kept", (1, 2, 3))
        with pytest.raises(AttributeError):
            del mask._kept
        assert mask.index_set() == X_SET

    def test_audits_sharing_a_mask_give_independent_x_set_lists(self):
        mask = mask_from_index_set(X_SET, 9)
        runs = verdict_under_relabeling(parse_sequence(SEQ), mask, RUNS)
        binomial = verdict_under_relabeling(parse_sequence(SEQ), mask, BINOMIAL)
        first, second = runs.as_dict()["x_set"], binomial.as_dict()["x_set"]
        assert first == second == list(X_SET) and first is not second
        first.append(2)
        second.clear()
        assert runs.as_dict()["x_set"] == binomial.as_dict()["x_set"] == list(X_SET)
        assert mask.index_set() == X_SET
