"""The three benchmark workloads: seeded inputs, program calls, checks.

Each workload yields operations in blocks.  Block b of seed s is drawn
from its own ``random.Random`` stream, so inputs depend only on
(workload, seed, block).  Within a block every operation family appears
a fixed number of times and size parameters are stratified (each
family cycles through its sizes in a seeded order), so two seeds give
the same mix of work and differ only in content.  This keeps medians
and percentiles comparable across seeds.

``run(tracer, op)`` makes the program calls of one operation; every
call into ``randaudit`` goes through ``tracer.call`` so a traced run can
record it.  ``check(op, output)`` compares the output against
``oracle``, which shares no code with the program, and raises
``CheckError`` on any disagreement.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import oracle as orc
from oracle import BINOMIAL, DOUBLED, ONE_SIDED, RUNS, expect

ra = None  # the program, bound by setup() so its import is timed as set-up
ra_report = None
ra_cli = None

TESTS = (RUNS, BINOMIAL)
CONVENTIONS = (ONE_SIDED, DOUBLED)
MODELS = ("fair", "biased:p=3/5", "markov:stay=3/4")
WORKED = ("HTTHTHHHT", "HHHHHTTTT", "TTTTTTTTT")
GOLDEN = 0.6180339887498949


def setup() -> None:
    global ra, ra_report, ra_cli
    import randaudit
    import randaudit.cli
    import randaudit.report

    ra, ra_report, ra_cli = randaudit, randaudit.report, randaudit.cli


def cycle_pick(seed: int, family: str, values: list, block: int):
    """values[...] such that every len(values) consecutive blocks see each once."""
    rounds, j = divmod(block, len(values))
    order = random.Random(f"cycle:{seed}:{family}:{rounds}").sample(values, len(values))
    return order[j]


def random_text(rng: random.Random, n: int) -> tuple[str, str]:
    """(input text, oracle bits) for a fresh length-n sequence."""
    bits = orc.bits_from_int(rng.getrandbits(n), n)
    one, zero = rng.choice(("HT", "ht", "10"))
    return bits.replace("1", "x").replace("0", zero).replace("x", one), bits


def seq_input(rng: random.Random, n: int, as_text: bool, bits: str | None = None) -> dict:
    """A sequence given to the program as H/T text or as a packed int."""
    if bits is None:
        bits = orc.bits_from_int(rng.getrandbits(n), n)
    if as_text:
        return {"n": n, "bits": bits, "text": bits.translate(str.maketrans("10", "HT")), "x": None}
    return {"n": n, "bits": bits, "text": None, "x": int(bits[::-1], 2)}


def bits_with_verdict(rng: random.Random, test: str, n: int, alpha: Fraction, convention: str, rejected: bool) -> str:
    """A random sequence whose verdict is fixed in advance.

    Rejected inputs are built with a rejected statistic value, since a
    uniform draw is rejected only about alpha of the time; accepted ones
    are drawn until accepted.
    """
    values = orc.rejected_values(test, n, alpha, convention)
    if not rejected:
        while True:
            bits = orc.bits_from_int(rng.getrandbits(n), n)
            if orc.statistic(test, bits) not in values:
                return bits
    v = rng.choice(values)
    if test == BINOMIAL:
        ones = set(rng.sample(range(n), v))
        return "".join("1" if i in ones else "0" for i in range(n))
    breaks = set(rng.sample(range(1, n), v - 1))
    bit, out = rng.choice("01"), []
    for i in range(n):
        if i in breaks:
            bit = "1" if bit == "0" else "0"
        out.append(bit)
    return "".join(out)


# ---------------------------------------------------------------------------
# Program calls shared by the workloads.  Each helper names its span and,
# for a traced run, replays the lower-layer steps the call is made of.


def call_seq(t, op: dict):
    if op["text"] is not None:
        return t.call("sequences.parse", ra.parse_sequence, op["text"])
    return t.call("sequences.pack", ra.BinarySequence.from_int, op["x"], op["n"])


def call_tails(t, test: str, n: int, convention: str) -> None:
    def all_tails():
        return [ra.statistic_pvalue(test, n, v, convention) for v in ra.statistic_domain(test, n)]

    t.call("exact.tail", all_tails, calls=len(orc.domain(test, n)))


def call_verdict(t, test: str, seq, alpha: Fraction, convention: str = ONE_SIDED):
    def replay(v) -> None:
        t.call("sequences.statistic", ra.count_runs if test == RUNS else ra.count_ones, seq)
        t.call("exact.tail", ra.statistic_pvalue, test, seq.n, v.statistic, convention)

    if test == RUNS:
        return t.call("verdicts.verdict", ra.runs_test, seq, alpha, replay=replay)
    return t.call("verdicts.verdict", ra.binomial_test, seq, alpha, convention, replay=replay)


def call_audit(t, seq, mask, test: str, alpha: Fraction, convention: str = ONE_SIDED):
    def replay(_) -> None:
        relabeled = t.call("sequences.relabel", ra.apply_relabeling, seq, mask)
        call_verdict(t, test, seq, alpha, convention)
        call_verdict(t, test, relabeled, alpha, convention)

    return t.call(
        "audit.audit", ra.verdict_under_relabeling, seq, mask, test, alpha, convention, replay=replay
    )


def call_flip(t, seq, test: str, alpha: Fraction, convention: str, minimize: bool):
    def replay(found) -> None:
        call_tails(t, test, seq.n, convention)
        call_verdict(t, test, seq, alpha, convention)
        if found is not None:
            call_audit(t, seq, found.mask, test, alpha, convention)

    def tag(found) -> dict:
        if found is None:
            return {"searches": 1}
        return {
            "searches": 1,
            "found": 1,
            "method": found.method,
            "guaranteed_minimal": int(found.guaranteed_minimal),
            "flip_count": found.mask.flip_count(),
        }

    return t.call(
        "audit.flip_search",
        ra.find_flipping_mask,
        seq,
        test,
        alpha,
        convention,
        minimize=minimize,
        replay=replay,
        tag=tag,
    )


def call_rejection_set(t, test: str, n: int, alpha: Fraction, convention: str, explicit: bool = False):
    return t.call(
        "verdicts.rejection_set",
        ra.rejection_set,
        test,
        n,
        alpha,
        convention,
        include_sequences=explicit,
        replay=lambda _: call_tails(t, test, n, convention),
    )


def call_rate(t, model, test: str, n: int, alpha: Fraction, convention: str, trials: int, seed: int):
    return t.call(
        "simulate.rejection_rate",
        ra.rejection_rate,
        model,
        test,
        n,
        alpha,
        convention,
        trials=trials,
        seed=seed,
        replay=lambda _: call_rejection_set(t, test, n, alpha, convention),
        tag=lambda est: {"trials": est.trials},
    )


def render(t, command: str, inputs: dict, results) -> str:
    """as_dict the results, then the JSON report, as one report span."""

    def build() -> str:
        return ra_report.to_json(ra_report.build_report(command, inputs, [r() for r in results], []))

    return t.call("report.json", build, tag=lambda text: {"bytes": len(text.encode())})


def spectrum_rows(spectrum) -> list:
    return [{"p": ra_report.prob_dict(p), "count": c} for p, c in sorted(spectrum.items())]


# ---------------------------------------------------------------------------
# verdict-long: one audit of one long stream per operation.


class VerdictLong:
    name = "verdict-long"
    block_size = 16
    rss_scope = "self"

    def block(self, seed: int, b: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}:{b}")
        offsets = random.Random(f"{self.name}:{seed}:offsets")
        forms = [True, False] * (self.block_size // 2)
        rng.shuffle(forms)
        ops = []
        for i, as_text in enumerate(forms):
            # Log-uniform length in [256, 2048], one per stratum; within a
            # stratum, successive blocks step by the golden ratio from a
            # seeded offset, so every run covers each stratum evenly.
            u = (offsets.random() + b * GOLDEN) % 1
            n = round(256 * 8 ** ((i + u) / self.block_size))
            ops.append(self._op(rng, n, as_text))
        rng.shuffle(ops)
        return ops

    def warmups(self) -> list[dict]:
        return [self._op(random.Random("warm-up"), 256, True)]

    def _op(self, rng: random.Random, n: int, as_text: bool) -> dict:
        op = seq_input(rng, n, as_text)
        m = rng.getrandbits(n)
        op.update(
            mask_int=m,
            mask=orc.bits_from_int(m, n),
            alpha=rng.choice((Fraction(1, 20), Fraction(1, 10), Fraction(1, 100))),
            convention=rng.choice(CONVENTIONS),
        )
        return op

    def run(self, t, op: dict):
        n, alpha, conv = op["n"], op["alpha"], op["convention"]
        seq = call_seq(t, op)
        if op["text"] is not None:
            mask = t.call("sequences.parse", ra.RelabelMask.from_flip_string, op["mask"])
        else:
            mask = t.call("sequences.pack", ra.RelabelMask.from_int, op["mask_int"], n)
        runs = call_verdict(t, RUNS, seq, alpha)
        binom = call_verdict(t, BINOMIAL, seq, alpha, conv)
        audit_runs = call_audit(t, seq, mask, RUNS, alpha)
        audit_binom = call_audit(t, seq, mask, BINOMIAL, alpha, conv)
        items = (runs, binom, audit_runs, audit_binom)
        text = render(t, self.name, {"n": n}, [item.as_dict for item in items])
        return items, text

    def check(self, op: dict, output) -> None:
        (runs, binom, audit_runs, audit_binom), text = output
        bits, alpha, conv = op["bits"], op["alpha"], op["convention"]
        relabeled = orc.xor_bits(bits, op["mask"])
        check_verdict(runs.as_dict(), RUNS, bits, alpha)
        check_verdict(binom.as_dict(), BINOMIAL, bits, alpha, conv)
        for audit, test, c in ((audit_runs, RUNS, ONE_SIDED), (audit_binom, BINOMIAL, conv)):
            expect(audit.mask.flip_string() == op["mask"], "audit mask differs from the input mask")
            expect(orc.bits_of(audit.relabeled_sequence.text()) == relabeled, "relabeled sequence is not the XOR")
            check_audit(audit.as_dict(), test, bits, relabeled, alpha, c)
        doc = json.loads(text)
        for row, item in zip(doc["results"], (runs, binom, audit_runs, audit_binom)):
            expect(row == item.as_dict(), "JSON report differs from as_dict")


def check_verdict(d: dict, test: str, bits: str, alpha: Fraction, convention: str = ONE_SIDED) -> None:
    stat, tail, p, rejected = orc.judge(test, bits, alpha, convention)
    expect(d["test"] == test, f"test {d['test']!r}, expected {test!r}")
    expect(d["statistic"] == stat, f"{test} statistic {d['statistic']}, oracle {stat} at n={len(bits)}")
    expect(d["tail"] == tail, f"{test} tail {d['tail']!r}, oracle {tail!r}")
    orc.check_prob(d["p"], p, f"{test} p at n={len(bits)}, statistic {stat}")
    orc.check_prob(d["alpha"], alpha, "alpha")
    expect(d["rejected"] == rejected, f"{test} rejected={d['rejected']}, oracle {rejected}")


def check_audit(d: dict, test: str, bits: str, relabeled: str, alpha: Fraction, convention: str) -> None:
    check_verdict(d["original"], test, bits, alpha, convention)
    check_verdict(d["relabeled"], test, relabeled, alpha, convention)
    expect(
        d["flipped"] == (d["original"]["rejected"] != d["relabeled"]["rejected"]),
        "flipped disagrees with the two verdicts",
    )
    if "witness" in d:
        expect(orc.bits_of(d["witness"]) == relabeled, "witness is not the relabeled sequence")


def check_flip(
    found: dict, test: str, bits: str, alpha: Fraction, convention: str, minimize: bool
) -> None:
    """``found`` is the search result as a dict (as_dict or CLI JSON)."""
    n = len(bits)
    original = orc.judge(test, bits, alpha, convention)[3]
    exists = any(
        (v in orc.rejected_values(test, n, alpha, convention)) != original for v in orc.domain(test, n)
    )
    expect(found["found"] == exists, f"found={found['found']}, oracle says a reversal exists: {exists}")
    if not exists:
        return
    mask = found["mask"]
    relabeled = orc.xor_bits(bits, mask)
    expect(orc.judge(test, relabeled, alpha, convention)[3] != original, f"mask {mask} does not reverse")
    expect(found["flip_count"] == mask.count("1"), "flip_count differs from the mask")
    check_audit(found["audit"], test, bits, relabeled, alpha, convention)
    if minimize:
        expect(found["guaranteed_minimal"], "a minimize search is not marked minimal")
    if found["guaranteed_minimal"] and n <= 16:
        best = orc.minimal_reversal(test, bits, alpha, convention)
        expect(mask == best, f"mask {mask} is not the minimal reversal {best}")


def check_rejection_set(d: dict, test: str, n: int, alpha: Fraction, convention: str) -> None:
    values = orc.rejected_values(test, n, alpha, convention)
    expect(d["n"] == n and d["test"] == test, "rejection set for the wrong test or length")
    expect(tuple(d["statistic_values"]) == values, f"rejected values differ at n={n}")
    orc.check_prob(d["exact_size"], orc.rejection_size(test, n, alpha, convention), "exact size")
    if "sequences" in d:
        wanted = {
            bits for bits in (orc.bits_from_int(x, n) for x in range(1 << n)) if orc.statistic(test, bits) in values
        }
        listed = [orc.bits_of(s) for s in d["sequences"]]
        expect(len(listed) == len(wanted) and set(listed) == wanted, "explicit rejection set differs")


def check_distribution(d: dict, n: int) -> None:
    counts = orc.counts(RUNS, n)[1:]
    expect(d["n"] == n and d["total"] == 1 << n, "distribution header is wrong")
    expect([row["count"] for row in d["rows"]] == list(counts), f"run counts differ at n={n}")
    for row in d["rows"]:
        pmf = Fraction(counts[row["r"] - 1], 1 << n)
        orc.check_prob(row["pmf"], pmf, f"pmf r={row['r']}", decimal=orc.exact_decimal)


def check_spectrum_rows(rows: list, test: str, n: int, convention: str) -> None:
    got = {Fraction(r["p"]["num"], r["p"]["den"]): r["count"] for r in rows}
    expect(sum(got.values()) == 1 << n, "spectrum total is not 2^n")
    expect(got == dict(orc.spectrum(test, n, convention)), f"spectrum differs from the null law at n={n}")
    for r in rows:
        orc.check_prob(r["p"], Fraction(r["p"]["num"], r["p"]["den"]), "spectrum p")


def check_rate(d: dict, spec: str, test: str, n: int, alpha: Fraction, convention: str, trials: int) -> None:
    expect(d["trials"] == trials and d["n"] == n and d["model"] == spec, "simulate echoes the wrong inputs")
    orc.check_prob(d["exact_fair_size"], orc.rejection_size(test, n, alpha, convention), "exact fair size")
    pw = orc.power(spec, test, n, alpha, convention)
    orc.check_rejections(d["rejected"], trials, pw, f"{spec} {test} n={n}")


# ---------------------------------------------------------------------------
# search-batch: one batch analysis per operation, from a balanced mix.

SEARCH_FAMILIES = (
    "flip-minimize",
    "flip-constructive",
    "spectrum",
    "enumerate",
    "invariance",
    "rejection-set",
    "rejection-set-explicit",
    "rejection-rate",
)
REJECTION_SET_SIZES = [(test, n) for test in TESTS for n in (128, 256, 384)]


class SearchBatch:
    name = "search-batch"
    rss_scope = "self"

    def block(self, seed: int, b: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}:{b}")

        def pick(family, values):
            return cycle_pick(seed, f"{self.name}:{family}", values, b)

        # Searches start from accepted and from rejected inputs in equal
        # numbers: the two directions differ in cost and memory.
        n, rejected = pick("flip-minimize", [(n, r) for n in range(16, 25) for r in (False, True)])
        n_con, rejected_con = pick("flip-constructive", [(n, r) for n in range(100, 300, 25) for r in (False, True)])
        ops = [
            self._flip(rng, n, True, rejected),
            self._flip(rng, n_con + rng.randrange(25), False, rejected_con),
            self._spectrum(rng, pick("spectrum", list(range(12, 17)))),
            {"family": "enumerate", "n": pick("enumerate", list(range(16, 23)))},
            {"family": "invariance", "n": pick("invariance", list(range(6, 11)))},
            self._rejection_set(rng, *pick("rejection-set", REJECTION_SET_SIZES), False),
            self._rejection_set(rng, rng.choice(TESTS), pick("rejection-set-explicit", list(range(8, 13))), True),
            self._rate(
                rng,
                pick("rate-model", list(MODELS)),
                pick("rate-n", list(range(9, 21))),
                pick("rate-trials", [2000, 3000, 4000]),
            ),
        ]
        rng.shuffle(ops)
        return ops

    def warmups(self) -> list[dict]:
        rng = random.Random("warm-up")
        return [
            self._flip(rng, 16, True, True),
            self._flip(rng, 100, False, False),
            self._spectrum(rng, 12),
            {"family": "enumerate", "n": 16},
            {"family": "invariance", "n": 6},
            self._rejection_set(rng, RUNS, 128, False),
            self._rejection_set(rng, RUNS, 8, True),
            self._rate(rng, "fair", 9, 200),
        ]

    def _flip(self, rng, n, minimize, rejected):
        test, alpha, conv = rng.choice(TESTS), Fraction(1, 20), rng.choice(CONVENTIONS)
        bits = bits_with_verdict(rng, test, n, alpha, conv, rejected)
        op = seq_input(rng, n, rng.random() < 0.5, bits)
        op.update(family="flip-minimize" if minimize else "flip-constructive", minimize=minimize)
        op.update(test=test, alpha=alpha, convention=conv)
        return op

    def _spectrum(self, rng, n):
        op = seq_input(rng, n, rng.random() < 0.5)
        op.update(family="spectrum", test=rng.choice(TESTS), convention=rng.choice(CONVENTIONS))
        return op

    def _rejection_set(self, rng, test, n, explicit):
        return {
            "family": "rejection-set-explicit" if explicit else "rejection-set",
            "test": test,
            "n": n,
            "alpha": rng.choice((Fraction(1, 20), Fraction(1, 100))),
            "convention": rng.choice(CONVENTIONS),
            "explicit": explicit,
        }

    def _rate(self, rng, spec, n, trials):
        return {
            "family": "rejection-rate",
            "model": spec,
            "test": rng.choice(TESTS),
            "n": n,
            "alpha": Fraction(1, 20),
            "convention": rng.choice(CONVENTIONS),
            "trials": trials,
            "seed": rng.randrange(1 << 30),
        }

    def run(self, t, op: dict):
        family, n = op["family"], op["n"]
        if family.startswith("flip"):
            seq = call_seq(t, op)
            found = call_flip(t, seq, op["test"], op["alpha"], op["convention"], op["minimize"])
            result = (lambda: found.as_dict(emit_witness=True)) if found else (lambda: {"found": False})
            return render(t, family, {"n": n}, [result])
        if family == "spectrum":
            seq = call_seq(t, op)
            spectrum = t.call(
                "audit.spectrum",
                ra.pvalue_spectrum,
                seq,
                op["test"],
                op["convention"],
                replay=lambda _: call_tails(t, op["test"], n, op["convention"]),
            )
            return render(t, family, {"n": n}, [lambda: {"rows": spectrum_rows(spectrum)}])
        if family == "enumerate":
            dist = t.call("exact.enumerate", ra.enumerate_runs_distribution, n)
            return render(t, family, {"n": n}, [dist.to_json_dict])
        if family == "invariance":
            report = t.call("audit.invariance", ra.check_null_invariance, n)
            return render(t, family, {"n": n}, [report.as_dict])
        if family.startswith("rejection-set"):
            region = call_rejection_set(t, op["test"], n, op["alpha"], op["convention"], op["explicit"])
            return render(t, family, {"n": n}, [region.as_dict])
        model = t.call("simulate.model", ra.parse_model, op["model"])
        estimate = call_rate(t, model, op["test"], n, op["alpha"], op["convention"], op["trials"], op["seed"])
        return render(t, family, {"n": n}, [estimate.as_dict])

    def check(self, op: dict, output: str) -> None:
        family, n = op["family"], op["n"]
        doc = json.loads(output)
        expect(doc["command"] == family and doc["inputs"] == {"n": n}, "report header is wrong")
        d = doc["results"][0]
        if family.startswith("flip"):
            check_flip(d, op["test"], op["bits"], op["alpha"], op["convention"], op["minimize"])
        elif family == "spectrum":
            check_spectrum_rows(d["rows"], op["test"], n, op["convention"])
        elif family == "enumerate":
            check_distribution(d, n)
        elif family == "invariance":
            expect(d == {"n": n, "masks_checked": 1 << n, "passed": True}, f"invariance report {d}")
        elif family.startswith("rejection-set"):
            check_rejection_set(d, op["test"], n, op["alpha"], op["convention"])
            expect(("sequences" in d) == op["explicit"], "explicit listing present iff requested")
        else:
            check_rate(d, op["model"], op["test"], n, op["alpha"], op["convention"], op["trials"])


# ---------------------------------------------------------------------------
# cli-paper: one `python -m randaudit` process per operation.

CLI_COMMANDS = (
    "runs-test",
    "binomial-test",
    "relabel",
    "audit",
    "flip-search",
    "flip-search",
    "spectrum",
    "distribution",
    "rejection-set",
    "simulate",
    "posterior",
    "reproduce-paper",
)
STRATA_300 = list(range(9, 300, 60))  # lengths 9..300 in five strata of 60


def stratum_n(rng: random.Random, low: int) -> int:
    return min(300, low + rng.randrange(60))


SEQUENCE_COMMANDS = ("runs-test", "binomial-test", "relabel", "audit", "flip-search", "spectrum", "posterior")


class CliPaper:
    name = "cli-paper"
    rss_scope = "children"

    def block(self, seed: int, b: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}:{b}")

        def pick(family, values):
            return cycle_pick(seed, f"{self.name}:{family}", values, b)

        ops = []
        for i, cmd in enumerate(CLI_COMMANDS):
            # The first flip-search minimizes at n <= 16; the second searches
            # longer inputs without minimizing.
            op = self._op(rng, pick, cmd, minimize=i == 4)
            op["argv"] = cli_argv(op)
            ops.append(op)
        rng.shuffle(ops)
        return ops

    def warmups(self) -> list[dict]:
        op = {"cmd": "reproduce-paper"}
        op["argv"] = cli_argv(op)
        return [op]

    def _op(self, rng: random.Random, pick, cmd: str, minimize: bool) -> dict:
        """One subcommand's inputs.

        ``pick`` cycles the sizes that set an operation's cost through a few
        strata, so a run of about ten blocks sees nearly the same costs
        whatever the seed.
        """
        op = {"cmd": cmd, "alpha": rng.choice(("1/20", "0.05", "1/10")), "convention": rng.choice(CONVENTIONS)}
        op["test"] = rng.choice(TESTS)
        if cmd in SEQUENCE_COMMANDS:
            if cmd == "flip-search":
                low = pick("flip-minimize", [9, 11, 13, 15]) if minimize else pick("flip", [17, 19, 21, 23])
                n = low + rng.randrange(2)
                text, bits = random_text(rng, n)
            elif cmd == "spectrum":
                text, bits = random_text(rng, rng.randint(9, 16))
            elif rng.random() < 0.25:
                text = rng.choice(WORKED)
                bits = orc.bits_of(text)
            else:
                text, bits = random_text(rng, rng.randint(9, 24))
            op.update(seq=text, bits=bits, n=len(bits))
        if cmd in ("relabel", "audit"):
            n = op["n"]
            if n == 9 and rng.random() < 0.5:
                kept = rng.choice(([1, 4, 9], [2, 3, 5, 9]))
            else:
                kept = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
            if rng.random() < 0.5:
                op["x_set"] = kept
            else:
                op["mask"] = "".join("0" if i in kept else "1" for i in range(1, n + 1))
            op["flips"] = "".join("0" if i in kept else "1" for i in range(1, n + 1))
            op["emit_witness"] = rng.random() < 0.5
        if cmd == "flip-search":
            op.update(minimize=minimize, emit_witness=rng.random() < 0.5)
        if cmd == "distribution":
            oracle_route = pick("distribution-oracle", [False, False, True])
            n = rng.randint(9, 20) if oracle_route else stratum_n(rng, pick("distribution-n", STRATA_300))
            op.update(n=n, oracle=oracle_route, format=pick("distribution-format", ["json", "csv"]))
        if cmd == "rejection-set":
            explicit = pick("rejection-set-explicit", [False, False, True])
            n = rng.randint(9, 10) if explicit else stratum_n(rng, pick("rejection-set-n", STRATA_300))
            op.update(n=n, explicit=explicit)
        if cmd == "simulate":
            op.update(
                model=pick("simulate-model", list(MODELS)),
                n=pick("simulate-n", [9, 13, 17, 21]) + rng.randrange(4),
                trials=pick("simulate-trials", [250, 500, 1000]),
                seed=rng.randrange(10**6),
            )
        if cmd == "posterior":
            op.update(model=rng.choice(MODELS[1:]), prior=rng.choice(("1", "1/3", "4")))
        return op

    def run(self, t, op: dict):
        def replay(_) -> None:
            t.call("cli.run", run_cli_captured, op["argv"], replay=lambda _: replay_cli(t, op))

        return t.call(
            "process.cli",
            subprocess.run,
            [sys.executable, "-m", "randaudit", *op["argv"]],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            replay=replay,
        )

    def check(self, op: dict, proc) -> None:
        expect(proc.returncode == 0, f"{op['cmd']} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        check_cli_output(op, proc.stdout)


def cli_argv(op: dict) -> list[str]:
    cmd = op["cmd"]
    argv = [cmd]
    if "seq" in op:
        argv += ["--seq", op["seq"]]
    if cmd in ("relabel", "audit"):
        argv += ["--x-set", ",".join(map(str, op["x_set"]))] if "x_set" in op else ["--mask", op["mask"]]
    if cmd in ("audit", "flip-search", "spectrum", "rejection-set", "simulate"):
        argv += ["--test", op["test"]]
    if cmd in ("runs-test", "binomial-test", "audit", "flip-search", "rejection-set", "simulate"):
        argv += ["--alpha", op["alpha"]]
    if cmd in ("binomial-test", "audit", "flip-search", "spectrum", "rejection-set", "simulate"):
        argv += ["--convention", op["convention"]]
    if cmd in ("distribution", "rejection-set", "simulate"):
        argv += ["--n", str(op["n"])]
    if op.get("minimize"):
        argv.append("--minimize")
    if op.get("emit_witness") and cmd in ("audit", "flip-search"):
        argv.append("--emit-witness")
    if cmd == "distribution":
        argv += ["--format", op["format"]] + (["--oracle"] if op["oracle"] else [])
    if cmd == "rejection-set" and op["explicit"]:
        argv.append("--explicit")
    if cmd == "simulate":
        argv += ["--model", op["model"], "--trials", str(op["trials"]), "--seed", str(op["seed"])]
    if cmd == "posterior":
        argv += ["--model", op["model"], "--prior-odds", op["prior"]]
    return argv


def run_cli_captured(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ra_cli.run_cli(argv)
    return code, out.getvalue()


def replay_cli(t, op: dict) -> None:
    """Argument parsing, and for reproduce-paper the report it builds.

    The handlers' other library calls are attributed on verdict-long and
    search-batch; here they stay in the self time of ``cli.run``.
    """
    t.call("cli.parse_args", ra_cli.build_parser().parse_args, op["argv"])
    if op["cmd"] == "reproduce-paper":
        t.call("report.reproduce", ra_report.reproduce_paper)


def check_cli_output(op: dict, stdout: str) -> None:
    cmd = op["cmd"]
    if cmd == "distribution" and op["format"] == "csv":
        lines = stdout.strip().split("\n")
        expect(lines[0] == "r,count,pmf-numerator,pmf-denominator,pmf-decimal", "CSV header is wrong")
        rows = [
            {"r": int(r), "count": int(c), "pmf": {"num": int(num), "den": int(den), "decimal": dec}}
            for r, c, num, den, dec in (line.split(",") for line in lines[1:])
        ]
        check_distribution({"n": op["n"], "total": 1 << op["n"], "rows": rows}, op["n"])
        return
    doc = json.loads(stdout)
    expect(doc["command"] == cmd, f"report for {doc['command']!r}, expected {cmd!r}")
    results = doc["results"]
    if cmd == "reproduce-paper":
        check_reproduction(doc)
        return
    alpha = Fraction(op["alpha"])
    conv, test = op["convention"], op["test"]
    if cmd == "runs-test":
        check_verdict(results[0], RUNS, op["bits"], alpha)
    elif cmd == "binomial-test":
        check_verdict(results[0], BINOMIAL, op["bits"], alpha, conv)
        if conv == DOUBLED:
            check_verdict(results[1]["one_sided"], BINOMIAL, op["bits"], alpha)
    elif cmd == "relabel":
        expect(orc.bits_of(results[0]["relabeled"]) == orc.xor_bits(op["bits"], op["flips"]), "relabel is wrong")
    elif cmd == "audit":
        d = results[0]
        expect(d["mask"] == op["flips"], "audit mask differs from the requested relabeling")
        kept = [i for i, f in enumerate(op["flips"], start=1) if f == "0"]
        expect(d["x_set"] == kept, "audit X set differs from the mask")
        expect(("witness" in d) == op["emit_witness"], "witness present iff requested")
        check_audit(d, test, op["bits"], orc.xor_bits(op["bits"], op["flips"]), alpha, conv)
    elif cmd == "flip-search":
        check_flip(results[0], test, op["bits"], alpha, conv, op["minimize"])
    elif cmd == "spectrum":
        check_spectrum_rows(results, test, op["n"], conv)
    elif cmd == "distribution":
        check_distribution(results[0], op["n"])
    elif cmd == "rejection-set":
        check_rejection_set(results[0], test, op["n"], alpha, conv)
        expect(("sequences" in results[0]) == op["explicit"], "explicit listing present iff requested")
    elif cmd == "simulate":
        check_rate(results[0], op["model"], test, op["n"], alpha, conv, op["trials"])
        draw = results[1]["first_draw"]
        expect(len(draw) == op["n"] and set(draw) <= set("HT"), "first draw is not a length-n sequence")
    elif cmd == "posterior":
        odds = Fraction(op["prior"]) * orc.likelihood(op["model"], op["bits"]) / orc.likelihood("fair", op["bits"])
        got = results[0]["posterior_odds"]
        expect((got["num"], got["den"]) == (odds.numerator, odds.denominator), f"posterior odds, oracle {odds}")


def check_reproduction(doc: dict) -> None:
    expect("deviations" not in doc, f"reproduce-paper deviations: {doc.get('deviations')}")
    alpha = Fraction(1, 20)
    sections = doc["results"]
    for row in sections[-1]["rows"]:
        expect(row["ok"], f"reproduce-paper check failed: {row['name']}")
    for row in sections[0]["rows"]:
        check_verdict(row, row["test"], orc.bits_of(row["sequence"]), alpha)
    audits = [row for section in sections[1:3] for row in section["rows"] if "witness" in row]
    expect(len(audits) == 4, "reproduce-paper lists four relabelings")
    for row in audits:
        conv = DOUBLED if row["relabeled"]["tail"] == "doubled" else ONE_SIDED
        check_verdict(row["relabeled"], row["relabeled"]["test"], orc.bits_of(row["witness"]), alpha, conv)


WORKLOADS = {w.name: w for w in (CliPaper(), VerdictLong(), SearchBatch())}
