"""CLI surface: subcommands, exit codes, report stability."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from randaudit import LISTING_LIMIT, SIMULATION_WORK_LIMIT, TAIL_LENGTH_LIMIT, runs_test, parse_sequence
from randaudit import report as report_mod
from randaudit.cli import build_parser, run_cli


def invoke(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def frac(prob: dict) -> Fraction:
    return Fraction(prob["num"], prob["den"])


class TestVerdictCommands:
    def test_runs_test_report(self, capsys):
        report = invoke_json(capsys, "runs-test", "--seq", "HTTHTHHHT", "--alpha", "1/20")
        assert report["schema_version"] == "1"
        assert report["command"] == "runs-test"
        result = report["results"][0]
        assert frac(result["p"]) == Fraction(186, 512)
        assert result["p"]["decimal"] == "0.363"
        assert result["rejected"] is False

    def test_runs_test_agrees_with_library(self, capsys):
        report = invoke_json(capsys, "runs-test", "--seq", "HHHHHTTTT")
        verdict = runs_test(parse_sequence("HHHHHTTTT"), Fraction(1, 20))
        result = report["results"][0]
        assert frac(result["p"]) == verdict.p
        assert result["rejected"] == verdict.rejected
        assert result["statistic"] == verdict.statistic

    def test_binomial_doubled_reports_one_sided_too(self, capsys):
        report = invoke_json(
            capsys, "binomial-test", "--seq", "TTTTTTTTT", "--convention", "two-sided-doubled"
        )
        main, extra = report["results"]
        assert frac(main["p"]) == Fraction(2, 512)
        assert main["p"]["decimal"] == "0.004"
        assert frac(extra["one_sided"]["p"]) == Fraction(1, 512)
        assert any("two-sided-doubled" in note for note in report["notes"])

    def test_alpha_decimal_string(self, capsys):
        report = invoke_json(capsys, "runs-test", "--seq", "HHHHHTTTT", "--alpha", "0.05")
        assert frac(report["inputs"]["alpha"]) == Fraction(1, 20)


class TestRelabelCommands:
    def test_relabel_by_index_set(self, capsys):
        report = invoke_json(capsys, "relabel", "--seq", "HHHHHTTTT", "--x-set", "1,4,9")
        assert report["results"][0]["relabeled"] == "htththhht"

    def test_relabel_by_flip_string(self, capsys):
        report = invoke_json(capsys, "relabel", "--seq", "HTTHTHHHT", "--mask", "011011110")
        assert report["results"][0]["relabeled"] == "hhhhhtttt"

    def test_audit_with_witness(self, capsys):
        report = invoke_json(
            capsys,
            "audit",
            "--seq",
            "HHHHHTTTT",
            "--x-set",
            "1,4,9",
            "--test",
            "runs",
            "--emit-witness",
        )
        result = report["results"][0]
        assert result["flipped"] is True
        assert result["witness"] == "htththhht"
        assert result["x_set"] == [1, 4, 9]

    def test_flip_search_found(self, capsys):
        report = invoke_json(
            capsys, "flip-search", "--seq", "HHHHHTTTT", "--test", "runs", "--minimize"
        )
        result = report["results"][0]
        assert result["found"] is True
        assert result["mask"] == "000000001"
        assert result["guaranteed_minimal"] is True

    def test_flip_search_absent(self, capsys):
        report = invoke_json(capsys, "flip-search", "--seq", "H", "--test", "runs")
        assert report["results"][0] == {"found": False}

    def test_spectrum(self, capsys):
        report = invoke_json(capsys, "spectrum", "--seq", "HTTHTHHHT", "--test", "runs")
        total = sum(row["count"] for row in report["results"])
        assert total == 512
        assert frac(report["results"][0]["p"]) == Fraction(2, 512)


class TestTableCommands:
    def test_distribution_json_matches_oracle(self, capsys):
        closed = invoke_json(capsys, "distribution", "--n", "9")
        oracle = invoke_json(capsys, "distribution", "--n", "9", "--oracle")
        assert closed["results"] == oracle["results"]

    def test_distribution_csv(self, capsys):
        code, out, _ = invoke(capsys, "distribution", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,count,pmf-numerator,pmf-denominator,pmf-decimal"
        assert len(lines) == 4

    def test_distribution_oracle_cap(self, capsys):
        code, _, err = invoke(capsys, "distribution", "--n", "25", "--oracle")
        assert code == 1
        assert "cap" in err

    def test_rejection_set(self, capsys):
        report = invoke_json(capsys, "rejection-set", "--test", "runs", "--n", "9", "--explicit")
        result = report["results"][0]
        assert result["statistic_values"] == [1, 2, 8, 9]
        assert frac(result["exact_size"]) == Fraction(36, 512)
        assert len(result["sequences"]) == 36


class TestSimulationCommands:
    def test_simulate(self, capsys):
        report = invoke_json(
            capsys,
            "simulate",
            "--model",
            "fair",
            "--test",
            "runs",
            "--n",
            "9",
            "--trials",
            "2000",
            "--seed",
            "11",
        )
        estimate = report["results"][0]
        assert estimate["trials"] == 2000
        assert frac(estimate["exact_fair_size"]) == Fraction(36, 512)
        assert 0 <= estimate["rate"] <= 1

    def test_simulate_biased_model(self, capsys):
        report = invoke_json(
            capsys,
            "simulate",
            "--model",
            "biased:p=1/1",
            "--test",
            "runs",
            "--n",
            "9",
            "--trials",
            "200",
            "--seed",
            "3",
        )
        assert report["results"][0]["rate"] == 1.0

    def test_posterior(self, capsys):
        report = invoke_json(
            capsys,
            "posterior",
            "--seq",
            "HHHHHHHHH",
            "--model",
            "markov:stay=9/10",
            "--prior-odds",
            "1",
        )
        odds = report["results"][0]["posterior_odds"]
        expected = 256 * Fraction(9, 10) ** 8
        assert Fraction(odds["num"], odds["den"]) == expected


class TestWorkLimits:
    @pytest.mark.parametrize(
        "argv, limit",
        [
            (
                ("simulate", "--test", "runs", "--n", str(TAIL_LENGTH_LIMIT),
                 "--trials", str(SIMULATION_WORK_LIMIT // TAIL_LENGTH_LIMIT + 1)),
                SIMULATION_WORK_LIMIT,
            ),
            (("simulate", "--test", "binomial", "--n", "5000"), SIMULATION_WORK_LIMIT),
            (("rejection-set", "--test", "runs", "--n", "22", "--explicit", "--alpha", "1/2"), LISTING_LIMIT),
            (("rejection-set", "--test", "binomial", "--n", "17", "--explicit", "--alpha", "1"), LISTING_LIMIT),
        ],
        ids=["simulate-trials", "simulate-default-trials", "rejection-set-runs-n22", "rejection-set-all-n17"],
    )
    def test_work_beyond_limit_fails_fast(self, capsys, argv, limit):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"limit {limit}" in err
        assert time.perf_counter() - start < 0.5


class TestErrorsAndStability:
    def test_empty_sequence_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "runs-test", "--seq", "")
        assert code == 2
        assert "empty" in err

    def test_illegal_character_position(self, capsys):
        code, _, err = invoke(capsys, "runs-test", "--seq", "HXT")
        assert code == 2
        assert "position 2" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "runs-test", "--seq", "HT", "--sideways")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("rendering", [[], ["--pretty"], ["--format", "csv"]], ids=["json", "pretty", "csv"])
    def test_a_closed_stdout_ends_the_output_quietly(self, rendering):
        """A reader that stops early, as ``| head -c 5`` does, is no error: exit 0 and no traceback.

        Each report at n = 1000 is larger than a pipe's buffer, so the
        writer is still writing when the reader closes.
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = [sys.executable, "-m", "randaudit", "distribution", "--n", "1000", *rendering]
        with subprocess.Popen(argv, env={"PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert len(child.stdout.read(5)) == 5
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert (code, err.decode()) == (0, "")

    @staticmethod
    def _child(argv: list[str], close: int | None = None, **streams) -> subprocess.CompletedProcess:
        """``python -m randaudit argv``, with file descriptor ``close`` closed in the child."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
        return subprocess.run(
            [sys.executable, "-m", "randaudit", *argv],
            env={"PYTHONPATH": src},
            preexec_fn=None if close is None else (lambda: os.close(close)),
            timeout=60,
            **streams,
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["runs-test", "--seq", "HT"], 0),
            (["runs-test", "--seq", "HT", "--pretty"], 0),
            (["runs-test", "--seq", "HX"], 2),
            (["rejection-set", "--test", "runs", "--n", str(TAIL_LENGTH_LIMIT + 1)], 1),
        ],
        ids=["json", "pretty", "input-error", "cap"],
    )
    def test_stdout_closed_outright_writes_nothing_and_keeps_the_exit_code(self, argv, code):
        """With stdout closed (``>&-``) there is no ``sys.stdout``; a report is dropped, as print drops it."""
        done = self._child(argv, close=1)
        assert done.returncode == code
        assert b"Traceback" not in done.stderr
        assert (done.stderr == b"") == (code == 0)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["runs-test", "--seq", "HX"], 2),
            (["runs-test", "--seq", "HT", "--sideways"], 2),
            (["rejection-set", "--test", "runs", "--n", str(TAIL_LENGTH_LIMIT + 1)], 1),
        ],
        ids=["input-error", "usage-error", "cap"],
    )
    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    def test_an_unwritable_stderr_keeps_the_error_exit_code(self, argv, code, stderr):
        """An error message, usage text included, is dropped when stderr is closed (no ``sys.stderr``) or refuses writes (EBADF).

        Nothing reaches stdout in its place.
        """
        if stderr == "closed":
            done = self._child(argv, close=2)
        else:
            with open(os.devnull, "rb") as read_only:
                done = self._child(argv, stderr=read_only)
        assert done.returncode == code
        assert done.stdout == b""

    def test_mask_length_mismatch(self, capsys):
        code, _, err = invoke(capsys, "relabel", "--seq", "HT", "--mask", "101")
        assert code == 2
        assert "length" in err

    def test_bad_index_set(self, capsys):
        code, _, err = invoke(capsys, "relabel", "--seq", "HT", "--x-set", "1,banana")
        assert code == 2

    def test_bad_alpha(self, capsys):
        code, _, err = invoke(capsys, "runs-test", "--seq", "HT", "--alpha", "7/2")
        assert code == 2

    def test_spectrum_cap_is_computation_error(self, capsys):
        # The spectrum is the null law in closed form and has no cap; the
        # exit-1 cap path is covered by ``distribution --oracle --n 25``.
        code, out, _ = invoke(capsys, "spectrum", "--seq", "H" * 17, "--test", "runs")
        assert code == 0
        assert sum(row["count"] for row in json.loads(out)["results"]) == 2**17

    @pytest.mark.parametrize(
        "argv",
        [
            ("runs-test", "--seq", "HT" * (TAIL_LENGTH_LIMIT // 2) + "H"),
            ("binomial-test", "--seq", "H" * (TAIL_LENGTH_LIMIT + 1)),
            ("distribution", "--n", str(TAIL_LENGTH_LIMIT + 1)),
            ("rejection-set", "--test", "runs", "--n", str(TAIL_LENGTH_LIMIT + 1)),
            ("rejection-set", "--test", "binomial", "--n", "15000", "--explicit"),
            ("simulate", "--test", "runs", "--n", str(TAIL_LENGTH_LIMIT + 1)),
        ],
        ids=["runs-test", "binomial-test", "distribution", "rejection-set", "rejection-set-explicit", "simulate"],
    )
    def test_length_beyond_tail_limit_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"limit {TAIL_LENGTH_LIMIT}" in err
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "argv",
        [
            ("runs-test", "--seq", "HT", "--alpha", "1e-9999999"),
            ("runs-test", "--seq", "HT", "--alpha", "1e-\u0669\u0669\u0669\u0669\u0669\u0669\u0669"),
            ("posterior", "--seq", "HT", "--model", "biased:p=3/5", "--prior-odds", "1e-9999999"),
            ("simulate", "--test", "runs", "--n", "9", "--model", "biased:p=1e-9999999"),
        ],
        ids=["alpha", "alpha-arabic-indic-digits", "prior-odds", "model"],
    )
    def test_huge_decimal_exponent_is_refused_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"exponent of magnitude above {TAIL_LENGTH_LIMIT}" in err
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "argv",
        [
            ("runs-test", "--seq", "HT", "--alpha", "1e-4300"),
            ("runs-test", "--seq", "HT", "--alpha", "9.99e-4299"),
            ("simulate", "--test", "runs", "--n", "9", "--trials", "100", "--model", "biased:p=1e-4300"),
            ("posterior", "--seq", "HT", "--model", "biased:p=1e-4300"),
        ],
        ids=["alpha", "alpha-mantissa", "simulate-model", "posterior-model"],
    )
    def test_unrenderable_probability_is_refused_at_parse(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse probability") and err.count("\n") == 1
        assert time.perf_counter() - start < 0.1

    def test_alpha_at_the_digit_limit_is_read(self, capsys):
        report = invoke_json(capsys, "runs-test", "--seq", "HT", "--alpha", "1e-4299")
        assert frac(report["inputs"]["alpha"]) == Fraction(1, 10**4299)

    def test_reports_are_byte_stable(self, capsys):
        args = ("audit", "--seq", "HTTHTHHHT", "--x-set", "1,4,9", "--test", "runs")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_pretty_mode_is_text(self, capsys):
        code, out, _ = invoke(capsys, "runs-test", "--seq", "HTTHTHHHT", "--pretty")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "REJECT" in out or "no rejection" in out


class TestReproduceCommand:
    def test_exit_zero_and_no_deviations(self, capsys):
        code, out, _ = invoke(capsys, "reproduce-paper")
        assert code == 0
        report = json.loads(out)
        assert "deviations" not in report
        assert any("two-sided-doubled" in note for note in report["notes"])

    def test_tables_present(self, capsys):
        report = invoke_json(capsys, "reproduce-paper")
        sections = [r["section"] for r in report["results"]]
        assert any("X = {1,4,9}" in s for s in sections)
        assert any("Y = {2,3,5,9}" in s for s in sections)
        checks = next(r for r in report["results"] if r["section"] == "checks")
        assert all(row["ok"] for row in checks["rows"])

    def test_a_deviation_fails_the_run(self, capsys, monkeypatch):
        # Sequence A's run-count p made 1/512 too large: 187/512 renders 0.365.
        seq_a = parse_sequence(report_mod._SEQ_A)

        def skewed(seq, alpha):
            verdict = runs_test(seq, alpha)
            return verdict._replace(p=verdict.p + Fraction(1, 512)) if seq == seq_a else verdict

        monkeypatch.setattr(report_mod, "runs_test", skewed)
        code, out, _ = invoke(capsys, "reproduce-paper")
        assert code == 1
        result = json.loads(out)
        assert result["deviations"] == ["runs(A) p", "runs(A) p rendering"]
        checks = next(r for r in result["results"] if r["section"] == "checks")
        assert [row["name"] for row in checks["rows"] if not row["ok"]] == result["deviations"]
        code, out, _ = invoke(capsys, "reproduce-paper", "--pretty")
        assert code == 1
        assert "  [DEV] runs(A) p\n" in out
        assert out.rstrip("\n").endswith("\ndeviations: runs(A) p, runs(A) p rendering")


class TestPosteriorRendering:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--seq", "HT" * 4000, "--model", "biased:p=3/5"),
            ("--seq", "HT", "--model", "biased:p=3/5", "--prior-odds", "1e400"),
            ("--seq", "H" * 1200, "--model", "markov:stay=999/1000", "--pretty"),
            ("--seq", "HT", "--model", "biased:p=0", "--prior-odds", "1e5000"),
        ],
        ids=[
            "digits-beyond-int-to-str-limit",
            "prior-beyond-float-range",
            "odds-beyond-float-range",
            "prior-digits-beyond-int-to-str-limit",
        ],
    )
    def test_unrenderable_odds_are_refused(self, capsys, argv):
        code, out, err = invoke(capsys, "posterior", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nonpositive_prior_is_a_usage_error_before_rendering(self, capsys):
        # The prior is judged before its echo is rendered, so a negative prior
        # too long to render still exits 2.
        code, out, err = invoke(capsys, "posterior", "--seq", "HT", "--model", "biased:p=3/5", "--prior-odds=-1e5000")
        assert (code, out) == (2, "")
        assert "positive" in err


SEQ = ("--seq", "HTTHTHHHT")
# Paper-scale argv of every subcommand that must run without numpy.
WITHOUT_NUMPY = [
    ["--help"],
    ["runs-test", *SEQ],
    ["binomial-test", "--seq", "TTTTTTTTT", "--convention", "two-sided-doubled"],
    ["relabel", "--seq", "HHHHHTTTT", "--x-set", "1,4,9"],
    ["audit", *SEQ, "--x-set", "1,4,9", "--test", "runs", "--emit-witness"],
    ["flip-search", *SEQ, "--test", "binomial"],
    ["flip-search", *SEQ, "--test", "runs"],
    ["flip-search", "--seq", "HHTHTTTHHT" * 30, "--test", "runs"],
    ["spectrum", *SEQ, "--test", "runs"],
    ["distribution", "--n", "9"],
    ["rejection-set", "--test", "runs", "--n", "9"],
    ["rejection-set", "--test", "runs", "--n", "9", "--explicit"],
    ["simulate", "--model", "fair", "--test", "runs", "--n", "9", "--trials", "5000"],
    ["simulate", "--model", "biased:p=3/5", "--test", "binomial", "--n", "9", "--trials", "5000"],
    ["simulate", "--model", "markov:stay=3/4", "--test", "runs", "--n", "9", "--trials", "5000"],
    ["posterior", *SEQ, "--model", "biased:p=3/5"],
    ["reproduce-paper"],
]
# The enumeration oracle is numpy's user.
WITH_NUMPY = [
    ["distribution", "--n", "9", "--oracle"],
]


# Modules whose presence after a run is reported.  ``dataclasses`` and
# ``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind it) cost a
# process about a fifth of its start-up; numpy imports ``inspect`` itself.
WATCHED = ("numpy", "dataclasses", "inspect")


def modules_loaded_after(argv: list[str] | None) -> set[str]:
    """Run the CLI in a fresh interpreter, or only ``import randaudit`` for None.

    Requires exit 0 and returns the ``WATCHED`` modules that were imported.
    """
    if argv is None:
        run = "import randaudit\ncode = 0\n"
    else:
        run = (
            "import contextlib, io\n"
            "from randaudit.cli import run_cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = run_cli({argv!r})\n"
        )
    code = f"import sys\n{run}print(code, *[m for m in {WATCHED!r} if m in sys.modules])\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    exit_code, *loaded = done.stdout.split()
    assert exit_code == "0", done.stderr
    return set(loaded)


class TestNumpyIsLoadedOnlyWhereUsed:
    @pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=" ".join)
    def test_paper_scale_commands_run_without_numpy(self, argv):
        loaded = modules_loaded_after(argv)
        assert "numpy" not in loaded
        assert not loaded & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", WITH_NUMPY, ids=" ".join)
    def test_dp_and_oracle_still_load_it(self, argv):
        loaded = modules_loaded_after(argv)
        assert "numpy" in loaded
        assert "dataclasses" not in loaded  # numpy brings ``inspect`` in

    def test_bare_import_loads_no_heavy_module(self):
        assert modules_loaded_after(None) == set()


# Every subcommand's options as ``build_parser()`` declared them before the
# subcommands moved into one table: option -> (required, default, choices,
# type), in declaration order.  Goldens only see the argv they run; this
# sees a flag that no golden passes.
CONV = ("paper-one-sided", "two-sided-doubled")
TEST = ("runs", "binomial")
SEQ_FLAGS = {"--seq": (True, None, None, None), "--vocab": (False, "heads/tails", None, None)}
MASK_FLAGS = {"--x-set": (False, None, None, None), "--mask": (False, None, None, None)}
ALPHA = {"--alpha": (False, "1/20", None, None)}
CONVENTION = {"--convention": (False, "paper-one-sided", CONV, None)}
PRETTY = {"--pretty": (False, False, None, None)}
FLAG_INVENTORY = {
    "runs-test": {**SEQ_FLAGS, **ALPHA, **PRETTY},
    "binomial-test": {**SEQ_FLAGS, **ALPHA, **CONVENTION, **PRETTY},
    "relabel": {**SEQ_FLAGS, **MASK_FLAGS, **PRETTY},
    "audit": {
        **SEQ_FLAGS, **MASK_FLAGS, "--test": (True, None, TEST, None), **ALPHA, **CONVENTION,
        "--emit-witness": (False, False, None, None), **PRETTY,
    },
    "flip-search": {
        **SEQ_FLAGS, "--test": (True, None, TEST, None), **ALPHA, **CONVENTION,
        "--minimize": (False, False, None, None), "--emit-witness": (False, False, None, None), **PRETTY,
    },
    "spectrum": {**SEQ_FLAGS, "--test": (True, None, TEST, None), **CONVENTION, **PRETTY},
    "distribution": {
        "--n": (True, None, None, int), "--oracle": (False, False, None, None),
        "--format": (False, "json", ("json", "csv"), None), **PRETTY,
    },
    "rejection-set": {
        "--test": (True, None, TEST, None), "--n": (True, None, None, int), **ALPHA, **CONVENTION,
        "--explicit": (False, False, None, None), **PRETTY,
    },
    "simulate": {
        "--model": (False, "fair", None, None), "--test": (True, None, TEST, None), "--n": (True, None, None, int),
        **ALPHA, **CONVENTION, "--trials": (False, 100_000, None, int), "--seed": (False, 0, None, int), **PRETTY,
    },
    "posterior": {**SEQ_FLAGS, "--model": (True, None, None, None), "--prior-odds": (False, "1", None, None), **PRETTY},
    "reproduce-paper": {**PRETTY},
}
# Subcommands with the required --x-set/--mask choice.
MASK_GROUP = {"relabel", "audit"}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert action.required
    return action.choices


class TestFlagInventory:
    def test_subcommands_in_order(self):
        assert list(subparsers()) == list(FLAG_INVENTORY)

    @pytest.mark.parametrize("name", FLAG_INVENTORY)
    def test_options_match_the_inventory(self, name):
        declared = {
            action.option_strings[0]: (
                action.required,
                action.default,
                None if action.choices is None else tuple(action.choices),
                action.type,
            )
            for action in subparsers()[name]._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert list(declared.items()) == list(FLAG_INVENTORY[name].items())

    @pytest.mark.parametrize("name", FLAG_INVENTORY)
    def test_mask_group(self, name):
        groups = [
            ([a.option_strings for a in g._group_actions], g.required)
            for g in subparsers()[name]._mutually_exclusive_groups
        ]
        assert groups == ([([["--x-set"], ["--mask"]], True)] if name in MASK_GROUP else [])
