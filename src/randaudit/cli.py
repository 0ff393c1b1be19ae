"""Command-line surface.

Every subcommand prints one JSON report to stdout (or a human table
with ``--pretty``).  Exit codes: 0 success, 2 usage or input-parsing
error, 1 computation error such as an exceeded enumeration cap or a
length beyond the exact-tail limit, and 1 when ``reproduce-paper``
detects a deviation from its pinned values.

Each subcommand is one ``COMMANDS`` row: its help text, the options it
takes and a function from the parsed options to the report fields it
sets and its ``--pretty`` lines.  Each option is one ``OPTIONS`` entry:
its argparse flags, how it is parsed and how it is echoed into the
report's ``inputs``.  One driver builds the parser from the two tables,
parses and echoes the options in ``OPTIONS`` order, and renders the
report.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, NoReturn

from . import report as report_mod
from .audit import find_flipping_mask, verdict_under_relabeling
from .exact import CapExceededError, enumerate_runs_distribution, parse_probability, parse_rational, prob_dict
from .report import build_report, to_json
from .sequences import (
    ParseError,
    RelabelMask,
    apply_relabeling,
    mask_from_index_set,
    parse_sequence,
)
from .simulate import SourceModel, parse_model, posterior_odds, rejection_rate, sample_sequence
from .verdicts import (
    CONVENTIONS,
    ONE_SIDED,
    TESTS,
    TWO_SIDED_DOUBLED,
    binomial_test,
    pvalue_spectrum,
    rejection_set,
    runs_distribution,
    runs_test,
)


class Option(NamedTuple):
    """One option: its flags, its parse and its echo into ``inputs``."""

    flags: tuple[tuple[str, dict], ...]  # (flag, add_argument keywords)
    parse: Callable[[argparse.Namespace, dict], object]  # (args, options parsed so far) -> value
    echo: Callable[[object], dict] | None  # value -> ``inputs`` entries; None if not echoed
    exclusive: bool = False  # the flags form a required mutually exclusive group


def _flag(flag: str, parse=None, echo=lambda value: value, **keywords) -> Option:
    """A one-flag option, echoed under its own name unless ``echo`` is None."""
    dest = flag[2:].replace("-", "_")
    return Option(
        ((flag, keywords),),
        lambda args, got: getattr(args, dest) if parse is None else parse(getattr(args, dest)),
        None if echo is None else (lambda value: {dest: echo(value)}),
    )


def _parse_mask(args: argparse.Namespace, n: int) -> RelabelMask:
    if args.mask is not None:
        mask = RelabelMask.from_flip_string(args.mask)
        if mask.n != n:
            raise ParseError(f"mask length {mask.n} does not match sequence length {n}")
        return mask
    try:
        indices = [int(part) for part in args.x_set.split(",") if part.strip() != ""]
    except ValueError:
        raise ParseError(f"cannot parse index set {args.x_set!r}") from None
    return mask_from_index_set(indices, n)


def _rendered(render: Callable, value):
    """``render(value)``, refused with exit 1 for posterior odds that cannot be rendered."""
    try:
        return render(value)
    except (ValueError, OverflowError):  # int-to-str digit limit, float range
        raise CapExceededError("posterior odds are too large or too precise to render") from None


# In the order the options are declared, parsed and echoed.
OPTIONS = {
    "seq": Option(
        (
            ("--seq", {"required": True, "help": "sequence text over H/h/1 and T/t/0"}),
            ("--vocab", {"default": "heads/tails", "help": "label for rendering only"}),
        ),
        lambda args, got: parse_sequence(args.seq, args.vocab),
        lambda seq: {"seq": seq.text(), "vocab": seq.vocab},
    ),
    "mask": Option(
        (
            ("--x-set", {"help": "comma-separated 1-based kept positions, e.g. 1,4,9"}),
            ("--mask", {"help": "explicit flip string over 0/1, position 1 first"}),
        ),
        lambda args, got: _parse_mask(args, got["seq"].n),
        lambda mask: {"mask": mask.flip_string(), "x_set": list(mask.index_set())},
        exclusive=True,
    ),
    "model": _flag(
        "--model",
        parse_model,
        SourceModel.spec_string,
        default="fair",
        help="fair | biased:p=NUM/DEN | markov:stay=NUM/DEN",
    ),
    # posterior's --model: the same flag, but required and without a default.
    "alternative": _flag(
        "--model", parse_model, SourceModel.spec_string, required=True, help="alternative source model"
    ),
    "prior_odds": _flag(
        "--prior-odds",
        parse_rational,
        lambda prior: _rendered(str, prior),
        default="1",
        help="prior odds as a positive rational",
    ),
    "test": _flag("--test", choices=TESTS, required=True),
    "n": _flag("--n", type=int, required=True),
    "alpha": _flag(
        "--alpha", parse_probability, prob_dict, default="1/20", help="significance threshold, e.g. 1/20 or 0.05"
    ),
    "convention": _flag("--convention", choices=CONVENTIONS, default=ONE_SIDED),
    "trials": _flag("--trials", type=int, default=100_000),
    "seed": _flag("--seed", type=int, default=0),
    "minimize": _flag(
        "--minimize",
        action="store_true",
        help="accepted and echoed in the report; every search already returns the fewest flips, "
        "lexicographic tie-break",
    ),
    "explicit": _flag("--explicit", action="store_true", help="list the rejected sequences themselves"),
    "oracle": _flag("--oracle", action="store_true", help="tally by full enumeration instead of the closed form"),
    "emit_witness": _flag("--emit-witness", echo=None, action="store_true", help="include the relabeled rendering"),
    "format": _flag("--format", echo=None, choices=["json", "csv"], default="json"),
    "pretty": _flag("--pretty", echo=None, action="store_true"),
}


def _pretty_prob(p: Fraction) -> str:
    d = prob_dict(p)
    return f"{d['num']}/{d['den']} ({d['decimal']})"


def _pretty_verdict(v) -> str:
    outcome = "REJECT" if v.rejected else "no rejection"
    return (
        f"{v.test} statistic={v.statistic} tail={v.tail_used} "
        f"p={_pretty_prob(v.p)} alpha={_pretty_prob(v.alpha)} -> {outcome} [{v.vocab}]"
    )


# Each function below maps the parsed options to (report fields, pretty
# lines).  The fields are laid over the report ``build_report`` makes from
# the echoed inputs, with empty results and notes.


def _runs_test(got: dict) -> tuple[dict, list[str]]:
    verdict = runs_test(got["seq"], got["alpha"])
    return {"results": [verdict.as_dict()]}, [f"sequence {got['seq'].text()}", _pretty_verdict(verdict)]


def _binomial_test(got: dict) -> tuple[dict, list[str]]:
    seq, alpha, convention = got["seq"], got["alpha"], got["convention"]
    verdict = binomial_test(seq, alpha, convention)
    fields = {"results": [verdict.as_dict()]}
    if convention == TWO_SIDED_DOUBLED:
        fields["results"].append({"one_sided": binomial_test(seq, alpha, ONE_SIDED).as_dict()})
        fields["notes"] = [report_mod.CONVENTION_NOTE]
    return fields, [f"sequence {seq.text()}", _pretty_verdict(verdict)]


def _relabel(got: dict) -> tuple[dict, list[str]]:
    seq, mask = got["seq"], got["mask"]
    out = apply_relabeling(seq, mask)
    lines = [f"original  {seq.text()}", f"mask      {mask.flip_string()}", f"relabeled {out.text(lower=True)}"]
    return {"results": [{"relabeled": out.text(lower=True), "vocab": out.vocab}]}, lines


def _audit(got: dict) -> tuple[dict, list[str]]:
    audit = verdict_under_relabeling(got["seq"], got["mask"], got["test"], got["alpha"], got["convention"])
    lines = [
        f"original  {got['seq'].text()}: {_pretty_verdict(audit.original)}",
        f"relabeled {audit.relabeled_sequence.text(lower=True)}: {_pretty_verdict(audit.relabeled)}",
        f"verdict flipped: {'yes' if audit.flipped else 'no'}",
    ]
    return {"results": [audit.as_dict(emit_witness=got["emit_witness"])]}, lines


def _flip_search(got: dict) -> tuple[dict, list[str]]:
    found = find_flipping_mask(got["seq"], got["test"], got["alpha"], got["convention"], minimize=got["minimize"])
    if not found:
        return {"results": [{"found": False}]}, ["no relabeling reverses this verdict"]
    lines = [
        f"reversing mask {found.mask.flip_string()} ({found.mask.flip_count()} flips, {found.method})",
        f"guaranteed minimal: {'yes' if found.guaranteed_minimal else 'no'}",
        f"relabeled {found.audit.relabeled_sequence.text(lower=True)}: {_pretty_verdict(found.audit.relabeled)}",
    ]
    return {"results": [found.as_dict(emit_witness=got["emit_witness"])]}, lines


def _spectrum(got: dict) -> tuple[dict, list[str]]:
    spectrum = sorted(pvalue_spectrum(got["seq"], got["test"], got["convention"]).items())
    rows = [{"p": prob_dict(p), "count": count} for p, count in spectrum]
    return {"results": rows}, [f"{_pretty_prob(p)}: {count} masks" for p, count in spectrum]


def _distribution(got: dict) -> tuple[dict, list[str]]:
    dist = enumerate_runs_distribution(got["n"]) if got["oracle"] else runs_distribution(got["n"])
    if got["format"] == "csv":
        return {}, dist.to_csv().splitlines()
    table = dist.to_json_dict()
    lines = [f"r={row['r']:>3}  count={row['count']}  pmf={row['pmf']['decimal']}" for row in table["rows"]]
    return {"results": [table]}, lines


def _rejection_set(got: dict) -> tuple[dict, list[str]]:
    result = rejection_set(got["test"], got["n"], got["alpha"], got["convention"], include_sequences=got["explicit"])
    lines = [
        f"rejected statistic values: {list(result.statistic_values)}",
        f"exact size: {_pretty_prob(result.exact_size)}",
    ]
    if result.sequences is not None:
        lines.append(f"sequences ({len(result.sequences)}): " + " ".join(s.text() for s in result.sequences))
    return {"results": [result.as_dict()]}, lines


def _simulate(got: dict) -> tuple[dict, list[str]]:
    estimate = rejection_rate(
        got["model"], got["test"], got["n"], got["alpha"], got["convention"], trials=got["trials"], seed=got["seed"]
    )
    lines = [
        f"rejected {estimate.rejected}/{estimate.trials} (rate {estimate.rate:.5f}, se {estimate.standard_error:.5f})",
        f"exact size under the fair null: {_pretty_prob(estimate.exact_fair_size)}",
    ]
    trial_zero = sample_sequence(got["model"], got["n"], got["seed"])
    return {"results": [estimate.as_dict(), {"first_draw": trial_zero.text()}]}, lines


def _posterior(got: dict) -> tuple[dict, list[str]]:
    odds = posterior_odds(got["prior_odds"], got["alternative"], got["seq"])
    text, approx = _rendered(str, odds), _rendered(float, odds)
    result = {"posterior_odds": {"num": odds.numerator, "den": odds.denominator}, "posterior_odds_float": approx}
    return {"results": [result]}, [f"posterior odds = {text} = {approx:.6g}"]


def _reproduce(got: dict) -> tuple[dict, list[str]]:
    """The pinned report, inputs and deviations included, as ``reproduce_paper`` builds it."""
    report, deviations = report_mod.reproduce_paper()
    lines = []
    for section in report["results"]:
        lines.append(section["section"])
        for row in section["rows"]:
            if "ok" in row:
                mark = "ok " if row["ok"] else "DEV"
                lines.append(f"  [{mark}] {row['name']}")
            elif "label" in row:
                lines.append(f"  {row['label']}")
    lines.extend(report["notes"])
    if deviations:
        lines.append("deviations: " + ", ".join(deviations))
    return report, lines


class Command(NamedTuple):
    help: str
    options: tuple[str, ...]  # keys of OPTIONS
    run: Callable[[dict], tuple[dict, list[str]]]  # parsed options -> (report fields, pretty lines)


COMMANDS = {
    "runs-test": Command("exact run-count verdict", ("seq", "alpha", "pretty"), _runs_test),
    "binomial-test": Command("exact head-count verdict", ("seq", "alpha", "convention", "pretty"), _binomial_test),
    "relabel": Command("apply a vocabulary relabeling", ("seq", "mask", "pretty"), _relabel),
    "audit": Command(
        "verdicts before and after a relabeling",
        ("seq", "mask", "test", "alpha", "convention", "emit_witness", "pretty"),
        _audit,
    ),
    "flip-search": Command(
        "find a verdict-reversing relabeling",
        ("seq", "test", "alpha", "convention", "minimize", "emit_witness", "pretty"),
        _flip_search,
    ),
    "spectrum": Command("p-value multiset over all relabelings", ("seq", "test", "convention", "pretty"), _spectrum),
    "distribution": Command("exact run-count distribution table", ("n", "oracle", "format", "pretty"), _distribution),
    "rejection-set": Command(
        "statistic values rejected at a threshold",
        ("test", "n", "alpha", "convention", "explicit", "pretty"),
        _rejection_set,
    ),
    "simulate": Command(
        "sample a source and estimate the rejection rate",
        ("model", "test", "n", "alpha", "convention", "trials", "seed", "pretty"),
        _simulate,
    ),
    "posterior": Command(
        "exact posterior odds of an alternative source", ("seq", "alternative", "prior_odds", "pretty"), _posterior
    ),
    "reproduce-paper": Command("recompute the pinned worked examples", ("pretty",), _reproduce),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Exit 2, with the usage and message on stderr if it takes them; nothing goes to stdout instead."""
        if sys.stderr is not None:  # with none at all (``2>&-``) argparse would print the usage to stdout
            try:
                super().error(message)
            except OSError:  # stderr refuses writes (EBADF); argparse before 3.11 lets that escape
                pass
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randaudit",
        description="Exact randomness-test verdicts and relabeling audits for binary sequences.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key, option in OPTIONS.items():
            if key in command.options:
                target = p.add_mutually_exclusive_group(required=True) if option.exclusive else p
                for flag, keywords in option.flags:
                    target.add_argument(flag, **keywords)
    return parser


def _run(args: argparse.Namespace) -> int:
    command = COMMANDS[args.subcommand]
    got: dict = {}
    for key, option in OPTIONS.items():
        if key in command.options:
            got[key] = option.parse(args, got)
    fields, lines = command.run(got)
    inputs: dict = {}
    for key, value in got.items():
        if OPTIONS[key].echo is not None:
            inputs.update(OPTIONS[key].echo(value))
    report = {**build_report(args.subcommand, inputs, [], []), **fields}
    as_text = got["pretty"] or got.get("format") == "csv"  # csv is a text rendering and wins over --pretty
    if sys.stdout is not None:  # None when stdout is closed outright (``>&-``): nothing is written, as by print
        sys.stdout.write("\n".join(lines) + "\n" if as_text else to_json(report))
    return 1 if "deviations" in report else 0


def _error(exc: Exception) -> None:
    """Print the error message to stderr; it never raises, so an unwritable stderr leaves the exit code as it is."""
    if sys.stderr is None:  # closed outright (``2>&-``); print would fall back to stdout
        return
    try:
        print(f"error: {exc}", file=sys.stderr)
    except OSError:  # EBADF: the descriptor refuses writes; ``main`` drops the text left in the buffer
        pass


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except CapExceededError as exc:
        _error(exc)
        return 1
    except (ValueError, ZeroDivisionError) as exc:  # ParseError included
        _error(exc)
        return 2


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: the end of output, not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot fail again
        code = 0
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # stderr refuses writes; a failed flush at exit would turn the exit code into 120
        sys.stderr = None  # the messages it holds are dropped
    sys.exit(code)


if __name__ == "__main__":
    main()
