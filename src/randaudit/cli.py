"""Command-line surface.

Every subcommand prints one JSON report to stdout (or a human table
with ``--pretty``).  Exit codes: 0 success, 2 usage or input-parsing
error, 1 computation error such as an exceeded enumeration cap or a
length beyond the exact-tail limit, and 1 when ``reproduce-paper``
detects a deviation from its pinned values.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import report as report_mod
from .audit import find_flipping_mask, pvalue_spectrum, verdict_under_relabeling
from .exact import (
    CONVENTIONS,
    CapExceededError,
    ONE_SIDED,
    TWO_SIDED_DOUBLED,
    enumerate_runs_distribution,
    parse_probability,
    runs_distribution,
)
from .report import build_report, prob_dict, to_json
from .sequences import (
    ParseError,
    RelabelMask,
    apply_relabeling,
    mask_from_index_set,
    parse_sequence,
)
from .simulate import parse_model, posterior_odds, rejection_rate
from .verdicts import TESTS, binomial_test, rejection_set, runs_test


def _add_seq_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True, help="sequence text over H/h/1 and T/t/0")
    p.add_argument("--vocab", default="heads/tails", help="label for rendering only")


def _add_alpha_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", default="1/20", help="significance threshold, e.g. 1/20 or 0.05")


def _add_convention_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--convention", choices=CONVENTIONS, default=ONE_SIDED)


def _add_mask_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--x-set", help="comma-separated 1-based kept positions, e.g. 1,4,9")
    group.add_argument("--mask", help="explicit flip string over 0/1, position 1 first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randaudit",
        description="Exact randomness-test verdicts and relabeling audits for binary sequences.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("runs-test", help="exact run-count verdict")
    _add_seq_args(p)
    _add_alpha_arg(p)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("binomial-test", help="exact head-count verdict")
    _add_seq_args(p)
    _add_alpha_arg(p)
    _add_convention_arg(p)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("relabel", help="apply a vocabulary relabeling")
    _add_seq_args(p)
    _add_mask_args(p)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("audit", help="verdicts before and after a relabeling")
    _add_seq_args(p)
    _add_mask_args(p)
    p.add_argument("--test", choices=TESTS, required=True)
    _add_alpha_arg(p)
    _add_convention_arg(p)
    p.add_argument("--emit-witness", action="store_true", help="include the relabeled rendering")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("flip-search", help="find a verdict-reversing relabeling")
    _add_seq_args(p)
    p.add_argument("--test", choices=TESTS, required=True)
    _add_alpha_arg(p)
    _add_convention_arg(p)
    p.add_argument(
        "--minimize",
        action="store_true",
        help="accepted and echoed in the report; every search already returns the fewest flips, "
        "lexicographic tie-break",
    )
    p.add_argument("--emit-witness", action="store_true")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("spectrum", help="p-value multiset over all relabelings")
    _add_seq_args(p)
    p.add_argument("--test", choices=TESTS, required=True)
    _add_convention_arg(p)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("distribution", help="exact run-count distribution table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="tally by full enumeration instead of the closed form")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("rejection-set", help="statistic values rejected at a threshold")
    p.add_argument("--test", choices=TESTS, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_alpha_arg(p)
    _add_convention_arg(p)
    p.add_argument("--explicit", action="store_true", help="list the rejected sequences themselves")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("simulate", help="sample a source and estimate the rejection rate")
    p.add_argument("--model", default="fair", help="fair | biased:p=NUM/DEN | markov:stay=NUM/DEN")
    p.add_argument("--test", choices=TESTS, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_alpha_arg(p)
    _add_convention_arg(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("posterior", help="exact posterior odds of an alternative source")
    _add_seq_args(p)
    p.add_argument("--model", required=True, help="alternative source model")
    p.add_argument("--prior-odds", default="1", help="prior odds as a positive rational")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("reproduce-paper", help="recompute the pinned worked examples")
    p.add_argument("--pretty", action="store_true")

    return parser


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


def _emit(args: argparse.Namespace, report: dict, pretty_lines: list[str]) -> None:
    if getattr(args, "pretty", False):
        print("\n".join(pretty_lines))
    else:
        sys.stdout.write(to_json(report))


def _pretty_prob(p: Fraction) -> str:
    d = prob_dict(p)
    return f"{d['num']}/{d['den']} ({d['decimal']})"


def _pretty_verdict(v) -> str:
    outcome = "REJECT" if v.rejected else "no rejection"
    return (
        f"{v.test} statistic={v.statistic} tail={v.tail_used} "
        f"p={_pretty_prob(v.p)} alpha={_pretty_prob(v.alpha)} -> {outcome} [{v.vocab}]"
    )


def _cmd_runs_test(args) -> int:
    seq = parse_sequence(args.seq, args.vocab)
    verdict = runs_test(seq, parse_probability(args.alpha))
    report = build_report(
        "runs-test",
        {"seq": seq.text(), "vocab": seq.vocab, "alpha": prob_dict(verdict.alpha)},
        [verdict.as_dict()],
        [],
    )
    _emit(args, report, [f"sequence {seq.text()}", _pretty_verdict(verdict)])
    return 0


def _cmd_binomial_test(args) -> int:
    seq = parse_sequence(args.seq, args.vocab)
    alpha = parse_probability(args.alpha)
    verdict = binomial_test(seq, alpha, args.convention)
    results = [verdict.as_dict()]
    notes = []
    if args.convention == TWO_SIDED_DOUBLED:
        one_sided = binomial_test(seq, alpha, ONE_SIDED)
        results.append({"one_sided": one_sided.as_dict()})
        notes.append(report_mod.CONVENTION_NOTE)
    report = build_report(
        "binomial-test",
        {
            "seq": seq.text(),
            "vocab": seq.vocab,
            "alpha": prob_dict(alpha),
            "convention": args.convention,
        },
        results,
        notes,
    )
    _emit(args, report, [f"sequence {seq.text()}", _pretty_verdict(verdict)])
    return 0


def _cmd_relabel(args) -> int:
    seq = parse_sequence(args.seq, args.vocab)
    mask = _parse_mask(args, seq.n)
    out = apply_relabeling(seq, mask)
    report = build_report(
        "relabel",
        {"seq": seq.text(), "vocab": seq.vocab, "mask": mask.flip_string(), "x_set": list(mask.index_set())},
        [{"relabeled": out.text(lower=True), "vocab": out.vocab}],
        [],
    )
    _emit(
        args,
        report,
        [f"original  {seq.text()}", f"mask      {mask.flip_string()}", f"relabeled {out.text(lower=True)}"],
    )
    return 0


def _cmd_audit(args) -> int:
    seq = parse_sequence(args.seq, args.vocab)
    mask = _parse_mask(args, seq.n)
    alpha = parse_probability(args.alpha)
    audit = verdict_under_relabeling(seq, mask, args.test, alpha, args.convention)
    report = build_report(
        "audit",
        {
            "seq": seq.text(),
            "vocab": seq.vocab,
            "mask": mask.flip_string(),
            "x_set": list(mask.index_set()),
            "test": args.test,
            "alpha": prob_dict(alpha),
            "convention": args.convention,
        },
        [audit.as_dict(emit_witness=args.emit_witness)],
        [],
    )
    lines = [
        f"original  {seq.text()}: {_pretty_verdict(audit.original)}",
        f"relabeled {audit.relabeled_sequence.text(lower=True)}: {_pretty_verdict(audit.relabeled)}",
        f"verdict flipped: {'yes' if audit.flipped else 'no'}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_flip_search(args) -> int:
    seq = parse_sequence(args.seq, args.vocab)
    alpha = parse_probability(args.alpha)
    found = find_flipping_mask(seq, args.test, alpha, args.convention, minimize=args.minimize)
    result = found.as_dict(emit_witness=args.emit_witness) if found else {"found": False}
    report = build_report(
        "flip-search",
        {
            "seq": seq.text(),
            "vocab": seq.vocab,
            "test": args.test,
            "alpha": prob_dict(alpha),
            "convention": args.convention,
            "minimize": args.minimize,
        },
        [result],
        [],
    )
    if found:
        lines = [
            f"reversing mask {found.mask.flip_string()} ({found.mask.flip_count()} flips, {found.method})",
            f"guaranteed minimal: {'yes' if found.guaranteed_minimal else 'no'}",
            f"relabeled {found.audit.relabeled_sequence.text(lower=True)}: {_pretty_verdict(found.audit.relabeled)}",
        ]
    else:
        lines = ["no relabeling reverses this verdict"]
    _emit(args, report, lines)
    return 0


def _cmd_spectrum(args) -> int:
    seq = parse_sequence(args.seq, args.vocab)
    spectrum = pvalue_spectrum(seq, args.test, args.convention)
    rows = [
        {"p": prob_dict(p), "count": count}
        for p, count in sorted(spectrum.items(), key=lambda item: item[0])
    ]
    report = build_report(
        "spectrum",
        {"seq": seq.text(), "vocab": seq.vocab, "test": args.test, "convention": args.convention},
        rows,
        [],
    )
    lines = [f"{row['p']['num']}/{row['p']['den']} ({row['p']['decimal']}): {row['count']} masks" for row in rows]
    _emit(args, report, lines)
    return 0


def _cmd_distribution(args) -> int:
    dist = enumerate_runs_distribution(args.n) if args.oracle else runs_distribution(args.n)
    if args.format == "csv":
        sys.stdout.write(dist.to_csv())
        return 0
    table = dist.to_json_dict()
    report = build_report("distribution", {"n": args.n, "oracle": bool(args.oracle)}, [table], [])
    lines = [f"r={row['r']:>3}  count={row['count']}  pmf={row['pmf']['decimal']}" for row in table["rows"]]
    _emit(args, report, lines)
    return 0


def _cmd_rejection_set(args) -> int:
    result = rejection_set(
        args.test,
        args.n,
        parse_probability(args.alpha),
        args.convention,
        include_sequences=args.explicit,
    )
    report = build_report(
        "rejection-set",
        {
            "test": args.test,
            "n": args.n,
            "alpha": prob_dict(result.alpha),
            "convention": args.convention,
            "explicit": bool(args.explicit),
        },
        [result.as_dict()],
        [],
    )
    lines = [
        f"rejected statistic values: {list(result.statistic_values)}",
        f"exact size: {_pretty_prob(result.exact_size)}",
    ]
    if result.sequences is not None:
        lines.append(f"sequences ({len(result.sequences)}): " + " ".join(s.text() for s in result.sequences))
    _emit(args, report, lines)
    return 0


def _cmd_simulate(args) -> int:
    model = parse_model(args.model)
    estimate = rejection_rate(
        model,
        args.test,
        args.n,
        parse_probability(args.alpha),
        args.convention,
        trials=args.trials,
        seed=args.seed,
    )
    report = build_report(
        "simulate",
        {
            "model": model.spec_string(),
            "test": args.test,
            "n": args.n,
            "alpha": prob_dict(estimate.alpha),
            "convention": args.convention,
            "trials": args.trials,
            "seed": args.seed,
        },
        [estimate.as_dict(), {"first_draw": estimate.first_draw.text()}],
        [],
    )
    lines = [
        f"rejected {estimate.rejected}/{estimate.trials} (rate {estimate.rate:.5f}, se {estimate.standard_error:.5f})",
        f"exact size under the fair null: {_pretty_prob(estimate.exact_fair_size)}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_posterior(args) -> int:
    seq = parse_sequence(args.seq, args.vocab)
    alt = parse_model(args.model)
    prior = Fraction(args.prior_odds)
    odds = posterior_odds(prior, alt, seq)
    try:  # refuse odds the report cannot render, before any output
        prior_text, text, approx = str(prior), str(odds), float(odds)
    except (ValueError, OverflowError):  # int-to-str digit limit, float range
        raise CapExceededError("posterior odds are too large or too precise to render") from None
    report = build_report(
        "posterior",
        {"seq": seq.text(), "vocab": seq.vocab, "model": alt.spec_string(), "prior_odds": prior_text},
        [
            {
                "posterior_odds": {"num": odds.numerator, "den": odds.denominator},
                "posterior_odds_float": approx,
            }
        ],
        [],
    )
    _emit(args, report, [f"posterior odds = {text} = {approx:.6g}"])
    return 0


def _cmd_reproduce(args) -> int:
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
    _emit(args, report, lines)
    return 1 if deviations else 0


_HANDLERS = {
    "runs-test": _cmd_runs_test,
    "binomial-test": _cmd_binomial_test,
    "relabel": _cmd_relabel,
    "audit": _cmd_audit,
    "flip-search": _cmd_flip_search,
    "spectrum": _cmd_spectrum,
    "distribution": _cmd_distribution,
    "rejection-set": _cmd_rejection_set,
    "simulate": _cmd_simulate,
    "posterior": _cmd_posterior,
    "reproduce-paper": _cmd_reproduce,
}


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.subcommand](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
