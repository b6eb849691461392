"""Command-line surface.

Subcommands: ``rates``, ``adjust``, ``table1``, ``decide``, ``classify``,
``simulate``, ``power``. Results go to stdout (or ``--out``), diagnostics to
stderr. Exit codes: 0 success, 1 usage error, 2 input validation failure,
3 runtime failure. Nothing is written before a command has read and checked
all of its input, so a validation failure never leaves partial output on the
result stream. ``decide`` then renders and writes its rows in blocks.

Machine output is TSV with a stable column order per subcommand; ``--format
pretty`` renders aligned tables that show a 3-significant-digit rounding
next to each full-precision value. Reals print fixed-point at ``--precision``
digits except nonzero magnitudes below 1e-4, which print in scientific
notation so tiny thresholds stay legible.

numpy and scipy load only where a subcommand calls them: ``decide`` loads
numpy, ``power`` scipy, ``simulate`` both; the others load neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

from . import __version__
from .decisions import (
    Decision,
    apply_bh,
    decide_conjunction,
    decide_disjunction,
    decide_individual,
)
from .errors import DomainError, FileFormatError
from .families import MAX_THREADS, AdjustmentMethod, TestingMode, classify_testing_mode
from .fileio import load_battery_file, load_classification_file, load_scenario_file
from .rates import (
    bonferroni_adjust,
    conjunction_power,
    conjunction_type2,
    error_rate_report,
    fwer_independent,
    per_family_rate,
    power_one_sided_z,
    sidak_adjust,
)
from .validators import integer

if TYPE_CHECKING:
    import numpy as np

    from .simulate import Estimates

MAX_REPS = 100_000_000
SEED_ENV_VAR = "ALPHAGATE_SEED"
#: 17 significant digits round-trip any double
MAX_PRECISION = 17
#: nonzero reals of smaller magnitude print in scientific notation
SCI_BELOW = 1e-4
#: ``decide`` renders and writes its test rows this many at a time
BLOCK_ROWS = 1 << 16


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for input
    # validation here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _precision(text: str) -> int:
    try:
        return integer(int(text), "--precision", 0, MAX_PRECISION)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, {MAX_PRECISION}], got {text!r}") from None


def _fmt_column(values: tuple, precision: int) -> list[str]:
    fixed, sci = f".{precision}f", f".{precision}e"
    out = []
    for v in values:
        kind = type(v)
        if kind is str:  # str and float first: they are nearly every cell
            out.append(v)
        elif kind is float or isinstance(v, float):
            out.append(format(v, sci if v != 0.0 and abs(v) < SCI_BELOW else fixed))
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        else:
            out.append(str(v))
    return out


def _render_table(header: list[str], rows: list[list], args) -> str:
    raw = list(zip(*rows))
    columns = [_fmt_column(values, args.precision) for values in raw]
    if args.format == "tsv":
        lines = ["\t".join(header)]
        lines += ["\t".join(row) for row in zip(*columns)]
        return "\n".join(lines) + "\n"
    # pretty: add a short rounding next to full-precision reals
    for values, rendered in zip(raw, columns):
        for i, value in enumerate(values):
            if isinstance(value, float):
                rendered[i] = f"{rendered[i]} (~{value:.3g})"
    widths = [max(len(h), *map(len, column)) for h, column in zip(header, columns)]
    return _pretty_lines([header, ["-" * w for w in widths], *zip(*columns)], widths)


def _pretty_lines(rows, widths: list[int]) -> str:
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in rows)


def _real_cells(values: np.ndarray, precision: int) -> list[str]:
    """The cells :func:`_fmt_column` gives a float64 array, formatted in one
    ``%`` pass with the few scientific-notation cells redone."""
    import numpy as np

    floats = values.tolist()
    cells = (f"%.{precision}f\n" * len(floats) % tuple(floats)).split("\n")
    cells.pop()  # after the last line end
    sci = f"%.{precision}e"
    for i in np.flatnonzero((values != 0.0) & (np.abs(values) < SCI_BELOW)).tolist():
        cells[i] = sci % floats[i]
    return cells


def _decide_table(decision: Decision, p: np.ndarray, tail: list[list[str]], args) -> Iterator[str]:
    """``decide``'s table as text blocks: the header, the test rows
    :data:`BLOCK_ROWS` at a time, then the ``tail`` rows: the joint row, then
    the notes. Ids hold no tab or line break, so they go into rows as they
    are. The pretty column widths are sized here, before any file is opened,
    by every row but the notes, which print unpadded; the blocks are
    formatted as they are taken."""
    ids, n = decision.ids, len(decision.ids)
    header = ["row", "id", "p", "threshold", "decision"]
    spans = [(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)]
    verdicts = ("retain", "reject")
    pretty = args.format == "pretty"

    def columns(lo: int, hi: int) -> list[list[str]]:  # id to decision cells of test rows lo..hi-1
        reals = [p[lo:hi], decision.thresholds[lo:hi]]
        cells = [_real_cells(values, args.precision) for values in reals]
        if pretty:  # add a short rounding next to each full-precision real
            cells = [list(map("{} (~{:.3g})".format, c, v.tolist())) for c, v in zip(cells, reals)]
        return [ids[lo:hi], *cells, list(map(verdicts.__getitem__, decision.rejected[lo:hi].tolist()))]

    if pretty:  # a first pass sizes the columns
        widths = [max(map(len, column)) for column in zip(header, ["test", "", "", "", ""], tail[0])]
        for lo, hi in spans:
            widths[1:] = map(max, widths[1:], (max(map(len, column)) for column in columns(lo, hi)))
        head = _pretty_lines([header, ["-" * w for w in widths]], widths)
        template = "test".ljust(widths[0]) + "".join(f"  %-{w}s" for w in widths[1:4]) + "  %s\n"
        foot = _pretty_lines(tail, widths)
    else:
        head = "\t".join(header) + "\n"
        template = "test\t%s\t%s\t%s\t%s\n"
        foot = "".join("\t".join(row) + "\n" for row in tail)

    def blocks() -> Iterator[str]:
        yield head
        for lo, hi in spans:
            cells: list = [None] * (4 * (hi - lo))
            cells[0::4], cells[1::4], cells[2::4], cells[3::4] = columns(lo, hi)
            yield template * (hi - lo) % tuple(cells)
        yield foot

    return blocks()


def _render_pairs(pairs: list[tuple[str, object]], args) -> str:
    return _render_table(["metric", "value"], [[name, value] for name, value in pairs], args)


def _cmd_rates(args) -> str:
    return _render_pairs(
        [
            ("fwer", fwer_independent(args.alpha, args.k)),
            ("per_family_rate", per_family_rate(args.alpha, args.k)),
        ],
        args,
    )


def _cmd_adjust(args) -> str:
    adjust = bonferroni_adjust if args.method == "bonferroni" else sidak_adjust
    return _render_pairs([("alpha_per_test", adjust(args.alpha, args.k))], args)


def _cmd_table1(args) -> str:
    report = error_rate_report(args.t, args.h, args.alpha)
    return _render_pairs(
        [
            ("tests", report.t),
            ("primary_hypotheses", report.h),
            ("tests_per_hypothesis", report.k),
            ("alpha_per_test", report.alpha_per_test),
            ("per_family_rate", report.per_family_rate),
            ("fwer", report.fwer),
        ],
        args,
    )


def _cmd_power(args) -> str:
    power = power_one_sided_z(args.alpha, args.delta, args.n)
    pairs: list[tuple[str, object]] = [("power_per_test", power)]
    if args.conjunction and args.k is None:
        raise DomainError("--conjunction requires --k")
    if args.k is not None:
        pairs += [
            ("conjunction_power", conjunction_power(power, args.k)),
            ("conjunction_type2", conjunction_type2(1.0 - power, args.k)),
        ]
    return _render_pairs(pairs, args)


def _cmd_decide(args) -> Iterator[str]:
    if args.method is not None and args.mode != "disjunction":
        raise DomainError(f"--method only applies to --mode disjunction, not {args.mode!r}")
    battery = load_battery_file(args.battery)
    notes_extra: list[str] = []
    if args.mode == "individual":
        decision = decide_individual(battery, args.alpha)
    elif args.mode == "conjunction":
        decision = decide_conjunction(battery, args.alpha)
    elif args.mode == "bh":
        decision = apply_bh(battery, args.alpha)
    else:
        method_name = args.method
        if method_name is None:
            # no family context here, so default to the method that is valid
            # under arbitrary dependence
            method_name = "bonferroni"
            notes_extra.append("method-defaulted=bonferroni")
        decision = decide_disjunction(battery, args.alpha, AdjustmentMethod(method_name))

    tail = [["joint", "", "", "", decision.joint.value]]
    tail += [["note", note, "", "", ""] for note in (*decision.notes, *notes_extra)]
    return _decide_table(decision, battery.p, tail, args)


def _cmd_classify(args) -> str:
    answers = load_classification_file(args.input)
    rec = classify_testing_mode(answers)
    rows: list[list] = [
        ["mode", rec.mode.value if rec.mode is not None else "not_applicable", ""],
        ["adjust_alpha", rec.adjust_alpha, ""],
    ]
    for entry in rec.rationale:
        rows.append(["rationale", entry.code, entry.text])
    return _render_table(["field", "value", "detail"], rows, args)


def _resolve_seed(args, scenario_seed: int) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return scenario_seed


def _cmd_simulate(args) -> str:
    from .simulate import simulate  # numpy and scipy load only for this subcommand

    doc = load_scenario_file(args.scenario)
    if doc.scenario is None:
        raise FileFormatError(f"{args.scenario}: document has no simulation section")
    scenario = doc.scenario
    reps = args.reps if args.reps is not None else scenario.reps
    integer(reps, "reps", 1, MAX_REPS)
    scenario = dataclasses.replace(scenario, reps=reps, seed=_resolve_seed(args, scenario.seed))
    threads = args.threads if args.threads is not None else min(os.cpu_count() or 1, MAX_THREADS)
    est = simulate(scenario, threads=threads)
    print(
        f"simulated {est.reps} replications of k={scenario.k} "
        f"({scenario.design.kind}) in {est.elapsed:.2f}s",
        file=sys.stderr,
    )
    return _render_estimates(est, args)


def _render_estimates(est: Estimates, args) -> str:
    rows: list[list] = [
        ["reps", est.reps, "", ""],
        ["seed", est.seed_echo, "", ""],
        ["fwer", est.fwer_hat, est.fwer_ci[0], est.fwer_ci[1]],
        ["mean_false_positives", est.mean_false_positives, "", ""],
        ["fdr", est.fdr_hat, "", ""],
        ["joint_reject_individual", est.joint_reject_rate[TestingMode.INDIVIDUAL], "", ""],
        ["joint_reject_disjunction", est.joint_reject_rate[TestingMode.DISJUNCTION], "", ""],
        ["joint_reject_conjunction", est.joint_reject_rate[TestingMode.CONJUNCTION], "", ""],
    ]
    for i, rate in enumerate(est.per_test_rejection, start=1):
        rows.append([f"per_test_rejection_{i}", rate, "", ""])
    return _render_table(["metric", "value", "ci95_low", "ci95_high"], rows, args)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("tsv", "pretty"), default="tsv")
    common.add_argument("--out", metavar="PATH", default=None, help="write results to PATH instead of stdout")
    common.add_argument("--precision", type=_precision, default=6, metavar="DIGITS",
                        help=f"digits after the point, 0 to {MAX_PRECISION} (default: 6)")

    parser = _Parser(prog="alphagate", description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", parents=[common], help="FWER and per-family error rate for k tests at alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("adjust", parents=[common], help="adjusted per-test alpha for a joint alpha over k tests")
    p.add_argument("--alpha", type=float, required=True, help="joint-level alpha")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("bonferroni", "sidak"), required=True)
    p.set_defaults(func=_cmd_adjust)

    p = sub.add_parser("table1", parents=[common], help="joint vs individual error-rate comparison for t tests over h hypotheses")
    p.add_argument("--t", type=int, required=True, help="number of significance tests")
    p.add_argument("--h", type=int, required=True, help="number of primary hypotheses (must divide t)")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("decide", parents=[common], help="judge a battery CSV under a testing mode")
    p.add_argument("--battery", required=True, metavar="FILE", help="CSV with header 'id,p'")
    p.add_argument("--mode", choices=("individual", "disjunction", "conjunction", "bh"), required=True)
    p.add_argument("--alpha", type=float, required=True, help="alpha level (FDR level q for --mode bh)")
    p.add_argument("--method", choices=("bonferroni", "sidak", "holm", "hochberg"), default=None,
                   help="disjunction adjustment method (default: bonferroni)")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("classify", parents=[common], help="recommend a testing mode from study answers")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="JSON: the five classification booleans, or a scenario document with a classification section")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo scenario and report estimates")
    p.add_argument("--scenario", required=True, metavar="FILE", help="scenario JSON document")
    p.add_argument("--reps", type=int, default=None, help=f"override replication count (max {MAX_REPS})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"override the seed (wins over ${SEED_ENV_VAR} and the file)")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads, at most {MAX_THREADS} (default: available parallelism)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power", parents=[common], help="one-sided two-sample z power, optionally for a k-test conjunction")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True, help="standardized effect size")
    p.add_argument("--n", type=int, required=True, help="per-group sample size")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--conjunction", action="store_true", help="report joint power over k tests")
    p.set_defaults(func=_cmd_power)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output = args.func(args)
    except ValueError as exc:  # every validation error of the package is one
        print(f"alphagate: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"alphagate: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"alphagate: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    blocks = [output] if isinstance(output, str) else output  # decide renders as it writes
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
    except OSError as exc:
        print(f"alphagate: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive: decide renders while it writes
        print(f"alphagate: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
