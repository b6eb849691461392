"""Command-line surface.

Subcommands: ``rates``, ``adjust``, ``table1``, ``decide``, ``classify``,
``simulate``, ``power``. Results go to stdout (or ``--out``), diagnostics to
stderr. Exit codes: 0 success, 1 usage error, 2 input validation failure,
3 runtime failure. Nothing is written before a command has read and checked
all of its input, so a validation failure never leaves partial output on the
result stream. Every command then renders and writes its table in blocks,
through one table writer.

Machine output is TSV with a stable column order per subcommand; ``--format
pretty`` renders aligned tables that show a 3-significant-digit rounding
next to each full-precision value. Reals print fixed-point at ``--precision``
digits except nonzero magnitudes below 1e-4, which print in scientific
notation so tiny thresholds stay legible.

Each command imports its callees when it runs; importing this module loads
only what the parser needs. So numpy and scipy load only where a subcommand
calls them: ``decide`` loads numpy for a battery of more than
:data:`~alphagate.battery.SMALL_ROWS` rows, whose columns are arrays, and
``simulate`` both; the others, ``power`` included, load neither. ``decide``
reads its battery through :mod:`alphagate.battery`, and loads neither the
scenario types nor ``json``.
The parser is built for the subcommand an argv names: every subcommand is
listed, with its help line, but only that one gets a parser and arguments.
Each such parser is built once per process and reused by later in-process
calls of :func:`main`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Callable, Iterable, Iterator

from . import __version__
from .enums import FWER_METHODS, AdjustmentMethod, TestingMode
from .errors import DomainError, FileFormatError
from .validators import MAX_REPS, MAX_THREADS, integer

#: ``decide``'s callees -> the submodule that defines them. Each loads on
#: first use and stays an attribute of this module, which ``_cmd_decide``
#: reads when it runs, so a wrapper set on the module sees every call.
_LAZY = {
    "apply_bh": "decisions",
    "decide_conjunction": "decisions",
    "decide_disjunction": "decisions",
    "decide_individual": "decisions",
    "load_battery_file": "battery",
}
#: ``decide --mode`` -> the name of its procedure
_PROCEDURES = {
    "individual": "decide_individual",
    "disjunction": "decide_disjunction",
    "conjunction": "decide_conjunction",
    "bh": "apply_bh",
}

SEED_ENV_VAR = "ALPHAGATE_SEED"
#: 17 significant digits round-trip any double
MAX_PRECISION = 17
#: nonzero reals of smaller magnitude print in scientific notation
SCI_BELOW = 1e-4
#: ``decide`` and ``simulate`` render and write their per-test rows this many at a time
BLOCK_ROWS = 1 << 16


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _callee(name: str):
    """The module attribute ``name`` as it is now: a wrapper set on it, or the
    callee, loaded on first use. It is read from ``globals()``, this module's
    namespace also where it runs as ``__main__``."""
    namespace = globals()
    return namespace[name] if name in namespace else __getattr__(name)


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


def _tiny(values):
    """Which values of a float64 array (as a bool array) or of a list of
    floats (as a list) are nonzero magnitudes below :data:`SCI_BELOW`, the
    ones printed in scientific notation."""
    if isinstance(values, list):
        return [x != 0.0 and abs(x) < SCI_BELOW for x in values]
    return (values != 0.0) & (abs(values) < SCI_BELOW)  # array methods keep numpy out of this module's imports


def _real_cells(values, precision: int, pretty: bool) -> list[str]:
    """The cells of a float64 array, or of a list of floats, formatted in one
    ``%`` pass in which each value picks its spec: fixed-point, except
    :func:`_tiny` values in scientific notation, and in pretty output a
    3-significant-digit rounding after each."""
    floats, tiny = (values, _tiny(values)) if isinstance(values, list) else (values.tolist(), _tiny(values).tolist())
    specs = [f"%.{precision}{kind}" + (" (~%.3g)\n" if pretty else "\n") for kind in "fe"]
    fields = [None] * ((1 + pretty) * len(floats))  # in pretty each real fills two fields
    fields[:: 1 + pretty] = fields[pretty :: 1 + pretty] = floats
    cells = ("".join(map(specs.__getitem__, tiny)) % tuple(fields)).split("\n")
    cells.pop()  # after the last line end
    return cells


def _cells(column, precision: int, pretty: bool):
    """A float64 array as the cell of its one double if it holds one, and a
    list of floats as the cell of its one float if it repeats one object; else,
    in TSV, a float64 array or a list of floats as it is, for the row templates;
    else a tuple of its cells: a real by :func:`_real_cells`, a bool as true
    or false, else by ``str()``."""
    if not isinstance(column, list):
        if (column.view("u8") == column.view("u8")[0]).all():  # by bits: -0.0 is not 0.0
            return _real_cells(column[:1], precision, pretty)[0]
        return tuple(_real_cells(column, precision, pretty)) if pretty else column
    reals = [v for v in column if isinstance(v, float)]
    if len(reals) == len(column):  # decide's columns of a small battery
        if reals and all(v is reals[0] for v in reals):  # a single-step rule's one level
            return _real_cells(reals[:1], precision, pretty)[0]
        return tuple(_real_cells(reals, precision, pretty)) if pretty else column
    formatted = iter(_real_cells(reals, precision, pretty))
    return tuple(next(formatted) if isinstance(v, float) else ("true" if v else "false") if isinstance(v, bool)
                 else str(v) for v in column)


class _Choice:
    """A column of one of two labels per row, ``labels[flag]`` for bool
    ``flags`` (an array or a list), which the row templates spell out."""

    def __init__(self, labels: tuple[str, str], flags) -> None:
        self.labels, self.flags = labels, flags


def _fold(codes, flags):
    """``2 * codes + flags`` row by row, so that a row's flags, read as a
    binary number, index its template; a block's reals and choices are all
    arrays or all lists."""
    if codes is None:
        return flags
    return [2 * code + flag for code, flag in zip(codes, flags)] if isinstance(flags, list) else 2 * codes + flags


def _rows(*rows: list) -> list[list]:
    """The block that holds ``rows``."""
    return [list(column) for column in zip(*rows)]


def _table(header: list[str], blocks: Callable[[], Iterable[list]], args, notes: list | None = None) -> Iterator[str]:
    """A table as text blocks: the header, the rows of each block that
    ``blocks()`` yields, then the rows of the ``notes`` block.

    A block is a list of columns, one per header cell: a str is one cell
    repeated down the block, a tuple holds str cells that print as they
    are, a :class:`_Choice` one of two labels per row, and a float64 array
    or a list of values goes through :func:`_cells`; some column is neither
    a str nor a choice. No cell holds a tab or a line break. Pretty column
    widths are sized here, before any file is opened, by a first call of
    ``blocks()``; the notes do not size them, so a long note runs past its
    column. Each block is formatted as it is taken, by one ``%`` pass over
    row templates: a str column adds its cell to every template, a choice
    column one template per label, TSV reals (a float64 array or a list of
    floats) one per notation, fixed-point or scientific, and a tuple
    ``%s``."""
    pretty = args.format == "pretty"

    def cells(block: list) -> tuple[int, list]:
        rows = len(next(column for column in block if not isinstance(column, (str, _Choice))))
        return rows, [c if isinstance(c, (str, tuple, _Choice)) else _cells(c, args.precision, pretty) for c in block]

    fields, sep, reals = ["%s"] * len(header), "\t", [f"%.{args.precision}f", f"%.{args.precision}e"]
    if pretty:
        widths = list(map(len, header))
        for rows, columns in map(cells, blocks()):
            if rows:  # a choice column is as wide as its longer label
                widths = [max(w, len(c) if isinstance(c, str) else max(map(len, getattr(c, "labels", c))))
                          for w, c in zip(widths, columns)]
        fields, sep = [f"%-{w}s" for w in widths], "  "

    def text(rows: int, columns: list) -> str:
        templates, varying, codes = [""], [], None
        for c, f in zip(columns, fields):
            if isinstance(c, _Choice):
                codes, specs = _fold(codes, c.flags), [(f % label).replace("%", "%%") for label in c.labels]
            elif isinstance(c, str):
                specs = [(f % c).replace("%", "%%")]
            else:
                if not isinstance(c, tuple):  # TSV reals: a row's tiny flag picks the notation
                    codes, c, f = _fold(codes, _tiny(c)), c if isinstance(c, list) else c.tolist(), reals
                specs = f if f is reals else [f]
                varying.append(c)
            templates = [t + sep + spec for t in templates for spec in specs]
        values = [None] * (rows * len(varying))
        for j, column in enumerate(varying):
            values[j :: len(varying)] = column
        templates = [t[len(sep) :] + "\n" for t in templates]
        if codes is None:
            out = templates[0] * rows % tuple(values)
        else:
            out = "".join(map(templates.__getitem__, codes if isinstance(codes, list) else codes.tolist())) % tuple(values)
        return "\n".join(map(str.rstrip, out.split("\n"))) if pretty else out

    def write() -> Iterator[str]:
        yield text(1, header) + (text(1, ["-" * w for w in widths]) if pretty else "")
        for block in blocks():
            yield text(*cells(block))
        if notes is not None:
            yield text(*cells(notes))

    return write()


def _cmd_rates(args) -> Iterator[str]:
    from .rates import fwer_independent, per_family_rate

    block = _rows(
        ["fwer", fwer_independent(args.alpha, args.k)],
        ["per_family_rate", per_family_rate(args.alpha, args.k)],
    )
    return _table(["metric", "value"], lambda: [block], args)


def _cmd_adjust(args) -> Iterator[str]:
    from .rates import bonferroni_adjust, sidak_adjust

    adjust = bonferroni_adjust if args.method == "bonferroni" else sidak_adjust
    block = _rows(["alpha_per_test", adjust(args.alpha, args.k)])
    return _table(["metric", "value"], lambda: [block], args)


def _cmd_table1(args) -> Iterator[str]:
    from .rates import error_rate_report

    report = error_rate_report(args.t, args.h, args.alpha)
    block = _rows(
        ["tests", report.t],
        ["primary_hypotheses", report.h],
        ["tests_per_hypothesis", report.k],
        ["alpha_per_test", report.alpha_per_test],
        ["per_family_rate", report.per_family_rate],
        ["fwer", report.fwer],
    )
    return _table(["metric", "value"], lambda: [block], args)


def _cmd_power(args) -> Iterator[str]:
    from .rates import conjunction_power, conjunction_type2, power_one_sided_z

    power = power_one_sided_z(args.alpha, args.delta, args.n)
    rows = [["power_per_test", power]]
    if args.conjunction and args.k is None:
        raise DomainError("--conjunction requires --k")
    if args.k is not None:
        rows += [
            ["conjunction_power", conjunction_power(power, args.k)],
            ["conjunction_type2", conjunction_type2(1.0 - power, args.k)],
        ]
    block = _rows(*rows)
    return _table(["metric", "value"], lambda: [block], args)


def _cmd_decide(args) -> Iterator[str]:
    if args.method is not None and args.mode != "disjunction":
        raise DomainError(f"--method only applies to --mode disjunction, not {args.mode!r}")
    # resolved before a large battery loads numpy: imported after it,
    # decisions and rates raise a 1,000-row decide's peak RSS by about 0.35
    # MiB (a battery on the plain-Python route loads no numpy)
    load, procedure = _callee("load_battery_file"), _callee(_PROCEDURES[args.mode])
    battery = load(args.battery)
    notes_extra: list[str] = []
    if args.mode == "disjunction":
        method_name = args.method
        if method_name is None:
            # no family context here, so default to the method that is valid
            # under arbitrary dependence
            method_name = "bonferroni"
            notes_extra.append("method-defaulted=bonferroni")
        decision = procedure(battery, args.alpha, AdjustmentMethod(method_name))
    else:
        decision = procedure(battery, args.alpha)

    # the columns as the battery's route holds them: lists for a small
    # battery, which _table renders without numpy, else arrays
    ids, p, thresholds, rejected = decision.ids, battery._column, decision._thresholds, decision._rejected
    verdicts = ("retain", "reject")

    def blocks() -> Iterator[list]:
        for lo in range(0, len(ids), BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            yield ["test", ids[lo:hi], p[lo:hi], thresholds[lo:hi], _Choice(verdicts, rejected[lo:hi])]
        yield ["joint", "", "", "", (decision.joint.value,)]

    notes = ["note", (*decision.notes, *notes_extra), "", "", ""]
    return _table(["row", "id", "p", "threshold", "decision"], blocks, args, notes)


def _cmd_classify(args) -> Iterator[str]:
    from .families import classify_testing_mode
    from .fileio import load_classification_file

    answers = load_classification_file(args.input)
    rec = classify_testing_mode(answers)
    block = _rows(
        ["mode", rec.mode.value if rec.mode is not None else "not_applicable", ""],
        ["adjust_alpha", rec.adjust_alpha, ""],
        *(["rationale", entry.code, entry.text] for entry in rec.rationale),
    )
    return _table(["field", "value", "detail"], lambda: [block], args)


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


def _cmd_simulate(args) -> Iterator[str]:
    import numpy as np  # numpy and scipy load only for this subcommand

    from .fileio import load_scenario_file
    from .simulate import simulate

    doc = load_scenario_file(args.scenario)
    if doc.scenario is None:
        raise FileFormatError(f"{args.scenario}: document has no simulation section")
    scenario = doc.scenario
    reps = args.reps if args.reps is not None else scenario.reps
    scenario = scenario.with_run(reps, _resolve_seed(args, scenario.seed))
    est = simulate(scenario, threads=args.threads)
    print(
        f"simulated {est.reps} replications of k={scenario.k} "
        f"({scenario.design.kind}) in {est.elapsed:.2f}s",
        file=sys.stderr,
    )
    head = _rows(
        ["reps", est.reps, "", ""],
        ["seed", est.seed_echo, "", ""],
        ["fwer", est.fwer_hat, est.fwer_ci[0], est.fwer_ci[1]],
        ["mean_false_positives", est.mean_false_positives, "", ""],
        ["fdr", est.fdr_hat, "", ""],
        ["joint_reject_individual", est.joint_reject_rate[TestingMode.INDIVIDUAL], "", ""],
        ["joint_reject_disjunction", est.joint_reject_rate[TestingMode.DISJUNCTION], "", ""],
        ["joint_reject_conjunction", est.joint_reject_rate[TestingMode.CONJUNCTION], "", ""],
    )
    rates = np.array(est.per_test_rejection)

    def blocks() -> Iterator[list]:
        yield head
        for lo in range(0, len(rates), BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, len(rates))
            yield [tuple(map("per_test_rejection_{}".format, range(lo + 1, hi + 1))), rates[lo:hi], "", ""]

    return _table(["metric", "value", "ci95_low", "ci95_high"], blocks, args)


#: subcommand -> its function and its line in ``alphagate --help``, in that order
_COMMANDS = {
    "rates": (_cmd_rates, "FWER and per-family error rate for k tests at alpha"),
    "adjust": (_cmd_adjust, "adjusted per-test alpha for a joint alpha over k tests"),
    "table1": (_cmd_table1, "joint vs individual error-rate comparison for t tests over h hypotheses"),
    "decide": (_cmd_decide, "judge a battery CSV under a testing mode"),
    "classify": (_cmd_classify, "recommend a testing mode from study answers"),
    "simulate": (_cmd_simulate, "run a Monte Carlo scenario and report estimates"),
    "power": (_cmd_power, "one-sided two-sample z power, optionally for a k-test conjunction"),
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """The options every subcommand takes, then those of ``command``."""
    p.add_argument("--format", choices=("tsv", "pretty"), default="tsv")
    p.add_argument("--out", metavar="PATH", default=None, help="write results to PATH instead of stdout")
    p.add_argument("--precision", type=_precision, default=6, metavar="DIGITS",
                   help=f"digits after the point, 0 to {MAX_PRECISION} (default: 6)")
    if command == "rates":
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--k", type=int, required=True)
    elif command == "adjust":
        p.add_argument("--alpha", type=float, required=True, help="joint-level alpha")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--method", choices=("bonferroni", "sidak"), required=True)
    elif command == "table1":
        p.add_argument("--t", type=int, required=True, help="number of significance tests")
        p.add_argument("--h", type=int, required=True, help="number of primary hypotheses (must divide t)")
        p.add_argument("--alpha", type=float, required=True)
    elif command == "decide":
        p.add_argument("--battery", required=True, metavar="FILE", help="CSV with header 'id,p'")
        p.add_argument("--mode", choices=list(_PROCEDURES), required=True)
        p.add_argument("--alpha", type=float, required=True, help="alpha level (FDR level q for --mode bh)")
        p.add_argument("--method", choices=[method.value for method in FWER_METHODS], default=None,
                       help="disjunction adjustment method (default: bonferroni)")
    elif command == "classify":
        p.add_argument("--input", required=True, metavar="FILE",
                       help="JSON: the five classification booleans, or a scenario document with a classification section")
    elif command == "simulate":
        p.add_argument("--scenario", required=True, metavar="FILE", help="scenario JSON document")
        p.add_argument("--reps", type=int, default=None, help=f"override replication count (max {MAX_REPS})")
        p.add_argument("--seed", type=int, default=None,
                       help=f"override the seed (wins over ${SEED_ENV_VAR} and the file)")
        p.add_argument("--threads", type=int, default=MAX_THREADS,
                       help=f"worker threads, at most {MAX_THREADS} (default: available parallelism)")
    else:  # power
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--delta", type=float, required=True, help="standardized effect size")
        p.add_argument("--n", type=int, required=True, help="per-group sample size")
        p.add_argument("--k", type=int, default=None, help="also report conjunction_power and conjunction_type2 over k tests")
        p.add_argument("--conjunction", action="store_true",
                       help="require --k; the conjunction rows follow from --k alone")
    p.set_defaults(func=_COMMANDS[command][0])


def _subparser(command: str | None = None, **kwargs) -> _Parser | None:
    """argparse's ``parser_class`` for the subcommands: the parser of
    ``command`` with its arguments, or None for a subcommand the argv does
    not name. argparse never reads that one, and setting up parsers for the
    six others added about 0.3 ms to each cold process on a 2-vCPU Xeon."""
    if command is None:
        return None
    p = _Parser(**kwargs)
    _add_arguments(p, command)
    return p


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand's name and help line, with a subparser
    for ``command`` alone. argparse hands what follows a subcommand to that
    subcommand's parser and reads no other, so for an argv that names
    ``command`` first it parses, helps and fails as a parser built for all
    would, byte for byte."""
    parser = _Parser(prog="alphagate", description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_subparser)
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, help=text, command=name if name == command else None)
    return parser


#: subcommand an argv names, or None -> its parser
_PARSERS: dict[str | None, _Parser] = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is the first argument that names one: no top-level
    # option takes a value, and a positional ahead of it is refused first
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    # built once per process, as argparse keeps no parsed value in a parser
    parser = _PARSERS.get(command) or _PARSERS.setdefault(command, _build_parser(command))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        blocks = args.func(args)
    except ValueError as exc:  # every validation error of the package is one
        print(f"alphagate: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"alphagate: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # defensive: a fault of the program, not of its input
        print(f"alphagate: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
    except OSError as exc:
        print(f"alphagate: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # defensive: every command renders while it writes
        print(f"alphagate: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
