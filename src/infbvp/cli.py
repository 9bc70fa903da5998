"""Command line front end.

Subcommands: solve one grid, sweep a doubling family of grids,
extrapolate a sweep file, or dump grid coordinates. Output is CSV
(default) or JSON; infinities appear as the literal tokens inf/-inf and
undefined entries as nan. main(argv) returns the exit code of every
outcome, --help and usage errors included; run() and `python -m infbvp`
exit with it: 0 success or --help, 1 a solve that did not converge, 2 bad
arguments, unparseable input or a grid too large for memory, 141 (128 +
SIGPIPE) a reader that closed stdout early, as in `infbvp grid --N 200000 | head -1`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import os
import re
import sys

from .grids import MAP_KINDS, GridMap, build_grid
from .newton import SolverConfig, newton_solve, sweep
from .problems import PROBLEMS, report_scalar
from .richardson import extrapolate_table, observed_order

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # the status a shell reports for a tool killed by SIGPIPE


class _Exact(float):
    """A float that CSV prints at 17 significant digits whatever --decimals
    says, as solve's stopping increment, read against --tol; to JSON it
    is a plain number."""


def _cell(value, float_format: str) -> str:
    """The one CSV cell rule: None is empty, bools are true/false, an
    _Exact float prints at %.17g, other floats follow float_format (inf,
    -inf and nan print as those tokens) and anything else prints as
    str(). _csv_text spells the same rule as one `%` row template for a
    node table's int and float columns, and drops the sign of a
    fixed-decimal float that prints as zero."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return ("%.17g" if isinstance(value, _Exact) else float_format) % value
    return str(value)


def _csv_text(rows, args, columns=()) -> str:
    """CSV of rows, then of the rows of columns, under the one cell rule.
    The rows (headers and the summary, sweep and extrapolate tables, a
    few rows each) go cell by cell through _cell and csv.writer. The
    columns of a node table, each all int or all float, are written with
    one `%` row template built once from the column types: the same rule
    spelled as a format string, since numeric cells never need quoting.
    Without --raw a float whose fixed-decimal text has only zeros prints
    without its minus sign: a -4e-25 that is zero to roundoff reads
    0.000000, not -0.000000."""
    float_format = "%.17g" if args.raw else f"%.{args.decimals}f"
    buffer = io.StringIO()
    csv.writer(buffer).writerows([_cell(value, float_format) for value in row] for row in rows)
    template = ",".join("%d" if type(column[0]) is int else float_format
                        for column in columns) + "\r\n"
    text = buffer.getvalue() + "".join(map(template.__mod__, zip(*columns)))
    if not args.raw:
        # a '-' opening a cell that is all zeros up to its delimiter
        zero = re.escape(float_format % 0.0)
        text = re.sub(rf"-(?<![^,\n]-)(?={zero}[,\r])", "", text)
    return text


def _json_safe(values) -> list:
    """values as a list, each non-finite float replaced by its CSV token
    inf/-inf/nan: JSON has no literal for them."""
    return [str(value) if isinstance(value, float) and not math.isfinite(value) else value
            for value in values]


def _write_stdout(text: str) -> None:
    """Write text to stdout in full, or raise BrokenPipeError. An unbuffered
    binary layer (PYTHONUNBUFFERED, python -u) may take part of a write and
    drop the rest unseen, so its count is looped on; a stdout with no
    binary layer, such as a StringIO, takes the text as it is."""
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[binary.write(data):]


def _emit(args, pairs, header, rows=(), columns=(), key=None, summary=False) -> None:
    """Write a command's output, described once: scalar pairs, a header,
    and its table as rows or as node-table columns. CSV is the header, the
    rows and then the columns (_csv_text), to --out or to stdout; with
    summary, the pairs follow as a key,value table, always on stdout and
    after a blank line when the table went there too. JSON (indent 2) is
    one object, to --out or to stdout: the pairs as keys and, under key,
    the table as named columns, header[k] naming column k."""
    if args.format == "json":
        doc = dict(zip([name for name, _ in pairs], _json_safe(value for _, value in pairs)))
        if key:
            doc[key] = dict(zip(header, map(_json_safe, [*zip(*rows), *columns])))
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _csv_text([header, *rows], args, columns)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        _write_stdout(text)
    if summary and args.format == "csv":
        _write_stdout(("" if args.out else "\n") + _csv_text([("key", "value"), *pairs], args))


def _decimals(text: str) -> int:
    """--decimals: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def int_list(text: str) -> list[int]:
    """sweep's --N: a comma list of integers, such as 20,40,80; an empty item is refused."""
    return [int(size) for size in text.split(",")]


# Each problem's options are its factory's parameters, read at import: perfbench's tracer
# swaps every PROBLEMS entry for a (*args, **kwargs) wrapper, maybe before main first runs.
PROBLEM_OPTIONS = {problem: inspect.signature(factory).parameters
                   for problem, factory in PROBLEMS.items()}
_DEFAULT_CONFIG = SolverConfig()


def _make_problem(args):
    """The chosen problem from the problem options given, its factory's
    defaults filling the rest; an option it does not take is refused."""
    given = {name: value for names in PROBLEM_OPTIONS.values() for name in names
             if (value := getattr(args, name)) is not None}
    taken = PROBLEM_OPTIONS[args.problem]
    stray = [name for name in given if name not in taken]
    if stray:
        options = f"its options: --{', --'.join(taken)}" if taken else "it takes no options"
        raise ValueError(f"problem {args.problem} takes no --{stray[0]}; {options}")
    return PROBLEMS[args.problem](**given)


def _make_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter, jacobian_mode=args.jacobian)


def _add_problem_options(parser) -> None:
    parser.add_argument("--problem", choices=sorted(PROBLEM_OPTIONS), required=True)
    for problem, parameters in PROBLEM_OPTIONS.items():
        for name, parameter in parameters.items():
            parser.add_argument(f"--{name}", type=type(parameter.default), default=None,
                                help=f"{problem} parameter (default {parameter.default:g})")


def _add_grid_options(parser, sizes, n_help) -> None:
    parser.add_argument("--map", choices=MAP_KINDS, default="log",
                        help="grid generating map (default log)")
    parser.add_argument("--c", type=float, default=5.0,
                        help="map length scale (default 5)")
    parser.add_argument("--N", type=sizes, required=True, help=n_help)


# --N takes one grid size, or sweep's doubling family of them
_add_one_grid_options = functools.partial(
    _add_grid_options, sizes=int, n_help="grid intervals (nodes 0..N, x_N = inf)")
_add_grid_family_options = functools.partial(
    _add_grid_options, sizes=int_list,
    n_help="a comma list of grid intervals, each double the last, such as 20,40,80")


def _add_solver_options(parser) -> None:
    parser.add_argument("--tol", type=float, default=_DEFAULT_CONFIG.tol,
                        help=f"mean-increment stopping tolerance (default {_DEFAULT_CONFIG.tol:g})")
    parser.add_argument("--max-iter", type=int, default=_DEFAULT_CONFIG.max_iter,
                        help=f"Newton iteration limit (default {_DEFAULT_CONFIG.max_iter})")
    parser.add_argument("--jacobian", choices=["analytic", "fd"],
                        default=_DEFAULT_CONFIG.jacobian_mode,
                        help="analytic takes the problem's derivatives where it gives them "
                             f"and differences the rest (default {_DEFAULT_CONFIG.jacobian_mode})")
    parser.add_argument("--no-continuation", action="store_true",
                        help="keep the degenerate last-interval weights b=0, c_w=1")


def _add_extrapolate_options(parser) -> None:
    parser.add_argument("input", help="sweep CSV produced by the sweep subcommand")
    parser.add_argument("--quantity", required=True, help="sweep column to extrapolate")


def _add_output_options(parser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="write to this file instead of stdout")
    parser.add_argument("--decimals", type=_decimals, default=6,
                        help="table-mode decimal places (default 6)")
    parser.add_argument("--raw", action="store_true",
                        help="serialize floats at full precision (17 significant digits)")


def cmd_solve(args) -> int:
    problem = _make_problem(args)
    grid_map = GridMap(args.map, args.c)
    grid = build_grid(grid_map, args.N, continuation=not args.no_continuation)
    result = newton_solve(problem, grid, config=_make_config(args))
    pairs = [("problem", problem.name), ("map", grid_map.kind), ("c", grid_map.c),
             ("N", grid.N), ("converged", result.converged), ("iterations", result.iterations),
             ("final_increment", _Exact(result.increments[-1])),
             *((name, report_scalar(problem, result, name)) for name in sorted(problem.reports))]
    header = ["n", "x"] + [f"u{k + 1}" for k in range(problem.d)]
    columns = [range(grid.N + 1), grid.nodes.tolist(), *result.solution.T.tolist()]
    _emit(args, pairs, header, columns=columns, key="nodes", summary=True)
    if result.converged:
        return EXIT_OK
    print(f"warning: {result.reason}", file=sys.stderr)
    return EXIT_SOLVER


def cmd_sweep(args) -> int:
    """Solve a doubling family with infbvp.sweep and tabulate the report
    scalars with observed orders; a row that did not converge warns on
    stderr and reports the values of the solution its solve returned."""
    problem = _make_problem(args)
    grid_map = GridMap(args.map, args.c)
    grids = [build_grid(grid_map, n, continuation=not args.no_continuation) for n in args.N]
    results = sweep(problem, grids, _make_config(args))
    quantities = sorted(problem.reports)

    records = []  # one output row per grid; None where an order is undefined
    for grid, result in zip(grids, results):
        if not result.converged:
            print(f"warning: N={grid.N} {result.reason}", file=sys.stderr)
        record = {"N": grid.N, "iterations": result.iterations, "converged": result.converged}
        for q in quantities:
            record[q], record[f"{q}_order"] = report_scalar(problem, result, q), None
        records.append(record)

    # Orders against the finest grid, computed from the values as printed:
    # in full under --raw and in JSON, else rounded at the table precision.
    # Row i has one if rows i - 1, i and the finest converged; the first and finest have none.
    full = args.raw or args.format == "json"
    for q in quantities:
        shown = [record[q] if full else round(record[q], args.decimals) for record in records]
        for i in range(1, len(records) - 1):
            if all(results[j].converged for j in (i - 1, i, -1)):
                records[i][f"{q}_order"] = observed_order(shown[i - 1], shown[i], shown[-1])

    _emit(args, [("problem", problem.name)], list(records[0]),
          [list(record.values()) for record in records], key="rows")
    return EXIT_OK if all(result.converged for result in results) else EXIT_SOLVER


def _read_sweep_column(path: str, quantity: str):
    ns: list[int] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        for name in ("N", quantity):
            if name not in header:
                raise ValueError(f"{path}: line 1: no {name!r} column in header")
        n_col, q_col = header.index("N"), header.index(quantity)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ns.append(int(row[n_col]))
                values.append(float(row[q_col]))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: line {lineno}: cannot parse "
                                 f"N/{quantity} from {row!r}") from None
    return ns, values


def cmd_extrapolate(args) -> int:
    ns, values = _read_sweep_column(args.input, args.quantity)
    table = extrapolate_table(ns, values, print_decimals=args.decimals)
    pairs = [("quantity", args.quantity), ("print_decimals", args.decimals),
             ("stop_rule", table.stop_rule), ("ns", ns),
             ("columns", [_json_safe(column) for column in table.columns])]
    ks = range(len(table.columns))
    rows = [[n] + [table.columns[k][i - k] if i >= k else None for k in ks]
            for i, n in enumerate(ns)]
    _emit(args, pairs, ["N"] + [f"T{k}" for k in ks], rows)
    return EXIT_OK


def cmd_grid(args) -> int:
    grid_map = GridMap(args.map, args.c)
    grid = build_grid(grid_map, args.N)
    pairs = [("map", grid_map.kind), ("c", grid_map.c), ("N", grid.N)]
    n = range(grid.N + 1)
    columns = [n, [k / grid.N for k in n], grid.nodes.tolist()]
    _emit(args, pairs, ["n", "xi", "x"], columns=columns, key="nodes")
    return EXIT_OK


# One row per subcommand, in --help order; each takes the output options after its groups.
_COMMANDS = (
    ("solve", "solve on a single grid", cmd_solve,
     (_add_problem_options, _add_one_grid_options, _add_solver_options)),
    ("sweep", "solve on a doubling family of grids", cmd_sweep,
     (_add_problem_options, _add_grid_family_options, _add_solver_options)),
    ("extrapolate", "extrapolate a sweep CSV file", cmd_extrapolate, (_add_extrapolate_options,)),
    ("grid", "dump grid coordinates", cmd_grid, (_add_one_grid_options,)),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never mutates it, and
    what it shows of the problems and the solver is read at import."""
    parser = argparse.ArgumentParser(
        prog="infbvp",
        description="Solve nonlinear two-point boundary value problems on [0, inf] "
                    "using grids whose last node is exactly at infinity.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, groups in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for add_options in (*groups, _add_output_options):
            add_options(command)
        command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return exc.code
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: stop quietly, and point stdout at devnull
        # so that the flush at interpreter exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
