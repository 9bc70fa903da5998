"""Command line front end.

Subcommands: solve one grid, sweep a doubling family of grids,
extrapolate a sweep file, or dump grid coordinates. Output is CSV
(default) or JSON; infinities appear as the literal tokens inf/-inf and
undefined entries as nan. Exit codes: 0 success, 1 solver failure or
non-convergence, 2 bad arguments or unparseable input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

from .grids import GridMap, MapKind, build_grid
from .newton import SingularSystemError, SolverConfig, newton_solve
from .problems import PROBLEMS, report_scalar
from .richardson import extrapolate_table, observed_order
from .scheme import EvaluationError, prolong

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


def _cell(value, float_format: str) -> str:
    """The one CSV cell rule: None is empty, bools are true/false, floats
    follow float_format (inf, -inf and nan print as those tokens) and
    anything else prints as str(). _csv_text drops the sign of a
    fixed-decimal float that prints as zero."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_format % value
    return str(value)


def _csv_text(rows, args) -> str:
    """Rows as CSV under the one cell rule. A row whose cells are all
    exactly int or float is written with one `%` template per cell-type
    signature, the same rule spelled as a format string (numeric cells
    never need quoting); any other row goes cell by cell through _cell
    and csv.writer. Without --raw a float whose fixed-decimal text has
    only zeros prints without its minus sign: a -4e-25 that is zero to
    roundoff reads 0.000000, not -0.000000."""
    float_format = "%.17g" if args.raw else f"%.{args.decimals}f"
    numeric = {int: "%d", float: float_format}
    templates = {}  # cell types -> row template, or None for a non-numeric row
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = (",".join(map(numeric.__getitem__, types)) + "\r\n"
                                if all(kind in numeric for kind in types) else None)
        template = templates[types]
        if template is None:
            writer.writerow([_cell(value, float_format) for value in row])
        else:
            buffer.write(template % row)
    text = buffer.getvalue()
    if not args.raw:
        # a '-' opening a cell that is all zeros up to its delimiter
        zero = re.escape(float_format % 0.0)
        text = re.sub(rf"-(?<![^,\n]-)(?={zero}[,\r])", "", text)
    return text


def _json_safe(value):
    """JSON has no inf/nan literals: non-finite floats, at any depth,
    become the CSV tokens inf/-inf/nan."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _emit(args, doc: dict, rows, summary=()) -> None:
    """Write a command's output: doc as JSON (indent 2) or rows as CSV,
    to --out or to stdout. The CSV summary rows always go to stdout,
    after a blank line when the table went there too."""
    if args.format == "json":
        text = json.dumps(_json_safe(doc), indent=2) + "\n"
    else:
        text = _csv_text(rows, args)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if summary and args.format == "csv":
        sys.stdout.write(("" if args.out else "\n") + _csv_text(summary, args))


def _decimals(text: str) -> int:
    """--decimals: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _parse_n_values(spec: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --N value {spec!r}") from None
    if not values:
        raise ValueError("--N needs at least one value")
    return values


# The problem options each problem takes: its factory's parameters.
PROBLEM_OPTIONS = {"falkner-skan": ("P",), "pile": ("P1", "P2", "P3")}


def _make_problem(args):
    """The chosen problem from the problem options given, its factory's
    defaults filling the rest; an option it does not take is refused."""
    given = {name: value for names in PROBLEM_OPTIONS.values() for name in names
             if (value := getattr(args, name)) is not None}
    taken = PROBLEM_OPTIONS[args.problem]
    stray = [name for name in given if name not in taken]
    if stray:
        raise ValueError(f"problem {args.problem} takes no --{stray[0]}; "
                         f"its options: --{', --'.join(taken)}")
    return PROBLEMS[args.problem](**given)


def _make_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter, jacobian_mode=args.jacobian)


def _add_problem_options(parser) -> None:
    parser.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    parser.add_argument("--P", type=float, default=None,
                        help="pressure-gradient parameter of falkner-skan (default 1)")
    parser.add_argument("--P1", type=float, default=None,
                        help="pile soil reaction amplitude (default 1)")
    parser.add_argument("--P2", type=float, default=None,
                        help="pile soil reaction decay rate (default 1/2)")
    parser.add_argument("--P3", type=float, default=None,
                        help="pile shear at the origin (default 1/2)")


def _add_grid_options(parser) -> None:
    parser.add_argument("--map", choices=[kind.value for kind in MapKind], default="log",
                        help="grid generating map (default log)")
    parser.add_argument("--c", type=float, default=5.0,
                        help="map length scale (default 5)")
    parser.add_argument("--N", required=True,
                        help="grid intervals (nodes 0..N, x_N = inf); "
                             "a comma list sweeps several grids")


def _add_solver_options(parser) -> None:
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="mean-increment stopping tolerance (default 1e-6)")
    parser.add_argument("--max-iter", type=int, default=50)
    parser.add_argument("--jacobian", choices=["analytic", "fd"], default=None,
                        help="default: analytic when the problem provides derivatives")
    parser.add_argument("--no-continuation", action="store_true",
                        help="keep the degenerate last-interval weights b=0, c_w=1")


def _add_output_options(parser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="write to this file instead of stdout")
    parser.add_argument("--decimals", type=_decimals, default=6,
                        help="table-mode decimal places (default 6)")
    parser.add_argument("--raw", action="store_true",
                        help="serialize floats at full precision (17 significant digits)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never mutates it, and
    --problem's choices are read from PROBLEMS, to which nothing adds a
    key after import."""
    parser = argparse.ArgumentParser(
        prog="infbvp",
        description="Solve nonlinear two-point boundary value problems on [0, inf] "
                    "using grids whose last node is exactly at infinity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve on a single grid")
    _add_problem_options(p_solve)
    _add_grid_options(p_solve)
    _add_solver_options(p_solve)
    _add_output_options(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve on a doubling family of grids")
    _add_problem_options(p_sweep)
    _add_grid_options(p_sweep)
    _add_solver_options(p_sweep)
    _add_output_options(p_sweep)

    p_extra = sub.add_parser("extrapolate", help="extrapolate a sweep CSV file")
    p_extra.add_argument("input", help="sweep CSV produced by the sweep subcommand")
    p_extra.add_argument("--quantity", required=True, help="sweep column to extrapolate")
    _add_output_options(p_extra)

    p_grid = sub.add_parser("grid", help="dump grid coordinates")
    _add_grid_options(p_grid)
    _add_output_options(p_grid)
    return parser


def cmd_solve(args) -> int:
    problem = _make_problem(args)
    grid_map = GridMap(args.map, args.c)
    n_values = _parse_n_values(args.N)
    if len(n_values) != 1:
        raise ValueError("solve takes a single --N; use sweep for a family")
    grid = build_grid(grid_map, n_values[0], continuation=not args.no_continuation)
    result = newton_solve(problem, grid, config=_make_config(args))
    reports = {name: report_scalar(problem, result, name) for name in sorted(problem.reports)}
    doc = {
        "problem": problem.name,
        "map": grid_map.kind.value,
        "c": grid_map.c,
        "N": grid.N,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    # The stopping increment, read against --tol, prints at 17 significant
    # digits whatever --decimals says.
    summary = [("key", "value"), *doc.items(),
               ("final_increment", "%.17g" % result.final_increment), *reports.items()]
    doc.update(final_increment=float(result.final_increment), reports=reports)
    # (n, x, u1, ..., ud) per node; the JSON node records only when asked for
    nodes = list(zip(grid.indices.tolist(), grid.nodes.tolist(), *result.solution.T.tolist()))
    if args.format == "json":
        doc["nodes"] = [{"n": n, "x": x, "u": u} for n, x, *u in nodes]
    header = ["n", "x"] + [f"u{k + 1}" for k in range(problem.d)]
    _emit(args, doc, [header, *nodes], summary)
    return EXIT_OK if result.converged else EXIT_SOLVER


def cmd_sweep(args) -> int:
    """Solve on each grid of a doubling family and tabulate the report
    scalars with observed orders.

    The first grid starts from the problem's initial iterate; every later
    grid starts from the previous grid's converged solution, prolonged to
    the doubled grid with the stencil weights. A grid after a row that
    failed or did not converge starts from the initial iterate again.
    """
    problem = _make_problem(args)
    grid_map = GridMap(args.map, args.c)
    n_values = _parse_n_values(args.N)
    for coarse, fine in zip(n_values, n_values[1:]):
        if fine != 2 * coarse:
            raise ValueError(f"sweep grids must double: {coarse} is followed by {fine}")
    config = _make_config(args)
    quantities = sorted(problem.reports)

    records = []  # one output row per grid; None where a value is undefined
    previous = None  # (grid, solution) of the row before, if it converged
    for n in n_values:
        record = {"N": n, "iterations": None, "converged": False}
        record.update((key, None) for q in quantities for key in (q, f"{q}_order"))
        records.append(record)
        grid = build_grid(grid_map, n, continuation=not args.no_continuation)
        initial = None if previous is None else prolong(*previous)
        previous = None
        try:
            result = newton_solve(problem, grid, initial=initial, config=config)
        except (EvaluationError, SingularSystemError) as exc:
            print(f"warning: N={n} failed: {exc}", file=sys.stderr)
            continue
        record.update(iterations=result.iterations, converged=result.converged)
        record.update((q, report_scalar(problem, result, q)) for q in quantities)
        if result.converged:
            previous = (grid, result.solution)
        else:
            print(f"warning: N={n} did not converge in {result.iterations} iterations",
                  file=sys.stderr)

    # Orders against the finest grid, computed from values rounded at the
    # table precision (what a printed table shows); the first and finest
    # rows have no entry.
    for q in quantities:
        shown = [None if record[q] is None else round(record[q], args.decimals)
                 for record in records]
        ref = shown[-1]
        if ref is None:
            continue
        for i in range(1, len(records) - 1):
            if shown[i - 1] is not None and shown[i] is not None:
                records[i][f"{q}_order"] = observed_order(shown[i - 1], shown[i], ref)

    _emit(args, {"problem": problem.name, "rows": records},
          [list(records[0])] + [list(record.values()) for record in records])
    return EXIT_OK if all(record["converged"] for record in records) else EXIT_SOLVER


def _read_sweep_column(path: str, quantity: str):
    ns: list[int] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        try:
            n_col = header.index("N")
        except ValueError:
            raise ValueError(f"{path}: line 1: no 'N' column in header") from None
        try:
            q_col = header.index(quantity)
        except ValueError:
            raise ValueError(f"{path}: line 1: no {quantity!r} column in header") from None
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
    doc = {
        "quantity": args.quantity,
        "print_decimals": args.decimals,
        "stop_rule": table.stop_rule,
        "ns": ns,
        "columns": table.columns,
    }
    ks = range(len(table.columns))
    rows = [["N"] + [f"T{k}" for k in ks]]
    rows += [[n] + [table.cell(i, k) for k in ks] for i, n in enumerate(ns)]
    _emit(args, doc, rows)
    return EXIT_OK


def cmd_grid(args) -> int:
    grid_map = GridMap(args.map, args.c)
    n_values = _parse_n_values(args.N)
    if len(n_values) != 1:
        raise ValueError("grid takes a single --N")
    grid = build_grid(grid_map, n_values[0])
    nodes = list(zip(grid.indices.tolist(), grid.uniform_params.tolist(), grid.nodes.tolist()))
    doc = {"map": grid_map.kind.value, "c": grid_map.c, "N": grid.N}
    if args.format == "json":
        doc["nodes"] = [{"n": n, "xi": xi, "x": x} for n, xi, x in nodes]
    _emit(args, doc, [("n", "xi", "x"), *nodes])
    return EXIT_OK


_HANDLERS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "extrapolate": cmd_extrapolate,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (EvaluationError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
