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
import json
import math
import sys

from .grids import GridMap, build_grid
from .newton import SingularSystemError, SolverConfig, newton_solve
from .problems import PROBLEMS, report_scalar
from .richardson import SweepSeries, extrapolate_table, observed_order
from .scheme import EvaluationError, prolong

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


def _fmt(value, decimals: int, raw: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g") if raw else f"{value:.{decimals}f}"
    return str(value)


def _json_safe(value):
    """JSON has no inf/nan literals; fall back to the CSV tokens."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value, 0, True)
    return value


def _write_rows(rows, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def _write_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_n_values(spec: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --N value {spec!r}") from None
    if not values:
        raise ValueError("--N needs at least one value")
    return values


def _make_problem(args):
    factory = PROBLEMS[args.problem]
    if args.problem == "falkner-skan":
        return factory(P=args.P)
    return factory(P1=args.P1, P2=args.P2, P3=args.P3)


def _make_map(args) -> GridMap:
    return GridMap(args.map, args.c)


def _solver_grid_map(args) -> GridMap:
    grid_map = _make_map(args)
    if grid_map.whole_line:
        raise ValueError("the tan map builds whole-line grids, which have no solver support")
    return grid_map


def _make_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter,
                        jacobian_mode=args.jacobian,
                        continuation=not args.no_continuation)


def _add_problem_options(parser) -> None:
    parser.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    parser.add_argument("--P", type=float, default=1.0,
                        help="pressure-gradient parameter of falkner-skan (default 1)")
    parser.add_argument("--P1", type=float, default=1.0,
                        help="pile soil reaction amplitude (default 1)")
    parser.add_argument("--P2", type=float, default=0.5,
                        help="pile soil reaction decay rate (default 1/2)")
    parser.add_argument("--P3", type=float, default=0.5,
                        help="pile shear at the origin (default 1/2)")


def _add_grid_options(parser) -> None:
    parser.add_argument("--map", choices=["log", "alg", "tan"], default="log",
                        help="grid generating map (default log)")
    parser.add_argument("--c", type=float, default=5.0,
                        help="map length scale (default 5)")
    parser.add_argument("--N", required=True,
                        help="intervals per semi-axis; a comma list sweeps several grids")


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
    parser.add_argument("--decimals", type=int, default=6,
                        help="table-mode decimal places (default 6)")
    parser.add_argument("--raw", action="store_true",
                        help="serialize floats at full precision (17 significant digits)")


def _build_parser() -> argparse.ArgumentParser:
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
    grid_map = _solver_grid_map(args)
    n_values = _parse_n_values(args.N)
    if len(n_values) != 1:
        raise ValueError("solve takes a single --N; use sweep for a family")
    grid = build_grid(grid_map, n_values[0])
    result = newton_solve(problem, grid, config=_make_config(args))
    reports = {name: report_scalar(problem, result, name) for name in sorted(problem.reports)}

    if args.format == "json":
        doc = {
            "problem": problem.name,
            "map": grid_map.kind.value,
            "c": grid_map.c,
            "N": grid.N,
            "converged": result.converged,
            "iterations": result.iterations,
            "final_increment": _json_safe(result.final_increment),
            "reports": {k: _json_safe(v) for k, v in reports.items()},
            "nodes": [
                {"n": int(n), "x": _json_safe(float(x)),
                 "u": [_json_safe(float(v)) for v in row]}
                for n, x, row in zip(grid.indices, grid.nodes, result.solution)
            ],
        }
        _write_text(json.dumps(doc, indent=2), args.out)
    else:
        header = ["n", "x"] + [f"u{k + 1}" for k in range(problem.d)]
        rows = [header]
        for n, x, row in zip(grid.indices, grid.nodes, result.solution):
            rows.append([str(int(n)), _fmt(float(x), args.decimals, args.raw)]
                        + [_fmt(float(v), args.decimals, args.raw) for v in row])
        _write_rows(rows, args.out)
        summary = [["key", "value"],
                   ["problem", problem.name],
                   ["map", grid_map.kind.value],
                   ["c", _fmt(grid_map.c, args.decimals, args.raw)],
                   ["N", str(grid.N)],
                   ["converged", _fmt(result.converged, 0, False)],
                   ["iterations", str(result.iterations)],
                   ["final_increment", _fmt(result.final_increment, 0, True)]]
        summary += [[name, _fmt(value, args.decimals, args.raw)]
                    for name, value in reports.items()]
        if args.out:
            csv.writer(sys.stdout).writerows(summary)
        else:
            sys.stdout.write("\n")
            csv.writer(sys.stdout).writerows(summary)
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
    grid_map = _solver_grid_map(args)
    n_values = _parse_n_values(args.N)
    for coarse, fine in zip(n_values, n_values[1:]):
        if fine != 2 * coarse:
            raise ValueError(f"sweep grids must double: {coarse} is followed by {fine}")
    config = _make_config(args)
    quantities = sorted(problem.reports)

    rows = []
    previous = None  # (grid, solution) of the row before, if it converged
    for n in n_values:
        grid = build_grid(grid_map, n)
        initial = None if previous is None else prolong(*previous, config.continuation)
        previous = None
        try:
            result = newton_solve(problem, grid, initial=initial, config=config)
        except (EvaluationError, SingularSystemError) as exc:
            print(f"warning: N={n} failed: {exc}", file=sys.stderr)
            rows.append({"N": n, "iterations": None, "converged": False, "scalars": None})
            continue
        scalars = {q: report_scalar(problem, result, q) for q in quantities}
        if result.converged:
            previous = (grid, result.solution)
        else:
            print(f"warning: N={n} did not converge in {result.iterations} iterations",
                  file=sys.stderr)
        rows.append({"N": n, "iterations": result.iterations,
                     "converged": result.converged, "scalars": scalars})

    # Orders against the finest grid, computed from values rounded at the
    # table precision (what a printed table shows); the first and finest
    # rows have no entry.
    orders: dict[str, list[float | None]] = {q: [None] * len(rows) for q in quantities}
    for q in quantities:
        shown = [None if row["scalars"] is None else round(row["scalars"][q], args.decimals)
                 for row in rows]
        ref = shown[-1]
        if ref is None:
            continue
        for i in range(1, len(rows) - 1):
            if shown[i - 1] is not None and shown[i] is not None:
                orders[q][i] = observed_order(shown[i - 1], shown[i], ref)

    if args.format == "json":
        doc_rows = []
        for i, row in enumerate(rows):
            entry = {"N": row["N"], "iterations": row["iterations"],
                     "converged": row["converged"]}
            for q in quantities:
                entry[q] = None if row["scalars"] is None else _json_safe(row["scalars"][q])
                entry[f"{q}_order"] = (None if orders[q][i] is None
                                       else _json_safe(orders[q][i]))
            doc_rows.append(entry)
        _write_text(json.dumps({"problem": problem.name, "rows": doc_rows}, indent=2),
                    args.out)
    else:
        header = ["N", "iterations", "converged"]
        for q in quantities:
            header += [q, f"{q}_order"]
        out_rows = [header]
        for i, row in enumerate(rows):
            line = [str(row["N"]),
                    "" if row["iterations"] is None else str(row["iterations"]),
                    _fmt(row["converged"], 0, False)]
            for q in quantities:
                line.append("" if row["scalars"] is None
                            else _fmt(row["scalars"][q], args.decimals, args.raw))
                line.append("" if orders[q][i] is None
                            else _fmt(orders[q][i], args.decimals, args.raw))
            out_rows.append(line)
        _write_rows(out_rows, args.out)
    return EXIT_OK if all(row["converged"] for row in rows) else EXIT_SOLVER


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
    series = SweepSeries(quantity=args.quantity, ns=tuple(ns), values=tuple(values))
    table = extrapolate_table(series, print_decimals=args.decimals)

    if args.format == "json":
        doc = {
            "quantity": args.quantity,
            "print_decimals": table.print_decimals,
            "stop_rule": table.stop_rule,
            "ns": list(table.ns),
            "columns": [list(col) for col in table.columns],
        }
        _write_text(json.dumps(doc, indent=2), args.out)
    else:
        header = ["N"] + [f"T{k}" for k in range(len(table.columns))]
        out_rows = [header]
        for i, n in enumerate(table.ns):
            line = [str(n)]
            for k in range(len(table.columns)):
                value = table.cell(i, k)
                line.append("" if value is None else _fmt(value, args.decimals, args.raw))
            out_rows.append(line)
        _write_rows(out_rows, args.out)
    return EXIT_OK


def cmd_grid(args) -> int:
    grid_map = _make_map(args)
    n_values = _parse_n_values(args.N)
    if len(n_values) != 1:
        raise ValueError("grid takes a single --N")
    grid = build_grid(grid_map, n_values[0])

    if args.format == "json":
        doc = {
            "map": grid_map.kind.value,
            "c": grid_map.c,
            "N": grid.N,
            "nodes": [
                {"n": int(n), "xi": float(p), "x": _json_safe(float(x))}
                for n, p, x in zip(grid.indices, grid.uniform_params, grid.nodes)
            ],
        }
        _write_text(json.dumps(doc, indent=2), args.out)
    else:
        out_rows = [["n", "xi", "x"]]
        for n, p, x in zip(grid.indices, grid.uniform_params, grid.nodes):
            out_rows.append([str(int(n)), _fmt(float(p), args.decimals, args.raw),
                             _fmt(float(x), args.decimals, args.raw)])
        _write_rows(out_rows, args.out)
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
