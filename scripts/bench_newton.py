"""Time cold Newton solves on two source trees; write the JSON record.

    python3 scripts/bench_newton.py PARENT_TREE [--out BENCH_newton.json]

PARENT_TREE is an unpacked checkout of the commit to compare against
(`git archive <commit> | tar -x -C PARENT_TREE`); the change is the tree
this script lives in. A case is one newton_solve from the problem's
default iterate (a cold solve), default tolerance, over
{falkner-skan, pile} x {log, alg} x N in {20, 160, 1280, 10240} x
{analytic, fd Jacobian}, with c = 5. Both trees are imported into one
single-threaded interpreter, and their calls alternate on each case, so
that a drift in CPU speed hits both alike; each side keeps its best of
--repeats calls. One untimed call per side counts the Jacobians it
assembles and the linear solves it runs, through counting wrappers on
its newton module's assemble_jacobian and linear_solve.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

# loads the trees the same way, and pins BLAS to one thread on import
from bench_linear_solve import _cpu_model, load_tree

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ("falkner-skan", "pile")
MAPS = ("log", "alg")
SIZES = (20, 160, 1280, 10240)
MODES = ("analytic", "fd")


def solve(lib, problem, kind: str, N: int, mode: str):
    """(seconds, iterations or None, outcome) of one cold newton_solve."""
    problem = {"falkner-skan": lib.falkner_skan, "pile": lib.pile}[problem]()
    grid = lib.build_grid(lib.GridMap(kind, 5.0), N)
    config = lib.SolverConfig(jacobian_mode=mode)
    start = time.perf_counter()
    try:
        result = lib.newton_solve(problem, grid, config=config)
    except lib.SingularSystemError as exc:
        return time.perf_counter() - start, None, f"SingularSystemError: {exc}"
    seconds = time.perf_counter() - start
    return seconds, result.iterations, "converged" if result.converged else "not converged"


def counted_solve(lib, *case) -> dict:
    """Iterations, outcome, Jacobians assembled and linear solves of one
    untimed solve."""
    newton = lib.newton
    assemble, linear_solve = newton.assemble_jacobian, newton.linear_solve
    counts = {"jacobians": 0, "linear_solves": 0}

    def counting(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    newton.assemble_jacobian = counting("jacobians", assemble)
    newton.linear_solve = counting("linear_solves", linear_solve)
    try:
        _, iterations, outcome = solve(lib, *case)
    finally:
        newton.assemble_jacobian, newton.linear_solve = assemble, linear_solve
    return {"iterations": iterations, **counts, "outcome": outcome}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_newton.json")
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args()

    sides = {"parent": load_tree(args.parent.resolve(), "infbvp_parent"),
             "change": load_tree(ROOT, "infbvp_change")}
    cases = {}
    for problem in PROBLEMS:
        for kind in MAPS:
            for N in SIZES:
                for mode in MODES:
                    case = (problem, kind, N, mode)
                    record = {side: counted_solve(lib, *case) for side, lib in sides.items()}
                    best = {side: float("inf") for side in sides}
                    for repeat in range(args.repeats):
                        order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
                        for side in order:
                            best[side] = min(best[side], solve(sides[side], *case)[0])
                    for side in sides:
                        record[side]["best_ms"] = round(best[side] * 1e3, 3)
                    record["speedup"] = round(best["parent"] / best["change"], 2)
                    cases["/".join(map(str, case))] = record
    record = {
        "what": ("cold newton_solve from the default iterate, default tol, c = 5: per side "
                 "the iterations, Jacobians assembled and linear solves of one counted call, "
                 "and the best-of-repeats wall ms of uncounted calls; speedup is parent "
                 "over change"),
        "command": f"python3 scripts/bench_newton.py PARENT_TREE --repeats {args.repeats}",
        "env": {"cpu": _cpu_model(), "nproc": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(), "numpy": np.__version__,
                "blas_threads": 1},
        "cases": cases,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
