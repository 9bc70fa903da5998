"""Time cold Newton solves on two source trees; write the JSON record.

    python3 scripts/bench_newton.py PARENT_TREE [--out BENCH_newton.json]

A case is one newton_solve with no initial field (a cold solve), default
tolerance, over {falkner-skan, pile} x {log, alg} x N in {20, 160, 640,
1280, 10240} x {analytic, fd Jacobian}, with c = 5. N = 20, 160 and 640
start from the problem's default iterate; N = 1280 and 10240 start from
the solution of the grid N/8, which newton_solve runs first (10240
through 1280, then 160). How the trees are loaded and timed, and what a
case's timing fields mean, is in twotrees.py. One untimed call per side
counts the Jacobians it assembles and the linear solves it runs,
through counting wrappers on its newton module's assemble_jacobian and
linear_solve, so those counts include the N/8 grids' solves; iterations
count the case's own grid only.
"""

from __future__ import annotations

import time

from twotrees import c5_grid, load_sides, paired_rounds, parse_args, timing, write_record

PROBLEMS = ("falkner-skan", "pile")
MAPS = ("log", "alg")
SIZES = (20, 160, 640, 1280, 10240)
MODES = ("analytic", "fd")


def solve(lib, problem, kind: str, N: int, mode: str):
    """(seconds, iterations, outcome) of one cold newton_solve."""
    problem, grid = lib.PROBLEMS[problem](), c5_grid(lib, kind, N)
    config = lib.SolverConfig(jacobian_mode=mode)
    start = time.perf_counter()
    result = lib.newton_solve(problem, grid, config=config)
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
    args = parse_args(__doc__, "BENCH_newton.json", 11)
    sides = load_sides(args.parent)
    cases = {}
    for problem in PROBLEMS:
        for kind in MAPS:
            for N in SIZES:
                for mode in MODES:
                    case = (problem, kind, N, mode)
                    record = {side: counted_solve(lib, *case) for side, lib in sides.items()}
                    record.update(timing(paired_rounds(
                        sides, args.repeats, lambda side, lib: solve(lib, *case)[0])))
                    cases["/".join(map(str, case))] = record
    write_record(args, __file__, (
        "cold newton_solve (no initial field), default tol, c = 5: per side the "
        "iterations on the case's grid, the Jacobians assembled and linear solves of "
        "one counted call, an N/8 grid's start included; then the median wall ms and "
        "quartiles over repeats of uncounted calls, speedup (parent over change), "
        "rounds the change won and whether that gain is resolved"), cases)


if __name__ == "__main__":
    main()
