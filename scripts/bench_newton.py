"""Time cold Newton solves on two source trees; write the JSON record.

    python3 scripts/bench_newton.py PARENT_TREE [--out BENCH_newton.json]

A case is one newton_solve from the problem's default iterate (a cold
solve), default tolerance, over {falkner-skan, pile} x {log, alg} x N in
{20, 160, 1280, 10240} x {analytic, fd Jacobian}, with c = 5. How the
trees are loaded and timed is in twotrees.py; each side keeps its best of
--repeats calls. One untimed call per side counts the Jacobians it
assembles and the linear solves it runs, through counting wrappers on
its newton module's assemble_jacobian and linear_solve.
"""

from __future__ import annotations

import time

from twotrees import best_of, c5_grid, load_sides, ms, parse_args, write_record

PROBLEMS = ("falkner-skan", "pile")
MAPS = ("log", "alg")
SIZES = (20, 160, 1280, 10240)
MODES = ("analytic", "fd")


def solve(lib, problem, kind: str, N: int, mode: str):
    """(seconds, iterations or None, outcome) of one cold newton_solve."""
    problem, grid = lib.PROBLEMS[problem](), c5_grid(lib, kind, N)
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
    args = parse_args(__doc__, "BENCH_newton.json", 11)
    sides = load_sides(args.parent)
    cases = {}
    for problem in PROBLEMS:
        for kind in MAPS:
            for N in SIZES:
                for mode in MODES:
                    case = (problem, kind, N, mode)
                    record = {side: counted_solve(lib, *case) for side, lib in sides.items()}
                    best = best_of(sides, args.repeats, lambda side, lib: solve(lib, *case)[0])
                    for side in sides:
                        record[side]["best_ms"] = ms(best[side])
                    record["speedup"] = round(best["parent"] / best["change"], 2)
                    cases["/".join(map(str, case))] = record
    write_record(args, __file__, (
        "cold newton_solve from the default iterate, default tol, c = 5: per side "
        "the iterations, Jacobians assembled and linear solves of one counted call, "
        "and the best-of-repeats wall ms of uncounted calls; speedup is parent "
        "over change"), cases)


if __name__ == "__main__":
    main()
