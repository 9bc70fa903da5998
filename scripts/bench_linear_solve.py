"""Time one linear_solve per case on two source trees; write the JSON record.

    python3 scripts/bench_linear_solve.py PARENT_TREE [--out BENCH_linear_solve.json]

A case is the linear system of the first Newton step, the analytic
Jacobian and minus the residual at the problem's default iterate, over
{falkner-skan, pile} x {log, alg} x N in {20, 40, 80, 160, 320, 1280, 10240}
with c = 5. How the trees are loaded and timed is in twotrees.py; each
side keeps its best of --repeats calls.

linear_solve keeps its factors on the Jacobian it is given, so every
timed cold call gets a fresh StructuredJacobian built, outside the timer,
from the same block arrays. replay_ms times the change's second call on
that factored Jacobian, with another rhs, which replays the factors.
"""

from __future__ import annotations

import time

# twotrees pins BLAS to one thread, so it is imported before numpy
from twotrees import best_of, c5_grid, load_sides, ms, parse_args, timing, write_record

import numpy as np

PROBLEMS = ("falkner-skan", "pile")
MAPS = ("log", "alg")
SIZES = (20, 40, 80, 160, 320, 1280, 10240)


def first_newton_system(lib, problem: str, kind: str, N: int):
    problem, grid = lib.PROBLEMS[problem](), c5_grid(lib, kind, N)
    field = lib.initial_field(problem, grid)
    return (lib.assemble_jacobian(problem, grid, field, "analytic"),
            -lib.assemble_residual(problem, grid, field))


def time_solve(lib, jacobian, rhs) -> tuple[float, str]:
    start = time.perf_counter()
    try:
        lib.linear_solve(jacobian, rhs)
    except lib.SingularSystemError as exc:
        return time.perf_counter() - start, f"SingularSystemError: {exc}"
    return time.perf_counter() - start, "ok"


def fresh(lib, jacobian):
    """An unfactored Jacobian on the same block arrays."""
    return lib.StructuredJacobian(dU_n=jacobian.dU_n, dU_next=jacobian.dU_next,
                                  dg_0=jacobian.dg_0, dg_N=jacobian.dg_N)


def main() -> None:
    args = parse_args(__doc__, "BENCH_linear_solve.json", 15)
    sides = load_sides(args.parent)
    cases = {}
    for problem in PROBLEMS:
        for kind in MAPS:
            for N in SIZES:
                systems = {side: first_newton_system(lib, problem, kind, N)
                           for side, lib in sides.items()}
                other_rhs = np.random.default_rng(N).standard_normal(systems["change"][1].shape)
                outcomes, replays = {}, [float("inf")]

                def cold(side, lib):
                    jacobian, rhs = fresh(lib, systems[side][0]), systems[side][1]
                    seconds, outcomes[side] = time_solve(lib, jacobian, rhs)
                    if side == "change" and outcomes[side] == "ok":
                        replays.append(time_solve(lib, jacobian, other_rhs)[0])
                    return seconds

                best = best_of(sides, args.repeats, cold)
                replay = min(replays)
                cases[f"{problem}/{kind}/{N}"] = {
                    **timing(best), "replay_ms": ms(replay),
                    "replay_share": round(replay / best["change"], 2),
                    "parent_outcome": outcomes["parent"], "change_outcome": outcomes["change"]}
    write_record(args, __file__, (
        "best-of-repeats wall ms of one newton.linear_solve on the first Newton "
        "step's system, analytic Jacobian at the default iterate, c = 5, each call "
        "on a fresh Jacobian; replay_ms is the change's second call on that "
        "Jacobian with another rhs, replay_share its ratio to change_ms"), cases)


if __name__ == "__main__":
    main()
