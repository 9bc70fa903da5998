"""Time one linear_solve per case on two source trees; write the JSON record.

    python3 scripts/bench_linear_solve.py PARENT_TREE [--out BENCH_linear_solve.json]

A case is the linear system of the first Newton step, the analytic
Jacobian and minus the residual at the problem's default iterate, over
{falkner-skan, pile} x {log, alg} x N in {20, 40, 42, 80, 160, 250, 320,
1280, 10240} with c = 5. How the trees are loaded and timed, and what a
case's timing fields mean, is in twotrees.py.

linear_solve keeps its factors on the Jacobian it is given, so every
timed cold call gets a fresh StructuredJacobian built, outside the timer,
from the same block arrays. Right after its cold call, in the same
alternating rounds, each side makes a second, timed call on that factored
Jacobian with another rhs, which replays the factors: a case's "replay"
holds the same timing fields for those calls, and replay_share is the
change's median replay over its median cold call.
"""

from __future__ import annotations

import statistics
import time

# twotrees pins BLAS to one thread, so it is imported before numpy
from twotrees import c5_grid, load_sides, paired_rounds, parse_args, timing, write_record

import numpy as np

PROBLEMS = ("falkner-skan", "pile")
MAPS = ("log", "alg")
SIZES = (20, 40, 42, 80, 160, 250, 320, 1280, 10240)


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
                outcomes, replays = {}, {side: [] for side in sides}

                def cold(side, lib):
                    jacobian, rhs = fresh(lib, systems[side][0]), systems[side][1]
                    seconds, outcomes[side] = time_solve(lib, jacobian, rhs)
                    if outcomes[side] == "ok":
                        replays[side].append(time_solve(lib, jacobian, other_rhs)[0])
                    return seconds

                seconds = paired_rounds(sides, args.repeats, cold)
                replay = share = None
                if all(len(times) == args.repeats for times in replays.values()):
                    replay = timing(replays)
                    share = round(statistics.median(replays["change"])
                                  / statistics.median(seconds["change"]), 2)
                cases[f"{problem}/{kind}/{N}"] = {
                    **timing(seconds), "replay": replay, "replay_share": share,
                    "parent_outcome": outcomes["parent"], "change_outcome": outcomes["change"]}
    write_record(args, __file__, (
        "median and quartile wall ms over repeats of one newton.linear_solve, with the "
        "rounds the change won and whether that gain is resolved (twotrees.py), on the "
        "first Newton step's system, analytic Jacobian at the default iterate, c = 5, each call "
        "on a fresh Jacobian; replay holds the same fields for each side's second call on "
        "that Jacobian with another rhs, made right after the first in the same rounds, "
        "and replay_share is the change's median replay over its median first call"), cases)


if __name__ == "__main__":
    main()
