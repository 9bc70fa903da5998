"""Time one linear_solve per case on two source trees; write the JSON record.

    python3 scripts/bench_linear_solve.py PARENT_TREE [--out BENCH_linear_solve.json]

PARENT_TREE is an unpacked checkout of the commit to compare against
(`git archive <commit> | tar -x -C PARENT_TREE`); the change is the tree
this script lives in. A case is the linear system of the first Newton
step, the analytic Jacobian and minus the residual at the problem's
default iterate, over {falkner-skan, pile} x {log, alg} x N in
{20, 40, 80, 160, 320, 1280, 10240} with c = 5. Both trees are imported into one
single-threaded interpreter, and their calls alternate on each case, so
that a drift in CPU speed hits both alike; each side keeps its best of
--repeats calls.

linear_solve keeps its factors on the Jacobian it is given, so every
timed cold call gets a fresh StructuredJacobian built, outside the timer,
from the same block arrays. replay_ms times the change's second call on
that factored Jacobian, with another rhs, which replays the factors.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ("falkner-skan", "pile")
MAPS = ("log", "alg")
SIZES = (20, 40, 80, 160, 320, 1280, 10240)


def load_tree(tree: Path, name: str):
    """The infbvp package of a source tree, imported under another name."""
    package = tree / "src" / "infbvp"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def first_newton_system(lib, problem: str, kind: str, N: int):
    make = {"falkner-skan": lib.falkner_skan, "pile": lib.pile}[problem]
    problem, grid = make(), lib.build_grid(lib.GridMap(kind, 5.0), N)
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


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            return next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_linear_solve.json")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()

    sides = {"parent": load_tree(args.parent.resolve(), "infbvp_parent"),
             "change": load_tree(ROOT, "infbvp_change")}
    cases = {}
    for problem in PROBLEMS:
        for kind in MAPS:
            for N in SIZES:
                systems = {side: first_newton_system(lib, problem, kind, N)
                           for side, lib in sides.items()}
                other_rhs = np.random.default_rng(N).standard_normal(systems["change"][1].shape)
                best = {side: (float("inf"), "") for side in sides}
                replay = float("inf")
                for repeat in range(args.repeats):
                    order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
                    for side in order:
                        lib, (jacobian, rhs) = sides[side], systems[side]
                        jacobian = fresh(lib, jacobian)
                        seconds, outcome = time_solve(lib, jacobian, rhs)
                        best[side] = (min(best[side][0], seconds), outcome)
                        if side == "change" and outcome == "ok":
                            replay = min(replay, time_solve(lib, jacobian, other_rhs)[0])
                (before, before_outcome), (after, after_outcome) = best["parent"], best["change"]
                cases[f"{problem}/{kind}/{N}"] = {
                    "parent_ms": round(before * 1e3, 3), "change_ms": round(after * 1e3, 3),
                    "speedup": round(before / after, 2),
                    "replay_ms": round(replay * 1e3, 3), "replay_share": round(replay / after, 2),
                    "parent_outcome": before_outcome, "change_outcome": after_outcome}
    record = {
        "what": ("best-of-repeats wall ms of one newton.linear_solve on the first Newton "
                 "step's system, analytic Jacobian at the default iterate, c = 5, each call "
                 "on a fresh Jacobian; replay_ms is the change's second call on that "
                 "Jacobian with another rhs, replay_share its ratio to change_ms"),
        "command": f"python3 scripts/bench_linear_solve.py PARENT_TREE --repeats {args.repeats}",
        "env": {"cpu": _cpu_model(), "nproc": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(), "numpy": np.__version__,
                "blas_threads": 1},
        "cases": cases,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
