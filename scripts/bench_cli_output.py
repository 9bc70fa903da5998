"""Time the CLI output layer on two source trees; write the JSON record.

    python3 scripts/bench_cli_output.py PARENT_TREE [--out BENCH_cli_output.json]

PARENT_TREE is an unpacked checkout of the commit to compare against
(`git archive <commit> | tar -x -C PARENT_TREE`); the change is the tree
this script lives in. A case is one `cli.main` call that writes its table
with `--out` to a temporary file, over {solve falkner-skan, solve pile,
grid log} x N in {160, 1280, 10240} x {default, --raw}, with c = 5. For
the solve cases each tree's `cli.newton_solve` is replaced by a stub
that returns one precomputed result, so the time is argument parsing,
the grid build and the output layer, not the solve. Both trees are
imported into one single-threaded interpreter and their calls alternate
on each case; each side keeps its best of --repeats calls. Every case
asserts that the two trees write identical bytes, to the file and to
stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import tempfile
import time
from pathlib import Path

# loads the trees the same way, and pins BLAS to one thread on import
from bench_linear_solve import _cpu_model, load_tree

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("solve falkner-skan", "solve pile", "grid log")
SIZES = (160, 1280, 10240)
MODES = {"default": [], "raw": ["--raw"]}


def load_with_cli(tree: Path, name: str):
    """load_tree, with the package's cli submodule imported as well."""
    package = load_tree(tree, name)
    importlib.import_module(f"{name}.cli")
    return package


def case_argv(command: str, N: int, mode: str, out: Path) -> list[str]:
    verb, what = command.split()
    target = ["--problem", what] if verb == "solve" else ["--map", what]
    return [verb, *target, "--c", "5", "--N", str(N), *MODES[mode], "--out", str(out)]


def returning(result):
    """A newton_solve stand-in that returns result whatever it is asked."""
    return lambda problem, grid, initial=None, config=None: result


def run_case(lib, argv) -> tuple[float, str, bytes]:
    """Seconds of one cli.main call, its stdout and the --out file bytes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        start = time.perf_counter()
        code = lib.cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return seconds, stdout.getvalue(), Path(argv[-1]).read_bytes()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli_output.json")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()

    sides = {"parent": load_with_cli(args.parent.resolve(), "infbvp_parent"),
             "change": load_with_cli(ROOT, "infbvp_change")}
    change = sides["change"]
    cases = {}
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "table.csv"
        for command in COMMANDS:
            for N in SIZES:
                if command.startswith("solve"):
                    problem = change.PROBLEMS[command.split()[1]]()
                    result = change.newton_solve(
                        problem, change.build_grid(change.GridMap("log", 5.0), N))
                    for lib in sides.values():
                        lib.cli.newton_solve = returning(result)
                for mode in MODES:
                    argv = case_argv(command, N, mode, out)
                    best = {side: float("inf") for side in sides}
                    written = {}
                    for repeat in range(args.repeats):
                        order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
                        for side in order:
                            seconds, stdout, table = run_case(sides[side], argv)
                            best[side] = min(best[side], seconds)
                            written[side] = (stdout, table)
                    if written["parent"] != written["change"]:
                        raise SystemExit(f"{' '.join(argv)}: the trees write different bytes")
                    before, after = best["parent"], best["change"]
                    cases[f"{command}/{N}/{mode}"] = {
                        "parent_ms": round(before * 1e3, 3), "change_ms": round(after * 1e3, 3),
                        "speedup": round(before / after, 2),
                        "bytes": len(written["change"][0].encode()) + len(written["change"][1])}
    record = {
        "what": ("best-of-repeats wall ms of one cli.main call writing its table with --out, "
                 "newton_solve stubbed to a precomputed result, log map, c = 5; "
                 "bytes are stdout plus the --out file, identical on both trees"),
        "command": f"python3 scripts/bench_cli_output.py PARENT_TREE --repeats {args.repeats}",
        "env": {"cpu": _cpu_model(), "nproc": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(), "numpy": np.__version__,
                "blas_threads": 1},
        "cases": cases,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
