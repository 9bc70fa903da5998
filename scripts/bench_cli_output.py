"""Time the CLI output layer on two source trees; write the JSON record.

    python3 scripts/bench_cli_output.py PARENT_TREE [--out BENCH_cli_output.json]

A case is one `cli.main` call that writes its table with `--out` to a
temporary file, over {solve falkner-skan, solve pile, grid log} x N in
{160, 1280, 10240} x {default, --raw, --format json}, with c = 5. The
json cases time the JSON document in place of the CSV table. For the
solve cases each tree's `cli.newton_solve` is replaced by a stub that
returns one precomputed result, so the time is argument parsing, the
grid build and the output layer, not the solve. How the trees are loaded
and timed, and what a case's timing fields mean, is in twotrees.py.
Every case asserts that the two trees write identical bytes, to
the file and to stdout.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from pathlib import Path

from twotrees import c5_grid, load_sides, paired_rounds, parse_args, timing, write_record

COMMANDS = ("solve falkner-skan", "solve pile", "grid log")
SIZES = (160, 1280, 10240)
MODES = {"default": [], "raw": ["--raw"], "json": ["--format", "json"]}


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
    args = parse_args(__doc__, "BENCH_cli_output.json", 15)
    sides = load_sides(args.parent)
    change = sides["change"]
    cases = {}
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "table.csv"
        for command in COMMANDS:
            for N in SIZES:
                if command.startswith("solve"):
                    problem = change.PROBLEMS[command.split()[1]]()
                    result = change.newton_solve(problem, c5_grid(change, "log", N))
                    for lib in sides.values():
                        lib.cli.newton_solve = returning(result)
                for mode in MODES:
                    argv = case_argv(command, N, mode, out)
                    written = {}

                    def call(side, lib):
                        seconds, *written[side] = run_case(lib, argv)
                        return seconds

                    seconds = paired_rounds(sides, args.repeats, call)
                    if written["parent"] != written["change"]:
                        raise SystemExit(f"{' '.join(argv)}: the trees write different bytes")
                    stdout, table = written["change"]
                    cases[f"{command}/{N}/{mode}"] = {
                        **timing(seconds), "bytes": len(stdout.encode()) + len(table)}
    write_record(args, __file__, (
        "median and quartile wall ms over repeats of one cli.main call writing its "
        "table with --out, with the rounds the change won and whether that gain is "
        "resolved (twotrees.py), "
        "newton_solve stubbed to a precomputed result, log map, c = 5; "
        "bytes are stdout plus the --out file, identical on both trees"), cases)


if __name__ == "__main__":
    main()
