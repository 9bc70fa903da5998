"""Check that two source trees behave identically; report every difference.

    python3 scripts/compare_trees.py PARENT_TREE

Both trees, loaded as twotrees.py describes, run on a fixed matrix:

- the CLI, in-process: exit code, stdout, stderr, --out bytes and the
  RuntimeWarnings raised, over solve, sweep, grid and extrapolate runs
  (error paths and --help included), each in CSV and JSON, with default
  precision, --raw and --decimals 3, to stdout and to --out;
- the residual and the analytic and FD Jacobian blocks, bitwise, on
  {falkner-skan, pile, a problem whose g couples U_0 and U_N} x {log, alg}
  x N in {20, 70, 160, 640, 1280, 1284, 2560} x continuation on/off, at a
  fixed perturbation of the initial iterate. Together the sizes reach
  every stage map of the linear solve's reduction: 20 goes straight to
  the grouped stage, 160 to 2560 halve evenly down to it, 70 carries an
  odd row up from 35 and ends in the dense tail without the grouped
  stage, and 1284, which also takes no coarse start, carries a row at
  five levels before an 11-row tail;
- newton_solve's solution, increments, iteration count and convergence
  flag, bitwise, on the same cases, with each tree's own default
  SolverConfig() and with the FD Jacobian;
- the public API: the infbvp.__all__ names one tree has and the other
  lacks, and the public attributes (dataclass fields, properties,
  methods) of each class both export that one tree's class has and the
  other's lacks.

Every side runs in a fresh working directory holding the same input
files, so paths in messages agree. Each differing (command, field) pair,
case, public name and attribute prints one line, then the count; the
exit code is 1 if anything differed. A differing Newton result also
prints how far it moved: whether the iteration count and convergence
flag are equal, and the largest difference of the solutions, absolute
and relative to max(1, |parent value|).
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# twotrees pins BLAS to one thread, so it is imported before numpy
from twotrees import c5_grid, load_sides, parse_args

import numpy as np

INPUTS = {
    "sweep.csv": "N,iterations,converged,u0\n40,2,true,1.421243\n80,2,true,1.421469\n"
                 "160,2,true,1.421526\n320,2,true,1.4215405\n",
    # 1 + 50/sqrt(N) runs out with no stop rule at 6 and 3 decimals, so
    # the whole 7-column triangle is printed
    "full.csv": "N,u0\n" + "".join(f"{20 * 2 ** k},{1 + 50 / (20 * 2 ** k) ** 0.5:.6f}\n"
                                    for k in range(7)),
    "bad.csv": "N,u0\n40,1.421243\n80,oops\n",
    "nonfinite.csv": "N,u0\n20,inf\n40,nan\n80,1.5\n",
    "empty.csv": "",
}
OUTPUT_MODES = [[*fmt, *precision, *out]
                for fmt in (["--format", "csv"], ["--format", "json"])
                for precision in ([], ["--raw"], ["--decimals", "3"])
                for out in ([], ["--out", "out.txt"])]
COMMANDS = [
    ["solve", "--problem", "pile", "--N", "8"],
    ["solve", "--problem", "falkner-skan", "--N", "16", "--map", "alg", "--c", "3"],
    ["solve", "--problem", "falkner-skan", "--P", "0.5", "--N", "20", "--jacobian", "fd"],
    ["solve", "--problem", "pile", "--N", "12", "--no-continuation", "--tol", "1e-10"],
    ["solve", "--problem", "pile", "--N", "16", "--max-iter", "2"],
    ["solve", "--problem", "pile", "--N", "8,16"],
    ["solve", "--problem", "pile", "--N", "8", "--map", "tan"],
    ["solve", "--problem", "pile", "--N", "1"],
    ["solve", "--problem", "pile", "--N", "abc"],
    ["solve", "--problem", "pile", "--N", "8", "--tol", "inf"],
    ["solve", "--problem", "falkner-skan", "--N", "8", "--P", "nan"],
    ["solve", "--problem", "falkner-skan", "--N", "8", "--P1", "3"],
    ["solve", "--problem", "pile", "--P3=-1e3", "--N", "8"],
    ["solve", "--problem", "pile", "--N", "8", "--P1", "2", "--P2", "0.25", "--P3", "1"],
    ["sweep", "--problem", "pile", "--N", "8,16,32"],
    ["sweep", "--problem", "falkner-skan", "--N", "10,20,40", "--jacobian", "fd"],
    ["sweep", "--problem", "pile", "--N", "8,16", "--max-iter", "1"],
    ["sweep", "--problem", "pile", "--N", "8,12"],
    ["sweep", "--problem", "pile", "--P3=-1e3", "--N", "8,16"],
    ["sweep", "--problem", "falkner-skan", "--P", "1e200", "--N", "20,40"],
    ["sweep", "--problem", "falkner-skan", "--N", "20,40,80", "--max-iter", "2"],
    ["sweep", "--problem", "pile", "--N", "1280,2560"],
    ["sweep", "--problem", "pile", "--N", "abc"],
    # warm-started from N = 20, the N = 40 row runs out of iterations
    ["sweep", "--problem", "falkner-skan", "--P", "-0.15", "--map", "alg",
     "--N", "20,40,80,160,320"],
    ["grid", "--N", "4"],
    ["grid", "--map", "alg", "--c", "1", "--N", "5"],
    ["grid", "--map", "tan", "--c", "2", "--N", "3"],
    ["grid", "--N", "1"],
    ["grid", "--N", "4,8"],
    ["grid", "--N", "4", "--c", "inf"],
    ["grid", "--N", "4", "--c", "-1"],
    ["extrapolate", "sweep.csv", "--quantity", "u0"],
    ["extrapolate", "full.csv", "--quantity", "u0"],
    ["extrapolate", "nonfinite.csv", "--quantity", "u0"],
    ["extrapolate", "sweep.csv", "--quantity", "du0"],
    ["extrapolate", "bad.csv", "--quantity", "u0"],
    ["extrapolate", "empty.csv", "--quantity", "u0"],
    ["extrapolate", "missing.csv", "--quantity", "u0"],
]
USAGE = [[], ["--help"], ["bogus"], ["grid", "--N", "4", "--decimals", "-1"],
         ["solve", "--problem", "unknown", "--N", "8"], ["solve", "--problem", "pile"],
         *([command, "--help"] for command in ("solve", "sweep", "extrapolate", "grid"))]
PROBLEM_NAMES = ("falkner-skan", "pile", "coupled")
MAPS = ("log", "alg")
SIZES = (20, 70, 160, 640, 1280, 1284, 2560)


def run_cli(lib, argv):
    """(exit code, stdout, stderr, --out bytes, warnings) of one in-process
    cli.main call in a fresh directory holding INPUTS."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in INPUTS.items():
                Path(name).write_text(text)
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(stdout), redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = lib.cli.main(list(argv))
            out = Path("out.txt")
            out_bytes = out.read_bytes() if out.exists() else None
        finally:
            os.chdir(cwd)
    seen = [(w.category.__name__, str(w.message)) for w in caught]
    return code, stdout.getvalue(), stderr.getvalue(), out_bytes, seen


def make_problem(lib, name):
    if name != "coupled":
        return lib.PROBLEMS[name]()

    def f(x, u):
        return np.array([u[1], u[0] * u[0] + np.exp(-x) - np.exp(-2.0 * x)])

    def g(u0, u_inf):
        return np.array([u0[0] + u_inf[0] - 1.0, u_inf[0] + u0[0] * u0[0] + u0[1]])

    return lib.BvpProblem(name="coupled", d=2, f=f, g=g,
                          initial_iterate=lambda x: np.array([0.5, 0.0]))


def outcome(call):
    """call()'s value, or the type name and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # the exception itself is what is compared
        return f"{type(exc).__name__}: {exc}"


def same(a, b) -> bool:
    """Bitwise equality of nested results: arrays by dtype, shape and bytes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def scheme_case(lib, name, kind, N, continuation):
    """Residual, Jacobian blocks and Newton results of one case."""
    problem = make_problem(lib, name)
    grid = c5_grid(lib, kind, N, continuation=continuation)
    base = lib.initial_field(problem, grid)
    field = base + 0.05 * np.random.default_rng(N).standard_normal(base.shape)

    def blocks(mode):
        jac = lib.assemble_jacobian(problem, grid, field, mode)
        return [jac.dU_n, jac.dU_next, jac.dg_0, jac.dg_N]

    def solve(config):
        result = lib.newton_solve(problem, grid, config=config)
        return [result.solution, result.increments, result.iterations,
                result.increments[-1], result.converged]

    return {
        "residual": outcome(lambda: lib.assemble_residual(problem, grid, field)),
        "analytic jacobian": outcome(lambda: blocks("analytic")),
        "fd jacobian": outcome(lambda: blocks("fd")),
        "newton default": outcome(lambda: solve(lib.SolverConfig())),
        "newton fd": outcome(lambda: solve(lib.SolverConfig(jacobian_mode="fd"))),
    }


def difference(parent, change) -> str:
    """One line on where parent and change first differ."""
    if isinstance(parent, (str, bytes)) and type(change) is type(parent):
        first = next((i for i, (x, y) in enumerate(zip(parent, change)) if x != y),
                     min(len(parent), len(change)))
        start = max(first - 20, 0)
        return (f"from offset {first}: parent {parent[start:first + 40]!r}, "
                f"change {change[start:first + 40]!r}")
    return "values differ"


def newton_moved(parent, change) -> str:
    """How far one Newton result moved: iteration count and convergence
    flag, and the largest solution difference, absolute and relative to
    max(1, |parent value|) (equal entries, infinities included, count as
    0)."""
    if isinstance(parent, str) or isinstance(change, str):
        return difference(parent, change)
    (a, _, iterations_a, _, converged_a), (b, _, iterations_b, _, converged_b) = parent, change
    if (iterations_a, converged_a) == (iterations_b, converged_b):
        flags = f"iterations {iterations_a} and converged {converged_a} equal"
    else:
        flags = (f"iterations {iterations_a} -> {iterations_b}, "
                 f"converged {converged_a} -> {converged_b}")
    with np.errstate(invalid="ignore"):
        moved = np.where(a == b, 0.0, np.abs(a - b))
        relative = np.max(moved / np.maximum(1.0, np.abs(a)))
    return (f"{flags}, max |solution difference| {np.max(moved):.2e}, "
            f"relative to max(1, |parent|) {relative:.2e}")


def public_api(lib) -> set[str]:
    """The package's __all__ names, and "Class.attribute" for each public
    attribute of an exported class: its dataclass fields (a field
    without a default is no class attribute), properties and methods."""
    api = set(lib.__all__)
    for name in lib.__all__:
        value = getattr(lib, name)
        if isinstance(value, type):
            attributes = {*dir(value), *getattr(value, "__dataclass_fields__", ())}
            api |= {f"{name}.{attr}" for attr in attributes if not attr.startswith("_")}
    return api


def api_differences(parent, change) -> tuple[list[str], int]:
    """One line per public name or attribute of one package that the
    other lacks (an attribute only where both export its class), and how
    many names and attributes the two have together."""
    apis = {"parent": public_api(parent), "change": public_api(change)}
    lines = [f"api: {name} only in {side}"
             for side, other in (("parent", "change"), ("change", "parent"))
             for name in sorted(apis[side] - apis[other])
             if "." not in name or name.partition(".")[0] in apis[other]]
    return lines, len(apis["parent"] | apis["change"])


def main() -> int:
    parent, change = load_sides(parse_args(__doc__).parent).values()

    runs = list(USAGE)
    runs += [command + mode for command in COMMANDS for mode in OUTPUT_MODES]
    cases = [(name, kind, N, continuation) for name in PROBLEM_NAMES for kind in MAPS
             for N in SIZES for continuation in (True, False)]
    fields = ("exit code", "stdout", "stderr", "--out bytes", "warnings")
    cli_differing = 0
    for argv in runs:
        for field, a, b in zip(fields, run_cli(parent, argv), run_cli(change, argv)):
            if not same(a, b):
                cli_differing += 1
                print(f"infbvp {' '.join(argv)}: {field}: {difference(a, b)}")
    print(f"cli: {cli_differing} of {len(runs) * len(fields)} (command, field) pairs differ")
    cases_differing = 0
    for case in cases:
        a, b = scheme_case(parent, *case), scheme_case(change, *case)
        keys = [key for key in a if not same(a[key], b[key])]
        if keys:
            cases_differing += 1
            print(f"case {case}: {', '.join(keys)} differ")
            for key in keys:
                if key.startswith("newton"):
                    print(f"  {key}: {newton_moved(a[key], b[key])}")
    print(f"scheme and newton: {cases_differing} of {len(cases)} cases differ")
    api, total = api_differences(parent, change)
    for line in api:
        print(line)
    print(f"api: {len(api)} of {total} public names and attributes differ")
    return 1 if cli_differing or cases_differing or api else 0


if __name__ == "__main__":
    sys.exit(main())
