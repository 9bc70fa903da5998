"""Workloads, exact references and the grading rule of the solve benchmark.

A solve counts as ok only when it raises nothing, reports converged, leaks
no RuntimeWarning and every report scalar lies within tolerance(N) of its
exact value. A failed answer falls into exactly one class of
FAILURE_CLASSES, the first that applies in that order. A Richardson value
from the CLI extrapolate subcommand is graded the same way against
RICHARDSON_TOL.

Every case goes through a public entry point, looked up on its module at
call time (infbvp.cli.main or infbvp.newton.newton_solve), so the traced
run sees the same calls through its wrappers.
"""

from __future__ import annotations

import csv
import io
import json
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from infbvp import cli, grids, newton, problems

# Exact values of every report scalar; none depends on the map constant c.
# fpp_inf is the shear at x = inf, which vanishes for the exact solution.
FALKNER_SKAN_1 = {"fpp0": 1.232588, "fpp_inf": 0.0}
FALKNER_SKAN_HALF = {"fpp0": 0.927681, "fpp_inf": 0.0}
PILE = {"u0": 1.421544, "du0": -0.8081479}

# Measured: 40 passes every log-map solve from N = 20 to 1280 and flags
# the falkner-skan/alg N = 160 answer of 1.22930 (error 3.3e-3), while a
# pivoted LU answer there (1.23207, error 5.2e-4) passes.
TOL_CONST = 40.0
# The references carry six or seven decimals: pile u0 = 1.421544 while the
# log-map values converge to 1.4215447. So no check is tighter than this,
# which only matters above N = 6300 (the fine-grid workload).
REF_ACCURACY = 1e-6
# Richardson values of the paper sweep land within 1.3e-6 of exact.
RICHARDSON_TOL = 1e-5
FAILURE_CLASSES = ("exception", "nonconverged", "warning", "inaccurate")

SWEEP_NS = (20, 40, 80, 160, 320, 640, 1280)
C_RANGE = (4.5, 5.5)
# Newton iteration counts on the fine-grid and stretched cases jump with c
# (falkner-skan, alg, N = 1280: anywhere from 8 to 50 over [4.5, 5.5]), so
# a seeded c there would change the work of a pass from seed to seed.
# Those cases keep the CLI default.
C_FIXED = 5.0


@dataclass(frozen=True)
class Outcome:
    """Graded answer of one solve or one extrapolation."""

    label: str
    kind: str                   # "solve" or "richardson"
    N: int
    failure: str | None         # one of FAILURE_CLASSES, None when ok
    iterations: int | None
    errors: dict[str, float]    # |value - exact| per report scalar returned
    detail: str = ""


def tolerance(N: int) -> float:
    return max(TOL_CONST / N**2, REF_ACCURACY)


def grade(label: str, kind: str, N: int, tol: float, exact: dict[str, float], *,
          raised: str | None, converged: bool, warned: bool,
          iterations: int | None, values: dict[str, float]) -> Outcome:
    errors = {q: abs(values[q] - exact[q]) for q in exact if q in values}
    if raised is not None:
        failure = "exception"
    elif not converged:
        failure = "nonconverged"
    elif warned:
        failure = "warning"
    elif len(errors) < len(exact) or not all(err <= tol for err in errors.values()):
        failure = "inaccurate"
    else:
        failure = None
    return Outcome(label, kind, N, failure, iterations, errors, raised or "")


def _runtime_warnings(caught) -> bool:
    return any(issubclass(w.category, RuntimeWarning) for w in caught)


def call_cli(argv: list[str]) -> tuple[int, str, str, bool]:
    """Run infbvp.cli.main in-process the way a shell user would, with
    stdout and stderr captured. Returns (exit code, stdout, stderr, whether
    a RuntimeWarning leaked)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped error is a graded failure
                print(f"error: {type(exc).__name__}: {exc}", file=err)
                code = -1
    return code, out.getvalue(), err.getvalue(), _runtime_warnings(caught)


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


@dataclass
class SweepCase:
    """CLI sweep --raw over SWEEP_NS, then CLI extrapolate per quantity."""

    label: str
    problem_args: list[str]
    exact: dict[str, float]
    c: float
    ns: tuple[int, ...] = SWEEP_NS

    def run(self, workdir: Path) -> tuple[list[Outcome], int]:
        path = workdir / "sweep.csv"
        argv = ["sweep", *self.problem_args, "--map", "log", "--c", repr(self.c),
                "--N", ",".join(map(str, self.ns)), "--raw", "--out", str(path)]
        path.unlink(missing_ok=True)
        code, out, err, warned = call_cli(argv)
        nbytes = len(out.encode()) + len(err.encode())
        path_rows = {}
        if path.exists():
            nbytes += path.stat().st_size
            with open(path, newline="") as handle:
                path_rows = {int(row["N"]): row for row in csv.DictReader(handle)}
        outcomes = []
        for n in self.ns:
            row = path_rows.get(n)
            returned = row is not None and row["iterations"] != ""
            values = {q: float(row[q]) for q in self.exact} if returned else {}
            # A warning cannot be tied to one grid from outside the CLI, so
            # it fails every solve of the sweep.
            outcomes.append(grade(
                f"{self.label} N={n}", "solve", n, tolerance(n), self.exact,
                raised=None if returned else (_first_line(err) or f"exit {code}"),
                converged=returned and row["converged"] == "true", warned=warned,
                iterations=int(row["iterations"]) if returned else None,
                values=values))
        if any(o.iterations is None for o in outcomes):
            return outcomes, nbytes  # extrapolate cannot read empty cells
        for q in self.exact:
            code, out, err, warned = call_cli(
                ["extrapolate", str(path), "--quantity", q, "--format", "json", "--raw"])
            nbytes += len(out.encode()) + len(err.encode())
            values = {q: float(json.loads(out)["columns"][-1][-1])} if code == 0 else {}
            outcomes.append(grade(
                f"{self.label} richardson {q}", "richardson", self.ns[-1], RICHARDSON_TOL,
                {q: self.exact[q]}, raised=None if code == 0 else _first_line(err),
                converged=True, warned=warned, iterations=None, values=values))
        path.unlink()
        return outcomes, nbytes


@dataclass
class CliSolveCase:
    """CLI solve --raw --out: the node table goes to a file, the summary
    (converged, iterations, report scalars) to stdout."""

    label: str
    problem_args: list[str]
    exact: dict[str, float]
    N: int
    c: float

    def run(self, workdir: Path) -> tuple[list[Outcome], int]:
        path = workdir / "solve.csv"
        argv = ["solve", *self.problem_args, "--map", "log", "--c", repr(self.c),
                "--N", str(self.N), "--raw", "--out", str(path)]
        path.unlink(missing_ok=True)
        code, out, err, warned = call_cli(argv)
        nbytes = len(out.encode()) + len(err.encode())
        summary = {row[0]: row[1] for row in csv.reader(io.StringIO(out)) if len(row) == 2}
        returned = "converged" in summary
        raised = None if returned else (_first_line(err) or f"exit {code}")
        values = {q: float(summary[q]) for q in self.exact if q in summary}
        if returned:
            nbytes += path.stat().st_size
            if not self._table_ok(path):
                values = {}  # a broken node table grades as inaccurate
            path.unlink()
        outcome = grade(self.label, "solve", self.N, tolerance(self.N), self.exact,
                        raised=raised, converged=summary.get("converged") == "true",
                        warned=warned, values=values,
                        iterations=int(summary["iterations"]) if returned else None)
        return [outcome], nbytes

    def _table_ok(self, path: Path) -> bool:
        """The file holds a header and N+1 node rows ending at x = inf."""
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        return len(rows) == self.N + 2 and rows[-1][1] == "inf"


@dataclass
class DirectCase:
    """newton_solve on a grid built here, bypassing the CLI."""

    label: str
    problem: problems.BvpProblem
    exact: dict[str, float]
    kind: str
    N: int
    c: float
    config: newton.SolverConfig

    def run(self, workdir: Path) -> tuple[list[Outcome], int]:
        raised, result = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                grid = grids.build_grid(grids.GridMap(self.kind, self.c), self.N)
                result = newton.newton_solve(self.problem, grid, config=self.config)
            except Exception as exc:  # any error from the solver is a graded failure
                raised = f"{type(exc).__name__}: {exc}"
        values = {} if result is None else {
            q: problems.report_scalar(self.problem, result, q) for q in self.exact}
        outcome = grade(self.label, "solve", self.N, tolerance(self.N), self.exact,
                        raised=raised, converged=result is not None and result.converged,
                        warned=_runtime_warnings(caught), values=values,
                        iterations=None if result is None else result.iterations)
        return [outcome], 0


FS1_ARGS = ["--problem", "falkner-skan", "--P", "1"]
FS_HALF_ARGS = ["--problem", "falkner-skan", "--P", "0.5"]
PILE_ARGS = ["--problem", "pile"]


def _draw_c(rng: random.Random) -> float:
    return rng.uniform(*C_RANGE)


def paper_sweep(rng: random.Random) -> list:
    return [SweepCase("falkner-skan P=1", FS1_ARGS, FALKNER_SKAN_1, _draw_c(rng)),
            SweepCase("falkner-skan P=0.5", FS_HALF_ARGS, FALKNER_SKAN_HALF, _draw_c(rng)),
            SweepCase("pile", PILE_ARGS, PILE, _draw_c(rng))]


def fine_grid(rng: random.Random) -> list:
    return [CliSolveCase("falkner-skan P=1 log N=10240", FS1_ARGS, FALKNER_SKAN_1, 10240, C_FIXED),
            CliSolveCase("pile log N=10240", PILE_ARGS, PILE, 10240, C_FIXED)]


def _direct(rng, kind: str, ns, config: newton.SolverConfig, seeded_c: bool) -> list:
    cases = []
    for name, factory, exact in (("falkner-skan P=1", lambda: problems.falkner_skan(1.0),
                                  FALKNER_SKAN_1),
                                 ("pile", problems.pile, PILE)):
        for n in ns:
            cases.append(DirectCase(f"{name} {kind} N={n}", factory(), exact, kind, n,
                                    _draw_c(rng) if seeded_c else C_FIXED, config))
    return cases


def fd_jacobian(rng: random.Random) -> list:
    return _direct(rng, "log", (160, 320, 640, 1280),
                   newton.SolverConfig(jacobian_mode="fd"), seeded_c=True)


def stretched(rng: random.Random) -> list:
    return _direct(rng, "alg", (160, 1280), newton.SolverConfig(), seeded_c=False)


WORKLOADS = {
    "paper-sweep": paper_sweep,
    "fine-grid": fine_grid,
    "fd-jacobian": fd_jacobian,
    "stretched": stretched,
}


def build(workload: str, seed: int) -> list:
    """The workload's cases for this seed, in the seed's shuffled order."""
    rng = random.Random(seed)
    cases = WORKLOADS[workload](rng)
    rng.shuffle(cases)
    return cases


def warm_up(workdir: Path) -> None:
    """One small call down every path a workload takes, untimed."""
    for case in (SweepCase("warm-up", PILE_ARGS, PILE, C_FIXED, ns=(20, 40)),
                 CliSolveCase("warm-up", PILE_ARGS, PILE, 20, C_FIXED),
                 DirectCase("warm-up", problems.pile(), PILE, "log", 20, C_FIXED,
                            newton.SolverConfig(jacobian_mode="fd"))):
        case.run(workdir)


def source_files(root: Path) -> list[Path]:
    """Files whose content fixes the counts of a run: program and benchmark."""
    return sorted([*(root / "src" / "infbvp").glob("*.py"),
                   *Path(__file__).parent.glob("*.py")])
