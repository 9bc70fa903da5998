"""Newton iteration for the discretized boundary value system.

No damping: every update is applied as-is, and the iteration stops once
the mean absolute correction over all d*(N+1) unknowns drops to the
tolerance. A step is the full step J(U) delta = -residual(U), except
that a step predicted to end the solve first tries the simplified step
with the previous Jacobian's kept factors, J_old delta = -residual(U),
and takes it only when it ends the solve at Newton accuracy. From a
given field (a warm start) the second step is tried; otherwise a step is
tried when the last two corrections predict the end, from a cold
start's second correction on. A cold start on a grid of N >= 1280
intervals that 8 divides is made warm: it starts from the solution of
the grid N/8, prolonged. The threshold keeps every coarse grid at 160
intervals or more; a rougher one saves no Jacobians on the alg map, or
misses the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .grids import QuasiUniformGrid, _integer, _real
# newton_solve calls linear_solve and the scheme's functions through these
# module globals, so that rebinding one here (perfbench's tracer, the
# counting tests) sees every call
from .linsolve import SingularSystemError, linear_solve
from .problems import BvpProblem, initial_field
from .scheme import JACOBIAN_MODES, EvaluationError, assemble_jacobian, assemble_residual, prolong

__all__ = [
    "SolverConfig",
    "SolveResult",
    "newton_solve",
    "sweep",
]

# Smallest grid whose cold solve starts from the grid N/8 (newton_solve),
# so that every coarse grid has at least 160 intervals. From N = 320 the
# coarse grid 40 is too rough: on the alg map a solve then takes 5
# Jacobians in all instead of 3, and is slower. From N = 640 it is
# faster, but its kept end step on alg misses a tol = 1e-12 answer by up
# to 1.9e-7 (Falkner-Skan, P <= 0). From N = 1280 the worst of 160
# surveyed cases (both maps, P = 2 to -0.18 and the pile) misses by 6.5e-9.
_COARSE_START_N = 1280


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration controls.

    tol is a real number > 0 and max_iter an integer >= 1, read by
    grids._real and grids._integer. jacobian_mode is "analytic" or "fd",
    passed as is to assemble_jacobian, whose docstring says where each
    derivative comes from. The last-interval rule is the grid's: see
    build_grid(..., continuation=).
    """

    tol: float = 1e-6
    max_iter: int = 50
    jacobian_mode: str = "analytic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tol", _real(self.tol, "tolerance", positive=True))
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter", least=1))
        if self.jacobian_mode not in JACOBIAN_MODES:
            raise ValueError(f"unknown jacobian mode {self.jacobian_mode!r}")


@dataclass(eq=False)
class SolveResult:
    """Grid solution with iteration diagnostics.

    solution has shape (N+1, d); increments records the mean absolute
    correction of every applied Newton step, one per iteration, on this
    grid only: a coarse solve that started a cold one is not counted.
    converged means reason is None; reason says why any other solve stopped.
    """

    solution: np.ndarray
    increments: list[float]
    reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.reason is None

    @property
    def iterations(self) -> int:
        return len(self.increments)


def _mean_abs(x: np.ndarray) -> float:
    """The mean absolute entry of x, the same double as np.mean(np.abs(x)),
    from the reduction that np.mean calls, without its Python wrapper."""
    return float(np.add.reduce(np.abs(x), axis=None) / x.size)


def newton_solve(problem: BvpProblem, grid: QuasiUniformGrid, initial=None,
                 config: SolverConfig | None = None) -> SolveResult:
    """Run Newton on the discrete system.

    initial is a field of shape (N+1, d) or None for a cold start. A
    cold start on a QuasiUniformGrid with N >= 1280 that 8 divides first
    solves the grid N/8 of the same map and rule with the same config,
    itself through newton_solve (10240 goes through 1280, then 160), and
    starts from that solution prolonged three times, as from a given
    initial. Newton is mesh independent (Allgower, Boehmer, Potra &
    Rheinboldt, SIAM J. Numer. Anal. 23, 1986), so the coarse grid takes
    the fine grid's early steps at about 1/8 of their cost; below
    N = 1280 the coarse grid is too rough to save Jacobians on the alg
    map or to keep the answer (_COARSE_START_N). increments and
    iterations count this grid's steps only. Every other cold start, and
    one whose coarse solve does not converge, starts from the problem's
    default iterate.

    Convergence means the mean absolute correction fell to config.tol.
    Every other exit returns converged=False with a reason, raising no
    exception and no numpy warning: "did not converge in M iterations"
    at max_iter, else "iteration k: " and the message of the
    EvaluationError or SingularSystemError iteration k met, or
    "correction is not finite" when its correction is not finite or
    overflows the iterate. Those record an increment of inf and keep the
    last finite iterate. Malformed input still raises ValueError.

    Steps are full Newton steps, except the one that should end the
    solve: it first tries the simplified step that reuses the previous
    Jacobian's factors (Deuflhard, Newton Methods for Nonlinear Problems,
    2004) and keeps it only if it ends the solve at Newton accuracy;
    otherwise the Jacobian is assembled anew at the same iterate. Its
    contraction is measured over the components problem.limits names,
    whose far field is finite, while the stop reads all d*(N+1)
    unknowns. A start from a field (given, or the coarse grid's) is a
    warm start and tries at the second step. From the default iterate
    the last two corrections m_{k-2}, m_{k-1} predict the end: the step
    is tried when m_{k-1}**2 <= tol * m_{k-2}, from the second
    correction on, since the first measures the distance from the
    default iterate rather than a contraction, so the first three steps
    are always full steps.
    """
    config = config if config is not None else SolverConfig()
    if initial is None and isinstance(grid, QuasiUniformGrid) \
            and grid.N >= _COARSE_START_N and grid.N % 8 == 0:
        rule = grid.continuation
        # grids.build_grid is looked up at call time, so that a rebinding
        # of it (perfbench's tracer) also sees these grids
        coarse_grid = grids.build_grid(grid.map, grid.N // 8, continuation=rule)
        coarse = newton_solve(problem, coarse_grid, config=config)
        if coarse.converged:
            initial = prolong(coarse_grid, coarse.solution)
            for n in (grid.N // 4, grid.N // 2):
                initial = prolong(grids.build_grid(grid.map, n, continuation=rule), initial)
    warm = initial is not None
    if initial is None:
        U = initial_field(problem, grid)
    else:
        U = np.array(initial, dtype=float, copy=True)
        if not np.logical_and.reduce(np.isfinite(U), axis=None):
            raise ValueError("initial field must be finite")

    tol = config.tol
    increments: list[float] = []
    reason = f"did not converge in {config.max_iter} iterations"
    jacobian = previous = None
    for iteration in range(1, config.max_iter + 1):
        try:
            residual = assemble_residual(problem, grid, U)
            delta = None
            # Tried only where it should end the solve (see the docstring).
            # With theta = |delta| / |previous delta| over problem.limits
            # estimating the contraction, a tried step is kept when it is
            # below tol and leaves an error theta*|delta| below tol**2.
            if jacobian is not None and (warm if len(increments) == 1
                                         else (warm or len(increments) > 2)
                                         and increments[-1] ** 2 <= tol * increments[-2]):
                delta = linear_solve(jacobian, -residual)
                m = _mean_abs(delta)
                far, last = (_mean_abs(step[:, problem.limits]) for step in (delta, previous))
                theta = far / last if last > 0.0 else math.inf
                if not (m <= tol and m * theta <= tol * tol):
                    delta = None
            if delta is None:
                # rebinding frees the old factors before the new ones are built
                jacobian = assemble_jacobian(problem, grid, U, config.jacobian_mode)
                delta = linear_solve(jacobian, -residual)
        except (EvaluationError, SingularSystemError) as exc:
            failure = str(exc)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                update = U + delta
                m = _mean_abs(delta)
            failure = None if np.logical_and.reduce(np.isfinite(update), axis=None) \
                else "correction is not finite"
        if failure is not None:
            increments.append(math.inf)
            reason = f"iteration {iteration}: {failure}"
            break
        U, previous = update, delta
        increments.append(m)
        if m <= tol:
            reason = None
            break
    return SolveResult(solution=U, increments=increments, reason=reason)


def sweep(problem: BvpProblem, grids, config: SolverConfig | None = None) -> list[SolveResult]:
    """Solve on each grid of a doubling family, in order; one result each.

    The first grid starts cold, as in newton_solve; every later grid from
    the previous grid's converged solution, prolonged, or cold again after
    a row that did not converge. A warm start that does not converge is
    solved again from the cold start, whose result is the row's: on a
    stretched map the prolonged solution can be a worse start than the
    default iterate (Falkner-Skan P = -0.15 on alg, N = 40 from N = 20).
    Raises ValueError before any solve unless each grid has twice the
    intervals of the one before.
    """
    for coarse, fine in zip(grids, grids[1:]):
        if fine.N != 2 * coarse.N:
            raise ValueError(f"sweep grids must double: {coarse.N} is followed by {fine.N}")
    results: list[SolveResult] = []
    for k, grid in enumerate(grids):
        result = None
        if k > 0 and results[-1].converged:
            initial = prolong(grids[k - 1], results[-1].solution)
            result = newton_solve(problem, grid, initial=initial, config=config)
        if result is None or not result.converged:
            result = newton_solve(problem, grid, config=config)
        results.append(result)
    return results
