"""Newton iteration for the discretized boundary value system.

No damping: every update is applied as-is, and the iteration stops once
the mean absolute correction over all d*(N+1) unknowns drops to the
tolerance. A step is the full step J(U) delta = -residual(U), except
that a step predicted to end the solve first tries the simplified step
with the previous Jacobian's kept factors, J_old delta = -residual(U),
and takes it only when it ends the solve at Newton accuracy. From a
given field (a warm start) the second step is tried; otherwise a step is
tried when the last two corrections predict the end, from a cold
start's second correction on. A cold start on a grid of N >= 2560
intervals that 8 divides is made warm: it starts from the solution of
the grid N/8, prolonged.

The linear stage exploits the block structure: N interval block rows,
each coupling two neighbouring nodes, closed by one boundary block row
that couples node 0 and the node at infinity. It is solved by the
structured-QR cyclic reduction of Wright, "Stable parallel algorithms for
two-point boundary value problems" (SIAM J. Sci. Stat. Comput. 13, 1992).
Each level pairs adjacent block rows and removes the node they share.
All pairs of a level sit in one augmented slab, the pair blocks with the
rows' other blocks and right-hand sides, and d Householder reflections
applied in place triangularize every pair block at once. This repeats
until at most 16 block rows remain. Those rows and the boundary row form
one dense system on the remaining nodes, solved by one Householder QR,
and back-substitution recovers the removed nodes level by level.
Orthogonal transforms keep the growing modes of the linearization from
being amplified, which condensation onto delta_0 (discrete shooting)
does not, and the tail is QR rather than LU for the same reason: partial
pivoting can be unstable on exactly these matrices (Wright, "A
collection of problems for which Gaussian elimination with partial
pivoting is unstable", SIAM J. Sci. Comput. 14, 1993).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .grids import QuasiUniformGrid
from .problems import BvpProblem, initial_field
from .scheme import (EvaluationError, StructuredJacobian, assemble_jacobian, assemble_residual,
                     prolong)

__all__ = [
    "SingularSystemError",
    "SolverConfig",
    "SolveResult",
    "linear_solve",
    "newton_solve",
    "sweep",
]

_EPS = float(np.finfo(float).eps)
# Reduction stops at this many block rows: below it a level's fixed cost
# of some 10 d small numpy calls outweighs one dense QR of the rest.
_TAIL_ROWS = 16
# Smallest grid whose cold solve starts from the grid N/8 (newton_solve):
# below it the gain was within noise, and a jump of 64 rather than 8
# (N = 20 to 1280) reached a different solution.
_COARSE_START_N = 2560


class SingularSystemError(RuntimeError):
    """The structured linear system could not be factorized."""


@dataclass
class SolverConfig:
    """Newton iteration controls.

    jacobian_mode is "analytic", "fd", or None to pick analytic whenever
    the problem carries closed-form derivatives. The last-interval rule
    is the grid's: see build_grid(..., continuation=).
    """

    tol: float = 1e-6
    max_iter: int = 50
    jacobian_mode: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if int(self.max_iter) < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.jacobian_mode not in (None, "analytic", "fd"):
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

    @property
    def final_increment(self) -> float:
        return self.increments[-1]


def linear_solve(jacobian: StructuredJacobian, rhs) -> np.ndarray:
    """Solve jacobian @ delta = rhs; returns the correction field (N+1, d).

    Structured-QR cyclic reduction: about log2(N / 16) levels and
    O(d^3 N) work. Each level stacks its p pairs of block rows into one
    augmented (2d, 3d+1, p) slab, pairs on the last axis, and
    triangularizes the shared node's d columns of every pair at once with
    d Householder reflections applied in place to the slab, so Q is never
    formed. Once at most 16 rows remain, they and the boundary row make
    one dense (m+1)d x (m+1)d system on the level's m+1 nodes, which one
    Householder QR (np.linalg.qr) and a triangular solve finish.

    The first call on a Jacobian factors it, with rhs carried in the
    slabs, and keeps the factors on it: each level's slab, which holds
    the reflection vectors, with each reflection's scaled vector and
    diagonal, and the tail's Q and R. Its blocks become read-only. A
    later call on the same Jacobian replays the factors on its rhs, with
    no refactorization: the stored reflections applied to the slabs' rhs
    column level by level, Q.T and the solve with R, then the same
    back-substitution. That column is the one piece of a slab a solve
    writes, so one Jacobian serves one solve at a time.
    Raises SingularSystemError, naming the node, when a pair block is
    rank-deficient or the dense tail has a zero pivot; such a Jacobian
    keeps no factors, so another call raises the same error.
    """
    d, N = jacobian.d, jacobian.N
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != ((N + 1) * d,):
        raise ValueError(f"rhs length {rhs.shape} does not match system size {(N + 1) * d}")
    r = rhs[: N * d].reshape(N, d).T
    factors = jacobian._factors
    # Non-finite blocks are not flagged: their NaNs reach delta, which
    # newton_solve reports as a diverged iterate, and no warning leaks.
    with np.errstate(all="ignore"):
        if factors is None:
            (levels, Q, R), r = _factor(jacobian, r)
        else:
            levels, Q, R = factors
            r = _replay(levels, r)
        try:
            x = np.linalg.solve(R, Q.T @ np.concatenate((r.T.ravel(), rhs[N * d:])))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"end system on nodes 0 and {N} is singular") from exc
        # x holds the solution on the tail level's nodes, components first.
        x = _back_substitute(levels, x.reshape(-1, d).T)
    if factors is None:
        for block in (jacobian.dU_n, jacobian.dU_next, jacobian.dg_0, jacobian.dg_N):
            block.setflags(write=False)
        object.__setattr__(jacobian, "_factors", (levels, Q, R))
    return x.T.copy()


def _factor(jacobian: StructuredJacobian, r: np.ndarray):
    """The reduction with the rhs rows r (d, N) carried in the slabs, and
    the QR factors of the dense tail.

    Returns the factors (levels, Q, R) and the rhs rows left for the
    tail. levels holds per level the (2d, 3d+1, p) slab, the diagonals
    alpha as one (d, p) array, row j for reflection j, and per
    reflection j the scaled reflection vector v / (alpha_j v_1) of shape
    (2d-j, p); the vectors v themselves stay in the slab's columns.
    Raises SingularSystemError at the first level with a rank-deficient
    pair block, naming the node its first such pair shares.
    """
    d = jacobian.d
    # Row k of a level reads left[k] @ x[k] + right[k] @ x[k+1] = r[k] on
    # the level's own nodes, held components first with rows on the last
    # axis: left[:, :, k]. Rows 2k and 2k+1 share node 2k+1. Their slab
    # has the columns [shared node | outer node of row 2k+1 | outer node
    # of row 2k | rhs]; once the shared columns are triangular, the top d
    # rows recover the shared node and the bottom d rows are the next
    # level's rows [right | left | r]. An odd row out is carried up as is.
    left = jacobian.dU_n.transpose(1, 2, 0)
    right = jacobian.dU_next.transpose(1, 2, 0)
    levels = []
    while r.shape[-1] > _TAIL_ROWS:
        m = r.shape[-1]
        p = m // 2
        slab = np.zeros((2 * d, 3 * d + 1, p))
        slab[:d, :d] = right[..., : 2 * p: 2]
        slab[:d, 2 * d: 3 * d] = left[..., : 2 * p: 2]
        slab[:d, 3 * d] = r[..., : 2 * p: 2]
        slab[d:, :d] = left[..., 1: 2 * p: 2]
        slab[d:, d: 2 * d] = right[..., 1: 2 * p: 2]
        slab[d:, 3 * d] = r[..., 1: 2 * p: 2]
        shared = slab[:, :d]
        scale = np.sqrt(np.einsum("ijk,ijk->jk", shared, shared))
        alphas, scaled = np.empty((d, p)), []
        for j in range(d):
            # H = I - 2 v v^T / (v^T v) with v = x + alpha e_1 maps
            # column x to -alpha e_1, and v^T v = 2 alpha v_1. Column j
            # keeps v, and alpha = -R_jj is kept for back-substitution.
            v = slab[j:, j]
            alpha = np.copysign(np.sqrt(np.einsum("ik,ik->k", v, v)), v[0], out=alphas[j])
            v[0] += alpha
            rest = slab[j:, j + 1:]
            scaled.append(v / (alpha * v[0]))
            rest -= scaled[j][:, None] * np.einsum("ik,ijk->jk", v, rest)
        # |alpha| is the pivot, and one at roundoff of its column's norm
        # leaves the shared node undetermined. Only a level's last node is
        # ever carried, so pair k of level l shares grid node (2k+1) 2^l.
        deficient = (np.abs(alphas) <= (2 * d * _EPS) * scale) & np.isfinite(scale)
        if deficient.any():
            pair = int(np.argmax(deficient.any(axis=0)))
            raise SingularSystemError("cyclic reduction hit a rank-deficient pair block at node "
                                      f"{(2 * pair + 1) << len(levels)}")
        levels.append((slab, alphas, scaled))
        rows = (slab[d:, d: 2 * d], slab[d:, 2 * d: 3 * d], slab[d:, 3 * d])
        if m > 2 * p:
            rows = [np.concatenate((new, old[..., 2 * p:]), axis=-1)
                    for new, old in zip(rows, (right, left, r))]
        right, left, r = rows

    # The m remaining rows and the boundary row, in grid order, as one
    # dense system; only an exactly zero pivot of R is refused.
    m = r.shape[-1]
    n = (m + 1) * d
    system = np.zeros((m + 1, d, m + 1, d))
    k = np.arange(m)
    system[k, :, k] = left.transpose(2, 0, 1)
    system[k, :, k + 1] = right.transpose(2, 0, 1)
    system[m, :, 0], system[m, :, m] = jacobian.dg_0, jacobian.dg_N
    Q, R = np.linalg.qr(system.reshape(n, n))
    return (levels, Q, R), r


def _replay(levels, r: np.ndarray) -> np.ndarray:
    """_factor's reduction of new rhs rows r (d, N), written to the
    slabs' rhs column and reflected there alone; returns the tail rows."""
    for slab, _, scaled in levels:
        d, p = len(scaled), slab.shape[-1]
        column = slab[:, 3 * d]
        column[:d] = r[:, : 2 * p: 2]
        column[d:] = r[:, 1: 2 * p: 2]
        for j in range(d):
            column[j:] -= scaled[j] * np.einsum("ik,ik->k", slab[j:, j], column[j:])
        r = column[d:] if r.shape[-1] == 2 * p else np.concatenate((column[d:], r[:, 2 * p:]), axis=-1)
    return r


def _back_substitute(levels, x: np.ndarray) -> np.ndarray:
    """Recover the removed nodes level by level, from the solution x
    (d, m+1) on the tail level's nodes; returns it on all N+1 nodes.

    With a pair's unknowns z in slab column order and -1 for the rhs,
    top row i reads -alpha_i z[i] + sum_{c>i} slab[i, c] z[c] = 0.
    """
    for slab, alphas, _ in reversed(levels):
        d, p = alphas.shape
        z = np.empty((3 * d + 1, p))
        z[d: 2 * d] = x[:, 1: p + 1]
        z[2 * d: 3 * d] = x[:, :p]
        z[3 * d] = -1.0
        for i in range(d - 1, -1, -1):
            z[i] = np.einsum("jk,jk->k", slab[i, i + 1:], z[i + 1:]) / alphas[i]
        finer = np.empty((d, x.shape[1] + p))
        finer[:, : 2 * p + 1: 2] = x[:, : p + 1]
        finer[:, 1: 2 * p: 2] = z[:d]
        finer[:, 2 * p + 1:] = x[:, p + 1:]
        x = finer
    return x


def newton_solve(problem: BvpProblem, grid: QuasiUniformGrid, initial=None,
                 config: SolverConfig | None = None) -> SolveResult:
    """Run Newton on the discrete system.

    initial is a field of shape (N+1, d) or None for a cold start. A
    cold start on a QuasiUniformGrid with N >= 2560 that 8 divides first
    solves the grid N/8 of the same map and rule with the same config,
    itself through newton_solve, and starts from that solution prolonged
    three times, as from a given initial. Newton is mesh independent
    (Allgower, Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23,
    1986), so the coarse grid takes the fine grid's early steps at about
    1/8 of their cost. increments and iterations count this grid's
    steps only. Every other cold start, and one whose coarse solve does
    not converge, starts from the problem's default iterate.

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
    otherwise the Jacobian is assembled anew at the same iterate. A
    start from a field (given, or the coarse grid's) is a warm start and
    tries at the second step. From the default iterate the last two
    corrections m_{k-2}, m_{k-1} predict the end: the step is tried when
    m_{k-1}**2 <= tol * m_{k-2}, from the second correction on, since
    the first measures the distance from the default iterate rather than
    a contraction, so the first three steps are always full steps.
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
        if not np.all(np.isfinite(U)):
            raise ValueError("initial field must be finite")

    if config.jacobian_mode is not None:
        mode = config.jacobian_mode
    elif problem.df_du is not None and problem.dg is not None:
        mode = "analytic"
    else:
        mode = "fd"

    tol = config.tol
    increments: list[float] = []
    reason = f"did not converge in {int(config.max_iter)} iterations"
    jacobian = None
    for iteration in range(1, int(config.max_iter) + 1):
        try:
            residual = assemble_residual(problem, grid, U)
            delta = None
            # Tried only where it should end the solve (see the docstring).
            # With theta = |delta| / |previous delta| estimating the
            # contraction, a tried step is kept when it is below tol and
            # leaves an error theta*|delta| below tol**2.
            if jacobian is not None and (warm if len(increments) == 1
                                         else (warm or len(increments) > 2)
                                         and increments[-1] ** 2 <= tol * increments[-2]):
                delta = linear_solve(jacobian, -residual)
                m = float(np.mean(np.abs(delta)))
                if not (m <= tol and m * (m / increments[-1]) <= tol * tol):
                    delta = None
            if delta is None:
                # rebinding frees the old factors before the new ones are built
                jacobian = assemble_jacobian(problem, grid, U, mode)
                delta = linear_solve(jacobian, -residual)
        except (EvaluationError, SingularSystemError) as exc:
            failure = str(exc)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                update = U + delta
                m = float(np.mean(np.abs(delta)))
            failure = None if np.all(np.isfinite(update)) else "correction is not finite"
        if failure is not None:
            increments.append(math.inf)
            reason = f"iteration {iteration}: {failure}"
            break
        U = update
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
