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

The linear stage exploits the block structure: N interval block rows,
each coupling two neighbouring nodes, closed by one boundary block row
that couples node 0 and the node at infinity. It is solved by the
structured-QR cyclic reduction of Wright, "Stable parallel algorithms for
two-point boundary value problems" (SIAM J. Sci. Stat. Comput. 13, 1992).
Each level pairs adjacent block rows and removes the node they share.
All pairs of a level sit in one augmented slab, the pair blocks with the
rows' other blocks and right-hand sides, and d Householder reflections
applied in place triangularize every pair block at once. This repeats
while more than 64 block rows remain, or more than 16 that four does not
divide. Below that a level costs numpy's per-call floor whatever its
size, so one grouped stage takes the rest: the same orthogonal
elimination on runs of four consecutive rows, whose three interior nodes
go with one batched Householder QR of every group's interior columns.
The at most 16 rows left and the boundary row form one dense system on
the remaining nodes, solved by one Householder QR, and back-substitution
recovers the removed nodes, the groups' first. Orthogonal transforms
keep the growing modes of the linearization from being amplified, which
condensation onto delta_0 (discrete shooting) does not, and the tail is
QR rather than LU for the same reason: partial pivoting can be unstable
on exactly these matrices (Wright, "A collection of problems for which
Gaussian elimination with partial pivoting is unstable", SIAM J. Sci.
Comput. 14, 1993).
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
# A system of at most this many block rows goes to the dense tail as it
# is: below it a reduction's fixed cost of small numpy calls outweighs
# one dense QR of the rest.
_TAIL_ROWS = 16
# Pairwise levels run while more than _GROUPED_ROWS rows remain, or more
# than _TAIL_ROWS that _GROUP_ROWS does not divide; below that a level
# costs numpy's per-call floor whatever its size. Then one grouped stage
# removes the interior nodes of every _GROUP_ROWS consecutive rows with
# one batched QR, leaving at most _TAIL_ROWS rows.
_GROUP_ROWS = 4
_GROUPED_ROWS = _GROUP_ROWS * _TAIL_ROWS
# Smallest grid whose cold solve starts from the grid N/8 (newton_solve),
# so that every coarse grid has at least 160 intervals. From N = 320 the
# coarse grid 40 is too rough: on the alg map a solve then takes 5
# Jacobians in all instead of 3, and is slower. From N = 640 it is
# faster, but its kept end step on alg misses a tol = 1e-12 answer by up
# to 1.9e-7 (Falkner-Skan, P <= 0). From N = 1280 the worst of 160
# surveyed cases (both maps, P = 2 to -0.18 and the pile) misses by 6.5e-9.
_COARSE_START_N = 1280


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

    Structured-QR cyclic reduction in O(d^3 N) work. While more than 64
    block rows remain, or more than 16 that four does not divide, a
    pairwise level stacks its p pairs of block rows into one augmented
    (2d, 3d+1, p) slab, pairs on the last axis, and triangularizes the
    shared node's d columns of every pair at once with d Householder
    reflections applied in place to the slab, so Q is never formed. Then,
    if more than 16 rows remain, the grouped stage removes the three
    interior nodes of each run of four rows at once: one batched
    Householder QR (np.linalg.qr) of the groups' (4d, 3d) interior
    columns, and one batched matmul that applies each group's Q.T to its
    rows, outer nodes and rhs included. The at most 16 rows left and the
    boundary row make one dense (m+1)d x (m+1)d system on the remaining
    m+1 nodes, which one Householder QR and a solve with R finish.

    The first call on a Jacobian factors it, with rhs carried along, and
    keeps the factors on it: each level's slab, which holds the reflection
    vectors, with each reflection's scaled vector and diagonal; the grouped
    stage's Q.T, R and the top rows Q.T made of each group's rows; and the
    tail's Q and R. Its blocks become read-only. A later call on the same
    Jacobian replays the factors on its rhs, with no refactorization: the
    stored reflections applied to the slabs' rhs column level by level,
    one matmul with the groups' Q.T, Q.T and the solve with R of the tail,
    then the same back-substitution. The rhs columns are the one piece of
    the factors a solve writes, so one Jacobian serves one solve at a time.
    Raises SingularSystemError, naming the node, when a pair or group block
    is rank-deficient or the dense tail has a zero pivot; such a Jacobian
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
            (levels, groups, Q, R), r = _factor(jacobian, r)
        else:
            levels, groups, Q, R = factors
            r = _replay(levels, groups, r)
        try:
            x = np.linalg.solve(R, Q.T @ np.concatenate((r.T.ravel(), rhs[N * d:])))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"end system on nodes 0 and {N} is singular") from exc
        # x holds the solution on the tail's nodes, components first.
        x = _back_substitute(levels, groups, x.reshape(-1, d).T)
    if factors is None:
        for block in (jacobian.dU_n, jacobian.dU_next, jacobian.dg_0, jacobian.dg_N):
            block.setflags(write=False)
        object.__setattr__(jacobian, "_factors", (levels, groups, Q, R))
    return x.T.copy()


def _factor(jacobian: StructuredJacobian, r: np.ndarray):
    """The reduction with the rhs rows r (d, N) carried along, and the QR
    factors of the dense tail.

    Returns the factors (levels, groups, Q, R) and the rhs rows left for
    the tail. levels holds per pairwise level the (2d, 3d+1, p) slab, the
    diagonals alpha as one (d, p) array, row j for reflection j, and per
    reflection j the scaled reflection vector v / (alpha_j v_1) of shape
    (2d-j, p); the vectors v themselves stay in the slab's columns. groups
    is the grouped stage's (Q.T, R, top), see _factor_groups, or None when
    the levels left at most 16 rows. Raises SingularSystemError at the first
    level with a rank-deficient pair or group block, naming the node its
    first such pair shares or its first such group removes.
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
    while (m := r.shape[-1]) > _GROUPED_ROWS or (m > _TAIL_ROWS and m % _GROUP_ROWS):
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

    groups = None
    if r.shape[-1] > _TAIL_ROWS:
        groups, (left, right, r) = _factor_groups(left, right, r, len(levels))

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
    return (levels, groups, Q, R), r


def _factor_groups(left: np.ndarray, right: np.ndarray, r: np.ndarray, levels: int):
    """The grouped stage on a level's rows left, right (d, d, m) and r
    (d, m), after `levels` pairwise levels, with G = 4 dividing m. Returns
    the kept (Q.T, R, top) and the rows (left, right, r) it leaves for the
    tail.

    The rows form q = m / G runs of G: group g couples nodes Gg .. G(g+1),
    and the G-1 between its two outer nodes are interior. None of them is
    the level's last node, so interior node k is grid node k 2^levels.
    The interior columns, (Gd, (G-1)d) and block bidiagonal, get one QR.
    R is its leading (G-1)d square, and Q.T turns the group's whole block,
    nodes in order and then the rhs, into top, its first (G-1)d rows, from
    which R recovers the interior nodes, and into the group's one next
    row, the last d rows on the outer nodes. A pivot of R at roundoff of
    its column's norm leaves that column's node undetermined and raises
    SingularSystemError naming it.
    """
    G = _GROUP_ROWS
    d, m = r.shape
    q = m // G
    # Row i of a group couples its nodes i and i+1: the group's rows are
    # one (Gd, (G+1)d+1) block, its nodes' columns in order, then the rhs.
    block = np.zeros((q, G, d, (G + 1) * d + 1))
    nodes = block[..., :-1].reshape(q, G, d, G + 1, d)
    i = np.arange(G)
    nodes[:, i, :, i] = left.reshape(d, d, q, G).transpose(3, 2, 0, 1)
    nodes[:, i, :, i + 1] = right.reshape(d, d, q, G).transpose(3, 2, 0, 1)
    block[..., -1] = r.reshape(d, q, G).transpose(1, 2, 0)
    block = block.reshape(q, G * d, -1)
    interior = block[..., d: G * d]
    Q, R = np.linalg.qr(interior, mode="complete")
    R = R[:, : (G - 1) * d]
    scale = np.sqrt(np.einsum("gij,gij->gj", interior, interior))
    pivots = np.abs(np.diagonal(R, axis1=1, axis2=2))
    deficient = (pivots <= (G * d * _EPS) * scale) & np.isfinite(scale)
    if deficient.any():
        group = int(np.argmax(deficient.any(axis=1)))
        node = G * group + 1 + int(np.argmax(deficient[group])) // d
        raise SingularSystemError("cyclic reduction hit a rank-deficient pair block at node "
                                  f"{node << levels}")
    QT = Q.transpose(0, 2, 1)
    block = QT @ block
    top, rows = block[:, : (G - 1) * d], block[:, (G - 1) * d:]
    return (QT, R, top), (rows[..., :d].transpose(1, 2, 0),
                          rows[..., G * d: -1].transpose(1, 2, 0), rows[..., -1].T)


def _replay(levels, groups, r: np.ndarray) -> np.ndarray:
    """_factor's reduction of new rhs rows r (d, N), written to the kept
    rhs columns and transformed there alone; returns the tail rows."""
    for slab, _, scaled in levels:
        d, p = len(scaled), slab.shape[-1]
        column = slab[:, 3 * d]
        column[:d] = r[:, : 2 * p: 2]
        column[d:] = r[:, 1: 2 * p: 2]
        for j in range(d):
            column[j:] -= scaled[j] * np.einsum("ik,ik->k", slab[j:, j], column[j:])
        r = column[d:] if r.shape[-1] == 2 * p else np.concatenate((column[d:], r[:, 2 * p:]), axis=-1)
    if groups is not None:
        QT, _, top = groups
        d, q = r.shape[0], top.shape[0]
        column = QT @ r.reshape(d, q, _GROUP_ROWS).transpose(1, 2, 0).reshape(q, -1, 1)
        top[..., -1] = column[:, :-d, 0]
        r = column[:, -d:, 0].T
    return r


def _back_substitute(levels, groups, x: np.ndarray) -> np.ndarray:
    """Recover the removed nodes, the grouped stage's and then level by
    level, from the solution x (d, m+1) on the tail's nodes; returns it on
    all N+1 nodes.

    A group's interior nodes z solve R z = top @ [-x_0 | 0 | -x_G | 1],
    with x_0 and x_G its outer nodes: top's interior columns are R itself.
    With a pair's unknowns z in slab column order and -1 for the rhs, top
    row i reads -alpha_i z[i] + sum_{c>i} slab[i, c] z[c] = 0.
    """
    if groups is not None:
        _, R, top = groups
        d, q = x.shape[0], R.shape[0]
        outer = np.zeros((q, top.shape[-1], 1))
        outer[:, :d, 0] = -x[:, :-1].T
        outer[:, _GROUP_ROWS * d: -1, 0] = -x[:, 1:].T
        outer[:, -1] = 1.0
        z = np.linalg.solve(R, top @ outer)
        nodes = np.empty((d, q, _GROUP_ROWS))
        nodes[..., 0] = x[:, :-1]
        nodes[..., 1:] = z.reshape(q, _GROUP_ROWS - 1, d).transpose(2, 0, 1)
        x = np.concatenate((nodes.reshape(d, -1), x[:, -1:]), axis=1)
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
