"""Newton iteration for the discretized boundary value system.

Full steps, no damping: the update solves J * delta = -residual and is
applied as-is, and the iteration stops once the mean absolute correction
over all d*(N+1) unknowns drops to the tolerance.

The linear stage exploits the block structure: N interval block rows,
each coupling two neighbouring nodes, closed by one boundary block row
that couples node 0 and the node at infinity. It is solved by the
structured-QR cyclic reduction of Wright, "Stable parallel algorithms for
two-point boundary value problems" (SIAM J. Sci. Stat. Comput. 13, 1992).
Each level pairs adjacent block rows and removes the node they share
with one orthogonal transform per pair, batched over all pairs, until a
single row couples node 0 and node N; the boundary row closes it as a
2d x 2d system, and back-substitution recovers the removed nodes level
by level. Orthogonal transforms keep the growing modes of the
linearization from being amplified, which condensation onto delta_0
(discrete shooting) does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import QuasiUniformGrid
from .problems import BvpProblem, initial_field
from .scheme import StructuredJacobian, assemble_jacobian, assemble_residual

__all__ = [
    "SingularSystemError",
    "SolverConfig",
    "SolveResult",
    "linear_solve",
    "newton_solve",
]

_EPS = float(np.finfo(float).eps)


class SingularSystemError(RuntimeError):
    """The structured linear system could not be factorized."""


@dataclass
class SolverConfig:
    """Newton iteration controls.

    jacobian_mode is "analytic", "fd", or None to pick analytic whenever
    the problem carries closed-form derivatives. continuation keeps the
    last-interval interpolation weights copied from the interval before
    it (turning it off reproduces the degenerate b = 0, c_w = 1 weights).
    """

    tol: float = 1e-6
    max_iter: int = 50
    jacobian_mode: str | None = None
    continuation: bool = True

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if int(self.max_iter) < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.jacobian_mode not in (None, "analytic", "fd"):
            raise ValueError(f"unknown jacobian mode {self.jacobian_mode!r}")


@dataclass(eq=False)
class SolveResult:
    """Grid solution with iteration diagnostics.

    solution has shape (N+1, d); increments records the mean absolute
    correction of every applied Newton step, so increments[-1] equals
    final_increment.
    """

    solution: np.ndarray
    iterations: int
    final_increment: float
    converged: bool
    increments: list[float] = field(default_factory=list)


def linear_solve(jacobian: StructuredJacobian, rhs) -> np.ndarray:
    """Solve jacobian @ delta = rhs; returns the correction field (N+1, d).

    Structured-QR cyclic reduction: ceil(log2 N) batched levels and
    O(d^3 N) work. Raises SingularSystemError, naming the node, when a
    pair block or the end system is rank-deficient.
    """
    d, N = jacobian.d, jacobian.N
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != ((N + 1) * d,):
        raise ValueError(f"rhs length {rhs.shape} does not match system size {(N + 1) * d}")

    # Row k of a level reads left[k] @ x[nodes[k]] + right[k] @ x[nodes[k+1]] = r[k].
    # Rows 2k and 2k+1 share node nodes[2k+1]; an orthogonal Q^T of the
    # pair zeroes that node's column in the bottom d rows, which become
    # the next level's row, and keeps the top d rows to recover it.
    nodes = np.arange(N + 1)
    left, right = jacobian.dU_n, jacobian.dU_next
    r = rhs[: N * d].reshape(N, d)
    levels = []
    while len(r) > 1:
        p = len(r) // 2
        coupling = np.concatenate((right[: 2 * p: 2], left[1: 2 * p: 2]), axis=1)
        Q, R = np.linalg.qr(coupling, mode="complete")
        # A pivot at roundoff of its column's norm leaves the shared node
        # undetermined. Non-finite blocks are not flagged: their NaNs
        # reach delta, which newton_solve reports as a diverged iterate.
        pivots = np.abs(np.diagonal(R, axis1=1, axis2=2))
        scale = np.linalg.norm(coupling, axis=1)
        rank_deficient = ((pivots <= (2 * d * _EPS) * scale) & np.isfinite(scale)).any(axis=1)
        if rank_deficient.any():
            node = int(nodes[2 * int(np.argmax(rank_deficient)) + 1])
            raise SingularSystemError(f"cyclic reduction hit a rank-deficient pair block at node {node}")
        Qt = Q.transpose(0, 2, 1)
        q_left = Qt[:, :, :d] @ left[: 2 * p: 2]
        q_right = Qt[:, :, d:] @ right[1: 2 * p: 2]
        q_rhs = (Qt @ r[: 2 * p].reshape(p, 2 * d, 1))[..., 0]
        levels.append((nodes, R[:, :d], q_left[:, :d], q_right[:, :d], q_rhs[:, :d]))
        left = np.concatenate((q_left[:, d:], left[2 * p:]))
        right = np.concatenate((q_right[:, d:], right[2 * p:]))
        r = np.concatenate((q_rhs[:, d:], r[2 * p:]))
        nodes = np.concatenate((nodes[: 2 * p + 1: 2], nodes[2 * p + 1:]))

    end_system = np.block([[left[0], right[0]], [jacobian.dg_0, jacobian.dg_N]])
    try:
        ends = np.linalg.solve(end_system, np.concatenate((r[0], rhs[N * d:])))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"end system on nodes 0 and {N} is singular") from exc
    delta = np.empty((N + 1, d))
    delta[0], delta[N] = ends[:d], ends[d:]
    for nodes, R, top_left, top_right, top_rhs in reversed(levels):
        p = len(R)
        known = (top_rhs[..., None] - top_left @ delta[nodes[: 2 * p: 2], :, None]
                 - top_right @ delta[nodes[2: 2 * p + 1: 2], :, None])
        delta[nodes[1: 2 * p: 2]] = np.linalg.solve(R, known)[..., 0]
    return delta


def newton_solve(problem: BvpProblem, grid: QuasiUniformGrid, initial=None,
                 config: SolverConfig | None = None) -> SolveResult:
    """Run full-step Newton on the discrete system.

    initial is a field of shape (N+1, d) or None for the problem's
    default iterate. Convergence means the mean absolute correction fell
    to config.tol; hitting max_iter or a non-finite iterate returns
    converged=False instead of raising.
    """
    config = config if config is not None else SolverConfig()
    if initial is None:
        U = initial_field(problem, grid)
    else:
        U = np.array(initial, dtype=float, copy=True)
        if U.shape != (grid.N + 1, problem.d):
            raise ValueError(f"initial field shape {U.shape} does not match "
                             f"({grid.N + 1}, {problem.d})")
        if not np.all(np.isfinite(U)):
            raise ValueError("initial field must be finite")

    if config.jacobian_mode is not None:
        mode = config.jacobian_mode
    elif problem.df_du is not None and problem.dg is not None:
        mode = "analytic"
    else:
        mode = "fd"

    increments: list[float] = []
    converged = False
    for iteration in range(1, int(config.max_iter) + 1):
        residual = assemble_residual(problem, grid, U, config.continuation)
        jacobian = assemble_jacobian(problem, grid, U, mode, config.continuation)
        try:
            delta = linear_solve(jacobian, -residual)
        except SingularSystemError as exc:
            raise SingularSystemError(f"iteration {iteration}: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            increments.append(math.inf)
            break
        U = U + delta
        m = float(np.mean(np.abs(delta)))
        increments.append(m)
        if not np.all(np.isfinite(U)):
            break
        if m <= config.tol:
            converged = True
            break
    return SolveResult(solution=U, iterations=len(increments),
                       final_increment=increments[-1], converged=converged,
                       increments=increments)
