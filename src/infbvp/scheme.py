"""Midpoint discretization of first-order systems u' = f(x, u) on [0, inf].

The unknowns are the node values U_n, n = 0..N; the value at the infinity
node is an ordinary finite unknown. Interval n contributes the d equations

    U_{n+1} - U_n - a * f(x_{n+1/2}, b*U_{n+1} + c_w*U_n) = 0

with the coefficients of QuasiUniformGrid.stencil_arrays, and the boundary
function g(U_0, U_N) supplies the final d equations. Residual entries are
ordered interval-major with the boundary block last. No formula ever reads
the infinite coordinate x_N: midpoints and stencil coefficients come from
fractional nodes only.

The field U has shape (N+1, d). The problem is evaluated on the whole
grid at once: f(x_mid, u) receives the (N,) midpoint coordinates and the
midpoint states components first, u of shape (d, N), and returns (d, N);
df_du returns (d, d, N) or a constant (d, d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import QuasiUniformGrid

__all__ = [
    "EvaluationError",
    "MissingDerivativeError",
    "StructuredJacobian",
    "assemble_residual",
    "assemble_jacobian",
    "prolong",
]

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class EvaluationError(ValueError):
    """A problem function returned a non-finite value.

    .where holds the offending interval index, or the string "boundary".
    """

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


class MissingDerivativeError(ValueError):
    """Analytic Jacobian requested for a problem without closed-form
    derivatives."""


def _check_field(grid: QuasiUniformGrid, U, d: int | None = None) -> np.ndarray:
    """U as a float (N+1, d) array; d=None accepts any component count."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != grid.N + 1 or (d is not None and U.shape[1] != d):
        expected = (grid.N + 1, "d" if d is None else d)
        raise ValueError(f"field shape {U.shape} does not match grid/problem shape {expected}")
    return U


def _eval_f(problem, x_mid: np.ndarray, u_mid: np.ndarray) -> np.ndarray:
    """f at every midpoint in one call; u_mid is (N, d), so is the result."""
    expected = u_mid.T.shape
    fx = np.asarray(problem.f(x_mid, u_mid.T), dtype=float)
    if fx.shape != expected:
        raise ValueError(f"f returned shape {fx.shape}, expected {expected}")
    bad = ~np.all(np.isfinite(fx), axis=0)
    if bad.any():
        n = int(np.argmax(bad))
        raise EvaluationError(f"non-finite right-hand side on interval {n}", where=n)
    return fx.T


def _eval_g(problem, u0: np.ndarray, u_inf: np.ndarray) -> np.ndarray:
    gv = np.asarray(problem.g(u0, u_inf), dtype=float)
    if gv.shape != (problem.d,):
        raise ValueError(f"g returned shape {gv.shape}, expected ({problem.d},)")
    if not np.all(np.isfinite(gv)):
        raise EvaluationError("non-finite boundary function value", where="boundary")
    return gv


def _midpoint_states(U: np.ndarray, b: np.ndarray, c_w: np.ndarray) -> np.ndarray:
    """The scheme's midpoint states c_w*U_n + b*U_{n+1}, shape (N, d)."""
    return c_w[:, None] * U[:-1] + b[:, None] * U[1:]


def _midpoints(problem, grid: QuasiUniformGrid, U):
    """Stencil arrays and the midpoint states u_mid of shape (N, d)."""
    a, b, c_w, x_mid = grid.stencil_arrays()
    U = _check_field(grid, U, problem.d)
    return U, a, b, c_w, x_mid, _midpoint_states(U, b, c_w)


def prolong(grid: QuasiUniformGrid, U) -> np.ndarray:
    """Carry a field on grid N over to the doubled grid 2N, shape (2N+1, d).

    On doubling grids of one map node n of grid N is node 2n of grid 2N
    and the new node 2n+1 is the coarse midpoint x_{n+1/2}. Even rows are
    U unchanged; odd rows are the midpoint states the scheme itself uses,
    c_w*U_n + b*U_{n+1}, so the last interval follows the grid's own
    rule (grid.continuation). Used as the fine grid's initial iterate.
    """
    _, b, c_w, _ = grid.stencil_arrays()
    U = _check_field(grid, U)
    fine = np.empty((2 * grid.N + 1, U.shape[1]))
    fine[0::2] = U
    fine[1::2] = _midpoint_states(U, b, c_w)
    return fine


def assemble_residual(problem, grid: QuasiUniformGrid, U) -> np.ndarray:
    """Residual of the discrete system at the field U, length d*(N+1).

    problem.f is called once, on all N midpoints.
    """
    U, a, _, _, x_mid, u_mid = _midpoints(problem, grid, U)
    res = np.empty_like(U)
    with np.errstate(all="ignore"):  # a non-finite f or g raises EvaluationError
        res[:-1] = U[1:] - U[:-1] - a[:, None] * _eval_f(problem, x_mid, u_mid)
        res[-1] = _eval_g(problem, U[0], U[-1])
    return res.ravel()


@dataclass(frozen=True, eq=False)
class StructuredJacobian:
    """Jacobian of the discrete system in its natural block sparsity.

    Interval block row n couples only U_n and U_{n+1}; the boundary row
    couples U_0 and U_N. Logical shape is d*(N+1) square.

    The first newton.linear_solve on a Jacobian keeps its factors here
    and makes the four block arrays read-only, so later solves with the
    same Jacobian replay the factors on the new right-hand side and can
    never meet blocks changed since.
    """

    dU_n: np.ndarray      # (N, d, d) derivative of interval block n w.r.t. U_n
    dU_next: np.ndarray   # (N, d, d) derivative of interval block n w.r.t. U_{n+1}
    dg_0: np.ndarray      # (d, d) boundary block w.r.t. U_0
    dg_N: np.ndarray      # (d, d) boundary block w.r.t. U_N
    _factors: tuple | None = field(default=None, init=False, repr=False)  # set by linear_solve

    @property
    def d(self) -> int:
        return self.dU_n.shape[1]

    @property
    def N(self) -> int:
        return self.dU_n.shape[0]


def _forward_difference(fn, u: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Forward-difference derivative of fn over the last axis of u, with
    base = fn(u): (N, d) midpoint states give the (N, d, d) df/du, a (d,)
    boundary value a d x d block of dg. Column j steps u_j by
    sqrt(eps)*(1 + |u_j|), so fn is called once per column."""
    steps = _SQRT_EPS * (1.0 + np.abs(u))
    out = np.empty(base.shape + u.shape[-1:])
    for j in range(u.shape[-1]):
        u_pert = u.copy()
        u_pert[..., j] += steps[..., j]
        out[..., j] = (fn(u_pert) - base) / steps[..., j, None]
    return out


def _df_du_analytic(problem, x_mid: np.ndarray, u_mid: np.ndarray) -> np.ndarray:
    """problem.df_du at every midpoint in one call, as an (N, d, d)
    view; a constant (d, d) answer is broadcast."""
    N, d = u_mid.shape
    F = np.asarray(problem.df_du(x_mid, u_mid.T), dtype=float)
    if F.shape not in ((d, d), (d, d, N)):
        raise ValueError(f"df_du returned shape {F.shape}, expected ({d}, {d}, {N}) or ({d}, {d})")
    # Transposed, (d, d, N) and (d, d) both broadcast to (N, d, d).
    return np.broadcast_to(F.T, (N, d, d)).transpose(0, 2, 1)


def assemble_jacobian(problem, grid: QuasiUniformGrid, U,
                      mode: str = "analytic") -> StructuredJacobian:
    """Jacobian of assemble_residual at U.

    Both modes build the (N, d, d) interval blocks from one formula,
    dU_n = -I - a*c_w*F and dU_next = I - a*b*F, with F = df/du at the
    N midpoints. Mode "analytic" takes F from one call of the problem's
    df_du and the boundary blocks from its dg. Mode "fd" works for any
    problem: it approximates only df/du, by forward differences over d+1
    batched f calls, and differentiates g the same way.
    """
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown jacobian mode {mode!r}")
    if mode == "analytic" and (problem.df_du is None or problem.dg is None):
        raise MissingDerivativeError(
            f"problem '{problem.name}' carries no analytic derivatives; use mode='fd'")
    U, a, b, c_w, x_mid, u_mid = _midpoints(problem, grid, U)
    N, d = u_mid.shape

    # a non-finite f or g raises EvaluationError; a non-finite F reaches delta
    with np.errstate(all="ignore"):
        if mode == "analytic":
            F = _df_du_analytic(problem, x_mid, u_mid)
            dg_0 = np.array(problem.dg[0], dtype=float)
            dg_N = np.array(problem.dg[1], dtype=float)
            if dg_0.shape != (d, d) or dg_N.shape != (d, d):
                raise ValueError("dg must be a pair of d x d matrices")
        else:
            F = _forward_difference(lambda u: _eval_f(problem, x_mid, u), u_mid,
                                    _eval_f(problem, x_mid, u_mid))
            g_base = _eval_g(problem, U[0], U[N])
            dg_0 = _forward_difference(lambda u: _eval_g(problem, u, U[N]), U[0], g_base)
            dg_N = _forward_difference(lambda u: _eval_g(problem, U[0], u), U[N], g_base)
        eye = np.eye(d)
        dU_n = -eye - (a * c_w)[:, None, None] * F
        dU_next = eye - (a * b)[:, None, None] * F
    return StructuredJacobian(dU_n=dU_n, dU_next=dU_next, dg_0=dg_0, dg_N=dg_N)
