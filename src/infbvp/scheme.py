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

import numpy as np

from .grids import QuasiUniformGrid
from .linsolve import StructuredJacobian

__all__ = [
    "EvaluationError",
    "assemble_residual",
    "assemble_jacobian",
    "prolong",
]

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class EvaluationError(ValueError):
    """A problem function returned a non-finite value; the message names
    the offending interval, or the boundary function."""


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
        raise EvaluationError(f"non-finite right-hand side on interval {n}")
    return fx.T


def _eval_g(problem, u0: np.ndarray, u_inf: np.ndarray) -> np.ndarray:
    gv = np.asarray(problem.g(u0, u_inf), dtype=float)
    if gv.shape != (problem.d,):
        raise ValueError(f"g returned shape {gv.shape}, expected ({problem.d},)")
    if not np.all(np.isfinite(gv)):
        raise EvaluationError("non-finite boundary function value")
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
    N midpoints. This function alone decides where each derivative comes
    from. Mode "analytic" takes F from one call of the problem's df_du
    and the boundary blocks from its dg, each where the problem gives
    it. A derivative the problem leaves out, and both in mode "fd", is
    forward-differenced: df/du from d+1 batched calls of f, dg from 2d+1
    calls of g.
    """
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown jacobian mode {mode!r}")
    U, a, b, c_w, x_mid, u_mid = _midpoints(problem, grid, U)
    N, d = u_mid.shape

    # a non-finite f or g raises EvaluationError; a non-finite F reaches delta
    with np.errstate(all="ignore"):
        if mode == "analytic" and problem.df_du is not None:
            F = _df_du_analytic(problem, x_mid, u_mid)
        else:
            F = _forward_difference(lambda u: _eval_f(problem, x_mid, u), u_mid,
                                    _eval_f(problem, x_mid, u_mid))
        if mode == "analytic" and problem.dg is not None:
            dg_0 = np.array(problem.dg[0], dtype=float)
            dg_N = np.array(problem.dg[1], dtype=float)
            if dg_0.shape != (d, d) or dg_N.shape != (d, d):
                raise ValueError("dg must be a pair of d x d matrices")
        else:
            g_base = _eval_g(problem, U[0], U[N])
            dg_0 = _forward_difference(lambda u: _eval_g(problem, u, U[N]), U[0], g_base)
            dg_N = _forward_difference(lambda u: _eval_g(problem, U[0], u), U[N], g_base)
        eye = np.eye(d)
        dU_n = -eye - (a * c_w)[:, None, None] * F
        dU_next = eye - (a * b)[:, None, None] * F
    return StructuredJacobian(dU_n=dU_n, dU_next=dU_next, dg_0=dg_0, dg_N=dg_N)
