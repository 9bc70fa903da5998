"""Shared manufactured problems with known exact solutions, the dense
oracle of the structured Jacobian, and a counter of Newton's Jacobians.

Both decay problems approach their limit exponentially, so they exercise
the semi-infinite grids the way the built-in benchmarks do while keeping
an analytic answer to compare against.
"""

import numpy as np

from infbvp import BvpProblem, newton


def linear_decay_problem(with_derivatives=True):
    """u'' = u on [0, inf) with u(0) = 1 and u(inf) = 0.

    Exact solution exp(-x), so the missing initial slope is -1. Passing
    with_derivatives=False drops the closed-form Jacobian data, which
    forces the finite-difference fallback.
    """

    def f(x, u):
        return np.array([u[1], u[0]])

    def g(u0, u_inf):
        return np.array([u0[0] - 1.0, u_inf[0]])

    df_du = None
    dg = None
    if with_derivatives:
        df_du = lambda x, u: np.array([[0.0, 1.0], [1.0, 0.0]])
        dg = (np.array([[1.0, 0.0], [0.0, 0.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0]]))
    return BvpProblem(name="linear-decay", d=2, f=f, g=g,
                      initial_iterate=lambda x: np.zeros(2),
                      df_du=df_du, dg=dg,
                      reports={"du0": lambda result: float(result.solution[0, 1])})


def nonlinear_decay_problem():
    """u'' = u^2 + exp(-x) - exp(-2x) with u(0) = 1 and u(inf) = 0.

    The source term is chosen so the exact solution is again exp(-x);
    the quadratic term keeps Newton's method honest and keeps the
    missing initial slope du0 = -1 from converging faster than the
    scheme's nominal order.
    """

    def f(x, u):
        return np.array([u[1], u[0] * u[0] + np.exp(-x) - np.exp(-2.0 * x)])

    def g(u0, u_inf):
        return np.array([u0[0] - 1.0, u_inf[0]])

    def df_du(x, u):
        zero, one = np.zeros_like(u[0]), np.ones_like(u[0])
        return np.array([[zero, one], [2.0 * u[0], zero]])

    dg = (np.array([[1.0, 0.0], [0.0, 0.0]]),
          np.array([[0.0, 0.0], [1.0, 0.0]]))
    return BvpProblem(name="nonlinear-decay", d=2, f=f, g=g,
                      initial_iterate=lambda x: np.zeros(2),
                      df_du=df_du, dg=dg,
                      reports={"du0": lambda result: float(result.solution[0, 1])})


def exact_decay_field(grid):
    """exp(-x) and its derivative sampled at every node, zero at x = inf."""
    decay = np.exp(-grid.nodes)
    return np.column_stack([decay, -decay])


def toy_linear_problem():
    """Scalar u' = -u with u(0) = 2: one unknown per node, no dynamics
    hidden behind vector indexing, so residuals can be checked by hand."""

    def f(x, u):
        return np.array([-u[0]])

    def g(u0, u_inf):
        return np.array([u0[0] - 2.0])

    return BvpProblem(name="toy", d=1, f=f, g=g,
                      initial_iterate=lambda x: np.zeros(1),
                      df_du=lambda x, u: np.array([[-1.0]]),
                      dg=(np.array([[1.0]]), np.array([[0.0]])),
                      reports={"u0": lambda result: float(result.solution[0, 0])})


def dense_jacobian(jac):
    """The d*(N+1) square matrix of a StructuredJacobian: interval block
    row n holds dU_n[n] and dU_next[n] in block columns n and n+1, the
    boundary row holds dg_0 and dg_N in block columns 0 and N."""
    d, N = jac.d, jac.N
    size = (N + 1) * d
    full = np.zeros((size, size))
    for n in range(N):
        rows = slice(n * d, (n + 1) * d)
        full[rows, n * d:(n + 1) * d] = jac.dU_n[n]
        full[rows, (n + 1) * d:(n + 2) * d] = jac.dU_next[n]
    full[N * d:, :d] = jac.dg_0
    full[N * d:, N * d:] = jac.dg_N
    return full


def dense_linear_solve(jac, rhs):
    """Oracle for linear_solve: LU with partial pivoting on the dense matrix."""
    return np.linalg.solve(dense_jacobian(jac), rhs).reshape(jac.N + 1, jac.d)


def block_product(jac, delta):
    """jac @ delta.ravel() for a correction field delta of shape (N+1, d),
    one block row at a time."""
    out = np.empty_like(delta)
    out[:-1] = (np.einsum("nij,nj->ni", jac.dU_n, delta[:-1])
                + np.einsum("nij,nj->ni", jac.dU_next, delta[1:]))
    out[-1] = jac.dg_0 @ delta[0] + jac.dg_N @ delta[-1]
    return out.ravel()


def count_jacobians(monkeypatch):
    """Count newton.assemble_jacobian calls per grid size N."""
    counts = {}
    assemble = newton.assemble_jacobian

    def counted(problem, grid, *args, **kwargs):
        counts[grid.N] = counts.get(grid.N, 0) + 1
        return assemble(problem, grid, *args, **kwargs)

    monkeypatch.setattr(newton, "assemble_jacobian", counted)
    return counts
