"""Residual and Jacobian assembly for the midpoint scheme."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from conftest import block_product, dense_jacobian, nonlinear_decay_problem, toy_linear_problem
from infbvp import (
    BvpProblem,
    EvaluationError,
    GridMap,
    MissingDerivativeError,
    QuasiUniformGrid,
    SolverConfig,
    StructuredJacobian,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    falkner_skan,
    initial_field,
    newton_solve,
    pile,
    prolong,
)


def test_midpoint_value_is_exact_for_affine_data():
    # the odd rows of prolong are the scheme's midpoint states
    grid = build_grid(GridMap("log", 5.0), 16)
    slope, offset = 2.0, -3.0
    u = slope * grid.nodes[:, None] + offset
    got = prolong(grid, u)[1::2, 0]
    want = slope * grid.stencil_arrays()[3] + offset
    # interior intervals have finite endpoints
    assert got[:15] == pytest.approx(want[:15], abs=1e-12)


CONSTANT = BvpProblem(
    name="constant", d=1,
    f=lambda x, u: np.zeros_like(u),
    g=lambda u0, u_inf: u0 - u_inf,
    initial_iterate=lambda x: np.zeros(1))


def test_midpoint_derivative_exact_for_constants():
    # with f = 0 each interval row is the difference U_{n+1} - U_n
    grid = build_grid(GridMap("alg", 2.0), 10)
    res = assemble_residual(CONSTANT, grid, np.full((11, 1), 4.2))
    assert np.array_equal(res[:10], np.zeros(10))  # includes the last interval


def test_residual_zero_for_trivial_problem():
    grid = build_grid(GridMap("log", 1.0), 6)
    field = np.full((7, 1), 3.25)
    res = assemble_residual(CONSTANT, grid, field)
    assert np.array_equal(res, np.zeros(7))


def test_residual_hand_values():
    # alg map, c = 1, N = 2: nodes 0, 1, inf; stencils reduce to small
    # rationals (a0 = 32/35, b = 1/3, a1 = 32/3 with continuation)
    grid = build_grid(GridMap("alg", 1.0), 2)
    field = np.ones((3, 1))
    res = assemble_residual(toy_linear_problem(), grid, field)
    assert res == pytest.approx([32.0 / 35.0, 32.0 / 3.0, -1.0], abs=1e-13)


def test_residual_exact_discrete_solution():
    # the same toy system solved by hand: U = (2, 82/137, -110/137)
    grid = build_grid(GridMap("alg", 1.0), 2)
    field = np.array([[2.0], [82.0 / 137.0], [-110.0 / 137.0]])
    res = assemble_residual(toy_linear_problem(), grid, field)
    assert np.max(np.abs(res)) < 1e-14


def test_continuation_flag_touches_only_last_interval_block():
    problem = falkner_skan()
    rng = np.random.default_rng(3)
    field = rng.normal(size=(9, 3))
    with_rule = assemble_residual(problem, build_grid(GridMap("log", 5.0), 8), field)
    without = assemble_residual(problem, build_grid(GridMap("log", 5.0), 8, continuation=False),
                                field)
    d = problem.d
    last_block = slice(7 * d, 8 * d)
    assert np.array_equal(np.delete(with_rule, np.r_[last_block]),
                          np.delete(without, np.r_[last_block]))
    assert not np.array_equal(with_rule[last_block], without[last_block])


def test_residual_small_at_converged_solution():
    problem = falkner_skan()
    grid = build_grid(GridMap("log", 5.0), 80)
    result = newton_solve(problem, grid)
    assert result.converged
    res = assemble_residual(problem, grid, result.solution)
    assert np.max(np.abs(res)) <= 1e-6


def nan_at_infinity(grid):
    """The grid with its infinite node x_N replaced by NaN."""
    nodes = grid.nodes.copy()
    nodes[-1] = np.nan
    return QuasiUniformGrid(map=grid.map, N=grid.N, nodes=nodes,
                            stencils=grid.stencil_arrays(), continuation=grid.continuation)


def test_infinite_node_coordinate_is_never_read():
    # replace x_N by NaN: every assembled quantity must stay identical,
    # proving no arithmetic path touches the infinite coordinate
    problem = pile()
    rng = np.random.default_rng(5)
    field = rng.normal(size=(13, 4))
    for continuation in (True, False):
        grid = build_grid(GridMap("log", 5.0), 12, continuation=continuation)
        poisoned = nan_at_infinity(grid)
        res_true = assemble_residual(problem, grid, field)
        res_poisoned = assemble_residual(problem, poisoned, field)
        assert np.array_equal(res_true, res_poisoned)
        jac_true = assemble_jacobian(problem, grid, field, "analytic")
        jac_poisoned = assemble_jacobian(problem, poisoned, field, "analytic")
        assert np.array_equal(dense_jacobian(jac_true), dense_jacobian(jac_poisoned))
        solved_true = newton_solve(problem, grid)
        solved_poisoned = newton_solve(problem, poisoned)
        assert np.array_equal(solved_true.solution, solved_poisoned.solution)


def test_a_right_hand_side_that_reads_x_is_never_handed_the_infinite_node():
    # the pile's f ignores x; this f reads it through exp(-x), so a NaN
    # x_N that reached it would reach the residual, the Jacobians and
    # the solve. No problem guards f itself: the scheme hands it only
    # midpoints
    problem = nonlinear_decay_problem()
    field = np.random.default_rng(7).normal(size=(17, 2))
    for continuation in (True, False):
        grid = build_grid(GridMap("log", 4.0), 16, continuation=continuation)
        poisoned = nan_at_infinity(grid)
        assert np.array_equal(assemble_residual(problem, grid, field),
                              assemble_residual(problem, poisoned, field))
        for mode in ("analytic", "fd"):
            assert np.array_equal(dense_jacobian(assemble_jacobian(problem, grid, field, mode)),
                                  dense_jacobian(assemble_jacobian(problem, poisoned, field, mode)))
            config = SolverConfig(jacobian_mode=mode)
            solved = newton_solve(problem, grid, config=config)
            solved_poisoned = newton_solve(problem, poisoned, config=config)
            assert solved.converged
            assert np.array_equal(solved.solution, solved_poisoned.solution)
            assert solved.increments == solved_poisoned.increments


def test_evaluation_error_carries_interval_index():
    problem = BvpProblem(
        name="blows-up", d=1,
        f=lambda x, u: np.where(x > 1.0, np.inf, 0.0)[None],
        g=lambda u0, u_inf: u0,
        initial_iterate=lambda x: np.zeros(1))
    grid = build_grid(GridMap("alg", 1.0), 4)
    # midpoints are at x(1/8), x(3/8), x(5/8), x(7/8) = 1/7, 3/5, 5/3, 7
    with pytest.raises(EvaluationError, match="^non-finite right-hand side on interval 2$"):
        assemble_residual(problem, grid, np.zeros((5, 1)))


def test_evaluation_error_flags_boundary_block():
    problem = BvpProblem(
        name="bad-boundary", d=1,
        f=lambda x, u: np.zeros_like(u),
        g=lambda u0, u_inf: np.array([np.nan]),
        initial_iterate=lambda x: np.zeros(1))
    grid = build_grid(GridMap("alg", 1.0), 4)
    with pytest.raises(EvaluationError, match="^non-finite boundary function value$"):
        assemble_residual(problem, grid, np.zeros((5, 1)))


def test_an_overflowing_problem_leaks_no_runtime_warning():
    # P3 = -1e3 overflows exp(-P2*u1) at the pile's start: f and its FD
    # columns raise EvaluationError and the analytic df_du gives
    # non-finite blocks, all without a RuntimeWarning, which the run-wide
    # filter would turn into an error
    problem = pile(P3=-1e3)
    grid = build_grid(GridMap("log", 5.0), 20)
    start = initial_field(problem, grid)
    for assemble in (assemble_residual, lambda *args: assemble_jacobian(*args, "fd")):
        with pytest.raises(EvaluationError, match="interval 0$"):
            assemble(problem, grid, start)
    jac = assemble_jacobian(problem, grid, start, "analytic")
    assert not np.all(np.isfinite(jac.dU_n))


def test_field_validation():
    problem = falkner_skan()
    grid = build_grid(GridMap("log", 5.0), 6)
    with pytest.raises(ValueError):
        assemble_residual(problem, grid, np.zeros((6, 3)))
    with pytest.raises(ValueError):
        assemble_residual(problem, grid, np.zeros((7, 2)))


RIGHT_SHAPES = {"f": lambda x, u: np.zeros_like(u), "g": lambda u0, u_inf: np.zeros(2),
                "df_du": lambda x, u: np.zeros((2, 2)), "dg": (np.eye(2), np.eye(2))}


@pytest.mark.parametrize("callback, wrong, message", [
    ("f", lambda x, u: np.zeros(3), r"f returned shape \(3,\), expected \(2, 4\)"),
    ("g", lambda u0, u_inf: np.zeros(3), r"g returned shape \(3,\), expected \(2,\)"),
    ("df_du", lambda x, u: np.zeros((2, 3)),
     r"df_du returned shape \(2, 3\), expected \(2, 2, 4\) or \(2, 2\)"),
    ("dg", (np.eye(2), np.eye(3)), "dg must be a pair of d x d matrices"),
], ids=["f", "g", "df_du", "dg"])
def test_wrong_f_shape_is_reported(callback, wrong, message):
    # every problem callback has its shape checked; f and g by the
    # residual, df_du and dg by the analytic Jacobian
    problem = BvpProblem(name="wrong-shape", d=2, initial_iterate=lambda x: np.zeros(2),
                         **{**RIGHT_SHAPES, callback: wrong})
    grid = build_grid(GridMap("log", 1.0), 4)
    assemble = assemble_residual if callback in ("f", "g") else assemble_jacobian
    with pytest.raises(ValueError, match=message):
        assemble(problem, grid, np.zeros((5, 2)))


def test_analytic_jacobian_matches_finite_differences():
    # pile adds an exp term; the alg map stretches the last interval most
    for problem in (falkner_skan(), pile()):
        for kind in ("log", "alg"):
            grid = build_grid(GridMap(kind, 5.0), 20)
            field = initial_field(problem, grid)
            analytic = assemble_jacobian(problem, grid, field, "analytic")
            numeric = assemble_jacobian(problem, grid, field, "fd")
            for exact, approx in (
                    (analytic.dU_n, numeric.dU_n),
                    (analytic.dU_next, numeric.dU_next),
                    (analytic.dg_0, numeric.dg_0),
                    (analytic.dg_N, numeric.dg_N)):
                assert np.all(np.abs(exact - approx) <= 1e-6 * (1.0 + np.abs(exact)))


def coupled_problem():
    """The coupled nonlinear f and g of the dense-oracle Newton test; each
    row of g mixes U_0 and U_N."""

    def f(x, u):
        return np.array([u[1], u[0] * u[0] + np.exp(-x) - np.exp(-2.0 * x)])

    def g(u0, u_inf):
        return np.array([u0[0] + u_inf[0] - 1.0, u_inf[0] + u0[0] * u0[0] + u0[1]])

    return BvpProblem(name="coupled", d=2, f=f, g=g,
                      initial_iterate=lambda x: np.array([0.5, 0.0]))


@pytest.mark.parametrize("kind", ["log", "alg"])
def test_fd_jacobian_is_the_one_sided_quotient_entry_by_entry(kind):
    # column j steps u_j by sqrt(eps)*(1 + |u_j|), for f at every midpoint
    # and for g at U_0 and at U_N; the blocks must match bitwise
    problem = coupled_problem()
    grid = build_grid(GridMap(kind, 4.0), 12)
    field = np.random.default_rng(29).normal(size=(13, 2))
    jac = assemble_jacobian(problem, grid, field, "fd")
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    a, b, c_w, x_mid = grid.stencil_arrays()
    u_mid = np.array([[c_w[n] * field[n, j] + b[n] * field[n + 1, j] for j in range(2)]
                      for n in range(12)])
    base = problem.f(x_mid, u_mid.T)
    for j in range(2):
        steps = [sqrt_eps * (1.0 + abs(u_mid[n, j])) for n in range(12)]
        u_pert = u_mid.copy()
        u_pert[:, j] += steps
        bumped = problem.f(x_mid, u_pert.T)
        for n in range(12):
            for i in range(2):
                F = (bumped[i, n] - base[i, n]) / steps[n]
                eye = 1.0 if i == j else 0.0
                assert jac.dU_n[n, i, j] == -eye - (a[n] * c_w[n]) * F, (n, i, j)
                assert jac.dU_next[n, i, j] == eye - (a[n] * b[n]) * F, (n, i, j)
    g_base = problem.g(field[0], field[-1])
    for block, end in ((jac.dg_0, 0), (jac.dg_N, -1)):
        for j in range(2):
            step = sqrt_eps * (1.0 + abs(field[end, j]))
            ends = [field[0].copy(), field[-1].copy()]
            ends[end][j] += step
            bumped = problem.g(*ends)
            for i in range(2):
                assert block[i, j] == (bumped[i] - g_base[i]) / step, (end, i, j)


def test_problem_is_evaluated_once_per_grid():
    # f, df_du and initial_iterate each see the whole grid in one call
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    base = nonlinear_decay_problem()
    problem = dataclasses.replace(
        base, f=counted("f", base.f), df_du=counted("df_du", base.df_du),
        initial_iterate=counted("initial_iterate", base.initial_iterate))
    grid = build_grid(GridMap("log", 4.0), 16)
    field = initial_field(problem, grid)
    assert calls == {"initial_iterate": 1}
    assemble_residual(problem, grid, field)
    assert calls == {"initial_iterate": 1, "f": 1}
    assemble_jacobian(problem, grid, field, "fd")
    assert calls == {"initial_iterate": 1, "f": 1 + problem.d + 1}
    assemble_jacobian(problem, grid, field, "analytic")
    assert calls == {"initial_iterate": 1, "f": 1 + problem.d + 1, "df_du": 1}


def test_jacobian_of_linear_problem_is_state_independent():
    problem = toy_linear_problem()
    grid = build_grid(GridMap("alg", 1.0), 5)
    rng = np.random.default_rng(9)
    first = assemble_jacobian(problem, grid, rng.normal(size=(6, 1)), "analytic")
    second = assemble_jacobian(problem, grid, rng.normal(size=(6, 1)), "analytic")
    assert np.array_equal(dense_jacobian(first), dense_jacobian(second))


def test_missing_derivatives_error():
    problem = BvpProblem(
        name="no-derivatives", d=1,
        f=lambda x, u: -u,
        g=lambda u0, u_inf: u0 - 1.0,
        initial_iterate=lambda x: np.zeros(1))
    grid = build_grid(GridMap("log", 1.0), 4)
    with pytest.raises(MissingDerivativeError):
        assemble_jacobian(problem, grid, np.zeros((5, 1)), "analytic")
    # the finite-difference mode still works
    jac = assemble_jacobian(problem, grid, np.zeros((5, 1)), "fd")
    assert (jac.N + 1) * jac.d == 5


def test_unknown_jacobian_mode():
    grid = build_grid(GridMap("log", 1.0), 4)
    with pytest.raises(ValueError):
        assemble_jacobian(toy_linear_problem(), grid, np.zeros((5, 1)), "symbolic")


def test_structured_jacobian_layout_and_matvec():
    problem = pile()
    grid = build_grid(GridMap("log", 5.0), 7)
    rng = np.random.default_rng(13)
    field = rng.normal(size=(8, 4))
    jac = assemble_jacobian(problem, grid, field, "analytic")
    assert isinstance(jac, StructuredJacobian)
    assert jac.d == 4 and jac.N == 7 and (jac.N + 1) * jac.d == 32
    assert jac.dU_n.shape == (7, 4, 4)
    assert jac.dU_next.shape == (7, 4, 4)
    dense = dense_jacobian(jac)
    assert dense.shape == (32, 32)
    # each interval block row occupies exactly two block columns
    for n in range(7):
        rows = dense[n * 4:(n + 1) * 4]
        outside = np.delete(rows, np.s_[n * 4:(n + 2) * 4], axis=1)
        assert np.all(outside == 0.0)
    # the dense product agrees with the blocks applied one by one
    delta = rng.normal(size=(8, 4))
    assert dense @ delta.ravel() == pytest.approx(block_product(jac, delta), abs=1e-12)


def test_interval_block_derivative_formula():
    # d/dU_n = -I - a*c_w*F and d/dU_next = I - a*b*F at the midpoint state
    problem = falkner_skan()
    grid = build_grid(GridMap("log", 5.0), 6)
    rng = np.random.default_rng(17)
    field = rng.normal(size=(7, 3))
    jac = assemble_jacobian(problem, grid, field, "analytic")
    n = 3
    a, b, c_w, x_mid = (entry[n] for entry in grid.stencil_arrays())
    u_mid = c_w * field[n] + b * field[n + 1]
    F = problem.df_du(x_mid, u_mid)
    eye = np.eye(3)
    assert jac.dU_n[n] == pytest.approx(-eye - a * c_w * F, abs=1e-12)
    assert jac.dU_next[n] == pytest.approx(eye - a * b * F, abs=1e-12)


@pytest.mark.parametrize("kind", ["log", "alg"])
def test_doubled_grid_nests_the_coarse_grid(kind):
    # the premise of prolong: grid 2N keeps every node of grid N at its
    # even positions and puts the coarse midpoints x_{n+1/2} at its odd ones
    for c in (1.0, 4.5, 5.0, 5.37, 5.5):
        grid_map = GridMap(kind, c)
        for N in [*range(2, 300), 640, 1280, 5120]:
            coarse, fine = build_grid(grid_map, N), build_grid(grid_map, 2 * N)
            assert np.array_equal(fine.nodes[0::2], coarse.nodes), (c, N)
            assert np.array_equal(fine.nodes[1::2], coarse.stencil_arrays()[3]), (c, N)


@pytest.mark.parametrize("continuation", [True, False])
@pytest.mark.parametrize("kind", ["log", "alg"])
def test_prolong_fills_odd_rows_with_the_scheme_midpoint_states(kind, continuation):
    seen = []
    base = falkner_skan()

    def recording_f(x, u):
        seen.append(u.copy())
        return base.f(x, u)

    problem = dataclasses.replace(base, f=recording_f)
    grid = build_grid(GridMap(kind, 5.0), 12, continuation=continuation)
    field = np.random.default_rng(11).normal(size=(13, 3))
    fine = prolong(grid, field)
    assert fine.shape == (25, 3)
    assert np.array_equal(fine[0::2], field)
    assemble_residual(problem, grid, field)
    assert np.array_equal(fine[1::2], seen[0].T)
    # the last odd row sits on the interval that ends at infinity
    if not continuation:
        assert np.array_equal(fine[-2], field[-2])


def test_prolong_rejects_mismatched_fields():
    grid = build_grid(GridMap("log", 5.0), 6)
    for bad in (np.zeros((6, 3)), np.zeros((8, 3)), np.zeros(7), np.zeros((7, 3, 1))):
        with pytest.raises(ValueError):
            prolong(grid, bad)
