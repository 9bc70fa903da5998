"""Newton iteration and the structured linear solver."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import (block_product, count_jacobians, dense_jacobian, linear_decay_problem,
                      toy_linear_problem)
from infbvp import (
    BvpProblem,
    GridMap,
    SingularSystemError,
    SolverConfig,
    StructuredJacobian,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    falkner_skan,
    initial_field,
    linear_solve,
    newton_solve,
    pile,
)
from infbvp import newton


def test_linear_system_converges_in_one_correction():
    # u' = -u with u(0) = 2 on the three-node algebraic grid has the
    # closed-form discrete solution (2, 82/137, -110/137)
    grid = build_grid(GridMap("alg", 1.0), 2)
    result = newton_solve(toy_linear_problem(), grid)
    assert result.converged
    assert result.iterations == 2  # one real step plus the zero step that stops
    expected = np.array([[2.0], [82.0 / 137.0], [-110.0 / 137.0]])
    assert result.solution == pytest.approx(expected, abs=1e-14)
    assert result.final_increment <= 1e-6
    assert result.increments[-1] == result.final_increment
    assert len(result.increments) == result.iterations


def test_falkner_skan_converges():
    result = newton_solve(falkner_skan(), build_grid(GridMap("log", 5.0), 80))
    assert result.converged
    assert result.iterations <= 8
    assert result.solution[0, 2] == pytest.approx(1.232972, abs=2e-5)


def test_increments_shrink_quadratically():
    result = newton_solve(falkner_skan(), build_grid(GridMap("log", 5.0), 80))
    tail = [m for m in result.increments if m <= 1e-2]
    assert len(tail) >= 2
    for coarse, fine in zip(tail, tail[1:]):
        assert fine <= 100.0 * coarse * coarse


def full_newton(problem, grid, mode, tol=1e-6, max_iter=50):
    """Reference loop: a fresh Jacobian and a full step every iteration."""
    U = initial_field(problem, grid)
    increments = []
    for _ in range(max_iter):
        jacobian = assemble_jacobian(problem, grid, U, mode)
        delta = linear_solve(jacobian, -assemble_residual(problem, grid, U))
        U = U + delta
        increments.append(float(np.mean(np.abs(delta))))
        if increments[-1] <= tol:
            return U, True, len(increments)
    return U, False, max_iter


@pytest.mark.parametrize("N", [20, 160, 1280])
@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("kind", ["log", "alg"])
@pytest.mark.parametrize("make_problem", [falkner_skan, pile], ids=["falkner-skan", "pile"])
def test_cold_solve_matches_full_newton(make_problem, kind, mode, N):
    # a cold solve ends on the kept factors only when the contraction
    # predicts the end; the kept step leaves an error below tol**2, so the
    # answer is full Newton's to roundoff (measured at most 4.7e-11)
    problem, grid = make_problem(), build_grid(GridMap(kind, 5.0), N)
    solution, converged, iterations = full_newton(problem, grid, mode)
    result = newton_solve(problem, grid, config=SolverConfig(jacobian_mode=mode))
    assert (result.iterations, result.converged) == (iterations, converged)
    assert np.max(np.abs(result.solution - solution)) <= 1e-10


@pytest.mark.parametrize("N", [160, 320, 640, 1280])
@pytest.mark.parametrize("make_problem", [falkner_skan, pile], ids=["falkner-skan", "pile"])
def test_cold_fd_solve_ends_on_the_kept_factors(make_problem, N, monkeypatch):
    # the fd-jacobian benchmark's cases: the last step of each reuses the
    # factors of the step before, so one FD Jacobian fewer per solve
    counts = count_jacobians(monkeypatch)
    result = newton_solve(make_problem(), build_grid(GridMap("log", 5.0), N),
                          config=SolverConfig(jacobian_mode="fd"))
    assert result.converged
    assert counts[N] == result.iterations - 1


def test_two_step_cold_solve_assembles_every_jacobian(monkeypatch):
    # the second step of a cold solve has one increment behind it, which
    # predicts nothing: both steps are full steps
    counts = count_jacobians(monkeypatch)
    result = newton_solve(toy_linear_problem(), build_grid(GridMap("alg", 1.0), 2))
    assert result.converged and result.iterations == 2
    assert counts[2] == 2


def dense_linear_solve(jac, rhs):
    """Oracle for linear_solve: LU with partial pivoting on the dense matrix."""
    return np.linalg.solve(dense_jacobian(jac), rhs).reshape(jac.N + 1, jac.d)


def test_linear_solve_matches_dense_oracle():
    problem = pile()
    grid = build_grid(GridMap("log", 5.0), 40)
    field = initial_field(problem, grid)
    jac = assemble_jacobian(problem, grid, field, "analytic")
    rng = np.random.default_rng(19)
    rhs = rng.normal(size=(jac.N + 1) * jac.d)
    structured = linear_solve(jac, rhs)
    dense = dense_linear_solve(jac, rhs)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(structured - dense)) <= 1e-10 * (1.0 + scale)
    # and it is an actual solution of the linear system
    assert dense_jacobian(jac) @ structured.ravel() == pytest.approx(rhs, abs=1e-9 * (1.0 + scale))


def random_chain(rng, N, d):
    """A well-conditioned block system with random blocks: the interval
    rows of the midpoint rule for x' = A(t) x with step 1/N and standard
    normal A, closed by a boundary row that fixes x_0 up to a small
    coupling with x_N."""
    eye, half_step = np.eye(d), 0.5 / N
    A = rng.normal(size=(N, d, d))
    return StructuredJacobian(dU_n=-eye - half_step * A, dU_next=eye - half_step * A,
                              dg_0=eye + 0.1 * rng.normal(size=(d, d)),
                              dg_N=0.1 * rng.normal(size=(d, d)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_linear_solve_matches_dense_oracle_on_every_carry_pattern(d):
    # N = 2..16 go straight to the dense tail; N = 17..65 reach it after
    # one, two or three levels, with every tail size from 9 to 16 rows and
    # every pattern of odd rows carried up on the way; 1025 carries one at
    # every level, 1023 at the first level only. The second rhs replays
    # the factors the first solve kept.
    rng, replay_rng = np.random.default_rng(23), np.random.default_rng(37)
    for N in [*range(2, 4 * newton._TAIL_ROWS + 2), 1023, 1025]:
        jac = random_chain(rng, N, d)
        rhs = np.stack((rng.normal(size=(N + 1) * d), replay_rng.normal(size=(N + 1) * d)))
        dense = np.linalg.solve(dense_jacobian(jac), rhs.T).T.reshape(2, N + 1, d)
        for b, oracle in zip(rhs, dense):
            structured = linear_solve(jac, b)
            scale = np.max(np.abs(oracle))
            assert structured.shape == (N + 1, d)
            assert np.max(np.abs(structured - oracle)) <= 1e-10 * (1.0 + scale), N
            assert block_product(jac, structured) == pytest.approx(b, abs=1e-9 * (1.0 + scale)), N
        fresh = linear_solve(StructuredJacobian(jac.dU_n, jac.dU_next, jac.dg_0, jac.dg_N), b)
        assert np.max(np.abs(structured - fresh)) <= 1e-13 * (1.0 + scale), N


def test_factored_jacobian_is_read_only():
    jac = random_chain(np.random.default_rng(31), 40, 2)
    linear_solve(jac, np.ones(41 * 2))
    for name in ("dU_n", "dU_next", "dg_0", "dg_N"):
        block = getattr(jac, name)
        with pytest.raises(ValueError, match="read-only"):
            block[(0,) * block.ndim] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(jac, name, block.copy())


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("block", ["dU_n", "dU_next", "dg_0", "dg_N"])
def test_nonfinite_block_gives_nonfinite_delta_silently(block, value):
    # interval block 17 is reduced in the first level; the boundary
    # blocks enter the dense tail
    problem = pile()
    grid = build_grid(GridMap("log", 5.0), 40)
    field = initial_field(problem, grid)
    jac = assemble_jacobian(problem, grid, field, "analytic")
    getattr(jac, block)[(17, 1, 2) if block.startswith("dU") else (1, 2)] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta = linear_solve(jac, -assemble_residual(problem, grid, field))
    assert delta.shape == (41, 4)
    assert not np.all(np.isfinite(delta))


def test_nonfinite_jacobian_stops_newton_unconverged():
    problem = linear_decay_problem(True)
    problem = BvpProblem(name="nan-jacobian", d=2, f=problem.f, g=problem.g,
                         initial_iterate=problem.initial_iterate,
                         df_du=lambda x, u: np.full((2, 2, x.shape[0]), np.nan), dg=problem.dg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = newton_solve(problem, build_grid(GridMap("log", 4.0), 30))
    assert not result.converged
    assert result.increments[-1] == math.inf
    assert result.final_increment == math.inf


def test_full_newton_matches_dense_oracle(monkeypatch):
    problem = pile()
    grid = build_grid(GridMap("log", 5.0), 160)
    structured = newton_solve(problem, grid)
    monkeypatch.setattr(newton, "linear_solve", dense_linear_solve)
    dense = newton_solve(problem, grid)
    assert structured.converged and dense.converged
    assert np.max(np.abs(structured.solution - dense.solution)) <= 1e-10


def test_coupled_boundary_function_matches_dense_oracle(monkeypatch):
    # u'' = u^2 + exp(-x) - exp(-2x) has the solution exp(-x); each row of
    # this g mixes U_0 and U_N, and exp(-x) still satisfies both
    def f(x, u):
        return np.array([u[1], u[0] * u[0] + np.exp(-x) - np.exp(-2.0 * x)])

    def g(u0, u_inf):
        return np.array([u0[0] + u_inf[0] - 1.0, u_inf[0] + u0[0] * u0[0] + u0[1]])

    problem = BvpProblem(name="coupled", d=2, f=f, g=g,
                         initial_iterate=lambda x: np.array([0.5, 0.0]))
    grid = build_grid(GridMap("log", 4.0), 80)
    jac = assemble_jacobian(problem, grid, initial_field(problem, grid), "fd")
    assert np.all(np.abs(jac.dg_0).sum(axis=1) > 0.0)
    assert np.all(np.abs(jac.dg_N).sum(axis=1) > 0.0)
    structured = newton_solve(problem, grid)
    monkeypatch.setattr(newton, "linear_solve", dense_linear_solve)
    dense = newton_solve(problem, grid)
    assert structured.converged and dense.converged
    assert structured.iterations == dense.iterations
    assert np.max(np.abs(structured.solution - dense.solution)) <= 1e-10
    assert structured.solution[0, 1] == pytest.approx(-1.0, abs=1e-2)


def block_inf_norm(jac):
    """Largest absolute row sum of the Jacobian."""
    rows = np.abs(jac.dU_n).sum(axis=2) + np.abs(jac.dU_next).sum(axis=2)
    boundary = np.abs(jac.dg_0).sum(axis=1) + np.abs(jac.dg_N).sum(axis=1)
    return max(rows.max(), boundary.max())


@pytest.mark.parametrize(("kind", "N"), [("log", 160), ("log", 1280), ("alg", 160),
                                        ("alg", 1280), ("log", 10240)])
@pytest.mark.parametrize("make_problem", [falkner_skan, pile], ids=["falkner-skan", "pile"])
def test_linear_solve_is_backward_stable(make_problem, kind, N):
    # at the initial iterate, on both maps the CLI offers, and at the
    # fine-grid size on the log map; condensation onto delta_0 (discrete
    # shooting) gives 5e-12 to 0.17 on the N <= 1280 cases
    problem = make_problem()
    grid = build_grid(GridMap(kind, 5.0), N)
    field = initial_field(problem, grid)
    jac = assemble_jacobian(problem, grid, field, "analytic")
    # the second rhs, the residual at a perturbed field, replays the
    # factors the first solve kept
    perturbed = field + 1e-3 * np.random.default_rng(N).standard_normal(field.shape)
    for rhs in (-assemble_residual(problem, grid, field), -assemble_residual(problem, grid, perturbed)):
        delta = linear_solve(jac, rhs)
        x_norm, b_norm = np.max(np.abs(delta)), np.max(np.abs(rhs))
        backward = (np.max(np.abs(block_product(jac, delta) - rhs))
                    / (block_inf_norm(jac) * x_norm + b_norm))
        assert backward <= 1e-14


def test_singular_interval_block_is_reported():
    # no row couples the last node, so the end system cannot fix it
    jac = StructuredJacobian(
        dU_n=np.ones((2, 1, 1)),
        dU_next=np.zeros((2, 1, 1)),
        dg_0=np.eye(1), dg_N=np.zeros((1, 1)))
    for _ in range(2):  # a failed factorization keeps nothing to replay
        with pytest.raises(SingularSystemError, match="nodes 0 and 2"):
            linear_solve(jac, np.zeros(3))


def test_rank_deficient_pair_block_is_reported():
    # rows 16 and 17 of a chain longer than the dense tail form a pair of
    # the first level; zeroing both of their node-17 blocks leaves that
    # node in no row at all
    jac = random_chain(np.random.default_rng(29), 40, 2)
    jac.dU_next[16] = 0.0
    jac.dU_n[17] = 0.0
    for _ in range(2):  # a failed factorization keeps nothing to replay
        with pytest.raises(SingularSystemError, match="pair block at node 17$"):
            linear_solve(jac, np.zeros(41 * 2))
    jac.dU_n[17] = 1.0  # and leaves the blocks writable


def test_all_zero_small_system_is_reported_as_end_system():
    # N = 2 has no pair block: the whole system is the dense tail
    jac = StructuredJacobian(
        dU_n=np.zeros((2, 1, 1)),
        dU_next=np.zeros((2, 1, 1)),
        dg_0=np.zeros((1, 1)), dg_N=np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="nodes 0 and 2"):
            linear_solve(jac, np.zeros(3))


def test_singular_boundary_closure_names_the_iteration():
    # a boundary function that constrains nothing leaves the closure
    # system singular on the very first Newton step
    problem = BvpProblem(
        name="unconstrained", d=1,
        f=lambda x, u: -u,
        g=lambda u0, u_inf: np.zeros(1),
        initial_iterate=lambda x: np.zeros(1),
        df_du=lambda x, u: np.array([[-1.0]]),
        dg=(np.zeros((1, 1)), np.zeros((1, 1))))
    grid = build_grid(GridMap("log", 1.0), 4)
    with pytest.raises(SingularSystemError, match="iteration 1"):
        newton_solve(problem, grid)


def test_max_iter_exhaustion_reports_failure():
    config = SolverConfig(max_iter=2)
    result = newton_solve(falkner_skan(), build_grid(GridMap("log", 5.0), 40), config=config)
    assert not result.converged
    assert result.iterations == 2
    assert result.final_increment > config.tol
    assert len(result.increments) == 2


def test_auto_mode_uses_finite_differences_when_needed():
    grid = build_grid(GridMap("log", 4.0), 30)
    with_derivatives = newton_solve(linear_decay_problem(True), grid)
    without = newton_solve(linear_decay_problem(False), grid)
    assert with_derivatives.converged and without.converged
    assert np.max(np.abs(with_derivatives.solution - without.solution)) <= 1e-8


def test_forced_fd_mode_matches_analytic():
    grid = build_grid(GridMap("log", 5.0), 20)
    analytic = newton_solve(falkner_skan(), grid, config=SolverConfig(jacobian_mode="analytic"))
    numeric = newton_solve(falkner_skan(), grid, config=SolverConfig(jacobian_mode="fd"))
    assert analytic.converged and numeric.converged
    assert numeric.solution[0, 2] == pytest.approx(analytic.solution[0, 2], abs=1e-9)


def test_explicit_initial_field_is_used():
    grid = build_grid(GridMap("log", 5.0), 40)
    problem = falkner_skan()
    warm = newton_solve(problem, grid).solution
    restarted = newton_solve(problem, grid, initial=warm)
    assert restarted.converged
    assert restarted.iterations <= 2


def test_solver_determinism():
    grid = build_grid(GridMap("log", 5.0), 80)
    first = newton_solve(pile(), grid)
    second = newton_solve(pile(), grid)
    assert np.array_equal(first.solution, second.solution)
    assert first.increments == second.increments


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1e-6)
    for tol in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(jacobian_mode="symbolic")


def test_initial_field_validation():
    grid = build_grid(GridMap("log", 5.0), 4)
    problem = falkner_skan()
    with pytest.raises(ValueError):
        newton_solve(problem, grid, initial=np.zeros((4, 3)))
    bad = np.zeros((5, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        newton_solve(problem, grid, initial=bad)


def test_linear_solve_rhs_validation():
    grid = build_grid(GridMap("alg", 1.0), 3)
    jac = assemble_jacobian(toy_linear_problem(), grid, np.zeros((4, 1)), "analytic")
    with pytest.raises(ValueError):
        linear_solve(jac, np.zeros(5))
