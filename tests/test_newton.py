"""Newton iteration: its steps and kept-factor end steps, the coarse start,
every failure reason, and sweeps."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (count_jacobians, dense_linear_solve, linear_decay_problem,
                      nonlinear_decay_problem, toy_linear_problem)
from infbvp import (
    BvpProblem,
    GridMap,
    SolverConfig,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    falkner_skan,
    initial_field,
    linear_solve,
    newton_solve,
    pile,
    prolong,
    report_scalar,
    sweep,
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
    assert result.increments[-1] <= 1e-6
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


@pytest.mark.parametrize("N", [20, 160, 1284])
@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("kind", ["log", "alg"])
@pytest.mark.parametrize("make_problem", [falkner_skan, pile], ids=["falkner-skan", "pile"])
def test_cold_solve_matches_full_newton(make_problem, kind, mode, N):
    # a cold solve from the default iterate ends on the kept factors only
    # when the contraction predicts the end; the kept step leaves an error
    # below tol**2, so the answer is full Newton's to roundoff (measured at
    # most 1.8e-15). 8 does not divide 1284, so it takes no coarse start
    problem, grid = make_problem(), build_grid(GridMap(kind, 5.0), N)
    solution, converged, iterations = full_newton(problem, grid, mode)
    result = newton_solve(problem, grid, config=SolverConfig(jacobian_mode=mode))
    assert (result.iterations, result.converged) == (iterations, converged)
    assert np.max(np.abs(result.solution - solution)) <= 1e-10


@pytest.mark.parametrize("N", [160, 320, 640, 1280, 1284, 2560, 2564])
@pytest.mark.parametrize("make_problem", [falkner_skan, pile], ids=["falkner-skan", "pile"])
def test_cold_fd_solve_ends_on_the_kept_factors(make_problem, N, monkeypatch):
    # the fd-jacobian benchmark's cases (N <= 1280) and larger grids: the
    # last step of each reuses the factors of the step before, so one FD
    # Jacobian fewer per solve. N = 1280 and 2560 start from the solve on
    # N/8 and assemble at most 2 Jacobians of their own; 8 does not
    # divide 1284 and 2564, which start from the default iterate
    counts = count_jacobians(monkeypatch)
    result = newton_solve(make_problem(), build_grid(GridMap("log", 5.0), N),
                          config=SolverConfig(jacobian_mode="fd"))
    assert result.converged
    assert counts[N] == result.iterations - 1
    if N in (1280, 2560):
        assert set(counts) == {N // 8, N} and counts[N] <= 2
    else:
        assert set(counts) == {N} and counts[N] <= 3


def test_two_step_cold_solve_assembles_every_jacobian(monkeypatch):
    # the second step of a cold solve has one increment behind it, which
    # predicts nothing: both steps are full steps
    counts = count_jacobians(monkeypatch)
    result = newton_solve(toy_linear_problem(), build_grid(GridMap("alg", 1.0), 2))
    assert result.converged and result.iterations == 2
    assert counts[2] == 2


def count_cold_solve(monkeypatch, problem, grid, mode="analytic"):
    """A cold solve's iterations, Jacobians per grid size N and linear solves."""
    jacobians, solves = count_jacobians(monkeypatch), []
    solve = newton.linear_solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(newton, "linear_solve", counted)
    result = newton_solve(problem, grid, config=SolverConfig(jacobian_mode=mode))
    assert result.converged
    return result.iterations, jacobians, len(solves)


@pytest.mark.parametrize("N", [20, 160, 640, 1280, 1284])
@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("kind", ["log", "alg"])
def test_pile_cold_solve_counts(kind, mode, N, monkeypatch):
    # the beam start is close enough that three Jacobians do. N = 1280 is
    # the smallest grid that starts on N/8: those three are assembled on
    # N = 160, and one more ends the fine grid. Neither 640 nor 1284, which
    # 8 does not divide, assembles one on a coarse grid
    iterations, jacobians, _ = count_cold_solve(
        monkeypatch, pile(), build_grid(GridMap(kind, 5.0), N), mode)
    if N == 1280:
        assert iterations == 2 and jacobians == {160: 3, 1280: 1}
    else:
        assert iterations <= 4 and jacobians == {N: 3}


@pytest.mark.parametrize("N", [20, 160, 640, 1280, 1284])
@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_cold_solve_tries_no_step_on_its_first_correction(mode, N, monkeypatch):
    # on the alg map Falkner-Skan's first correction is mostly u1 at the
    # infinity node; predicting from it tried, and rejected, one replay.
    # N = 1280 takes those 4 linear solves on N = 160, then 2 of its own
    iterations, jacobians, solves = count_cold_solve(
        monkeypatch, falkner_skan(P=1.0), build_grid(GridMap("alg", 5.0), N), mode)
    if N == 1280:
        assert (iterations, jacobians, solves) == (2, {160: 3, 1280: 1}, 6)
    else:
        assert (iterations, jacobians, solves) == (4, {N: 3}, 4)


@pytest.mark.parametrize("kind", ["log", "alg"])
@pytest.mark.parametrize("make_problem", [falkner_skan, lambda: falkner_skan(P=-0.15),
                                          lambda: falkner_skan(P=-0.18), pile],
                         ids=["falkner-skan", "falkner-skan-P-0.15", "falkner-skan-P-0.18",
                              "pile"])
def test_cold_start_from_the_eighth_grid_keeps_the_answer(make_problem, kind):
    # N = 1280 and 2560 start from the prolonged N/8 solution; measured at
    # most 3.7e-11 from a solve started from the default iterate
    problem = make_problem()
    for N in (1280, 2560):
        grid = build_grid(GridMap(kind, 5.0), N)
        for mode in ("analytic", "fd"):
            config = SolverConfig(jacobian_mode=mode)
            result = newton_solve(problem, grid, config=config)
            reference = newton_solve(problem, grid, initial=initial_field(problem, grid),
                                     config=config)
            assert result.converged and reference.converged, (N, mode)
            for name in problem.reports:
                assert abs(report_scalar(problem, result, name)
                           - report_scalar(problem, reference, name)) <= 1e-8, (N, mode, name)


@pytest.mark.parametrize("P", [-0.18, -0.15])
def test_kept_end_step_contracts_over_the_components_with_a_limit(P):
    # on alg at N = 10240, u1 ~ x dominates the first correction of the
    # coarse-started solve; a contraction measured over every component
    # understated theta and kept end steps up to 1.1e-7 off. Measured over
    # Falkner-Skan's limits u2 and u3, these 12 cases land within 2.3e-14
    problem = falkner_skan(P=P)
    for c in (4.5, 5.0, 5.5):
        grid = build_grid(GridMap("alg", c), 10240)
        for mode in ("analytic", "fd"):
            result = newton_solve(problem, grid, config=SolverConfig(jacobian_mode=mode))
            reference = newton_solve(problem, grid,
                                     config=SolverConfig(tol=1e-12, jacobian_mode=mode))
            assert result.converged and reference.converged, (c, mode)
            assert abs(result.solution[0, 2] - reference.solution[0, 2]) <= 1e-8, (c, mode)


def test_a_limit_whose_correction_is_zero_refuses_every_end_step(monkeypatch):
    # the only limit component starts at its exact value 0, so its
    # corrections are all 0: theta reads inf instead of dividing by zero,
    # every tried end step is refused, and every step has its own Jacobian
    base = nonlinear_decay_problem()

    def f(x, u):
        return np.concatenate([base.f(x, u[:2]), [0.0 * u[2]]])

    def g(u0, u_inf):
        return np.append(base.g(u0[:2], u_inf[:2]), u0[2])

    problem = BvpProblem(name="idle-limit", d=3, f=f, g=g,
                         initial_iterate=lambda x: np.zeros(3), limits=(2,))
    iterations, jacobians, solves = count_cold_solve(
        monkeypatch, problem, build_grid(GridMap("log", 2.0), 40), "fd")
    assert jacobians == {40: iterations} and solves > iterations


@pytest.mark.parametrize("kind", ["log", "alg"])
@pytest.mark.parametrize("params", [{"P2": 2.0}, {"P3": -1.0}], ids=["P2=2", "P3=-1"])
def test_pile_start_is_robust(params, kind):
    problem, grid = pile(**params), build_grid(GridMap(kind, 5.0), 160)
    result = newton_solve(problem, grid)
    assert result.converged and result.iterations <= 5
    reference = newton_solve(problem, grid, initial=np.ones((grid.N + 1, 4)),
                             config=SolverConfig(tol=1e-12))
    assert reference.converged
    assert np.max(np.abs(result.solution[0, :2] - reference.solution[0, :2])) <= 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("block", ["dU_n", "dU_next", "dg_0", "dg_N"])
def test_nonfinite_block_gives_nonfinite_delta_silently(block, value):
    # newton_solve stops on "correction is not finite" by reading the
    # delta, so linear_solve must hand a non-finite block through, not warn.
    # interval block 17 is reduced in the grouped stage on 40 intervals
    # and in the first pairwise level on 160, and block 1 of 43 intervals
    # in the first pairwise level too, since four does not divide 43; the
    # boundary blocks enter the dense tail on every grid
    problem = pile()
    for N, row in [(40, 17), (43, 1), (160, 17)]:
        grid = build_grid(GridMap("log", 5.0), N)
        field = initial_field(problem, grid)
        jac = assemble_jacobian(problem, grid, field, "analytic")
        getattr(jac, block)[(row, 1, 2) if block.startswith("dU") else (1, 2)] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = linear_solve(jac, -assemble_residual(problem, grid, field))
        assert delta.shape == (N + 1, 4)
        assert not np.all(np.isfinite(delta)), N


def test_nonfinite_jacobian_stops_newton_unconverged():
    problem = linear_decay_problem(True)
    problem = BvpProblem(name="nan-jacobian", d=2, f=problem.f, g=problem.g,
                         initial_iterate=problem.initial_iterate,
                         df_du=lambda x, u: np.full((2, 2, x.shape[0]), np.nan), dg=problem.dg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = newton_solve(problem, build_grid(GridMap("log", 4.0), 30))
    assert not result.converged and result.reason == "iteration 1: correction is not finite"
    assert result.increments[-1] == math.inf


def overflow_problem():
    """The first correction is 1e308 at every node: finite, but it
    overflows the start of 1e308."""
    return BvpProblem(name="overflow", d=1,
                      f=lambda x, u: np.zeros_like(u),
                      g=lambda u0, u_inf: 0.5 * u0 - 1e308,
                      initial_iterate=lambda x: np.array([1e308]),
                      df_du=lambda x, u: np.zeros((1, 1)),
                      dg=(np.array([[0.5]]), np.array([[0.0]])))


def test_overflowing_step_stops_newton_unconverged():
    # the run-wide filter turns a leaked RuntimeWarning into an error
    problem = overflow_problem()
    grid = build_grid(GridMap("log", 1.0), 8)
    result = newton_solve(problem, grid)
    assert not result.converged
    assert result.increments == [math.inf]
    assert np.all(result.solution == initial_field(problem, grid))


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


def unconstrained_problem():
    """A boundary function that constrains nothing: the closure system is
    singular on the very first Newton step."""
    return BvpProblem(
        name="unconstrained", d=1, f=lambda x, u: -u, g=lambda u0, u_inf: np.zeros(1),
        initial_iterate=lambda x: np.zeros(1), df_du=lambda x, u: np.array([[-1.0]]),
        dg=(np.zeros((1, 1)), np.zeros((1, 1))))


def test_singular_boundary_closure_names_the_iteration():
    grid = build_grid(GridMap("log", 1.0), 4)
    result = newton_solve(unconstrained_problem(), grid)
    assert not result.converged
    assert result.reason == "iteration 1: end system on nodes 0 and 4 is singular"


def test_a_coarse_start_that_raises_leaves_the_fine_grid_error():
    # the N = 320 solve that would start N = 2560 fails; the reason the
    # caller sees comes from the fine grid's own solve and names its node
    # and interval, not the coarse grid's
    grid = build_grid(GridMap("log", 1.0), 2560)
    result = newton_solve(unconstrained_problem(), grid)
    assert result.reason == "iteration 1: end system on nodes 0 and 2560 is singular"
    blows_up = BvpProblem(
        name="blows-up", d=1, f=lambda x, u: np.where(x > 1.0, np.inf, 0.0)[None],
        g=lambda u0, u_inf: u0, initial_iterate=lambda x: np.zeros(1))
    interval = int(np.argmax(grid.stencil_arrays()[3] > 1.0))
    assert newton_solve(blows_up, grid).reason == \
        f"iteration 1: non-finite right-hand side on interval {interval}"


def failing_problems():
    """name -> (problem, jacobian mode, max_iter, reason) of solves on the
    log map, c = 1, N = 8, that end unconverged. The toy problem's first
    step reaches its discrete solution with u0 = 2, where the poisoned f
    (u > 1) and the poisoned g (u0 beyond 2 + 1e-9, which only the FD
    Jacobian's step reaches) turn non-finite."""
    toy = toy_linear_problem()
    poisoned_f = dataclasses.replace(toy, f=lambda x, u: np.where(u > 1.0, np.inf, -u))
    poisoned_g = dataclasses.replace(
        toy, g=lambda u0, u_inf: np.array([u0[0] - 2.0 + (np.inf if u0[0] > 2.0 + 1e-9 else 0.0)]))
    f_reason = "iteration 2: non-finite right-hand side on interval 0"
    return {
        "f-analytic": (poisoned_f, "analytic", 50, f_reason),
        "f-fd": (poisoned_f, "fd", 50, f_reason),
        "g-fd": (poisoned_g, "fd", 50, "iteration 2: non-finite boundary function value"),
        "singular": (unconstrained_problem(), "analytic", 50,
                     "iteration 1: end system on nodes 0 and 8 is singular"),
        "nonfinite": (overflow_problem(), "analytic", 50,
                      "iteration 1: correction is not finite"),
        "max-iter": (falkner_skan(), "analytic", 2, "did not converge in 2 iterations"),
    }


@pytest.mark.parametrize("name", list(failing_problems()))
def test_every_failure_returns_unconverged_with_its_reason(name):
    # a failed iteration k records an increment of inf and keeps the
    # iterate of step k - 1, the one a solve capped at k - 1 returns
    problem, mode, max_iter, reason = failing_problems()[name]
    grid = build_grid(GridMap("log", 1.0), 8)
    config = SolverConfig(max_iter=max_iter, jacobian_mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = newton_solve(problem, grid, config=config)
    assert not result.converged and result.reason == reason
    if name == "max-iter":
        assert result.iterations == max_iter and all(map(math.isfinite, result.increments))
        assert np.all(np.isfinite(result.solution))
        return
    failed = int(reason.split()[1].rstrip(":"))
    assert result.iterations == failed and result.increments[-1] == math.inf
    if failed == 1:
        before = initial_field(problem, grid)
    else:
        capped = dataclasses.replace(config, max_iter=failed - 1)
        before = newton_solve(problem, grid, config=capped).solution
    assert np.array_equal(result.solution, before)


@pytest.mark.parametrize("N, jacobians", [(40, {40: 2}), (2560, {320: 2, 2560: 2})],
                         ids=["40", "2560"])
def test_max_iter_exhaustion_reports_failure(N, jacobians, monkeypatch):
    # at N = 2560 the N = 320 solve runs out of iterations first, so the
    # fine grid starts from the default iterate: its first increment is
    # one full step from there
    config = SolverConfig(max_iter=2)
    problem, grid = falkner_skan(), build_grid(GridMap("log", 5.0), N)
    start = initial_field(problem, grid)
    first = linear_solve(assemble_jacobian(problem, grid, start, "analytic"),
                         -assemble_residual(problem, grid, start))
    counts = count_jacobians(monkeypatch)
    result = newton_solve(problem, grid, config=config)
    assert not result.converged
    assert result.iterations == 2
    assert result.increments[-1] > config.tol
    assert len(result.increments) == 2
    assert result.increments[0] == float(np.mean(np.abs(first)))
    assert counts == jacobians


def record_sweep(monkeypatch, cap=(), poison=()):
    """Replace newton_solve, as sweep looks it up, by a recorder of (N,
    initial, result) around the real solve. A grid whose N is in cap is
    solved with max_iter=1, and one in poison with an f that is inf
    everywhere, so either fails the way a solve fails."""
    calls = []

    def recorder(problem, grid, initial=None, config=None):
        if grid.N in cap:
            config = SolverConfig(max_iter=1)
        if grid.N in poison:
            problem = dataclasses.replace(problem, f=lambda x, u: np.full_like(u, np.inf))
        start = None if initial is None else initial.copy()
        result = newton_solve(problem, grid, initial=initial, config=config)
        calls.append((grid.N, start, result))
        return result

    monkeypatch.setattr(newton, "newton_solve", recorder)
    return calls


def test_sweep_warm_starts_each_grid_from_the_previous_solution(monkeypatch):
    calls = record_sweep(monkeypatch)
    grids = [build_grid(GridMap("log", 5.0), n) for n in (20, 40, 80, 160)]
    results = sweep(falkner_skan(), grids)
    assert [result for _, _, result in calls] == results
    assert [n for n, _, _ in calls] == [20, 40, 80, 160] and calls[0][1] is None
    for (_, _, previous), (n, initial, result) in zip(calls, calls[1:]):
        assert result.converged and initial.shape == (n + 1, 3)
        assert initial[0::2].tobytes() == previous.solution.tobytes()


@pytest.mark.parametrize("failure, reason", [
    ("cap", "did not converge in 1 iterations"),
    ("poison", "iteration 1: non-finite right-hand side on interval 0"),
], ids=["max-iter", "reason"])
def test_sweep_starts_cold_after_a_row_that_did_not_converge(failure, reason, monkeypatch):
    calls = record_sweep(monkeypatch, **{failure: (40,)})
    grids = [build_grid(GridMap("log", 5.0), n) for n in (20, 40, 80, 160)]
    results = sweep(pile(), grids)
    assert [result.reason for result in results] == [None, reason, None, None]
    # the failed warm row is solved again cold, and that solve is its result
    assert [(n, start is None) for n, start, _ in calls] == [
        (20, True), (40, False), (40, True), (80, True), (160, False)]
    assert calls[2][2] is results[1]
    assert calls[1][1][0::2].tobytes() == results[0].solution.tobytes()
    assert calls[4][1][0::2].tobytes() == results[2].solution.tobytes()


def test_a_warm_row_that_does_not_converge_is_solved_cold():
    # Falkner-Skan P = -0.15 on alg: warm-started from N = 20, the N = 40
    # solve runs out of iterations; the cold solve converges
    problem = falkner_skan(P=-0.15)
    grids = [build_grid(GridMap("alg", 5.0), n) for n in (20, 40)]
    start = prolong(grids[0], newton_solve(problem, grids[0]).solution)
    assert newton_solve(problem, grids[1], initial=start).reason == (
        "did not converge in 50 iterations")
    cold = newton_solve(problem, grids[1])
    _, swept = sweep(problem, grids)
    assert cold.converged and swept.solution.tobytes() == cold.solution.tobytes()
    assert (swept.increments, swept.reason) == (cold.increments, cold.reason)


def test_sweep_refuses_grids_that_do_not_double_before_any_solve(monkeypatch):
    calls = record_sweep(monkeypatch)
    grids = [build_grid(GridMap("log", 5.0), n) for n in (20, 40, 60)]
    with pytest.raises(ValueError) as exc:
        sweep(pile(), grids)
    assert str(exc.value) == "sweep grids must double: 40 is followed by 60"
    assert calls == []


@pytest.mark.parametrize("N", [20, 2560])
def test_a_one_grid_sweep_is_newton_solve(N):
    # N = 2560 also takes the coarse start from N = 320
    grid = build_grid(GridMap("log", 5.0), N)
    (swept,) = sweep(falkner_skan(), [grid])
    solved = newton_solve(falkner_skan(), grid)
    assert swept.solution.tobytes() == solved.solution.tobytes()
    assert (swept.increments, swept.reason) == (solved.increments, solved.reason)


def test_a_warm_sweep_row_skips_the_coarse_start(monkeypatch):
    # N = 2560 starts from the N = 1280 row, so no N = 320 solve runs;
    # the cold 1280 row runs its own start on N = 160
    counts = count_jacobians(monkeypatch)
    grids = [build_grid(GridMap("log", 5.0), n) for n in (1280, 2560)]
    assert all(result.converged for result in sweep(pile(), grids))
    assert set(counts) == {160, 1280, 2560}


def test_a_duck_typed_grid_solves_from_the_default_iterate(monkeypatch):
    # prototypes pass objects with only N, nodes and stencil_arrays(); the
    # coarse start needs a QuasiUniformGrid's map and rule, so it is skipped
    grid = build_grid(GridMap("log", 5.0), 1280)
    stencils = grid.stencil_arrays()
    duck = SimpleNamespace(N=grid.N, nodes=grid.nodes, stencil_arrays=lambda: stencils)
    counts = count_jacobians(monkeypatch)
    result = newton_solve(falkner_skan(P=1.0), duck)
    assert result.converged and result.iterations == 4
    assert set(counts) == {1280}


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
    # each refusal names its parameter and the value read
    for tol in (0, 0.0, -1, -np.inf, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^tolerance must be positive and finite, "
                                             f"got {float(tol)}$"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    for max_iter in (0, -1, np.int64(-1)):
        with pytest.raises(ValueError, match=f"^max_iter must be at least 1, got {max_iter}$"):
            SolverConfig(max_iter=max_iter)
    for mode in ("symbolic", None):
        with pytest.raises(ValueError):
            SolverConfig(jacobian_mode=mode)
    # a budget that is not an integer is refused, not truncated, parsed
    # or read as 1 (True ran one iteration)
    for max_iter in (2.5, 3.0, "3", True):
        with pytest.raises(TypeError, match="max_iter must be an integer"):
            SolverConfig(max_iter=max_iter)
    grid = build_grid(GridMap("log", 5.0), 40)
    capped = newton_solve(falkner_skan(), grid, config=SolverConfig(max_iter=np.int64(2)))
    assert capped.reason == "did not converge in 2 iterations" and capped.iterations == 2
    # a checked value cannot change later; replace() builds a checked copy
    config = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_iter = 2.5
    assert dataclasses.replace(config, max_iter=3).max_iter == 3
    with pytest.raises(TypeError):
        dataclasses.replace(config, max_iter=2.5)


def test_config_tolerance_refuses_strings_and_bools():
    # True would run at tol = 1.0, "1e-8" at the parsed value
    for tol in ("1e-8", True):
        with pytest.raises(TypeError, match="tolerance must be a real number"):
            SolverConfig(tol=tol)
    assert SolverConfig(tol=np.float64(1e-8)).tol == 1e-8


def test_initial_field_validation():
    grid = build_grid(GridMap("log", 5.0), 4)
    problem = falkner_skan()
    with pytest.raises(ValueError):
        newton_solve(problem, grid, initial=np.zeros((4, 3)))
    bad = np.zeros((5, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        newton_solve(problem, grid, initial=bad)
