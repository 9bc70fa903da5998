"""Built-in problem definitions and report plumbing."""

import numpy as np
import pytest

from infbvp import (
    PROBLEMS,
    BvpProblem,
    GridMap,
    build_grid,
    falkner_skan,
    initial_field,
    newton_solve,
    pile,
    report_scalar,
)


def test_registry_contents():
    assert set(PROBLEMS) == {"falkner-skan", "pile"}
    for factory in PROBLEMS.values():
        assert isinstance(factory(), BvpProblem)


def test_falkner_skan_right_hand_side():
    problem = falkner_skan(P=1.0)
    assert problem.d == 3
    u = np.array([1.0, 2.0, 3.0])
    assert problem.f(1.0, u) == pytest.approx([2.0, 3.0, 0.0], abs=1e-15)
    # -u1*u3 - P*(1 - u2^2) at a second state
    v = np.array([0.5, 0.0, 2.0])
    assert problem.f(0.1, v)[2] == pytest.approx(-2.0, abs=1e-15)


def test_falkner_skan_derivatives():
    problem = falkner_skan(P=1.0)
    u = np.array([1.0, 2.0, 3.0])
    expected = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-3.0, 4.0, -1.0],
    ])
    assert problem.df_du(1.0, u) == pytest.approx(expected, abs=1e-15)
    dg_0, dg_N = problem.dg
    assert dg_0.shape == (3, 3) and dg_N.shape == (3, 3)
    # boundary function is affine with exactly these matrices
    u0 = np.array([0.2, -0.4, 1.1])
    u_inf = np.array([5.0, 0.7, 0.3])
    base = problem.g(np.zeros(3), np.zeros(3))
    assert problem.g(u0, u_inf) == pytest.approx(base + dg_0 @ u0 + dg_N @ u_inf, abs=1e-14)


def test_falkner_skan_boundary_values():
    problem = falkner_skan()
    got = problem.g(np.array([0.0, 0.0, 9.0]), np.array([3.0, 1.0, 9.0]))
    assert got == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_pile_right_hand_side():
    problem = pile(P1=1.0, P2=0.5, P3=0.5)
    assert problem.d == 4
    u = np.array([2.0, 0.0, 0.0, 0.0])
    # -P1*(1 - exp(-P2*u1)) with u1 = 2
    assert problem.f(0.5, u)[3] == pytest.approx(-(1.0 - np.exp(-1.0)), abs=1e-15)
    assert problem.f(0.5, np.array([0.0, 1.0, 2.0, 3.0])) == pytest.approx(
        [1.0, 2.0, 3.0, 0.0], abs=1e-15)


def test_pile_derivatives_and_boundary():
    problem = pile(P1=2.0, P2=0.25, P3=0.5)
    u = np.array([4.0, 0.0, 0.0, 0.0])
    got = problem.df_du(1.0, u)
    assert got[3, 0] == pytest.approx(-2.0 * 0.25 * np.exp(-1.0), abs=1e-15)
    assert got[0, 1] == got[1, 2] == got[2, 3] == 1.0
    g = problem.g(np.array([0.0, 0.0, 1.5, 0.5]), np.array([0.25, -0.5, 0.0, 0.0]))
    assert g == pytest.approx([1.5, 0.0, 0.25, -0.5], abs=1e-15)


def test_pile_parameter_validation():
    with pytest.raises(ValueError):
        pile(P1=0.0)
    with pytest.raises(ValueError):
        pile(P2=-0.5)
    # P3 is a boundary datum, any real value is fine
    assert isinstance(pile(P3=-2.0), BvpProblem)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_problem_factories_refuse_non_finite_parameters(value):
    with pytest.raises(ValueError, match="finite"):
        falkner_skan(P=value)
    for name in ("P1", "P2", "P3"):
        with pytest.raises(ValueError, match="finite"):
            pile(**{name: value})


def test_right_hand_sides_reject_infinite_coordinates():
    for problem in (falkner_skan(), pile()):
        with pytest.raises(ValueError):
            problem.f(np.inf, np.zeros(problem.d))
        with pytest.raises(ValueError):
            problem.f(np.nan, np.zeros(problem.d))


def test_initial_field_evaluates_every_node():
    grid = build_grid(GridMap("log", 5.0), 6)
    fs_field = initial_field(falkner_skan(), grid)
    assert fs_field.shape == (7, 3)
    x = grid.nodes[:-1]
    profile = np.column_stack([x - 1.0 + np.exp(-x), 1.0 - np.exp(-x), 0.3 * np.exp(-x)])
    assert np.array_equal(fs_field, np.vstack([profile, [1.0, 1.0, 0.0]]))
    pile_field = initial_field(pile(), grid)
    assert np.array_equal(pile_field, np.ones((7, 4)))


def test_initial_field_validation():
    grid = build_grid(GridMap("log", 5.0), 4)
    wrong_shape = BvpProblem(
        name="wrong", d=2,
        f=lambda x, u: np.zeros(2),
        g=lambda u0, u_inf: np.zeros(2),
        initial_iterate=lambda x: np.zeros(3))
    with pytest.raises(ValueError):
        initial_field(wrong_shape, grid)
    not_finite = BvpProblem(
        name="nan-start", d=1,
        f=lambda x, u: np.zeros(1),
        g=lambda u0, u_inf: np.zeros(1),
        initial_iterate=lambda x: np.array([np.nan]))
    with pytest.raises(ValueError):
        initial_field(not_finite, grid)


def test_report_scalars():
    problem = falkner_skan()
    result = newton_solve(problem, build_grid(GridMap("log", 5.0), 20))
    assert report_scalar(problem, result, "fpp0") == result.solution[0, 2]
    assert report_scalar(problem, result, "fpp_inf") == result.solution[-1, 2]
    with pytest.raises(KeyError, match="fpp0"):
        report_scalar(problem, result, "wall_shear")


def test_pile_report_scalars():
    problem = pile()
    result = newton_solve(problem, build_grid(GridMap("log", 5.0), 20))
    assert report_scalar(problem, result, "u0") == result.solution[0, 0]
    assert report_scalar(problem, result, "du0") == result.solution[0, 1]


def test_homann_parameter_variant():
    # P = 1/2 changes only the pressure-gradient coefficient
    problem = falkner_skan(P=0.5)
    u = np.array([0.0, 0.0, 1.0])
    assert problem.f(0.0, u)[2] == pytest.approx(-0.5, abs=1e-15)
