"""Built-in problem definitions and report plumbing."""

import dataclasses
import warnings

import numpy as np
import pytest

from infbvp import (
    PROBLEMS,
    BvpProblem,
    GridMap,
    assemble_residual,
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


@pytest.mark.parametrize("value", ["1", True, False])
def test_falkner_skan_refuses_a_string_or_bool_parameter(value):
    with pytest.raises(TypeError, match="pressure-gradient parameter P must be a real number"):
        falkner_skan(P=value)


@pytest.mark.parametrize("value", ["1", True, False])
@pytest.mark.parametrize("name", ["P1", "P2", "P3"])
def test_pile_refuses_a_string_or_bool_parameter(name, value):
    with pytest.raises(TypeError, match=f"pile parameter {name} must be a real number"):
        pile(**{name: value})


def test_limits_default_to_every_component():
    assert falkner_skan().limits == (1, 2)  # u1 grows like x
    assert pile().limits == (0, 1, 2, 3)
    problem = dataclasses.replace(pile(), limits=[np.int64(3), 1, 1])
    assert problem.limits == (1, 3)
    for limits in ((), (4,), (-1, 0)):
        with pytest.raises(ValueError, match=r"limits must name components in 0\.\.3"):
            dataclasses.replace(pile(), limits=limits)
    for limits in ((1.0,), (True, 2)):
        with pytest.raises(TypeError, match="limits entry must be an integer"):
            dataclasses.replace(pile(), limits=limits)


def test_component_count_is_an_integer_of_at_least_one():
    toy = dataclasses.replace(pile(), d=np.int64(4))
    assert type(toy.d) is int and toy.d == 4
    for d in (2.5, 4.0, "4", True):
        with pytest.raises(TypeError, match="component count d must be an integer"):
            dataclasses.replace(pile(), d=d, limits=None)
    with pytest.raises(ValueError, match="component count d must be at least 1, got 0"):
        dataclasses.replace(pile(), d=0, limits=None, reports={})


def test_initial_field_evaluates_every_node():
    grid = build_grid(GridMap("log", 5.0), 6)
    fs_field = initial_field(falkner_skan(), grid)
    assert fs_field.shape == (7, 3)
    x = grid.nodes[:-1]
    profile = np.column_stack([x - 1.0 + np.exp(-x), 1.0 - np.exp(-x), 0.3 * np.exp(-x)])
    assert np.array_equal(fs_field, np.vstack([profile, [1.0, 1.0, 0.0]]))
    pile_field = initial_field(pile(), grid)
    assert pile_field.shape == (7, 4)
    b = (1.0 * 0.5 / 4.0) ** 0.25
    bx, decay = b * x, 0.5 / (2.0 * b ** 3) * np.exp(-b * x)
    cos, sin = np.cos(bx), np.sin(bx)
    beam = np.column_stack([decay * cos, -b * decay * (cos + sin),
                            2.0 * b * b * decay * sin, 2.0 * b ** 3 * decay * (cos - sin)])
    assert np.array_equal(pile_field, np.vstack([beam, np.zeros(4)]))


@pytest.mark.parametrize("params", [(1.0, 0.5, 0.5), (2.0, 2.0, -1.0), (0.3, 1.5, 2.0)])
def test_pile_start_solves_the_linearized_pile(params):
    # the start is the decaying solution of u1'''' = -P1*P2*u1: its
    # central differences are (u2, u3, u4, -P1*P2*u1)
    P1, P2, P3 = params
    start = pile(P1, P2, P3).initial_iterate
    x, h = np.array([0.3, 1.0, 2.5, 4.0, 7.5]), 1e-5
    slope = (start(x + h) - start(x - h)) / (2.0 * h)
    u = start(x)
    want = np.vstack([u[1:], -P1 * P2 * u[0]])
    assert np.max(np.abs(slope - want)) <= 1e-7 * np.max(np.abs(want))
    u0 = start(np.zeros(1))[:, 0]
    assert u0[2] == 0.0 and u0[3] == pytest.approx(P3, rel=1e-15)


@pytest.mark.parametrize("kind", ["log", "alg"])
def test_pile_start_is_zero_at_infinity(kind):
    grid = build_grid(GridMap(kind, 5.0), 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = initial_field(pile(), grid)
    assert np.all(np.isfinite(field))
    assert np.array_equal(field[-1], np.zeros(4)) and np.all(field[:-1, 0] != 0.0)


def test_pile_without_shear_starts_at_its_solution():
    # P3 = 0 leaves the pile at rest, and the start is exactly that
    problem, grid = pile(P3=0.0), build_grid(GridMap("log", 5.0), 16)
    field = initial_field(problem, grid)
    assert np.array_equal(field, np.zeros((17, 4)))
    assert not np.any(assemble_residual(problem, grid, field))
    result = newton_solve(problem, grid)
    assert result.converged and result.increments == [0.0]


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


def same_bits(a, b):
    return type(a) is type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


def test_report_scalars():
    problem = falkner_skan()
    assert problem.reports == {"fpp0": (0, 2), "fpp_inf": (-1, 2)}
    result = newton_solve(problem, build_grid(GridMap("log", 5.0), 20))
    # bitwise what the reports' former closures over the result returned
    assert same_bits(report_scalar(problem, result, "fpp0"), float(result.solution[0, 2]))
    assert same_bits(report_scalar(problem, result, "fpp_inf"), float(result.solution[-1, 2]))
    with pytest.raises(KeyError, match=r"problem 'falkner-skan' has no report scalar "
                                       r"'wall_shear'; available: \['fpp0', 'fpp_inf'\]"):
        report_scalar(problem, result, "wall_shear")


def test_pile_report_scalars():
    problem = pile()
    assert problem.reports == {"u0": (0, 0), "du0": (0, 1)}
    result = newton_solve(problem, build_grid(GridMap("log", 5.0), 20))
    assert same_bits(report_scalar(problem, result, "u0"), float(result.solution[0, 0]))
    assert same_bits(report_scalar(problem, result, "du0"), float(result.solution[0, 1]))


def test_report_entries_are_stored_as_integer_pairs():
    problem = dataclasses.replace(falkner_skan(), reports={"a": [np.int64(-1), np.int64(1)],
                                                           "b": (0, np.int32(0))})
    assert problem.reports == {"a": (-1, 1), "b": (0, 0)}
    assert all(type(i) is int for entry in problem.reports.values() for i in entry)
    # declared once: replace() rebuilds from the stored pairs
    assert dataclasses.replace(problem).reports == problem.reports


NOT_AN_END = (ValueError, r"report 'q' must be \(0, i\) with i in 0\.\.2 or \(-1, i\) "
                          r"with i in limits \(1, 2\)")
NOT_AN_INTEGER = (TypeError, r"report 'q' entry must be an integer")


@pytest.mark.parametrize("entry, refusal", [
    ((1, 2), NOT_AN_END),    # an interior node moves with N
    ((-2, 2), NOT_AN_END),
    ((0, 3), NOT_AN_END),    # component d
    ((0, -1), NOT_AN_END),
    ((-1, 0), NOT_AN_END),   # u1 grows like x: it has no value at infinity
    ((0, 1, 2), NOT_AN_END),
    ((0,), NOT_AN_END),
    ((0, 2.0), NOT_AN_INTEGER),
    ((0.0, 2), NOT_AN_INTEGER),
    ((0, True), NOT_AN_INTEGER),
    ((False, 2), NOT_AN_INTEGER),
    ("02", NOT_AN_INTEGER),
    (lambda result: float(result.solution[0, 2]), (TypeError, "not iterable")),
], ids=["interior-node", "node-minus-2", "component-d", "component-minus-1",
        "infinity-without-a-limit", "three-entries", "one-entry", "float-component",
        "float-node", "bool-component", "bool-node", "string", "closure"])
def test_malformed_report_declarations_are_refused(entry, refusal):
    error, message = refusal
    with pytest.raises(error, match=message):
        dataclasses.replace(falkner_skan(), reports={"fpp0": (0, 2), "q": entry})


def test_homann_parameter_variant():
    # P = 1/2 changes only the pressure-gradient coefficient
    problem = falkner_skan(P=0.5)
    u = np.array([0.0, 0.0, 1.0])
    assert problem.f(0.0, u)[2] == pytest.approx(-0.5, abs=1e-15)
