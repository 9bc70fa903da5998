"""Grid maps, quasi-uniform grids, and stencil coefficients."""

import math

import numpy as np
import pytest

from infbvp import GridMap, QuasiUniformGrid, build_grid
from infbvp.grids import _integer, _real


def fractional_nodes(grid_map, N, alpha):
    """x_{n+alpha} on every interval from a map evaluation of its own at
    (n + alpha)/N: the reference for build_grid's quarter nodes."""
    return grid_map.values((np.arange(N) + alpha) / N)


def reference_grid(grid_map, N, continuation):
    """(nodes, (a, b, c_w, x_mid)) by the formulas of one map evaluation
    per array, None where x_{N-1/4} overflows."""
    if not np.isfinite(grid_map.values((N - 0.25) / N)):
        return None
    nodes = grid_map.values(np.arange(N + 1) / N)
    x_mid = fractional_nodes(grid_map, N, 0.5)
    b = np.empty(N)
    b[: N - 1] = (x_mid[: N - 1] - nodes[: N - 1]) / (nodes[1:N] - nodes[: N - 1])
    b[N - 1] = b[N - 2] if continuation else 0.0
    a = 2.0 * (fractional_nodes(grid_map, N, 0.75) - fractional_nodes(grid_map, N, 0.25))
    return nodes, (a, b, 1.0 - b, x_mid)


def test_log_map_frozen_values():
    x = GridMap("log", 5.0).values([0.0, 0.5, 0.95, 0.025, 1.0])
    assert x[0] == 0.0
    assert x[1] == pytest.approx(5.0 * np.log(2.0), abs=1e-14)
    assert x[2] == pytest.approx(14.978661367769954, abs=1e-12)
    assert x[3] == pytest.approx(0.12658903992144938, abs=1e-15)
    assert x[4] == np.inf


def test_alg_map_frozen_values():
    x = GridMap("alg", 1.0).values([0.0, 0.25, 0.5, 1.0])
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert x[2] == pytest.approx(1.0, abs=1e-15)
    assert x[3] == np.inf


def test_map_kind_coercion():
    m = GridMap("log", 2)
    assert m.kind == "log"
    assert isinstance(m.c, float) and m.c == 2.0
    # every map covers the half line; there is no whole-line kind
    with pytest.raises(ValueError, match="map kind must be 'log' or 'alg', got 'tan'"):
        GridMap("tan", 1.0)


def test_map_validation():
    with pytest.raises(ValueError):
        GridMap("log", 0.0)
    with pytest.raises(ValueError):
        GridMap("log", -1.0)
    with pytest.raises(ValueError):
        GridMap("spline", 1.0)
    for c in (0, 0.0, -1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^map parameter c must be positive and finite, "
                                             f"got {float(c)}$"):
            GridMap("alg", c)


def test_map_scale_refuses_strings_and_bools():
    # c is read as a real number, not parsed: "5" and True are refused
    for c in ("5", True, b"5"):
        with pytest.raises(TypeError, match="map parameter c must be a real number"):
            GridMap("log", c)
    for c in (5, np.float64(5.0), np.int64(5)):
        assert GridMap("alg", c).c == 5.0 and type(GridMap("alg", c).c) is float


def test_number_helpers_check_the_range_they_are_given():
    # least is inclusive; positive refuses zero of either sign but takes
    # the smallest subnormal
    assert _integer(np.int64(1), "n", least=1) == 1 and _integer(-5, "n") == -5
    with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
        _integer(1, "n", least=2)
    assert _real(5e-324, "x", positive=True) == 5e-324 and _real(-2, "x") == -2.0
    with pytest.raises(ValueError, match="^x must be positive and finite, got -0.0$"):
        _real(-0.0, "x", positive=True)
    with pytest.raises(ValueError, match="^x must be finite, got nan$"):
        _real(np.float32("nan"), "x")
    # the type is checked before the range
    with pytest.raises(TypeError, match="^n must be an integer, got bool$"):
        _integer(False, "n", least=1)
    with pytest.raises(TypeError, match="^x must be a real number, got str$"):
        _real("-1", "x", positive=True)


def test_map_domain_validation():
    m = GridMap("alg", 1.0)
    with pytest.raises(ValueError):
        m.values(-0.1)
    with pytest.raises(ValueError):
        m.values(1.1)
    with pytest.raises(ValueError, match="finite"):
        GridMap("log", math.inf)
    # NaN fails both xi < 0 and xi > 1, yet lies in no interval
    for kind in ("log", "alg"):
        for xi in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match=r"parameter must lie in \[0, 1\]"):
                GridMap(kind, 5.0).values(xi)


def test_build_grid_semi_infinite():
    grid = build_grid(GridMap("log", 5.0), 20)
    assert grid.N == 20
    assert grid.nodes.shape == (21,)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == np.inf
    assert np.all(np.diff(grid.nodes[:-1]) > 0.0)
    # last finite node of the log map sits at c*ln(N)
    assert grid.nodes[-2] == pytest.approx(5.0 * np.log(20.0), abs=1e-12)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(GridMap("log", 5.0), 1)
    with pytest.raises(ValueError):
        build_grid(GridMap("log", 1e308), 4)
    # a size that is not an integer is refused, not truncated or parsed
    for N in (20.9, 20.0, "12", True):
        with pytest.raises(TypeError, match="grid size N must be an integer"):
            build_grid(GridMap("log", 5.0), N)
    grid = build_grid(GridMap("log", 5.0), np.int64(12))
    assert type(grid.N) is int and grid.N == 12 and grid.nodes.shape == (13,)


def test_grid_nodes_are_read_only():
    grid = build_grid(GridMap("log", 5.0), 8)
    with pytest.raises(ValueError):
        grid.nodes[0] = 1.0


def test_fractional_nodes():
    grid = build_grid(GridMap("alg", 1.0), 2)
    a, _, _, x_mid = grid.stencil_arrays()
    assert x_mid.shape == (2,)
    assert x_mid[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert x_mid[1] == pytest.approx(3.0, abs=1e-15)
    # the last interval's quarter nodes stay finite: x_{7/4} = 7, x_{5/4} = 5/3
    assert a[1] == 2.0 * (7.0 - 5.0 / 3.0)


def test_stencil_frozen_values():
    grid = build_grid(GridMap("log", 5.0), 20)
    a, b, c_w, _ = grid.stencil_arrays()
    assert a[0] == pytest.approx(0.2564243061333764, abs=1e-14)
    assert b[0] == pytest.approx(0.4935890409572678, abs=1e-14)
    assert c_w[0] == pytest.approx(0.5064109590427321, abs=1e-14)


def test_last_interval_continuation_copies_weights():
    grid = build_grid(GridMap("log", 5.0), 20)
    a, b, c_w, _ = grid.stencil_arrays()
    assert b[19] == b[18]
    assert c_w[19] == c_w[18]
    # a comes from fractional nodes of the last interval itself
    expected_a = 2.0 * (fractional_nodes(grid.map, 20, 0.75)[19]
                        - fractional_nodes(grid.map, 20, 0.25)[19])
    assert a[19] == pytest.approx(expected_a, abs=1e-12)
    assert np.isfinite(a[19])


def test_last_interval_without_continuation():
    grid = build_grid(GridMap("log", 5.0), 20, continuation=False)
    _, b, c_w, _ = grid.stencil_arrays()
    assert b[19] == 0.0
    assert c_w[19] == 1.0
    # interior intervals are unaffected by the flag
    assert np.array_equal(b[:19], build_grid(GridMap("log", 5.0), 20).stencil_arrays()[1][:19])


def test_weight_sum_is_exactly_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        kind = rng.choice(["log", "alg"])
        c = float(rng.uniform(0.2, 12.0))
        n_intervals = int(rng.integers(2, 40))
        for continuation in (True, False):
            grid = build_grid(GridMap(kind, c), n_intervals, continuation=continuation)
            _, b, c_w, _ = grid.stencil_arrays()
            assert np.all(b + c_w == 1.0)
            assert np.all((0.0 <= b) & (b < 1.0))


# stencil_arrays on the alg map, c = 3, N = 9; every entry is a few exact
# IEEE operations, so the values are platform independent
ALG_3_9_A = [0.3740259740259741, 0.48053392658509453, 0.6400000000000001, 0.8944099378881996,
             1.3374613003095996, 2.215384615384613, 4.363636363636367, 12.342857142857152,
             143.99999999999991]
ALG_3_9_B = [0.4705882352941176, 0.4666666666666667, 0.4615384615384619, 0.4545454545454546,
             0.4444444444444443, 0.4285714285714291, 0.39999999999999974, 0.33333333333333376,
             0.33333333333333376]
ALG_3_9_X_MID = [0.1764705882352941, 0.6, 1.153846153846154, 1.909090909090909, 3.0,
                 4.714285714285715, 7.799999999999999, 15.000000000000004, 50.99999999999997]


def test_stencil_arrays_frozen_entries():
    for continuation in (True, False):
        grid = build_grid(GridMap("alg", 3.0), 9, continuation=continuation)
        a, b, c_w, x_mid = grid.stencil_arrays()
        assert a.shape == b.shape == c_w.shape == x_mid.shape == (9,)
        want_b = ALG_3_9_B[:8] + [ALG_3_9_B[8] if continuation else 0.0]
        assert a.tolist() == ALG_3_9_A
        assert b.tolist() == want_b
        assert c_w.tolist() == [1.0 - v for v in want_b]
        assert x_mid.tolist() == ALG_3_9_X_MID
        assert np.array_equal(x_mid, fractional_nodes(grid.map, 9, 0.5))


def test_stencil_arrays_are_built_once_per_flag_and_read_only(monkeypatch):
    # one grid per flag, each built from one map evaluation; stencil_arrays
    # evaluates nothing and returns the same arrays on every call
    evaluations = []
    values = GridMap.values
    monkeypatch.setattr(GridMap, "values",
                        lambda self, xi: evaluations.append(xi) or values(self, xi))
    for continuation in (True, False):
        evaluations.clear()
        grid = build_grid(GridMap("log", 5.0), 20, continuation=continuation)
        assert grid.continuation is continuation
        assert len(evaluations) == 1
        first = grid.stencil_arrays()
        assert grid.stencil_arrays() is first
        assert len(evaluations) == 1
        for array in (grid.nodes, *first):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        # another grid with the same map, N and flag computes its own
        again = build_grid(GridMap("log", 5.0), 20, continuation=continuation)
        assert again.stencil_arrays() is not first


def test_stencil_interval_bounds():
    # one entry per interval 0..N-1, the last ending at infinity
    for continuation in (True, False):
        grid = build_grid(GridMap("log", 5.0), 5, continuation=continuation)
        assert all(len(entry) == 5 for entry in grid.stencil_arrays())


def test_algebraic_map_dominates_logarithmic():
    # with the same scale c the algebraic map reaches farther at every
    # interior parameter value
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = float(rng.uniform(0.3, 9.0))
        xi = rng.uniform(0.01, 0.99, size=25)
        assert np.all(GridMap("alg", c).values(xi) > GridMap("log", c).values(xi))


def test_monotonicity_over_random_maps():
    rng = np.random.default_rng(23)
    for _ in range(20):
        kind = rng.choice(["log", "alg"])
        c = float(rng.uniform(0.1, 20.0))
        n_intervals = int(rng.integers(2, 60))
        grid = build_grid(GridMap(kind, c), n_intervals)
        finite = grid.nodes[np.isfinite(grid.nodes)]
        assert np.all(np.diff(finite) > 0.0)


def test_direct_construction_is_possible_for_diagnostics():
    # build_grid is the validated path, but the dataclass itself stays
    # open so instrumented grids can be assembled in tests
    base = build_grid(GridMap("log", 5.0), 4)
    clone = QuasiUniformGrid(map=base.map, N=base.N, nodes=base.nodes,
                             stencils=base.stencil_arrays())
    for mine, theirs in zip(clone.stencil_arrays(), base.stencil_arrays()):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("kind", ["log", "alg"])
def test_one_map_evaluation_matches_the_per_array_formulas(kind):
    # x_{n+k/4} read from the quarter parameters (4n + k)/(4N) is the same
    # double as the map at (n + k/4)/N, so nodes and stencils are bitwise
    # those of one evaluation per array; a huge c is refused where the
    # reference overflows x_{N-1/4} (1e306 on alg and 5e307 on log from a
    # size between those listed)
    for c in (0.3, 1.0, 5.0, 17.3, 1e300, 1e306, 5e307):
        for N in (2, 3, 7, 20, 33, 160, 1023, 1280, 2560, 10240):
            for continuation in (True, False):
                grid_map = GridMap(kind, c)
                want = reference_grid(grid_map, N, continuation)
                if want is None:
                    with pytest.raises(ValueError, match="overflows"):
                        build_grid(grid_map, N, continuation=continuation)
                    continue
                grid = build_grid(grid_map, N, continuation=continuation)
                assert np.array_equal(grid.nodes, want[0]), (c, N)
                for got, expected in zip(grid.stencil_arrays(), want[1], strict=True):
                    assert np.array_equal(got, expected), (c, N, continuation)
