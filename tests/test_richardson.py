"""Error estimation, observed orders, and extrapolation tables."""

import math

import numpy as np
import pytest

from infbvp import (
    ExtrapolationTable,
    extrapolate_table,
    observed_order,
)


def test_richardson_error_frozen_value():
    # the first refined entry is the fine value plus its error estimate
    table = extrapolate_table((40, 80), (1.234124, 1.232972), print_decimals=6)
    got = table.columns[1][0] - 1.232972
    assert got == pytest.approx(-0.000384, abs=1e-12)


def test_richardson_error_cancels_power_law():
    # the order-2 column removes an exact n**-2 error; the input column
    # is rounded to 17 decimals, below the bound
    rng = np.random.default_rng(29)
    for _ in range(30):
        limit = float(rng.uniform(-5.0, 5.0))
        amplitude = float(rng.uniform(-2.0, 2.0))
        n = int(rng.integers(4, 200))
        t_coarse = limit + amplitude * n ** -2.0
        t_fine = limit + amplitude * (2.0 * n) ** -2.0
        table = extrapolate_table((n, 2 * n), (t_coarse, t_fine), print_decimals=17)
        assert table.columns[1][0] == pytest.approx(limit, abs=1e-12)


def test_observed_order_frozen_value():
    got = observed_order(1.238724, 1.234124, 1.232589)
    assert got == pytest.approx(1.998824688292666, abs=1e-12)
    assert round(got, 6) == 1.998825


def test_observed_order_degenerate_cases():
    assert observed_order(1.0, 2.0, 2.0) == math.inf
    assert observed_order(2.0, 1.0, 2.0) == -math.inf
    assert math.isnan(observed_order(2.0, 2.0, 2.0))


def test_observed_order_recovers_exact_order():
    limit, amplitude = 0.7, 0.3
    t = [limit + amplitude * n ** -2.0 for n in (10, 20)]
    assert observed_order(t[0], t[1], limit) == pytest.approx(2.0, abs=1e-12)


def test_extrapolate_table_validation():
    with pytest.raises(ValueError, match="must double"):
        extrapolate_table((10, 30), (1.0, 2.0))
    with pytest.raises(ValueError, match="equal length"):
        extrapolate_table((10, 20), (1.0,))
    with pytest.raises(ValueError, match="at least two"):
        extrapolate_table((), ())
    # zero and negative sizes pass the doubling check but are no grids
    with pytest.raises(ValueError, match="at least 1, got 0"):
        extrapolate_table((0, 0, 0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="at least 1, got -10"):
        extrapolate_table((-5, -10), (1.0, 2.0))
    table = extrapolate_table([10, 20], [1.0, 2.0])
    assert table.columns[0] == (1.0, 2.0)
    # a count of decimals that is not an integer is refused, not truncated
    # or read as 1
    for decimals in (3.9, True):
        with pytest.raises(TypeError, match="print_decimals must be an integer"):
            extrapolate_table((10, 20), (1.0, 2.0), print_decimals=decimals)
    ns, values = (10, 20), (1.23456749, 1.23456651)
    assert extrapolate_table(ns, values, print_decimals=np.int64(7)).columns == \
        extrapolate_table(ns, values, print_decimals=7).columns


def test_extrapolate_requires_two_entries():
    with pytest.raises(ValueError):
        extrapolate_table((8,), (1.0,))


def test_extrapolation_column_weight_is_order_two():
    # a single pair refines with weight 4: (4*fine - coarse)/3
    table = extrapolate_table((8, 16), (1.0, 2.0), print_decimals=6)
    assert table.columns[1][0] == pytest.approx(7.0 / 3.0, abs=1e-14)
    assert table.stop_rule is None


def test_extrapolation_stops_when_column_entries_repeat():
    ns, values = (40, 80, 160), (1.234124, 1.232972, 1.232684)
    table = extrapolate_table(ns, values, print_decimals=6)
    assert table.stop_rule == "iterate"
    assert tuple(len(col) for col in table.columns) == (3, 2)
    assert round(table.columns[1][0], 6) == 1.232588
    assert round(table.columns[1][1], 6) == 1.232588
    assert round(table.columns[-1][-1], 6) == 1.232588


def test_extrapolation_stops_when_column_repeats_parent():
    ns, values = (40, 80, 160), (-0.807934, -0.808094, -0.808135)
    table = extrapolate_table(ns, values, print_decimals=6)
    assert table.stop_rule == "nest"
    assert tuple(len(col) for col in table.columns) == (3, 2, 1)
    assert round(table.columns[1][0], 6) == -0.808147
    assert round(table.columns[1][1], 6) == -0.808149
    assert round(table.columns[2][0], 6) == -0.808149


def test_extrapolation_input_column_is_rounded():
    ns, values = (10, 20), (1.23456749, 1.23456651)
    table = extrapolate_table(ns, values, print_decimals=6)
    assert table.columns[0] == (1.234567, 1.234567)
    assert extrapolate_table(ns, values, print_decimals=7).columns[0] == (1.2345675, 1.2345665)


def test_extrapolation_recovers_power_law_limit():
    limit = 0.31415926535
    values = tuple(limit + 0.25 * n ** -2.0 for n in (10, 20, 40, 80))
    table = extrapolate_table((10, 20, 40, 80), values, print_decimals=12)
    assert table.stop_rule == "iterate"
    assert table.columns[-1][-1] == pytest.approx(limit, abs=1e-10)


def test_table_cell_geometry():
    # column k holds the grid rows k.. of the series, whichever rule
    # stopped it, so row i reads columns[k][i - k]
    for values, rule in (((-0.807934, -0.808094, -0.808135), "nest"),
                         ((1.234124, 1.232972, 1.232684), "iterate"),
                         ((1.0, 2.0, 4.0), None)):
        table = extrapolate_table((40, 80, 160), values, print_decimals=6)
        assert table.stop_rule == rule
        assert table.columns[0][0] == values[0]
        assert [len(column) for column in table.columns] == [3, 2, 1][:len(table.columns)]


def test_table_is_frozen():
    table = extrapolate_table((8, 16), (1.0, 2.0))
    assert isinstance(table, ExtrapolationTable)
    with pytest.raises(AttributeError):
        table.stop_rule = "changed"
