"""Error estimation, observed orders, and extrapolation tables."""

import math

import numpy as np
import pytest

from infbvp import (
    ExtrapolationTable,
    SweepSeries,
    extrapolate_table,
    observed_order,
    richardson_error,
)


def test_richardson_error_frozen_value():
    got = richardson_error(1.234124, 1.232972, 2)
    assert got == pytest.approx(-0.000384, abs=1e-12)


def test_richardson_error_validation():
    with pytest.raises(ValueError):
        richardson_error(1.0, 2.0, 0)
    with pytest.raises(ValueError):
        richardson_error(1.0, 2.0, -2)


def test_richardson_error_cancels_power_law():
    rng = np.random.default_rng(29)
    for _ in range(30):
        limit = float(rng.uniform(-5.0, 5.0))
        amplitude = float(rng.uniform(-2.0, 2.0))
        p = float(rng.uniform(0.5, 4.0))
        n = float(rng.integers(4, 200))
        t_coarse = limit + amplitude * n ** -p
        t_fine = limit + amplitude * (2.0 * n) ** -p
        corrected = t_fine + richardson_error(t_coarse, t_fine, p)
        assert corrected == pytest.approx(limit, abs=1e-12)


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


def test_sweep_series_validation():
    with pytest.raises(ValueError):
        SweepSeries("q", (10, 30), (1.0, 2.0))
    with pytest.raises(ValueError):
        SweepSeries("q", (10, 20), (1.0,))
    with pytest.raises(ValueError):
        SweepSeries("q", (), ())
    series = SweepSeries("q", [10, 20], [1.0, 2.0])
    assert series.ns == (10, 20)
    assert series.values == (1.0, 2.0)


def test_extrapolate_requires_two_entries():
    with pytest.raises(ValueError):
        extrapolate_table(SweepSeries("q", (8,), (1.0,)))


def test_extrapolation_column_weight_is_order_two():
    # a single pair refines with weight 4: (4*fine - coarse)/3
    table = extrapolate_table(SweepSeries("q", (8, 16), (1.0, 2.0)), print_decimals=6)
    assert table.columns[1][0] == pytest.approx(7.0 / 3.0, abs=1e-14)
    assert table.stop_rule is None


def test_extrapolation_stops_when_column_entries_repeat():
    series = SweepSeries("q", (40, 80, 160), (1.234124, 1.232972, 1.232684))
    table = extrapolate_table(series, print_decimals=6)
    assert table.stop_rule == "iterate"
    assert tuple(len(col) for col in table.columns) == (3, 2)
    assert round(table.cell(1, 1), 6) == 1.232588
    assert round(table.cell(2, 1), 6) == 1.232588
    assert round(table.columns[-1][-1], 6) == 1.232588


def test_extrapolation_stops_when_column_repeats_parent():
    series = SweepSeries("q", (40, 80, 160), (-0.807934, -0.808094, -0.808135))
    table = extrapolate_table(series, print_decimals=6)
    assert table.stop_rule == "nest"
    assert tuple(len(col) for col in table.columns) == (3, 2, 1)
    assert round(table.cell(1, 1), 6) == -0.808147
    assert round(table.cell(2, 1), 6) == -0.808149
    assert round(table.cell(2, 2), 6) == -0.808149


def test_extrapolation_input_column_is_rounded():
    series = SweepSeries("q", (10, 20), (1.23456749, 1.23456651))
    table = extrapolate_table(series, print_decimals=6)
    assert table.columns[0] == (1.234567, 1.234567)
    assert table.print_decimals == 6


def test_extrapolation_recovers_power_law_limit():
    limit = 0.31415926535
    values = tuple(limit + 0.25 * n ** -2.0 for n in (10, 20, 40, 80))
    table = extrapolate_table(SweepSeries("q", (10, 20, 40, 80), values),
                              print_decimals=12)
    assert table.stop_rule == "iterate"
    assert table.columns[-1][-1] == pytest.approx(limit, abs=1e-10)


def test_table_cell_geometry():
    series = SweepSeries("q", (40, 80, 160), (-0.807934, -0.808094, -0.808135))
    table = extrapolate_table(series, print_decimals=6)
    assert table.cell(0, 1) is None
    assert table.cell(1, 2) is None
    assert table.cell(0, 9) is None
    assert table.cell(0, 0) == -0.807934
    with pytest.raises(ValueError):
        table.cell(3, 0)
    with pytest.raises(ValueError):
        table.cell(-1, 0)


def test_table_is_frozen():
    table = extrapolate_table(SweepSeries("q", (8, 16), (1.0, 2.0)))
    assert isinstance(table, ExtrapolationTable)
    with pytest.raises(AttributeError):
        table.stop_rule = "changed"
