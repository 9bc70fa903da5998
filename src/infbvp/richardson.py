"""Accuracy improvement on nested grids.

A quantity computed on grids with N and 2N intervals has leading error
(T_2N - T_N)/(2^p - 1) in the fine value for a scheme of order p.
Iterating the correction over a doubling family produces a triangular
table whose column k combines parent pairs with the weight 2^(k+1).
Table generation follows printed-digit stopping rules: quit once the
newest column's successive entries agree at the configured precision, or
once that column merely repeats its parent at the same N. The observed
order of a pair of approximations against a reference value is the other
direction of the same arithmetic and is used as a sanity column in sweep
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grids import _integer

__all__ = [
    "ExtrapolationTable",
    "observed_order",
    "extrapolate_table",
]


def observed_order(t_coarse: float, t_fine: float, t_ref: float) -> float:
    """Convergence order of two approximations against a reference.

    Degenerate agreement is encoded in the extended reals: +inf when only
    the fine value hits the reference, -inf when only the coarse one
    does, nan when both do or when either error is nan.
    """
    e_coarse = abs(t_coarse - t_ref)
    e_fine = abs(t_fine - t_ref)
    if math.isnan(e_coarse) or math.isnan(e_fine) or e_coarse == e_fine == 0.0:
        return math.nan
    if e_fine == 0.0:
        return math.inf
    if e_coarse == 0.0:
        return -math.inf
    return math.log(e_coarse / e_fine) / math.log(2.0)


@dataclass(frozen=True)
class ExtrapolationTable:
    """Triangular array of nested extrapolated values.

    columns[0] is the input series at print precision (tables are built
    from printed values); columns[k] refines adjacent pairs of its
    predecessor and is one entry shorter, so grid row i of the series
    reads columns[k][i - k] for k <= i. stop_rule records why
    generation ended: "iterate" when successive entries of the newest
    column agreed at print precision, "nest" when the newest column
    repeated its parent at the same N, or None when the series ran out.
    """

    columns: tuple[tuple[float, ...], ...]
    stop_rule: str | None


def extrapolate_table(ns, values, print_decimals: int = 6) -> ExtrapolationTable:
    """Build the nested extrapolation table for the values of one
    quantity on the doubling grid family ns.

    The input column is rounded to print_decimals first: extrapolating a
    published table means extrapolating the digits it shows. Later
    columns keep full precision internally; only the stopping comparisons
    round again. print_decimals must be an integer; a float, a string
    or a bool raises TypeError.
    """
    decimals = _integer(print_decimals, "print_decimals")
    if len(ns) != len(values):
        raise ValueError("ns and values must have equal length")
    if len(values) < 2:
        raise ValueError("need at least two sweep entries to extrapolate")
    if min(ns) < 1:
        raise ValueError(f"grid sizes must be at least 1, got {min(ns)}")
    for coarse, fine in zip(ns, ns[1:]):
        if fine != 2 * coarse:
            raise ValueError(f"grid family must double: {coarse} is followed by {fine}")
    columns: list[list[float]] = [[round(float(v), decimals) for v in values]]
    stop_rule: str | None = None
    k = 1
    while len(columns[-1]) >= 2:
        parent = columns[-1]
        weight = float(2 ** (k + 1))
        refined = [(weight * parent[i + 1] - parent[i]) / (weight - 1.0)
                   for i in range(len(parent) - 1)]
        columns.append(refined)
        shown = [round(v, decimals) for v in refined]
        parent_shown = [round(v, decimals) for v in parent]
        if any(shown[i] == shown[i + 1] for i in range(len(shown) - 1)):
            stop_rule = "iterate"
            break
        if any(shown[i] == parent_shown[i + 1] for i in range(len(shown))):
            stop_rule = "nest"
            break
        k += 1
    return ExtrapolationTable(columns=tuple(tuple(col) for col in columns),
                              stop_rule=stop_rule)
