"""Grids on [0, inf] whose last node sits exactly at infinity.

A strictly monotone generating map sends the uniform parameter xi in
[0, 1] to the physical coordinate x; the image of xi_n = n/N is a
quasi-uniform grid with x_N = inf. Everything downstream is built from
the finite nodes and the fractional nodes x_{n+1/4}, x_{n+1/2} and
x_{n+3/4}, which are finite on every interval, so the infinite
coordinate never enters any arithmetic. build_grid gets all of them
from one evaluation of the map.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridMap",
    "QuasiUniformGrid",
    "build_grid",
]


# The generating maps by name, in the order the CLI offers them
MAP_KINDS = ("log", "alg")


def _real(value, name: str, *, positive: bool = False) -> float:
    """value as a float, for a real number only: a str or a bool raises
    TypeError rather than being parsed or read as 0 or 1, as sizes do
    through _integer. nan, +-inf, a value beyond the double range, such
    as the int 10**400, and, with positive=True, a value <= 0 raise
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not np.isfinite(number) or (positive and number <= 0.0):
        raise ValueError(f"{name} must be {'positive and ' * positive}finite, got {number}")
    return number


def _integer(value, name: str, *, least: int | None = None) -> int:
    """value as an int, for an integer only: a bool raises TypeError
    rather than being read as 0 or 1, and so does anything that
    operator.index refuses, such as a float or a str. A value below
    least raises ValueError."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if least is not None and number < least:
        raise ValueError(f"{name} must be at least {least}, got {number}")
    return number


@dataclass(frozen=True)
class GridMap:
    """Strictly monotone map from the unit parameter interval onto the
    half line.

    log   x = -c*ln(1 - xi)     xi in [0, 1]  ->  x in [0, inf]
    alg   x = c*xi/(1 - xi)     xi in [0, 1]  ->  x in [0, inf]

    kind is the map's name, "log" or "alg". A real c > 0 sets the length
    scale: about half of all grid intervals land inside [0, c].
    """

    kind: str
    c: float

    def __post_init__(self) -> None:
        if self.kind not in MAP_KINDS:
            raise ValueError(f"map kind must be {' or '.join(map(repr, MAP_KINDS))}, "
                             f"got {self.kind!r}")
        object.__setattr__(self, "c", _real(self.c, "map parameter c", positive=True))

    def values(self, xi) -> np.ndarray:
        """Vectorized map evaluation.

        The parameter must lie in [0, 1], so a NaN raises ValueError. The
        parameter endpoints give exact infinities, never overflow
        artifacts of the underlying formulas. A huge c can overflow to inf
        short of an endpoint, which build_grid refuses.
        """
        xi = np.asarray(xi, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            # NaN lies in no interval
            if not np.logical_and.reduce((0.0 <= xi) & (xi <= 1.0), axis=None):
                raise ValueError("parameter must lie in [0, 1]")
            if self.kind == "log":
                return -self.c * np.log1p(-xi)
            return self.c * xi / (1.0 - xi)


@dataclass(frozen=True, eq=False)
class QuasiUniformGrid:
    """Image of a uniform parameter grid under a generating map.

    The nodes are x_n = x(n/N), n = 0..N, with x_N = inf. The infinite
    coordinate is kept for output only. stencils holds the arrays that
    stencil_arrays returns, and continuation the last-interval rule they
    were built with. Use build_grid() for a validated instance.
    """

    map: GridMap
    N: int
    nodes: np.ndarray
    stencils: tuple
    continuation: bool = True

    def stencil_arrays(self):
        """Midpoint formula coefficients (a, b, c_w, x_mid), each a
        read-only array with one entry per interval n = 0..N-1.

        a = 2*(x_{n+3/4} - x_{n+1/4}) is the derivative denominator and
        x_mid = x_{n+1/2}; b and c_w are the interpolation weights of
        U_{n+1} and U_n, with b + c_w = 1 exactly. On the last interval
        the literal weights degenerate to b = 0, c_w = 1 because x_N is
        infinite; a grid with continuation=True (the default) copies the
        previous interval's weights instead, keeping the unknown at the
        infinity node coupled to the rest of the system, and one with
        continuation=False keeps the literal weights. Only fractional
        nodes and finite nodes enter, so every entry is finite.
        """
        return self.stencils


def build_grid(grid_map: GridMap, N: int, *, continuation: bool = True) -> QuasiUniformGrid:
    """Grid with N intervals and N+1 nodes, the last at infinity.
    N is read by _integer and must be at least 2; the map must give a
    finite x_{N-1/4} and strict monotonicity.
    continuation, a bool (anything else raises TypeError), sets the
    grid's last-interval rule (see stencil_arrays), which the residual,
    the Jacobian and prolong all follow.

    The map is evaluated once, at q/(4N) for q = 0..4N: x[4n + k] is
    x_{n+k/4}, the same double as the map at (n + k/4)/N, since both
    quotients round one rational."""
    N = _integer(N, "grid size N", least=2)
    if not isinstance(continuation, (bool, np.bool_)):
        raise TypeError(f"continuation must be a bool, got {type(continuation).__name__}")
    x = grid_map.values(np.arange(4 * N + 1) / (4 * N))
    # x_{N-1/4} is the largest coordinate the scheme reads; the map is
    # monotone, so every other fractional and finite node is below it.
    if not np.isfinite(x[4 * N - 1]):
        raise ValueError(f"map parameter c = {grid_map.c} overflows a grid of {N} intervals")
    nodes = x[0::4].copy()
    if not np.logical_and.reduce(nodes[1:] > nodes[:-1]):
        raise ValueError("generating map produced a non-monotone grid")
    x_mid = x[2::4].copy()
    b = np.empty(N)
    b[: N - 1] = (x_mid[: N - 1] - nodes[: N - 1]) / (nodes[1:N] - nodes[: N - 1])
    b[N - 1] = b[N - 2] if continuation else 0.0
    stencils = (2.0 * (x[3::4] - x[1::4]), b, 1.0 - b, x_mid)
    for array in (nodes, *stencils):
        array.flags.writeable = False
    return QuasiUniformGrid(map=grid_map, N=N, nodes=nodes, stencils=stencils,
                            continuation=bool(continuation))
