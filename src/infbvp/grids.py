"""Grids on [0, inf] whose last node sits exactly at infinity.

A strictly monotone generating map sends the uniform parameter xi in
[0, 1] to the physical coordinate x; the image of xi_n = n/N is a
quasi-uniform grid with x_N = inf. Everything downstream is built from
fractional nodes x_{n+alpha} with 0 < alpha < 1, which are finite on
every interval, so the infinite coordinate never enters any arithmetic.
A whole-line tangent map is included for grids on [-inf, inf].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MapKind",
    "GridMap",
    "QuasiUniformGrid",
    "build_grid",
]


class MapKind(Enum):
    """Supported grid generating maps."""

    LOGARITHMIC = "log"
    ALGEBRAIC = "alg"
    TANGENTIAL = "tan"


@dataclass(frozen=True)
class GridMap:
    """Strictly monotone map from the unit parameter interval onto an
    unbounded coordinate range.

    log   x = -c*ln(1 - xi)     xi in [0, 1]   ->  x in [0, inf]
    alg   x = c*xi/(1 - xi)     xi in [0, 1]   ->  x in [0, inf]
    tan   x = c*tan(pi*xi/2)    xi in [-1, 1]  ->  x in [-inf, inf]

    A finite c > 0 sets the length scale: about half of all grid
    intervals land inside [0, c] for the semi-infinite maps.
    """

    kind: MapKind
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", MapKind(self.kind))
        object.__setattr__(self, "c", float(self.c))
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"map parameter c must be positive and finite, got {self.c}")

    @property
    def whole_line(self) -> bool:
        return self.kind is MapKind.TANGENTIAL

    def values(self, xi) -> np.ndarray:
        """Vectorized map evaluation.

        The parameter endpoints give exact infinities, never overflow
        artifacts of the underlying formulas.
        """
        xi = np.asarray(xi, dtype=float)
        if self.kind is MapKind.TANGENTIAL:
            if np.any(xi < -1.0) or np.any(xi > 1.0):
                raise ValueError("parameter must lie in [-1, 1] for the tan map")
            # evaluate at |xi| and restore the sign so odd symmetry is exact
            mag = self.c * np.tan(0.5 * np.pi * np.abs(xi))
            mag = np.where(np.abs(xi) == 1.0, np.inf, mag)
            return np.copysign(mag, xi)
        if np.any(xi < 0.0) or np.any(xi > 1.0):
            raise ValueError("parameter must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            if self.kind is MapKind.LOGARITHMIC:
                return -self.c * np.log1p(-xi)
            den = 1.0 - xi
            return np.where(xi == 1.0, np.inf,
                            self.c * xi / np.where(den == 0.0, 1.0, den))


@dataclass(frozen=True, eq=False)
class QuasiUniformGrid:
    """Image of a uniform parameter grid under a generating map.

    For the semi-infinite maps the nodes are x_n = x(n/N), n = 0..N,
    with x_N = inf; for the whole-line map they are x_n = x(n/N),
    n = -N..N, with x_{+-N} = +-inf. The infinite coordinates are kept
    for output only. Use build_grid() for a validated instance.
    """

    map: GridMap
    N: int
    nodes: np.ndarray

    @property
    def whole_line(self) -> bool:
        return self.map.whole_line

    @property
    def indices(self) -> np.ndarray:
        start = -self.N if self.whole_line else 0
        return np.arange(start, self.N + 1)

    @property
    def uniform_params(self) -> np.ndarray:
        return self.indices / self.N

    def fractional_nodes(self, alpha: float) -> np.ndarray:
        """x_{n+alpha} for every interval at once, recomputed from the map
        rather than interpolated from stored nodes; finite on every
        interval, the last one included."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"fractional offset must lie in (0, 1), got {alpha}")
        return self.map.values((self.indices[:-1] + alpha) / self.N)

    def stencil_arrays(self, continuation: bool = True):
        """Midpoint formula coefficients (a, b, c_w, x_mid), each an array
        with one entry per interval n = 0..N-1.

        a = 2*(x_{n+3/4} - x_{n+1/4}) is the derivative denominator and
        x_mid = x_{n+1/2}; b and c_w are the interpolation weights of
        U_{n+1} and U_n, with b + c_w = 1 exactly. On the last interval
        the literal weights degenerate to b = 0, c_w = 1 because x_N is
        infinite; continuation=True (the default) copies the previous
        interval's weights instead, keeping the unknown at the infinity
        node coupled to the rest of the system, and continuation=False
        keeps the literal weights. Only fractional nodes and finite nodes
        enter, so every entry is finite.
        """
        if self.whole_line:
            raise ValueError("difference stencils are defined on semi-infinite grids only")
        N = self.N
        a = 2.0 * (self.fractional_nodes(0.75) - self.fractional_nodes(0.25))
        x_mid = self.fractional_nodes(0.5)
        b = np.empty(N)
        b[: N - 1] = (x_mid[: N - 1] - self.nodes[: N - 1]) / (self.nodes[1:N] - self.nodes[: N - 1])
        b[N - 1] = b[N - 2] if continuation else 0.0
        return a, b, 1.0 - b, x_mid


def build_grid(grid_map: GridMap, N: int) -> QuasiUniformGrid:
    """Grid with N intervals per semi-axis (so 2N+1 nodes on the whole
    line). Requires N >= 2 and checks strict monotonicity."""
    N = int(N)
    if N < 2:
        raise ValueError(f"need at least 2 intervals, got {N}")
    start = -N if grid_map.whole_line else 0
    params = np.arange(start, N + 1) / N
    nodes = grid_map.values(params)
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError("generating map produced a non-monotone grid")
    nodes.flags.writeable = False
    return QuasiUniformGrid(map=grid_map, N=N, nodes=nodes)
