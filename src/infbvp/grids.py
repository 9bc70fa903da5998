"""Grids on [0, inf] whose last node sits exactly at infinity.

A strictly monotone generating map sends the uniform parameter xi in
[0, 1] to the physical coordinate x; the image of xi_n = n/N is a
quasi-uniform grid with x_N = inf. Everything downstream is built from
fractional nodes x_{n+alpha} with 0 < alpha < 1, which are finite on
every interval, so the infinite coordinate never enters any arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class GridMap:
    """Strictly monotone map from the unit parameter interval onto the
    half line.

    log   x = -c*ln(1 - xi)     xi in [0, 1]  ->  x in [0, inf]
    alg   x = c*xi/(1 - xi)     xi in [0, 1]  ->  x in [0, inf]

    A finite c > 0 sets the length scale: about half of all grid
    intervals land inside [0, c].
    """

    kind: MapKind
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", MapKind(self.kind))
        object.__setattr__(self, "c", float(self.c))
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"map parameter c must be positive and finite, got {self.c}")

    def values(self, xi) -> np.ndarray:
        """Vectorized map evaluation.

        The parameter endpoints give exact infinities, never overflow
        artifacts of the underlying formulas. A huge c can overflow to inf
        short of an endpoint, which build_grid refuses.
        """
        xi = np.asarray(xi, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            if np.any(xi < 0.0) or np.any(xi > 1.0):
                raise ValueError("parameter must lie in [0, 1]")
            if self.kind is MapKind.LOGARITHMIC:
                return -self.c * np.log1p(-xi)
            return self.c * xi / (1.0 - xi)


@dataclass(frozen=True, eq=False)
class QuasiUniformGrid:
    """Image of a uniform parameter grid under a generating map.

    The nodes are x_n = x(n/N), n = 0..N, with x_N = inf. The infinite
    coordinate is kept for output only. The field continuation holds the
    last-interval rule of stencil_arrays. Use build_grid() for a
    validated instance.
    """

    map: GridMap
    N: int
    nodes: np.ndarray
    continuation: bool = True
    _stencils: tuple | None = field(default=None, init=False, repr=False)  # built on first use

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.N + 1)

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

    def stencil_arrays(self):
        """Midpoint formula coefficients (a, b, c_w, x_mid), each an array
        with one entry per interval n = 0..N-1.

        a = 2*(x_{n+3/4} - x_{n+1/4}) is the derivative denominator and
        x_mid = x_{n+1/2}; b and c_w are the interpolation weights of
        U_{n+1} and U_n, with b + c_w = 1 exactly. On the last interval
        the literal weights degenerate to b = 0, c_w = 1 because x_N is
        infinite; a grid with continuation=True (the default) copies the
        previous interval's weights instead, keeping the unknown at the
        infinity node coupled to the rest of the system, and one with
        continuation=False keeps the literal weights. Only fractional
        nodes and finite nodes enter, so every entry is finite.

        Computed once per grid, returned read-only on every later call.
        """
        if self._stencils is not None:
            return self._stencils
        N = self.N
        a = 2.0 * (self.fractional_nodes(0.75) - self.fractional_nodes(0.25))
        x_mid = self.fractional_nodes(0.5)
        b = np.empty(N)
        b[: N - 1] = (x_mid[: N - 1] - self.nodes[: N - 1]) / (self.nodes[1:N] - self.nodes[: N - 1])
        b[N - 1] = b[N - 2] if self.continuation else 0.0
        arrays = (a, b, 1.0 - b, x_mid)
        for array in arrays:
            array.flags.writeable = False
        object.__setattr__(self, "_stencils", arrays)
        return arrays


def build_grid(grid_map: GridMap, N: int, *, continuation: bool = True) -> QuasiUniformGrid:
    """Grid with N intervals and N+1 nodes, the last at infinity.
    Requires N >= 2, a finite x_{N-1/4} and strict monotonicity.
    continuation sets the grid's last-interval rule (see stencil_arrays),
    which the residual, the Jacobian and prolong all follow."""
    N = int(N)
    if N < 2:
        raise ValueError(f"need at least 2 intervals, got {N}")
    # x_{N-1/4} is the largest coordinate the scheme reads; the map is
    # monotone, so every other fractional and finite node is below it.
    if not np.isfinite(grid_map.values((N - 0.25) / N)):
        raise ValueError(f"map parameter c = {grid_map.c} overflows a grid of {N} intervals")
    params = np.arange(N + 1) / N
    nodes = grid_map.values(params)
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError("generating map produced a non-monotone grid")
    nodes.flags.writeable = False
    return QuasiUniformGrid(map=grid_map, N=N, nodes=nodes, continuation=bool(continuation))
