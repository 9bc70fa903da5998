"""Built-in boundary value problems posed on [0, inf).

Each problem is a first-order system du/dx = f(x, u) with a two-point
boundary function g(u(0), u(inf)) = 0, optional closed-form derivatives
for Newton's method, a default initial iterate, and named report scalars
(typically the missing initial conditions one wants from the solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import _integer, _real

__all__ = [
    "BvpProblem",
    "falkner_skan",
    "pile",
    "initial_field",
    "report_scalar",
    "PROBLEMS",
]


@dataclass(frozen=True, eq=False)
class BvpProblem:
    """First-order system on [0, inf) with boundary function g(u0, u_inf).

    f, df_du and initial_iterate are evaluated on the whole grid at once,
    with the solution components first:

    - f(x, u) takes finite coordinates x of shape (M,) and states u of
      shape (d, M) and returns (d, M); the scheme calls it once per
      residual, on the N interval midpoints, and never at x = inf.
    - df_du(x, u) gives the state Jacobian of f as (d, d, M), or as a
      constant (d, d) matrix.
    - initial_iterate(x) is called once on the (N+1,) node coordinates,
      including x = inf, so it must be finite there; it returns
      (d, N+1), or a constant (d,) vector.

    Written with u[i] for component i, the same f also accepts a single
    point: x a float and u of shape (d,). Such functions must work
    elementwise: a reduction over u, such as np.linalg.norm(u), mixes the
    M points and silently gives a wrong answer. g stays pointwise: it
    consumes the first and last node values, each of shape (d,). dg is a
    pair of constant d x d matrices (the built-in boundary functions are
    affine). Either derivative may be left out: assemble_jacobian's
    docstring says how it then differences f or g.

    limits names the components that have a finite limit at infinity, as
    indices into 0..d-1; None, the default, means every component. It
    is stored as a sorted tuple. newton_solve measures the contraction
    of its kept end step over these components only, since one that
    grows without bound, like Falkner-Skan's u1 ~ x, can dominate the
    mean correction of the far field.

    reports maps each name to (node, component), integers: node 0 (x = 0)
    or -1 (x = inf, for a component in limits only), the nodes whose x is
    the same on every grid, as sweep's orders and extrapolate assume.
    """

    name: str
    d: int
    f: Callable[[float, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial_iterate: Callable[[float], np.ndarray]
    df_du: Callable[[float, np.ndarray], np.ndarray] | None = None
    dg: tuple[np.ndarray, np.ndarray] | None = None
    reports: dict[str, tuple[int, int]] = field(default_factory=dict)
    limits: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        d = _integer(self.d, "component count d", least=1)
        limits = range(d) if self.limits is None else (
            _integer(i, "limits entry") for i in self.limits)
        limits = tuple(sorted(set(limits)))
        if not limits or limits[0] < 0 or limits[-1] >= d:
            raise ValueError(f"limits must name components in 0..{d - 1}, got {self.limits!r}")
        ends, reports = {(0, i) for i in range(d)} | {(-1, i) for i in limits}, {}
        for name, entry in self.reports.items():
            try:
                pair = tuple(entry)
            except TypeError:
                raise TypeError(f"report {name!r} must be a (node, component) pair, "
                                f"got {type(entry).__name__}") from None
            reports[name] = tuple(_integer(i, f"report {name!r} entry") for i in pair)
            if reports[name] not in ends:
                raise ValueError(f"report {name!r} must be (0, i) with i in 0..{d - 1} or "
                                 f"(-1, i) with i in limits {limits}, got {entry!r}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "limits", limits)
        object.__setattr__(self, "reports", reports)


def falkner_skan(P: float = 1.0) -> BvpProblem:
    """Boundary-layer similarity flow with pressure-gradient parameter P.

    Third-order model reduced to u = (u1, u2, u3) = (stream function,
    velocity, shear):

        u' = (u2, u3, -u1*u3 - P*(1 - u2^2))

    with u1(0) = u2(0) = 0 and u2(inf) = 1. The headline scalar is the
    wall shear u3(0); u3 at the infinity node reports how well the far
    boundary condition is met by the discretization.

    u2 and u3 have finite limits at infinity (1 and 0); u1 grows like x,
    so limits leaves it out. The default iterate is the boundary-layer
    profile (x - 1 + e^-x, 1 - e^-x, 0.3 e^-x), and (1, 1, 0) at the
    infinity node. From a constant start Newton reaches spurious
    discrete solutions for P <= 0 and on the alg map.
    """
    P = _real(P, "pressure-gradient parameter P")

    def f(x, u):
        return np.array([u[1], u[2], -u[0] * u[2] - P * (1.0 - u[1] * u[1])])

    def df_du(x, u):
        out = np.zeros((3, 3) + np.shape(u)[1:])
        out[0, 1] = out[1, 2] = 1.0
        out[2] = -u[2], 2.0 * P * u[1], -u[0]
        return out

    def g(u0, u_inf):
        return np.array([u0[0], u0[1], u_inf[1] - 1.0])

    dg_0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    dg_N = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def initial_iterate(x):
        decay = np.exp(-x)
        u1 = np.where(np.isfinite(x), x - 1.0 + decay, 1.0)
        return np.array([u1, 1.0 - decay, 0.3 * decay])

    return BvpProblem(name="falkner-skan", d=3, f=f, g=g,
                      initial_iterate=initial_iterate, df_du=df_du, dg=(dg_0, dg_N),
                      reports={"fpp0": (0, 2), "fpp_inf": (-1, 2)}, limits=(1, 2))


def pile(P1: float = 1.0, P2: float = 0.5, P3: float = 0.5) -> BvpProblem:
    """Deflection of a semi-infinite pile in soft soil.

    Fourth-order model reduced to u = (deflection, slope, moment, shear):

        u' = (u2, u3, u4, -P1*(1 - exp(-P2*u1)))

    with zero moment and prescribed shear P3 at the origin, and u1 and u2
    vanishing at infinity. Report scalars are the surface deflection
    u1(0) and slope u2(0).

    The default iterate is the beam on an elastic foundation (Hetenyi,
    Beams on Elastic Foundation, 1946): the decaying solution of the
    linearization u1'''' = -P1*P2*u1 with the same conditions at the
    origin, u1 = a e^-bx cos bx with b = (P1*P2/4)^(1/4) and
    a = P3 / (2 b^3), with u2..u4 its derivatives and 0 at the infinity
    node.
    """
    P1, P2, P3 = (_real(value, f"pile parameter {name}", positive=name != "P3")
                  for name, value in (("P1", P1), ("P2", P2), ("P3", P3)))

    def f(x, u):
        return np.array([u[1], u[2], u[3], -P1 * (1.0 - np.exp(-P2 * u[0]))])

    def df_du(x, u):
        out = np.zeros((4, 4) + np.shape(u)[1:])
        out[0, 1] = out[1, 2] = out[2, 3] = 1.0
        out[3, 0] = -P1 * P2 * np.exp(-P2 * u[0])
        return out

    def g(u0, u_inf):
        return np.array([u0[2], u0[3] - P3, u_inf[0], u_inf[1]])

    dg_0 = np.zeros((4, 4))
    dg_0[0, 2] = dg_0[1, 3] = 1.0
    dg_N = np.zeros((4, 4))
    dg_N[2, 0] = dg_N[3, 1] = 1.0

    b = (P1 * P2 / 4.0) ** 0.25
    a = P3 / (2.0 * b ** 3)

    def initial_iterate(x):
        finite = np.isfinite(x)
        bx = b * np.where(finite, x, 0.0)
        decay = np.where(finite, a * np.exp(-bx), 0.0)
        cos, sin = np.cos(bx), np.sin(bx)
        return np.array([decay * cos, -b * decay * (cos + sin),
                         2.0 * b * b * decay * sin, 2.0 * b ** 3 * decay * (cos - sin)])

    return BvpProblem(name="pile", d=4, f=f, g=g,
                      initial_iterate=initial_iterate, df_du=df_du, dg=(dg_0, dg_N),
                      reports={"u0": (0, 0), "du0": (0, 1)})


def initial_field(problem: BvpProblem, grid) -> np.ndarray:
    """Evaluate the problem's default initial iterate on all nodes in one
    call; returns the field of shape (N+1, d)."""
    d, M = problem.d, grid.N + 1
    values = np.asarray(problem.initial_iterate(grid.nodes), dtype=float)
    if values.shape not in ((d,), (d, M)):
        raise ValueError(f"initial iterate produced shape {values.shape}, "
                         f"expected ({d}, {M}) or ({d},)")
    values = np.broadcast_to(values.T, (M, d)).copy()
    if not np.all(np.isfinite(values)):
        raise ValueError("initial iterate must be finite at every node")
    return values


def report_scalar(problem: BvpProblem, result, name: str) -> float:
    """The named report's (node, component) entry of a solve's solution."""
    if name not in problem.reports:
        raise KeyError(f"problem '{problem.name}' has no report scalar {name!r}; "
                       f"available: {sorted(problem.reports)}")
    return float(result.solution[problem.reports[name]])


PROBLEMS: dict[str, Callable[..., BvpProblem]] = {
    "falkner-skan": falkner_skan,
    "pile": pile,
}
