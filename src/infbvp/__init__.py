"""Nonlinear two-point boundary value problems on [0, inf].

The semi-infinite domain is covered by a quasi-uniform grid whose last
node sits exactly at infinity, so boundary conditions at infinity are
imposed directly on an ordinary unknown. A midpoint finite-difference
scheme built from always-finite fractional nodes discretizes the system,
Newton's method with a structured linear solver computes the node values,
and nested extrapolation on doubling grid families sharpens the reported
scalars.
"""

from .grids import (
    GridMap,
    MapKind,
    QuasiUniformGrid,
    build_grid,
)
from .newton import (
    SingularSystemError,
    SolveResult,
    SolverConfig,
    linear_solve,
    newton_solve,
)
from .problems import (
    PROBLEMS,
    BvpProblem,
    falkner_skan,
    initial_field,
    pile,
    report_scalar,
)
from .richardson import (
    ExtrapolationTable,
    SweepSeries,
    extrapolate_table,
    observed_order,
    richardson_error,
)
from .scheme import (
    EvaluationError,
    MissingDerivativeError,
    StructuredJacobian,
    assemble_jacobian,
    assemble_residual,
    prolong,
)

__version__ = "0.1.0"

__all__ = [
    "BvpProblem",
    "EvaluationError",
    "ExtrapolationTable",
    "GridMap",
    "MapKind",
    "MissingDerivativeError",
    "PROBLEMS",
    "QuasiUniformGrid",
    "SingularSystemError",
    "SolveResult",
    "SolverConfig",
    "StructuredJacobian",
    "SweepSeries",
    "assemble_jacobian",
    "assemble_residual",
    "build_grid",
    "extrapolate_table",
    "falkner_skan",
    "initial_field",
    "linear_solve",
    "newton_solve",
    "observed_order",
    "pile",
    "prolong",
    "report_scalar",
    "richardson_error",
]
