"""Nonlinear two-point boundary value problems on [0, inf].

The semi-infinite domain is covered by a quasi-uniform grid whose last
node sits exactly at infinity, so boundary conditions at infinity are
imposed directly on an ordinary unknown. A midpoint finite-difference
scheme built from always-finite fractional nodes discretizes the system,
Newton's method with a structured linear solver computes the node values,
and nested extrapolation on doubling grid families sharpens the reported
scalars.
"""

from . import grids, linsolve, newton, problems, richardson, scheme
from .grids import *
from .linsolve import *
from .newton import *
from .problems import *
from .richardson import *
from .scheme import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (grids, linsolve, newton, problems, richardson, scheme)
                 for name in module.__all__)
