"""The package surface: every public name of the five library modules,
listed once, in the modules themselves."""

import infbvp
from infbvp import grids, newton, problems, richardson, scheme

MODULES = (grids, newton, problems, richardson, scheme)

PUBLIC_NAMES = [
    "BvpProblem", "EvaluationError", "ExtrapolationTable", "GridMap", "MapKind",
    "MissingDerivativeError", "PROBLEMS", "QuasiUniformGrid", "SingularSystemError",
    "SolveResult", "SolverConfig", "StructuredJacobian",
    "assemble_jacobian", "assemble_residual", "build_grid", "extrapolate_table",
    "falkner_skan", "initial_field", "linear_solve", "newton_solve", "observed_order",
    "pile", "prolong", "report_scalar", "richardson_error",
]


def test_package_exports_the_union_of_the_module_lists():
    exported = infbvp.__all__
    assert exported == sorted(set(exported))
    assert exported == sorted(name for module in MODULES for name in module.__all__)
    assert exported == PUBLIC_NAMES


def test_every_exported_name_is_the_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(infbvp, name) is getattr(module, name), (module.__name__, name)
