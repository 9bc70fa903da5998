"""The package surface: every public name of the six library modules,
listed once, in the modules themselves, and source that parses on the
oldest Python pyproject.toml admits."""

import ast
from pathlib import Path

import infbvp
from infbvp import grids, linsolve, newton, problems, richardson, scheme

MODULES = (grids, linsolve, newton, problems, richardson, scheme)

PUBLIC_NAMES = [
    "BvpProblem", "EvaluationError", "ExtrapolationTable", "GridMap",
    "PROBLEMS", "QuasiUniformGrid", "SingularSystemError",
    "SolveResult", "SolverConfig", "StructuredJacobian",
    "assemble_jacobian", "assemble_residual", "build_grid", "extrapolate_table",
    "falkner_skan", "initial_field", "linear_solve", "newton_solve", "observed_order",
    "pile", "prolong", "report_scalar", "sweep",
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


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    sources = sorted(Path(infbvp.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        ast.parse(source.read_text(), filename=str(source), feature_version=(3, 10))
