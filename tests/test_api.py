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


def unused_imports(source: str) -> list[str]:
    """The names a module-level import binds that the module neither
    reads nor lists in a literal __all__; from __future__ and star
    imports bind none."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.List)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                for name in ast.literal_eval(node.value)}
    return [name for name in bound if name not in read | exported]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport math as m\n"
              "from .grids import *\nfrom .a import b, c as d, e\nimport sys\n"
              "__all__ = ['b']\n\ndef f(x: e) -> None:\n    return sys.argv\n")
    # e is read only in an annotation, which from __future__ leaves unevaluated
    assert unused_imports(source) == ["os", "m", "d"]


def test_every_module_level_import_is_used():
    sources = sorted(Path(infbvp.__file__).parent.glob("*.py"))
    unused = {source.name: unused_imports(source.read_text()) for source in sources}
    assert {name: names for name, names in unused.items() if names} == {}
