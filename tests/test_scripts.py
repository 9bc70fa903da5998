"""The two-tree scripts import their shared harness and parse arguments, and
the harness summarizes paired rounds."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["bench_linear_solve", "bench_newton", "bench_cli_output",
                                  "compare_trees"])
def test_script_help_runs(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: {name}.py")


@pytest.mark.parametrize("name", ["bench_linear_solve", "bench_newton", "bench_cli_output"])
@pytest.mark.parametrize("repeats", ["1", "two"])
def test_bench_refuses_fewer_than_two_repeats(name, repeats, tmp_path):
    # quartiles need two rounds; the refusal comes before any tree is read
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), str(tmp_path / "none"),
                           "--repeats", repeats, "--out", str(tmp_path / "record.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"usage: {name}.py")
    assert "argument --repeats: must be" in proc.stderr
    assert not (tmp_path / "record.json").exists()


@pytest.fixture
def twotrees(monkeypatch):
    """scripts/twotrees.py, imported with the BLAS variables it sets at
    import restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import twotrees
    return twotrees


def scripted_timing(twotrees, parent, change):
    """timing() of paired_rounds over scripted seconds, one per call, and
    the order in which the sides were called."""
    scripts = {"parent": iter(parent), "change": iter(change)}
    order = []

    def call(side, lib):
        assert lib == f"lib of {side}"
        order.append(side)
        return next(scripts[side])

    sides = {side: f"lib of {side}" for side in ("parent", "change")}
    seconds = twotrees.paired_rounds(sides, len(parent), call)
    assert seconds == {"parent": list(parent), "change": list(change)}
    return twotrees.timing(seconds), order


def test_timing_records_quartiles_and_wins(twotrees):
    parent = [0.010, 0.012, 0.011, 0.013, 0.010, 0.011, 0.012, 0.011, 0.010, 0.014]
    change = [0.008, 0.009, 0.008, 0.009, 0.008, 0.009, 0.008, 0.009, 0.008, 0.009]
    summary, order = scripted_timing(twotrees, parent, change)
    # the parent calls first in even rounds, the change in odd ones
    assert order == ["parent", "change", "change", "parent"] * 5
    assert summary == {"parent_ms": 11.0, "change_ms": 8.5,
                       "parent_quartiles_ms": [10.0, 12.25], "change_quartiles_ms": [8.0, 9.0],
                       "speedup": 1.29, "wins": 10, "rounds": 10, "resolved": True}


STEADY = [10, 10, 10, 10, 10, 9.8, 10.2, 11, 9.6, 10]


@pytest.mark.parametrize("parent, change, wins", [
    # 8 of 10 rounds won: short of nine tenths
    (STEADY, [8, 8, 8, 8, 8, 8, 8, 8, 20, 20], 8),
    # a tie counts for neither side
    (STEADY, [8, 8, 8, 8, 8, 8, 8, 8, 9.6, 10], 8),
    # every round won, but by less than the parent's quartile spread
    ([10, 9, 11, 10, 9, 11, 10, 9, 11, 12], [8.9] * 10, 10),
])
def test_timing_leaves_a_small_or_unsteady_gain_unresolved(twotrees, parent, change, wins):
    summary, _ = scripted_timing(twotrees, parent, change)
    assert summary["change_ms"] < summary["parent_ms"]
    assert (summary["wins"], summary["rounds"], summary["resolved"]) == (wins, 10, False)


PARENT_API = """
import dataclasses
__all__ = ["GridMap", "MapKind", "SolveResult", "build_grid"]
class GridMap: pass
class MapKind:
    def parse(self): pass
@dataclasses.dataclass
class SolveResult:
    solution: object
    iterations: int = 0
    @property
    def final_increment(self): pass
    def value(self, name): pass
def build_grid(N): pass
"""
CHANGE_API = """
import dataclasses
__all__ = ["GridMap", "SolveResult", "build_grid", "sweep"]
class GridMap:
    def values(self): pass
@dataclasses.dataclass
class SolveResult:
    solution: object
    increments: list
    iterations: int = 0
    def value(self, name, node=0): pass
def build_grid(N, continuation=True): pass
def sweep(): pass
"""


def test_compare_trees_reports_the_public_names_one_tree_lacks(twotrees, tmp_path):
    import compare_trees
    libs = {}
    try:
        for side, source in (("parent", PARENT_API), ("change", CHANGE_API)):
            package = tmp_path / side / "src" / "infbvp"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text(source)
            (package / "cli.py").write_text("")
            libs[side] = twotrees.load_tree(tmp_path / side, f"stub_{side}")
    finally:
        for name in [name for name in sys.modules if name.startswith("stub_")]:
            del sys.modules[name]
    # a field without a default is no class attribute, yet it is listed;
    # the attributes of a class that only one tree exports are not. A
    # function, constructor or method whose parameters differ is listed
    # with both signatures
    assert compare_trees.api_differences(libs["parent"], libs["change"]) == ([
        "api: MapKind only in parent", "api: SolveResult.final_increment only in parent",
        "api: GridMap.values only in change", "api: SolveResult.increments only in change",
        "api: sweep only in change",
        "api: SolveResult signature (solution: object, iterations: int = 0) -> None in parent, "
        "(solution: object, increments: list, iterations: int = 0) -> None in change",
        "api: SolveResult.value signature (self, name) in parent, (self, name, node=0) in change",
        "api: build_grid signature (N) in parent, (N, continuation=True) in change"], 12)
    assert compare_trees.api_differences(libs["change"], libs["change"]) == ([], 9)
