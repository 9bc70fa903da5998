"""The two-tree method shared by the scripts in this directory.

    python3 scripts/SCRIPT.py PARENT_TREE [--out RECORD] [--repeats R]

PARENT_TREE is an unpacked checkout of the commit to compare against
(`git archive <commit> | tar -x -C PARENT_TREE`); the change is the tree
these scripts live in. Both trees' infbvp packages, cli included, are
imported into one interpreter under the names infbvp_parent and
infbvp_change, with BLAS pinned to one thread before numpy loads. A bench
script runs each case for --repeats rounds; in each round both sides make
one call, the parent first in even rounds and the change first in odd
ones, so that a drift in CPU speed hits both alike, and each side keeps
the median of its calls: on a shared host one call in a few is slowed by
the host or the garbage collector, and the best call of each side moves
with such swings more than the median does. The record it writes holds
what was timed, the command, the host and the cases.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_tree(tree: Path, name: str):
    """The infbvp package of a source tree and its cli, imported under
    another name."""
    package = tree / "src" / "infbvp"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def load_sides(parent: Path) -> dict:
    """{"parent": the package of PARENT_TREE, "change": this tree's}."""
    return {"parent": load_tree(parent.resolve(), "infbvp_parent"),
            "change": load_tree(ROOT, "infbvp_change")}


def parse_args(doc: str, out: str | None = None, repeats: int | None = None):
    """PARENT_TREE; with a record name out, also --out and --repeats."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("parent", type=Path)
    if out is not None:
        parser.add_argument("--out", type=Path, default=ROOT / out)
        parser.add_argument("--repeats", type=int, default=repeats)
    return parser.parse_args()


def median_of(sides: dict, repeats: int, call) -> dict:
    """Each side's median call(side, lib) seconds over alternating rounds."""
    seconds = {side: [] for side in sides}
    for repeat in range(repeats):
        for side in (list(sides) if repeat % 2 == 0 else list(reversed(sides))):
            seconds[side].append(call(side, sides[side]))
    return {side: statistics.median(times) for side, times in seconds.items()}


def c5_grid(lib, kind: str, N: int, **options):
    """lib's grid of N intervals on the map kind with c = 5."""
    return lib.build_grid(lib.GridMap(kind, 5.0), N, **options)


def ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def timing(medians: dict) -> dict:
    """parent_ms, change_ms and speedup (parent over change) of medians."""
    return {"parent_ms": ms(medians["parent"]), "change_ms": ms(medians["change"]),
            "speedup": round(medians["parent"] / medians["change"], 2)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            return next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def write_record(args, script: str, what: str, cases: dict) -> None:
    """Write the record of a bench script's cases to args.out as JSON."""
    record = {
        "what": what,
        "command": f"python3 scripts/{Path(script).name} PARENT_TREE --repeats {args.repeats}",
        "env": {"cpu": _cpu_model(), "nproc": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(), "numpy": np.__version__,
                "blas_threads": 1},
        "cases": cases,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
