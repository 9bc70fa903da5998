"""The two-tree method shared by the scripts in this directory.

    python3 scripts/SCRIPT.py PARENT_TREE [--out RECORD] [--repeats R]

PARENT_TREE is an unpacked checkout of the commit to compare against
(`git archive <commit> | tar -x -C PARENT_TREE`); the change is the tree
these scripts live in. Both trees' infbvp packages, cli included, are
imported into one interpreter under the names infbvp_parent and
infbvp_change, with BLAS pinned to one thread before numpy loads. A bench
script runs each case for --repeats rounds; in each round both sides make
one call, the parent first in even rounds and the change first in odd
ones, so that a drift in CPU speed hits both alike. Each side reports the
median and quartiles of its calls: on a shared host one call in a few is
slowed by the host or the garbage collector, and the best call of each
side moves with such swings more than the median does. A round is won by
the side whose call was faster, a tie by neither; a case is "resolved"
only when the change won at least nine tenths of its rounds and its
median beats the parent's by more than the parent's interquartile range,
so a speedup without it is not a measured gain. The record a script
writes holds what was timed, the command, the host and the cases.
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


def _repeats(text: str) -> int:
    """--repeats: quartiles take at least two rounds."""
    try:
        repeats = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if repeats < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {repeats}")
    return repeats


def parse_args(doc: str, out: str | None = None, repeats: int | None = None):
    """PARENT_TREE; with a record name out, also --out and --repeats."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("parent", type=Path)
    if out is not None:
        parser.add_argument("--out", type=Path, default=ROOT / out)
        parser.add_argument("--repeats", type=_repeats, default=repeats,
                            help=f"alternating rounds per case, at least 2 (default {repeats})")
    return parser.parse_args()


def paired_rounds(sides: dict, repeats: int, call) -> dict:
    """Each side's call(side, lib) seconds, one per round, over
    alternating rounds."""
    seconds = {side: [] for side in sides}
    for repeat in range(repeats):
        for side in (list(sides) if repeat % 2 == 0 else list(reversed(sides))):
            seconds[side].append(call(side, sides[side]))
    return seconds


def c5_grid(lib, kind: str, N: int, **options):
    """lib's grid of N intervals on the map kind with c = 5."""
    return lib.build_grid(lib.GridMap(kind, 5.0), N, **options)


def ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def timing(seconds: dict) -> dict:
    """Summary of paired_rounds' seconds: each side's median ms and
    quartiles, speedup (parent over change in medians), the rounds the
    change won and whether its gain is resolved."""
    medians = {side: statistics.median(times) for side, times in seconds.items()}
    quartiles = {side: statistics.quantiles(times, n=4)[::2] for side, times in seconds.items()}
    parent_spread = quartiles["parent"][1] - quartiles["parent"][0]
    rounds = len(seconds["change"])
    wins = sum(change < parent for change, parent in
               zip(seconds["change"], seconds["parent"], strict=True))
    return {"parent_ms": ms(medians["parent"]), "change_ms": ms(medians["change"]),
            "parent_quartiles_ms": [ms(q) for q in quartiles["parent"]],
            "change_quartiles_ms": [ms(q) for q in quartiles["change"]],
            "speedup": round(medians["parent"] / medians["change"], 2),
            "wins": wins, "rounds": rounds,
            "resolved": 10 * wins >= 9 * rounds
                        and medians["parent"] - medians["change"] > parent_spread}


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
