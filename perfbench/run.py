"""Solve benchmark for infbvp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from src/.
One single-threaded process is the only caller, in a closed loop: each
case starts after the previous one returns, through public entry
points only (workloads.py). A pass runs every case of the workload once,
in the seed's order; passes repeat until the next one would overrun
--seconds. Every answer is graded against exact references.

On a host shared with other work a CPU can change speed by a fifth within
seconds, and a wall-clock median then moves as much from run to run. So
every pass also times a fixed probe (small numpy arrays and 3 x 3
solves, no infbvp code) before the first case and after every case, and
around every set-up. setup_s, pass_s and ok_per_s are in reference
seconds: the wall seconds of each case or set-up, scaled by PROBE_REF_S
over the mean probe time on either side of it. The plain wall-clock
figures are printed next to them.

--trace 0 reports the end-to-end metrics. --trace 1 measures untraced
passes for half the time and traced passes (tracing.py) for the other
half, and reports the per-layer metrics, with trace.overhead_s the
difference of their mean pass times in reference seconds; its spans are
written to perfbench/.out/. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. correct is false when the same
input gave different outcomes or counts across passes or runs, or when
the traced self times do not add up to the traced pass; failed solves are
counted in failed and in the failure classes, not in correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # one thread, set before numpy loads BLAS
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"
WORKLOAD_NAMES = ("paper-sweep", "fine-grid", "fd-jacobian", "stretched")
# Probe time that defines a reference second: about what probe() takes on
# an uncontended 2-core Intel Xeon.
PROBE_REF_S = 0.004
SETUP_REPEATS = 9
SETUP_CODE = ("import infbvp.cli\n"
              "from infbvp import falkner_skan, pile\n"
              "falkner_skan(1.0), falkner_skan(0.5), pile()\n")
# Counts that must repeat exactly across passes and runs for one seed.
COUNT_METRICS = ("newton.iterations", "problems.f_calls", "problems.df_du_calls",
                 "scheme.residual_calls", "scheme.jacobian_calls", "grids.stencil_calls",
                 "newton.linear_calls", "richardson.calls", "cli.bytes_out")
SPAN_TIMES = {
    "grids.build_s": ("grids.build",),
    "grids.stencil_s": ("grids.stencil",),
    "problems.initial_field_s": ("problems.initial_field",),
    "scheme.residual_s": ("scheme.residual",),
    "scheme.jacobian_s": ("scheme.jacobian",),
    "scheme.jacobian_fd_s": ("scheme.jacobian_fd",),
    "newton.solve_s": ("newton.solve",),
    "newton.linear_s": ("newton.linear",),
    "richardson.extrapolate_s": ("richardson.extrapolate",),
    "cli.main_s": ("cli.main",),
}
SPAN_CALLS = {
    "grids.stencil_calls": ("grids.stencil",),
    "scheme.residual_calls": ("scheme.residual",),
    "scheme.jacobian_calls": ("scheme.jacobian", "scheme.jacobian_fd"),
    "newton.linear_calls": ("newton.linear",),
    "richardson.calls": ("richardson.extrapolate",),
}
SPAN_SELF = {"newton.self_s": "newton.solve", "cli.self_s": "cli.main"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


@dataclass
class Pass:
    seconds: float              # wall time of the cases, probes excluded
    ref_seconds: float          # the same in reference seconds
    outcomes: list
    bytes_out: int
    counts: Counter = field(default_factory=Counter)
    span_range: tuple[int, int] = (0, 0)
    relres: list[float] = field(default_factory=list)


_PROBE_A = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.2], [0.0, 0.2, 4.0]])
_PROBE_W = np.linspace(0.1, 1.0, 11)


def probe() -> float:
    """Seconds taken by a fixed kernel shaped like the solver's inner loop
    (interpolate two 3-vectors, build a right-hand side, solve a 3 x 3
    system) but calling no infbvp code; the median of three runs."""
    U = np.ones((11, 3))
    out = np.empty((10, 3))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for n in range(300):
            k = n % 10
            mid = _PROBE_W[k] * U[k] + (1.0 - _PROBE_W[k]) * U[k + 1]
            f = np.array([mid[1], mid[2], -mid[0] * mid[2] - (1.0 - mid[1] * mid[1])])
            out[k] = np.linalg.solve(_PROBE_A, U[k + 1] - U[k] - 0.1 * f)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_program() -> None:
    """Import infbvp from ROOT/src and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import infbvp.cli  # noqa: F401
    except ImportError as exc:
        raise BenchmarkError(f"cannot import infbvp from {src}: {exc}") from None
    if Path(infbvp.cli.__file__).resolve().parent != src / "infbvp":
        raise BenchmarkError(f"infbvp was imported from {infbvp.cli.__file__}, not {src}")


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall and reference seconds of fresh interpreters that import infbvp
    and build the problems, each timed between two probes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"),
                                                    env.get("PYTHONPATH")) if p)
    wall, ref = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - start)
        after = probe()
        ref.append(wall[-1] * PROBE_REF_S / (0.5 * (before + after)))
        before = after
    return wall, ref


def run_cases(cases, workdir: Path, tracer=None):
    """Every case once, in order, with a probe before the first case and
    after every case; traced, each case is a root span named bench.case.
    Returns (wall seconds inside the cases, the same in reference seconds,
    outcomes, bytes written)."""
    seconds, ref_seconds, outcomes, nbytes = 0.0, 0.0, [], 0
    before = probe()
    for case in cases:
        start = time.perf_counter()
        got, n = (case.run(workdir) if tracer is None
                  else tracer.run("bench.case", case.run, workdir))
        wall = time.perf_counter() - start
        after = probe()
        seconds += wall
        ref_seconds += wall * PROBE_REF_S / (0.5 * (before + after))
        before = after
        outcomes.extend(got)
        nbytes += n
    return seconds, ref_seconds, outcomes, nbytes


def run_pass(cases, workdir: Path, tracer=None) -> Pass:
    if tracer is None:
        return Pass(*run_cases(cases, workdir))
    before, first, relres_from = Counter(tracer.counts), len(tracer.spans), len(tracer.relres)
    seconds, ref_seconds, outcomes, nbytes = run_cases(cases, workdir, tracer)
    counts = Counter(tracer.counts)
    counts.subtract(before)
    return Pass(seconds, ref_seconds, outcomes, nbytes, counts=counts,
                span_range=(first, len(tracer.spans)), relres=tracer.relres[relres_from:])


def run_passes(cases, workdir: Path, seconds: float, min_passes: int, tracer=None) -> list[Pass]:
    """Passes until one more would likely end after seconds, at least min_passes."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cases, workdir, tracer))
        spent = time.perf_counter() - start
        if len(passes) >= min_passes and spent * (len(passes) + 1) / len(passes) > seconds:
            return passes


def finite(value: float) -> float:
    """JSON has no inf or nan: report them as the largest double."""
    return value if math.isfinite(value) else sys.float_info.max


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than 11 samples."""
    if len(times) < 11:
        return None
    k = len(times) - 11
    return 100.0 * (k + 1) / len(times), sorted(times)[k]


def outcome_summary(passes: list[Pass], failure_classes) -> dict:
    """Totals over passes; failure classes are per pass (they repeat)."""
    outcomes = [o for p in passes for o in p.outcomes]
    ok = sum(o.failure is None for o in outcomes)
    classes = Counter(o.failure for o in passes[0].outcomes)
    richardson = [o for o in outcomes if o.kind == "richardson" and o.errors]
    finest = max(o.N for o in outcomes)
    finals = richardson or [o for o in outcomes if o.N == finest and o.kind == "solve"]
    errors = [e for o in finals for e in o.errors.values()]
    return {
        "attempted": len(outcomes),
        "ok": ok,
        "failed": len(outcomes) - ok,
        "classes": {c: classes[c] for c in failure_classes},
        "err_finest": max(errors) if errors else math.inf,
    }


def signature(p: Pass) -> dict:
    """Everything about a pass that must repeat exactly for one seed."""
    sig: dict = dict(p.counts)
    sig["cli.bytes_out"] = p.bytes_out
    sig["outcomes"] = [[o.label, o.failure, o.iterations] for o in p.outcomes]
    return sig


def check_drift(passes: list[Pass], store_key: str) -> list[str]:
    """Differences between the passes of this run, and between this run
    and an earlier run of the same key (kept in OUT_DIR/counts.json)."""
    first = signature(passes[0])
    drift = []
    for number, p in enumerate(passes[1:], start=2):
        later = signature(p)
        drift += [f"pass {number}: {name} {later.get(name)!r} != {value!r}"
                  for name, value in first.items() if later.get(name) != value]
    store = OUT_DIR / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if store_key in known:
        drift += [f"earlier run: {name} {known[store_key].get(name)!r} != {value!r}"
                  for name, value in first.items() if known[store_key].get(name) != value]
    else:
        known[store_key] = first
        partial = store.with_suffix(".tmp")
        partial.write_text(json.dumps(known))
        os.replace(partial, store)
    return drift


def source_digest(files) -> str:
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def layer_metrics(tracer, passes: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics of each traced pass, then their mean (times),
    repeated value (counts) or max (relres) over the passes. Each pass
    keeps its counts for the drift check."""
    from tracing import LAYERS, self_times

    per_pass, flags = [], []
    for number, p in enumerate(passes, start=1):
        first, last = p.span_range
        spans = tracer.spans[first:last]
        own = self_times(tracer.spans, first, last)
        m = {name: 0.0 for name in SPAN_TIMES} | {name: 0 for name in SPAN_CALLS}
        m |= {name: 0.0 for name in SPAN_SELF}
        m |= {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
        for span, self_s in zip(spans, own):
            name, duration = span[0], span[2] - span[1]
            for metric, names in SPAN_TIMES.items():
                m[metric] += duration if name in names else 0.0
            for metric, names in SPAN_CALLS.items():
                m[metric] += name in names
            for metric, span_name in SPAN_SELF.items():
                m[metric] += self_s if name == span_name else 0.0
            m[f"layer.{name.split('.')[0]}.self_s"] += self_s
        for name in ("newton.iterations", "problems.f_calls", "problems.df_du_calls"):
            m[name] = p.counts[name]
        m["cli.bytes_out"] = p.bytes_out
        p.counts = Counter({name: m[name] for name in COUNT_METRICS})
        m["trace.pass_s"] = sum(span[2] - span[1] for span in spans if span[3] is None)
        layer_sum = sum(m[f"layer.{layer}.self_s"] for layer in LAYERS)
        if abs(layer_sum - m["trace.pass_s"]) > 1e-9 * len(spans):
            flags.append(f"traced pass {number}: self times sum to {layer_sum!r} s, "
                         f"its cases took {m['trace.pass_s']!r} s")
        per_pass.append(m)
    merged = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        merged[name] = values[0] if name in COUNT_METRICS else statistics.fmean(values)
    relres = [r for p in passes for r in p.relres]
    merged["newton.linear_relres_max"] = max(relres) if relres else 0.0
    return merged, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "seed": args.seed, "workload": args.workload,
           "trace": args.trace, "blas_threads": 1}
    print("env", json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        workloads.warm_up(workdir)
        cases = workloads.build(args.workload, args.seed)
        if args.trace:
            untraced = run_passes(cases, workdir, args.seconds / 2, 2)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:  # cases built after install get counting problems
                traced = run_passes(workloads.build(args.workload, args.seed), workdir,
                                    args.seconds / 2, 2, tracer)
            finally:
                restore()
        else:
            setup_wall, setup = measure_setup()
            untraced = run_passes(cases, workdir, args.seconds, 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    flags = []
    if args.trace:
        metrics, flags = layer_metrics(tracer, traced)
        metrics["trace.overhead_s"] = (statistics.fmean(p.ref_seconds for p in traced)
                                       - statistics.fmean(p.ref_seconds for p in untraced))
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"env": env, "fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    key = "|".join([args.workload, str(args.seed), f"trace{args.trace}",
                    source_digest(workloads.source_files(ROOT))])
    flags += check_drift(traced if args.trace else untraced, key)

    all_passes = untraced + (traced if args.trace else [])
    summary = outcome_summary(all_passes, workloads.FAILURE_CLASSES)
    fail_frac = summary["failed"] / summary["attempted"]
    wall = [p.seconds for p in untraced]
    times = [p.ref_seconds for p in untraced]
    print(f"untraced passes {len(wall)}, wall s: " + " ".join(f"{t:.4f}" for t in wall))
    print(f"untraced passes {len(times)}, reference s: " + " ".join(f"{t:.4f}" for t in times))
    for o in untraced[0].outcomes:
        worst = max(o.errors.values(), default=math.nan)
        print(f"case {o.label}: {o.failure or 'ok'}, iterations {o.iterations}, "
              f"max error {worst:.3g}" + (f", {o.detail}" if o.detail else ""))
    print("failures per pass: " + " ".join(f"{c}={n}" for c, n in summary["classes"].items())
          + f" of {len(untraced[0].outcomes)} graded answers")
    tail_at = tail(times)
    print(f"pass_s.tail p{tail_at[0]:.0f} {tail_at[1]:.4f} s over {len(times)} passes"
          if tail_at else
          f"pass_s.tail n/a: {len(times)} passes, needs 11 (max {max(times):.4f} s)")
    if args.trace:
        print_breakdown(metrics, tracing.LAYERS)
        metrics["fail_frac"] = fail_frac
        metrics["err_finest"] = summary["err_finest"]
        for c in workloads.FAILURE_CLASSES:
            metrics[f"newton.fail.{c}"] = summary["classes"][c]
    else:
        ok = sum(o.failure is None for p in untraced for o in p.outcomes)
        print(f"err_finest {summary['err_finest']:.6g} abs")
        print(f"fail_frac {fail_frac:.6g} ratio")
        print(f"wall pass_s {statistics.median(wall):.4f} s, ok_per_s {ok / sum(wall):.4f} 1/s, "
              f"setup_s {statistics.median(setup_wall):.4f} s")
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(times),
            "ok_per_s": ok / sum(times),
            "ok_frac": summary["ok"] / summary["attempted"],
        }
    for line in flags:
        print("FLAG", line)
    result = {name: {"value": finite(value), "unit": unit_of(name)}
              for name, value in metrics.items()}
    for name, entry in result.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": not flags, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": result}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s") and name != "ok_per_s":
        return "s"
    return {"ok_per_s": "1/s", "ok_frac": "ratio", "fail_frac": "ratio",
            "newton.linear_relres_max": "ratio", "err_finest": "abs",
            "cli.bytes_out": "bytes"}.get(name, "count")


def print_breakdown(layers: dict, layer_names) -> None:
    total = layers["trace.pass_s"]
    print("self time per layer, mean over traced passes:")
    for layer in layer_names:
        value = layers[f"layer.{layer}.self_s"]
        print(f"  {layer:<11} {value:10.4f} s  {100 * value / total:5.1f}%")
    layer_sum = sum(layers[f"layer.{layer}.self_s"] for layer in layer_names)
    print(f"  {'sum':<11} {layer_sum:10.4f} s  (traced pass_s {total:.4f} s)")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        sys.exit(f"perfbench: {exc}")
