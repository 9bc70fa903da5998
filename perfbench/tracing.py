"""Spans and counters around infbvp's public functions, for the traced run.

install() rebinds each wrapped function where its callers look it up (the
name the caller imported, or the class attribute) and returns a function
that restores the originals; nothing under src/ changes. A span is a list
[name, start, end, parent index] kept in memory. The layer of a span is
the part of its name before the first dot.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import Counter
from typing import Callable

import numpy as np

from infbvp import cli, grids, newton, problems

LAYERS = ("bench", "cli", "richardson", "newton", "scheme", "problems", "grids", "trace")


class Tracer:
    """In-memory span recorder with plain counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.relres: list[float] = []
        self._stack: list[int] = []

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named name, child of the open span."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def spanned(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return traced

    def counted_problem(self, problem: problems.BvpProblem) -> problems.BvpProblem:
        """Copy of problem whose f and df_du count their calls."""
        counts = self.counts
        f, df_du = problem.f, problem.df_du

        def counted_f(x, u):
            counts["problems.f_calls"] += 1
            return f(x, u)

        def counted_df_du(x, u):
            counts["problems.df_du_calls"] += 1
            return df_du(x, u)

        return dataclasses.replace(problem, f=counted_f,
                                   df_du=None if df_du is None else counted_df_du)


def relative_residual(jacobian, rhs, delta) -> float:
    """||J delta - rhs|| / ||rhs|| in the 2-norm, with J applied block by
    block from the StructuredJacobian arrays dU_n, dU_next, dg_0, dg_N.
    inf when the solve returned a non-finite correction."""
    N = jacobian.dU_n.shape[0]
    delta = np.asarray(delta, dtype=float)
    with np.errstate(all="ignore"):  # must not leak warnings into grading
        product = np.empty_like(delta)
        product[:N] = (np.einsum("nij,nj->ni", jacobian.dU_n, delta[:N])
                       + np.einsum("nij,nj->ni", jacobian.dU_next, delta[1:]))
        product[N] = jacobian.dg_0 @ delta[0] + jacobian.dg_N @ delta[N]
        rhs = np.asarray(rhs, dtype=float)
        ratio = float(np.linalg.norm(product.ravel() - rhs) / np.linalg.norm(rhs))
    return math.inf if math.isnan(ratio) else ratio


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; the returned function undoes it."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    build_grid = tracer.spanned("grids.build", grids.build_grid)
    patch(grids, "build_grid", build_grid)
    patch(cli, "build_grid", build_grid)
    patch(grids.QuasiUniformGrid, "stencil_arrays",
          tracer.spanned("grids.stencil", grids.QuasiUniformGrid.stencil_arrays))
    patch(newton, "initial_field",
          tracer.spanned("problems.initial_field", newton.initial_field))
    patch(newton, "assemble_residual",
          tracer.spanned("scheme.residual", newton.assemble_residual))

    assemble_jacobian = newton.assemble_jacobian

    def traced_jacobian(problem, grid, U, mode="analytic", *rest, **kwargs):
        name = "scheme.jacobian_fd" if mode == "fd" else "scheme.jacobian"
        return tracer.run(name, assemble_jacobian, problem, grid, U, mode, *rest, **kwargs)

    patch(newton, "assemble_jacobian", traced_jacobian)

    linear_solve = newton.linear_solve

    def traced_linear(jacobian, rhs, *rest, **kwargs):
        delta = tracer.run("newton.linear", linear_solve, jacobian, rhs, *rest, **kwargs)
        tracer.relres.append(tracer.run("trace.relres", relative_residual, jacobian, rhs, delta))
        return delta

    patch(newton, "linear_solve", traced_linear)

    newton_solve = newton.newton_solve

    def traced_solve(*args, **kwargs):
        result = tracer.run("newton.solve", newton_solve, *args, **kwargs)
        tracer.counts["newton.iterations"] += result.iterations
        return result

    patch(newton, "newton_solve", traced_solve)
    patch(cli, "newton_solve", traced_solve)
    patch(cli, "extrapolate_table",
          tracer.spanned("richardson.extrapolate", cli.extrapolate_table))
    patch(cli, "main", tracer.spanned("cli.main", cli.main))

    def counted_factory(factory):
        return lambda *args, **kwargs: tracer.counted_problem(factory(*args, **kwargs))

    for name, factory in list(problems.PROBLEMS.items()):  # the CLI's lookup table
        saved.append((problems.PROBLEMS, name, factory))
        problems.PROBLEMS[name] = counted_factory(factory)
    patch(problems, "falkner_skan", counted_factory(problems.falkner_skan))
    patch(problems, "pile", counted_factory(problems.pile))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            if owner is problems.PROBLEMS:
                problems.PROBLEMS[attr] = original
            else:
                setattr(owner, attr, original)

    return restore


def self_times(spans: list[list], first: int, last: int) -> list[float]:
    """Self time of spans[first:last]: duration minus the durations of
    direct children (children of one span never overlap in this
    single-threaded caller)."""
    own = [span[2] - span[1] for span in spans[first:last]]
    for index in range(first, last):
        parent = spans[index][3]
        if parent is not None and parent >= first:
            own[parent - first] -= spans[index][2] - spans[index][1]
    return own
