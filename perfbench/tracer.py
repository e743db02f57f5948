"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces public functions of each ``wavebound`` module
with timing wrappers, under every name a caller looks them up by (modules
import these functions by name, so ``wavebound.varbound.beta_weighted_integral``
and ``wavebound.twospecies.beta_weighted_integral`` are patched
separately).  Nothing under ``src/`` is edited; ``uninstall`` restores the
originals.

A span records (name, start, end, parent span, op id, thread id) and stays
in memory until ``dump``.  Compiled ``D``/``f`` calls are far too many for
one span each (about a million per coupled solve), so they are counted
as leaves: their count, points and time are added to the innermost open
span of the calling thread, which self time then subtracts.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

# span name -> (module, attribute) pairs to wrap.  Every pair is required:
# ``install`` raises when one is missing, so a refactor that renames or
# inlines a function stops the traced run instead of reading 0.
SPAN_TARGETS: Dict[str, List[tuple]] = {
    "quad.adaptive": [
        ("wavebound.varbound", "beta_weighted_integral"),
        ("wavebound.varbound", "quad"),
        ("wavebound.twospecies", "beta_weighted_integral"),
        ("wavebound.twospecies", "quad"),
    ],
    "quad.frozen": [
        ("wavebound.varbound", "frozen_beta_mesh"),
        ("wavebound.varbound", "beta_weighted_on_mesh"),
    ],
    "search.golden": [
        ("wavebound.varbound", "golden_max"),
        ("wavebound.twospecies", "golden_max"),
    ],
    "varbound.sup_F": [
        ("wavebound", "sup_F"),
        ("wavebound.varbound", "sup_F"),
        ("wavebound.cli", "sup_F"),
    ],
    "varbound.F_of_beta": [("wavebound.varbound", "F_of_beta")],
    "varbound.criterion": [
        ("wavebound", "selection_criterion"),
        ("wavebound.varbound", "selection_criterion"),
        ("wavebound.cli", "selection_criterion"),
    ],
    "twospecies.solve": [
        ("wavebound", "solve_implicit_speed"),
        ("wavebound.twospecies", "solve_implicit_speed"),
        ("wavebound.cli", "solve_implicit_speed"),
    ],
    "twospecies.G": [("wavebound.twospecies", "G_of_beta")],
    "twospecies.profile": [("wavebound.twospecies", "solve_u2_profile")],
    "pde.sim": [
        (mod, fn)
        for mod in ("wavebound", "wavebound.pde", "wavebound.cli")
        for fn in ("simulate_scalar", "simulate_two_species", "simulate_fisher_stefan")
    ],
    "cli.main": [("wavebound.cli", "main")],
}

PER_LAYER_UNITS = {
    "expr.calls": "count",
    "expr.points": "count",
    "expr.s": "s",
    "model.build_s": "s",
    "quad.adaptive.calls": "count",
    "quad.adaptive.s": "s",
    "quad.frozen.calls": "count",
    "quad.frozen.s": "s",
    "quad.points": "count",
    "search.golden.calls": "count",
    "search.golden.s": "s",
    "varbound.sup_F.s": "s",
    "varbound.F_of_beta.calls": "count",
    "varbound.criterion.s": "s",
    "twospecies.solve.s": "s",
    "twospecies.solve.iterations": "count",
    "twospecies.G.calls": "count",
    "twospecies.profile.calls": "count",
    "twospecies.profile.s": "s",
    "twospecies.profile.rhs_calls": "count",
    "twospecies.nonlinear_share": "ratio",
    "pde.sim.s": "s",
    "pde.cells": "count",
    "pde.steps": "count",
    "pde.cell_steps": "count",
    "pde.ns_per_cell_step": "ns",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.point.s": "s",
    "cli.pool_efficiency": "ratio",
    "trace.overhead_s": "s",
}


def _required(mod_name: str, attr: str):
    """The module and its attribute; raises when the attribute is gone."""
    mod = importlib.import_module(mod_name)
    if not hasattr(mod, attr):
        raise RuntimeError(f"trace target {mod_name}.{attr} no longer exists; update tracer.py")
    return mod, getattr(mod, attr)


def _union_length(intervals: List[tuple]) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Thread:
    """One thread's open spans and counters; no lock is taken to update
    them.  ``Tracer`` sums the counters of all threads when it reports."""

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.open: Dict[str, int] = defaultdict(int)  # open spans per name
        self.counts: Dict[str, float] = defaultdict(float)
        self.leaf_s: Dict[int, float] = defaultdict(float)  # span -> leaf time
        self.steps = 0  # steps from pde._steps not yet claimed by a simulation


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, t0, t1, parent, op, thread]
        self.sweeps: List[tuple] = []  # (span index, workers)
        self.op: Optional[int] = None
        self._op_span: Optional[int] = None
        self._threads: List[_Thread] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- span bookkeeping ------------------------------------------------

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, name: str, parent: Optional[int] = None) -> int:
        state = self._thread()
        if parent is None:
            parent = state.stack[-1] if state.stack else self._op_span
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                [name, perf_counter(), None, parent, self.op, threading.get_ident()]
            )
        state.stack.append(idx)
        state.open[name] += 1
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        state = self._thread()
        state.stack.pop()
        state.open[self.spans[idx][0]] -= 1

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._op_span = None
        self._op_span = self.begin("op")

    def end_op(self) -> None:
        self.end(self._op_span)
        self._op_span = None
        self.op = None

    def count(self, key: str, n: float = 1.0) -> None:
        self._thread().counts[key] += n

    def _merged(self) -> tuple:
        """(counts, leaf seconds per span) summed over all threads."""
        counts: Dict[str, float] = defaultdict(float)
        leaf_s: Dict[int, float] = defaultdict(float)
        for state in self._threads:
            for key, n in state.counts.items():
                counts[key] += n
            for idx, t in state.leaf_s.items():
                leaf_s[idx] += t
        return counts, leaf_s

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span_wrapper(self, name: str, fn: Callable, on_result=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counted_expr(self, fn: Callable) -> Callable:
        def counted(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            state = self._thread()
            counts = state.counts
            counts["expr.calls"] += 1
            counts["expr.points"] += getattr(args[0], "size", 1) if args else 1
            counts["expr.s"] += dt
            if state.open["twospecies.profile"]:
                counts["twospecies.profile.rhs_calls"] += 1
            if state.stack:
                state.leaf_s[state.stack[-1]] += dt
            return out

        return counted

    def install(self) -> None:
        """Wrap every layer boundary; models built afterwards are counted."""
        wrapped: Dict[int, Callable] = {}
        hooks = {
            "twospecies.solve": self._on_solve,
            "pde.sim": self._on_sim,
        }
        for name, targets in SPAN_TARGETS.items():
            for mod_name, attr in targets:
                mod, fn = _required(mod_name, attr)
                # one wrapper per function object, shared by all its names
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._span_wrapper(name, fn, hooks.get(name))
                self._patch(mod, attr, wrapped[id(fn)])

        model = importlib.import_module("wavebound.model")
        compile_fn = model.compile_fn

        def compile_counted(*args, **kwargs):
            return self._counted_expr(compile_fn(*args, **kwargs))

        self._patch(model, "compile_fn", compile_counted)
        for cls in (model.ScalarModel, model.TwoSpeciesModel):
            self._patch(cls, "__post_init__", self._span_wrapper("model.build", cls.__post_init__))

        quad, eval_panels = _required("wavebound._quad", "_eval_panels")

        def panels_counted(f, a, b):
            self.count("quad.points", 15 * int(np.size(a)))
            return eval_panels(f, a, b)

        self._patch(quad, "_eval_panels", panels_counted)

        # every simulator takes (dt, n_steps) from pde._steps
        pde, steps = _required("wavebound.pde", "_steps")

        def steps_counted(*args, **kwargs):
            dt, n_steps = steps(*args, **kwargs)
            self._thread().steps += n_steps
            return dt, n_steps

        self._patch(pde, "_steps", steps_counted)

        cli, sweep = _required("wavebound.cli", "_sweep")
        _, pool_size = _required("wavebound.cli", "_pool_size")
        self._patch(cli, "_sweep", self._sweep_wrapper(sweep, pool_size))

    def _sweep_wrapper(self, sweep: Callable, pool_size: Callable) -> Callable:
        def traced_sweep(points, worker, *args, **kwargs):
            idx = self.begin("cli.sweep")
            workers = pool_size(len(points))

            def traced_worker(point):
                p = self.begin("cli.point", parent=idx)
                try:
                    return worker(point)
                finally:
                    self.end(p)

            try:
                return sweep(points, traced_worker, *args, **kwargs)
            finally:
                self.end(idx)
                self.sweeps.append((idx, workers))

        return traced_sweep

    def _on_solve(self, result) -> None:
        self.count("twospecies.solves")
        self.count("twospecies.solve.iterations", result.iterations)
        if result.beta_star < 2.0:
            self.count("twospecies.nonlinear_solves")

    def _on_sim(self, result) -> None:
        """Cells from the returned grid; steps from the wrapped pde._steps
        calls this thread made during the simulation."""
        state = self._thread()
        steps, state.steps = state.steps, 0
        if not steps:
            raise RuntimeError("simulation returned without calling pde._steps; update tracer.py")
        cells = int(np.size(result.x_grid))
        self.count("pde.cells", cells)
        self.count("pde.steps", steps)
        self.count("pde.cell_steps", cells * steps)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reporting ---------------------------------------------------------

    def _children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                kids[span[3]].append(i)
        return kids

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds (self = duration
        minus the union of child spans minus counted leaf calls)."""
        kids = self._children()
        counts, leaf_s = self._merged()
        table: Dict[str, Dict[str, float]] = {}
        for i, (name, t0, t1, *_rest) in enumerate(self.spans):
            dur = t1 - t0
            covered = _union_length([(self.spans[k][1], self.spans[k][2]) for k in kids.get(i, ())])
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered - leaf_s.get(i, 0.0)
        table["expr"] = {
            "calls": counts["expr.calls"],
            "total_s": counts["expr.s"],
            "self_s": counts["expr.s"],
        }
        return table

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        by_name: Dict[str, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)

        def total(name: str) -> float:
            return sum((self.spans[i][2] - self.spans[i][1] for i in by_name.get(name, ())), 0.0)

        def calls(name: str) -> float:
            return float(len(by_name.get(name, ())))

        kids = self._children()
        main_self = 0.0
        for i in by_name.get("cli.main", ()):
            points = []
            stack = list(kids.get(i, ()))
            while stack:
                k = stack.pop()
                if self.spans[k][0] == "cli.point":
                    points.append((self.spans[k][1], self.spans[k][2]))
                else:
                    stack.extend(kids.get(k, ()))
            main_self += (self.spans[i][2] - self.spans[i][1]) - _union_length(points)
        busy = total("cli.point")
        capacity = sum(
            (self.spans[i][2] - self.spans[i][1]) * workers for i, workers in self.sweeps
        )
        c, _ = self._merged()
        sim_s = total("pde.sim")
        solves = c["twospecies.solves"]
        return {
            "expr.calls": c["expr.calls"],
            "expr.points": c["expr.points"],
            "expr.s": c["expr.s"],
            "model.build_s": total("model.build"),
            "quad.adaptive.calls": calls("quad.adaptive"),
            "quad.adaptive.s": total("quad.adaptive"),
            "quad.frozen.calls": calls("quad.frozen"),
            "quad.frozen.s": total("quad.frozen"),
            "quad.points": c["quad.points"],
            "search.golden.calls": calls("search.golden"),
            "search.golden.s": total("search.golden"),
            "varbound.sup_F.s": total("varbound.sup_F"),
            "varbound.F_of_beta.calls": calls("varbound.F_of_beta"),
            "varbound.criterion.s": total("varbound.criterion"),
            "twospecies.solve.s": total("twospecies.solve"),
            "twospecies.solve.iterations": c["twospecies.solve.iterations"],
            "twospecies.G.calls": calls("twospecies.G"),
            "twospecies.profile.calls": calls("twospecies.profile"),
            "twospecies.profile.s": total("twospecies.profile"),
            "twospecies.profile.rhs_calls": c["twospecies.profile.rhs_calls"],
            "twospecies.nonlinear_share": c["twospecies.nonlinear_solves"] / solves if solves else 0.0,
            "pde.sim.s": sim_s,
            "pde.cells": c["pde.cells"],
            "pde.steps": c["pde.steps"],
            "pde.cell_steps": c["pde.cell_steps"],
            "pde.ns_per_cell_step": 1e9 * sim_s / c["pde.cell_steps"] if c["pde.cell_steps"] else 0.0,
            "cli.main.s": total("cli.main"),
            "cli.main.self_s": main_self,
            "cli.point.s": busy,
            "cli.pool_efficiency": busy / capacity if capacity else 0.0,
            "trace.overhead_s": overhead_s,
        }

    def dump(self, path: str) -> None:
        """Write every span, plus the self-time table, as JSON."""
        threads: Dict[int, int] = {}
        rows = []
        for name, t0, t1, parent, op, tid in self.spans:
            rows.append([name, t0, t1, parent, op, threads.setdefault(tid, len(threads))])
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "thread"],
                    "spans": rows,
                    "threads_seen": len(threads),
                    "self_times": self.self_times(),
                },
                fh,
            )
            fh.write("\n")
