"""One workload in one fresh process: set up, run, check, report.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``   -- import wavebound, build the workload's inputs, run one
  untimed warm-up op, report the set-up time and exit;
* ``measure`` -- the same set-up, then whole rounds of timed ops for
  about ``--seconds`` (at least one round);
* ``trace``   -- the same set-up, then the workload's fixed trace ops twice:
  untraced, and again with every layer wrapped by ``tracer.Tracer``.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def _settings(wb_modules) -> Dict[str, object]:
    numpy, scipy = wb_modules
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env_keys = (
        "WAVEBOUND_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
        "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in env_keys},
    }


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


class Runner:
    def __init__(self, workload, tracer=None) -> None:
        self.wl = workload
        self.tracer = tracer
        self.latencies: List[float] = []
        self.categories: List[str] = []
        self.failures: List[dict] = []
        self.labels: Dict[str, int] = {}
        self.selfcheck = None  # True once a perturbed result was flagged

    def execute(self, op, op_id: int) -> None:
        """Time one op, then (untimed) check it and record its labels."""
        tr = self.tracer
        if tr is not None:
            tr.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            result = self.wl.run(op)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.end_op()
        self.latencies.append(dt)
        self.categories.append(op.category)
        if error is None:
            try:
                problems = self.wl.check(op, result)
                for label in self.wl.labels(op, result):
                    self.labels[label] = self.labels.get(label, 0) + 1
                if self.selfcheck is None and not problems:
                    wrong = self.wl.perturbed(op, result)
                    if wrong is not None:
                        self.selfcheck = bool(self.wl.check(op, wrong))
            finally:
                self.wl.cleanup(result)
        else:
            problems = [error]
        if problems:
            self.failures.append(
                {"op": op_id, "category": op.category, "params": op.params, "problems": problems}
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import wavebound
    import wavebound.cli  # noqa: F401  (the cli-sweep op calls it)
    import_s = time.perf_counter() - t0

    sys.path.insert(0, HERE)
    import numpy
    import scipy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](wavebound, args.seed, args.scratch)
    t1 = time.perf_counter()
    wl.build()
    build_s = time.perf_counter() - t1
    t2 = time.perf_counter()
    wl.warmup()
    warmup_s = time.perf_counter() - t2
    out: Dict[str, object] = {
        "setup_s": import_s + build_s + warmup_s,
        "setup_parts": {"import_s": import_s, "build_s": build_s, "warmup_s": warmup_s},
    }

    if args.mode == "measure":
        # whole rounds, at least one; another round starts only while one of
        # the last round's length still ends within --seconds
        runner = Runner(wl)
        start = time.perf_counter()
        rounds = 0
        while True:
            t_round = time.perf_counter()
            for op in wl.round(rounds):
                runner.execute(op, len(runner.latencies))
            rounds += 1
            now = time.perf_counter()
            if now - start + (now - t_round) > args.seconds:
                break
        out.update(_summary(runner, rounds, time.perf_counter() - start))
    elif args.mode == "trace":
        from tracer import PER_LAYER_UNITS, Tracer

        per_round = len(wl.round(0))
        ops = [op for i in range(-(-wl.trace_ops // per_round)) for op in wl.round(i)]
        ops = ops[: wl.trace_ops]
        plain = Runner(wl)
        for i, op in enumerate(ops):
            plain.execute(op, i)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Runner(wl, tracer)
            for op in ops:  # rebuild inputs so compiled D/f calls are counted
                op.inputs = op.make()
            for i, op in enumerate(ops):
                traced.execute(op, i)
        finally:
            tracer.uninstall()
        overhead = sum(traced.latencies) - sum(plain.latencies)
        out.update(_summary(traced, 1, sum(traced.latencies)))
        out["failures"] = plain.failures + traced.failures
        out["attempted"] = len(plain.latencies) + len(traced.latencies)
        out["failed"] = len(out["failures"])
        out["selfcheck"] = plain.selfcheck
        out["per_layer"] = tracer.metrics(overhead)
        out["per_layer_units"] = PER_LAYER_UNITS
        out["op_time_traced_s"] = sum(traced.latencies)
        out["op_time_untraced_s"] = sum(plain.latencies)
        out["self_times"] = tracer.self_times()
        spans_path = os.path.splitext(args.out)[0] + "-spans.json"
        tracer.dump(spans_path)
        out["spans_file"] = spans_path

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["threads_at_exit"] = threading.active_count()
    out["settings"] = _settings((numpy, scipy))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


def _shares(labels: Dict[str, int]) -> Dict[str, float]:
    """Each "dimension.value" label's share within its dimension."""
    totals: Dict[str, int] = {}
    for key, n in labels.items():
        dim = key.split(".", 1)[0]
        totals[dim] = totals.get(dim, 0) + n
    return {k: n / totals[k.split(".", 1)[0]] for k, n in sorted(labels.items())}


def _summary(runner: Runner, rounds: int, wall_s: float) -> Dict[str, object]:
    lat = runner.latencies
    summary = {
        "rounds": rounds,
        "attempted": len(lat),
        "failed": len(runner.failures),
        "failures": runner.failures,
        "selfcheck": runner.selfcheck,
        "latency_p50_s": statistics.median(lat),
        "ops_per_s": len(lat) / sum(lat),
        "op_time_s": sum(lat),
        "wall_s": wall_s,
        "shares": _shares(runner.labels),
        "label_counts": dict(sorted(runner.labels.items())),
        "op_latencies_s": [[c, t] for c, t in zip(runner.categories, lat)],
    }
    if len(lat) >= 100:
        summary["latency_p90_s"] = _percentile(lat, 90)
    return summary


if __name__ == "__main__":
    sys.exit(main())
