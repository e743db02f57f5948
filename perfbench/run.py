"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload runs in fresh worker
processes (``worker.py``) importing ``wavebound`` from ``src/``:

* ``--trace 0`` starts two set-up-only workers, then one measuring worker;
  ``setup_s`` is the median of the three set-ups, the other end-to-end
  metrics come from the measuring worker;
* ``--trace 1`` starts one tracing worker and prints the per-layer metrics.

The last line of standard output is the JSON result; the full report
(settings, input shares, failures, self times, spans) is written under
``.bench_out/``.  Exits non-zero without a result when the package
sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("scalar-bounds", "coupled-speed", "validate-sims", "cli-sweep")
SETUP_RUNS = 3  # fresh processes whose set-up times give the setup_s median
DEADLINE_S = 170.0  # every run ends within the 180 s a run may take

# computed and printed, but left out of the result line: latency_p90_s
# needs >= 100 ops per run, and failed_ratio is 0 on a healthy commit
EXTRA_UNITS = {"latency_p90_s": "s", "failed_ratio": "ratio"}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # the workloads do no BLAS-sized linear algebra; keep BLAS from adding
    # threads beyond the CLI pool's, unless the caller chose a value
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(key, "1")
    return env


def _worker(args, mode: str, tag: str, deadline: float) -> dict:
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{tag}.json")
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--scratch", scratch, "--out", out,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {tag} worker")
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wavebound", "__init__.py")):
        print(f"error: no wavebound sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            report = _worker(args, "trace", "trace", deadline)
            units = report["per_layer_units"]
            metrics = {k: (v, units[k]) for k, v in report["per_layer"].items()}
        else:
            setups = [
                _worker(args, "setup", f"setup{i}", deadline)["setup_s"]
                for i in range(SETUP_RUNS - 1)
            ]
            report = _worker(args, "measure", "measure", deadline)
            setups.append(report["setup_s"])
            report["setup_runs_s"] = setups
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "latency_p50_s": (report["latency_p50_s"], "s"),
                "ops_per_s": (report["ops_per_s"], "1/s"),
                "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    report["failed_ratio"] = failed / attempted
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    extra = {k: report[k] for k in EXTRA_UNITS if k in report}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": report["rounds"],
        "shares": report["shares"], "settings": report["settings"],
        "extra": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in extra.items()},
        "failures": report["failures"][:5], "selfcheck": report["selfcheck"],
    }))
    correct = failed == 0 and report["selfcheck"] is True
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
