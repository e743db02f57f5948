"""Regenerate ``pinned_speeds.json`` from the current sources.

    PYTHONPATH=src python3 perfbench/pin_speeds.py

Runs the coupled-speed ops of the default seed's first two rounds and
records each speed.  The coupled-speed checks then require the same speeds
to 1e-8 relative whenever the benchmark runs with the default seed.
Regenerate only on a commit whose speeds are known to be right.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROUNDS = 2


def main() -> int:
    import wavebound

    sys.path.insert(0, HERE)
    from workloads import DEFAULT_SEED, CoupledSpeed

    wl = CoupledSpeed(wavebound, DEFAULT_SEED, HERE)
    wl.pool_rounds = ROUNDS
    wl.build()
    rows = []
    for i in range(ROUNDS):
        for op in wl.round(i):
            solve, _ = wl.run(op)
            rows.append({"category": op.category, "params": op.params, "c": solve.c})
            print(f"{op.category:16s} {op.params} c={solve.c!r}", flush=True)
    with open(os.path.join(HERE, "pinned_speeds.json"), "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "rounds": ROUNDS, "speeds": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
