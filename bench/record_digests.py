"""Regenerate ``digests.json``: the exact outputs at the recorded seed.

    python3 bench/record_digests.py

Run from the root of a superdom checkout.  Every distinct operation of
every workload runs once at ``SEED``; each output must pass the
independent checks before its digest is recorded.  The recorded digests
pin the certificates and the default verify report byte for byte, so
rerun this only for a change that is meant to alter them.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

SEED = 42


def record(root: str) -> dict:
    digests = {"seed": SEED}
    for workload in workloads.WORKLOADS:
        bench = run.Run(root, workload, SEED)
        bench.checker.expected = None
        bench.setup(repeats=1)
        table = {}
        for k, inst in enumerate(inst for sweep in bench.sweeps for inst in sweep):
            if inst.label in table:
                continue
            op, _ = bench.op(k, inst, traced=False)
            if op.error:
                raise SystemExit(f"{workload} {inst.label}: {op.error}")
            table[inst.label] = list(bench.checker.seen[inst.label])
        digests[workload] = table
        print(f"{workload}: {len(table)} operations recorded", file=sys.stderr)
    return digests


if __name__ == "__main__":
    result = record(os.getcwd())
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
