"""Workload definitions for the superdom benchmark.

A workload is a list of *sweeps*; a sweep is the list of CLI operations a
run repeats as a unit.  Everything here is derived from the benchmark seed
alone, so the same seed always yields the same instances and the same
input files.  Instance lists need only the standard library; writing the
input files imports ``superdom`` (public names only) and is what the
benchmark times as set-up.

Run as a script to write a workload's inputs:

    PYTHONPATH=src python3 bench/workloads.py --workload sp-gnp --seed 42 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import List, Tuple

WORKLOADS = ("verify-default", "sp-gnp", "dom-sparse")

# The random graphs form a fixed grid, one graph per (n, p) cell: their edge
# sets come from seeds that depend only on the cell.  The benchmark seed and
# the sweep index permute the vertex labels, which the solvers' search order
# depends on.  Solve time varies far less between relabellings of one graph
# than between graphs, so runs with different seeds, and runs that finish
# different numbers of sweeps, measure the same mix of graphs.
SWEEPS = 8  # distinct relabellings; a run plays them in order and wraps around

SP_N = tuple(range(22, 29))
SP_P = ("1/8", "1/4", "1/2", "3/4")
SP_GUARD = 28

DOM_PATH_N = tuple(range(18, 25))
DOM_GNP_N = tuple(range(20, 25))
DOM_GNP_P = "1/8"


@dataclass(frozen=True)
class Instance:
    """One CLI operation: ``kind`` is path, cycle, gnp or config."""

    label: str
    kind: str
    params: Tuple
    file: str

    @property
    def n(self) -> int:
        return self.params[0]


def derive_seed(*parts) -> int:
    """A 64-bit seed that depends only on ``parts``."""
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def _gnp(workload: str, seed: int, sweep: int, n: int, p: str) -> Instance:
    base = derive_seed(workload, "base", n, p)
    relabel = derive_seed(workload, seed, sweep, n, p)
    name = f"s{sweep}-gnp-{n}-{p.replace('/', '_')}.el"
    return Instance(f"gnp(n={n},p={p},seed={base})@relabel({relabel})", "gnp", (n, p, base, relabel), name)


def relabelled(edges, n: int, relabel: int) -> List[Tuple[int, int]]:
    """``edges`` under the vertex permutation that ``relabel`` seeds."""
    perm = list(range(n))
    random.Random(relabel).shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def sweeps(workload: str, seed: int) -> List[List[Instance]]:
    """The workload's distinct sweeps for ``seed``."""
    if workload == "verify-default":
        return [[Instance(f"verify(seed={seed})", "config", (seed,), "config.json")]]
    if workload == "sp-gnp":
        return [[_gnp(workload, seed, j, n, p) for n in SP_N for p in SP_P] for j in range(SWEEPS)]
    if workload == "dom-sparse":
        fixed = [Instance(f"{kind}({n})", kind, (n,), f"{kind}-{n}.el") for n in DOM_PATH_N for kind in ("path", "cycle")]
        return [fixed + [_gnp(workload, seed, j, n, DOM_GNP_P) for n in DOM_GNP_N] for j in range(SWEEPS)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def cli_args(workload: str, inst: Instance, inputs: str, report: str) -> List[str]:
    """Arguments of the ``superdom`` command for one operation."""
    path = os.path.join(inputs, inst.file)
    if workload == "verify-default":
        return ["verify", "--config", path, "--out", report]
    if workload == "sp-gnp":
        return ["--guard-n", str(SP_GUARD), "gamma-sp", path]
    return ["gamma", path]


def verify_config(seed: int) -> dict:
    """The default harness config with its random grid reseeded."""
    from superdom import theorems

    cfg = theorems.config_to_dict(theorems.DEFAULT_CONFIG)
    cfg["random"]["seed"] = seed
    return cfg


def write_inputs(workload: str, seed: int, out: str) -> None:
    """Generate every input file of the workload into ``out``."""
    from fractions import Fraction

    from superdom import Graph, cycle_graph, gnp_random_graph, path_graph, write_edge_list

    os.makedirs(out, exist_ok=True)
    written = set()
    grid = {}
    for sweep in sweeps(workload, seed):
        for inst in sweep:
            if inst.file in written:
                continue
            written.add(inst.file)
            if inst.kind == "config":
                text = json.dumps(verify_config(seed), sort_keys=True, indent=2) + "\n"
            elif inst.kind == "path":
                text = write_edge_list(path_graph(inst.n))
            elif inst.kind == "cycle":
                text = write_edge_list(cycle_graph(inst.n))
            else:
                n, p, base, relabel = inst.params
                if base not in grid:
                    grid[base] = gnp_random_graph(n, Fraction(p), base)
                g = grid[base]
                text = write_edge_list(Graph(n, relabelled(g.edges(), n, relabel)))
            with open(os.path.join(out, inst.file), "w", encoding="ascii") as fh:
                fh.write(text)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write a benchmark workload's input files.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    a = parser.parse_args()
    write_inputs(a.workload, a.seed, a.out)
