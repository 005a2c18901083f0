"""Out-of-program tracer for the benchmark's per-layer metrics.

The tracer wraps the public functions of the ``superdom`` layer modules
(``graph``, ``families``, ``ops``, ``solver``, ``theorems``, ``cli``) and
the public methods of ``Graph`` from the outside.  A function is replaced
under every module attribute that holds it, so names a module bound at
import (``theorems.is_isomorphic``, ``cli.read_edge_list``) are traced
where the caller looks them up.  A name that no longer exists is simply not
wrapped and its metrics read zero.

Each wrapped call records a span ``[name, start, end, parent, op]`` in
memory; the spans are written out when the traced process ends.  A span's
self time is its duration minus the part of it that its child spans cover.

Run as a script, it executes one ``superdom`` command in-process under the
tracer and writes the spans to a JSON file:

    PYTHONPATH=src python3 bench/tracer.py --spans OUT.json --op 0 -- gamma g.el
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

LAYERS = ("graph", "families", "ops", "solver", "theorems", "cli")
TRACED_CLASSES = {"graph": ("Graph",)}

Span = List  # [name, start, end, parent index or -1, op id]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: List[List[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time and call counts per module (``solver.self_s``, ``solver.calls``)
    and per traced name (``solver.gamma_sp.s``, ``solver.gamma_sp.calls``)."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        module = name.split(".", 1)[0]
        totals[f"{module}.self_s"] += own
        totals[f"{module}.calls"] += 1
        totals[f"{name}.s"] += own
        totals[f"{name}.calls"] += 1
    return dict(totals)


class Tracer:
    """Wraps layer functions in place; ``uninstall`` restores them."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, fn: Callable, name: str, observe: Optional[Callable]) -> Callable:
        spans, stack, clock, op = self.spans, self._stack, time.perf_counter, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(rec, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers: Dict[str, types.ModuleType], namespaces: Sequence[types.ModuleType] = ()) -> None:
        """Wrap each layer's public functions in every namespace that binds them.

        ``layers`` maps a layer name to its module; ``namespaces`` are further
        modules (the package itself, say) whose bindings are also replaced.
        """
        wrapped: Dict[int, Callable] = {}
        for layer, module in layers.items():
            for attr, obj in list(vars(module).items()):
                if not attr.startswith("_") and isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", self._observer(layer, attr, layers))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                for attr, obj in list(vars(cls).items()):
                    if isinstance(obj, types.FunctionType) and (attr == "__init__" or not attr.startswith("_")):
                        name = f"{layer}.construct" if attr == "__init__" else f"{layer}.{attr}"
                        self._set(cls, attr, self._wrap(obj, name, self._observer(layer, attr, layers)))
        for ns in list(layers.values()) + list(namespaces):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._set(ns, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _observer(self, layer: str, attr: str, layers: Dict[str, types.ModuleType]) -> Optional[Callable]:
        """Counters taken from return values at the layer boundary."""
        counters, spans = self.counters, self.spans
        if layer == "graph" and attr == "components":
            def components(rec, result):
                if rec[3] >= 0 and spans[rec[3]][0].startswith("solver."):
                    counters["solver.components"] += len(result)
                    biggest = max((len(c) for c in result), default=0)
                    counters["solver.max_component_n"] = max(counters["solver.max_component_n"], biggest)
            return components
        if layer == "theorems" and attr == "run_harness":
            def checks(rec, result):
                counters["theorems.checks"] += len(result[0])
            return checks
        if layer == "theorems" and attr == "report_document":
            def report_bytes(rec, result):
                counters["theorems.report_bytes"] += len(result.encode())
            return report_bytes
        graph_cls = getattr(layers.get("graph"), "Graph", None)
        if layer == "families" and graph_cls is not None:
            def graphs(rec, result):
                if isinstance(result, graph_cls):
                    counters["families.graphs"] += 1
            return graphs
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one superdom command under the layer tracer.")
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--op", type=int, default=0, help="operation id stored with every span")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the superdom arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import superdom
    from superdom import cli, families, graph, ops, solver, theorems

    modules = {"graph": graph, "families": families, "ops": ops, "solver": solver, "theorems": theorems, "cli": cli}
    tracer = Tracer(args.op)
    tracer.install(modules, [superdom])
    try:
        code = cli.main(command)
    finally:
        sys.stdout.flush()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"op": args.op, "spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
