"""Command line entry point.

One binary, subcommand style; edge-list files are the composition
mechanism.  Exit codes: 0 success, 1 check/bound violation, 2 usage or
parse error, 3 size guard exceeded.  JSON output is emitted with sorted
keys so identical invocations are byte-identical.

Only ``graph`` and ``solver`` are imported at the top: ``gamma``,
``gamma-sp`` and ``check`` run nothing else.  The other layers are
imported where they are used: ``ops`` by ``op``, ``theorems`` by
``verify``, and ``families`` by ``gen`` and by ``build_parser`` for the
family names.  A solve thus never loads the compositions or the harness.
``gamma`` and ``gamma-sp`` hand their guard to the edge-list reader, so a
file above it is refused before its graph is built.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import solver
from .graph import EdgeListError, Graph, SizeGuardError, read_edge_list, write_edge_list

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _load_graph(path: str, guard: Optional[int] = None, what: str = "") -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return read_edge_list(fh.read(), guard, what)


def _emit_graph(g: Graph, out: Optional[str], sidecar: dict) -> None:
    """Edge list to --out (sidecar JSON on stdout) or to stdout (sidecar on stderr)."""
    text = write_edge_list(g)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(_dump(sidecar))
    else:
        sys.stdout.write(text)
        print(_dump(sidecar), file=sys.stderr)


def _cert_json(cert: solver.SuperDomCertificate) -> dict:
    return {
        "value": cert.value,
        "set": list(cert.vertices),
        "witnesses": {str(u): v for u, v in sorted(cert.witnesses.items())},
    }


def cmd_gen(args) -> int:
    from . import families

    params = tuple(args.params)
    if args.family == "gnp_random":
        if len(params) != 2:
            raise ValueError("gnp_random takes: n p (p as num/den); seed via --seed")
        p = families._as_probability(params[1])
        params = (int(params[0]), p.numerator, p.denominator, args.seed)
    else:
        params = tuple(int(x) for x in params)
    inst = families.build_family(args.family, params)
    meta = {
        "family": inst.kind,
        "params": list(inst.params),
        "order": inst.graph.n,
        "size": inst.graph.m,
        "distinguished": inst.distinguished,
    }
    _emit_graph(inst.graph, args.out, meta)
    return EXIT_OK


def _guard(args) -> int:
    """The size guard for a direct solve: --guard-n, else the default."""
    return solver.DEFAULT_GUARD if args.guard_n is None else args.guard_n


def cmd_gamma_sp(args) -> int:
    guard = _guard(args)
    cert = solver.gamma_sp(_load_graph(args.file, guard, solver.SP_SEARCH), guard=guard)
    if args.format == "text":
        print(f"gamma_sp = {cert.value}")
        print("set =", " ".join(str(v) for v in cert.vertices))
        print("witnesses =", " ".join(f"{u}->{v}" for u, v in sorted(cert.witnesses.items())))
    else:
        print(_dump(_cert_json(cert)))
    return EXIT_OK


def cmd_gamma(args) -> int:
    guard = _guard(args)
    cert = solver.gamma(_load_graph(args.file, guard, solver.DOM_SEARCH), guard=guard)
    if args.format == "text":
        print(f"gamma = {cert.value}")
        print("set =", " ".join(str(v) for v in cert.vertices))
    else:
        print(_dump({"value": cert.value, "set": list(cert.vertices)}))
    return EXIT_OK


def cmd_check(args) -> int:
    g = _load_graph(args.file)
    members = [int(x) for x in args.set.split(",")] if args.set else []
    repeated = sorted({v for v in members if members.count(v) > 1})
    if repeated:
        raise ValueError(f"--set lists vertex {repeated[0]} more than once")
    witnesses = solver.super_domination_witnesses(g, members)
    if witnesses is None:
        violation = solver.first_violation(g, members)
        if args.format == "text":
            print(f"not super dominating: {violation}")
        else:
            print(_dump({"super_dominating": False, "violation": violation}))
        return EXIT_VIOLATION
    if args.format == "text":
        print("super dominating")
        print("witnesses =", " ".join(f"{u}->{v}" for u, v in sorted(witnesses.items())))
    else:
        print(_dump({"super_dominating": True, "witnesses": {str(u): v for u, v in sorted(witnesses.items())}}))
    return EXIT_OK


OP_OPERANDS = {
    "odot": "file v",
    "contract": "file v",
    "union": "file file",
    "chain": "file:x:y ...",
    "bouquet": "file:x ...",
}


def _parse_attach(spec: str, name: str) -> List:
    """Split a chain or bouquet operand of the shape given in ``OP_OPERANDS``."""
    shape = OP_OPERANDS[name].split()[0]
    parts = spec.rsplit(":", shape.count(":"))
    if len(parts) != shape.count(":") + 1:
        raise ValueError(f"expected {shape} in {spec!r}")
    return [parts[0]] + [int(x) for x in parts[1:]]


def _compose(name: str, operands: List[str]) -> ops.CompositionResult:
    from . import ops

    if not OP_OPERANDS[name].endswith("...") and len(operands) != 2:
        raise ValueError(f"{name} takes: {OP_OPERANDS[name]}; got {len(operands)} operands")
    if name == "odot":
        g = _load_graph(operands[0])
        return ops.CompositionResult(ops.odot(g, int(operands[1])), (tuple(range(g.n)),), ())
    if name == "contract":
        g = _load_graph(operands[0])
        v = int(operands[1])
        result = ops.contract_clique(g, v)
        mapping = [w if w < v else w - 1 for w in range(g.n)]
        mapping[v] = -1  # deleted vertex has no image
        return ops.CompositionResult(result, (tuple(mapping),), ())
    if name == "union":
        return ops.disjoint_union(_load_graph(operands[0]), _load_graph(operands[1]))
    specs = [_parse_attach(spec, name) for spec in operands]
    compose = ops.chain if name == "chain" else ops.bouquet
    return compose([(_load_graph(path), *xs) for path, *xs in specs])


def cmd_op(args) -> int:
    comp = _compose(args.operation, args.args)
    sidecar = {
        "order": comp.graph.n,
        "size": comp.graph.m,
        "vertex_maps": [list(m) for m in comp.vertex_maps],
        "merged": list(comp.merged),
    }
    _emit_graph(comp.graph, args.out, sidecar)
    return EXIT_OK


def cmd_verify(args) -> int:
    from contextlib import nullcontext
    from dataclasses import replace

    from . import theorems

    if args.config in (None, "default"):
        cfg = theorems.DEFAULT_CONFIG
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.config}: config is nested too deeply") from None
        cfg = theorems.config_from_dict(raw)
    if args.guard_n is not None:
        cfg = replace(cfg, guard=args.guard_n)
    # The report file is opened before the run, so an unwritable path
    # fails before any check does.
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        reports, summary = theorems.run_harness(cfg)
        fh.write(theorems.report_document(reports, summary, cfg))
    if args.out:
        if args.format == "text":
            for tid, slot in sorted(summary["per_theorem"].items()):
                print(f"{tid}: {slot['checked']} checked, {slot['failed']} failed")
            print(f"total: {summary['total']} checked, {summary['failed']} failed")
        else:
            print(_dump({"summary": summary}))
    return EXIT_OK if summary["failed"] == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    from .families import FAMILY_KINDS

    parser = argparse.ArgumentParser(
        prog="superdom",
        description="Exact super domination solver and bound verification toolkit.",
    )
    parser.add_argument("--guard-n", type=int, metavar="N",
                        help=f"size guard for the exact solvers (default {solver.DEFAULT_GUARD})")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="seed for random generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a named family instance")
    p_gen.add_argument("family", choices=FAMILY_KINDS)
    p_gen.add_argument("params", nargs="+", help="family parameters (gnp_random: n num/den)")
    p_gen.add_argument("--out", help="edge-list output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_gsp = sub.add_parser("gamma-sp", help="minimum super dominating set with witnesses")
    p_gsp.add_argument("file", help="edge-list file")
    p_gsp.set_defaults(func=cmd_gamma_sp)

    p_g = sub.add_parser("gamma", help="minimum dominating set")
    p_g.add_argument("file", help="edge-list file")
    p_g.set_defaults(func=cmd_gamma)

    p_check = sub.add_parser("check", help="test whether a set super dominates")
    p_check.add_argument("file", help="edge-list file")
    p_check.add_argument("--set", required=True, help="comma-separated vertex indices")
    p_check.set_defaults(func=cmd_check)

    p_op = sub.add_parser("op", help="apply a graph operation")
    p_op.add_argument("operation", choices=tuple(OP_OPERANDS))
    p_op.add_argument("args", nargs="+",
                      help="; ".join(f"{name}: {operands}" for name, operands in OP_OPERANDS.items()))
    p_op.add_argument("--out", help="edge-list output path (default stdout)")
    p_op.set_defaults(func=cmd_op)

    p_verify = sub.add_parser("verify", help="run the bound verification harness")
    p_verify.add_argument("--config", help="config JSON path, or 'default'")
    p_verify.add_argument("--out", help="report output path (default stdout)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.guard_n is not None and args.guard_n < 1:
        parser.error(f"argument --guard-n: must be at least 1, got {args.guard_n}")
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (EdgeListError, ValueError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
