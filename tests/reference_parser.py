"""The argparse parser of ``superdom.cli`` before its table-driven parser
replaced it, kept as a test-only reference for ``test_cli_parity.py``.

``build_parser`` is the old code unchanged apart from its imports;
``parse`` adds the ``--guard-n`` check that the old ``main`` ran after it.
"""

import argparse

from superdom import solver
from superdom.cli import OP_OPERANDS, cmd_check, cmd_gamma, cmd_gamma_sp, cmd_gen, cmd_op, cmd_verify


def build_parser() -> argparse.ArgumentParser:
    from superdom.families import FAMILY_KINDS

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


def parse(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.guard_n is not None and args.guard_n < 1:
        parser.error(f"argument --guard-n: must be at least 1, got {args.guard_n}")
    return args
