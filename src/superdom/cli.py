"""Command line entry point.

One binary, subcommand style; edge-list files are the composition
mechanism.  Exit codes: 0 success, 1 check/bound violation, 2 usage or
parse error, 3 size guard exceeded, 120 stdout could not be written.
JSON output is emitted with sorted keys so identical invocations are
byte-identical.  Each command returns its exit code and its stdout text,
and :func:`main` alone writes and flushes that text, every byte of it
even when stdout is unbuffered, so a failed write (a closed pipe, a full
device) is told apart from a file the command could not read or open,
which stays a usage error.

The command line is stated once, in ``OPTIONS`` and ``COMMANDS``, and
read in one of two ways.  A plain spelling, the one every solve and the
benchmark use, is read straight from the tables: exact global flags,
each followed by a value not starting with ``-``, then a command whose
operands each take one value (``gamma``, ``gamma-sp``, ``check``,
``verify``) with its exact flags and values.  Any other argv (``gen``,
``op``, -h, prefixes, ``--opt=value``, ``--``, and every usage error) goes
to an argparse parser built from the same tables, whose usage and -h are
never wrapped.  ``gen``'s family names are listed there but not enforced,
so ``families.build_family`` refuses an unknown one.  Thus ``argparse``
(with ``gettext`` and ``locale``) is never imported for a plainly spelled
solve or ``verify``.  JSON is written by ``jsontext.dumps``, the writer
of the ``verify`` report too, byte for byte as
``json.dumps(obj, sort_keys=True, indent=2)`` writes it.  ``json`` is
not imported for a solve; ``verify`` imports it to read its config.

Only ``graph``, ``solver`` and the writer are imported at the top:
``gamma``, ``gamma-sp`` and ``check`` run nothing else.  The other
layers are imported where they are used: ``ops`` by ``op``,
``theorems`` by ``verify``, and ``families`` by ``gen`` and by the
argparse parser, which lists the family names.  A plainly spelled solve
thus never loads the generators, the compositions or the harness.
``gamma`` and ``gamma-sp`` hand their guard to the edge-list reader, so a
file above it is refused before its graph is built.

``console_main``, the entry of ``python3 -m superdom.cli`` and of the
``superdom`` script, is the process's one exit; ``main`` returns, so a
caller that runs it in-process, tests and the tracer among them, keeps
its interpreter.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import solver
from .graph import EdgeListError, Graph, SizeGuardError, _decimal, read_edge_list, write_edge_list
from .jsontext import dumps

if TYPE_CHECKING:
    from . import ops

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_WRITE = 120  # as when the flush at interpreter shutdown fails


def _int(text: str, what: str) -> int:
    """``text`` as an integer, unsigned ASCII decimal as in an edge list
    after an optional ``-``; ``what`` names the command and operand for the error."""
    try:
        return -_decimal(text[1:]) if text[:1] == "-" else _decimal(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not an integer") from None


def _read_text(path: str, encoding: str) -> str:
    """The text of the file at ``path``; one that is not ``encoding`` text is refused by name."""
    with open(path, "r", encoding=encoding) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:  # decoded whole, so exc.start is the file offset
            raise ValueError(f"{path}: not {encoding.upper()} text (byte {exc.object[exc.start]:#04x} at offset {exc.start})") from None


def _load_graph(path: str, guard: Optional[int] = None, what: str = "") -> Graph:
    return read_edge_list(_read_text(path, "ascii"), guard, what)


def _emit_graph(g: Graph, out: Optional[str], sidecar: dict) -> str:
    """Edge list to --out (sidecar JSON on stdout) or to stdout (sidecar on
    stderr); returns the stdout text."""
    text = write_edge_list(g)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        return dumps(sidecar) + "\n"
    print(dumps(sidecar), file=sys.stderr)
    return text


def _set_line(vertices) -> str:
    return "set = " + " ".join(map(str, vertices)) + "\n"


def _witness_line(witnesses: dict) -> str:
    return "witnesses = " + " ".join(f"{u}->{v}" for u, v in sorted(witnesses.items())) + "\n"


def cmd_gen(args) -> Tuple[int, str]:
    from . import families

    params = tuple(args.params)
    if args.family == "gnp_random":
        if len(params) != 2:
            raise ValueError("gnp_random takes: n p (p as num/den); seed via --seed")
        try:
            p = families._as_probability(params[1])
        except ValueError as exc:
            raise ValueError(f"gen gnp_random: {exc}") from None
        params = (_int(params[0], "gen gnp_random: parameter"), p.numerator, p.denominator, args.seed)
    elif args.family in families.FAMILIES:  # build_family refuses any other kind
        params = tuple(_int(x, f"gen {args.family}: parameter") for x in params)
    inst = families.build_family(args.family, params)
    meta = {
        "family": inst.kind,
        "params": list(inst.params),
        "order": inst.graph.n,
        "size": inst.graph.m,
        "distinguished": inst.distinguished,
    }
    return EXIT_OK, _emit_graph(inst.graph, args.out, meta)


def _guard(args) -> int:
    """The size guard for a direct solve: --guard-n, else the default."""
    return solver.DEFAULT_GUARD if args.guard_n is None else args.guard_n


def cmd_gamma_sp(args) -> Tuple[int, str]:
    guard = _guard(args)
    cert = solver.gamma_sp(_load_graph(args.file, guard, solver.SP_SEARCH), guard=guard)
    if args.format == "text":
        return EXIT_OK, f"gamma_sp = {cert.value}\n" + _set_line(cert.vertices) + _witness_line(cert.witnesses)
    return EXIT_OK, dumps({"value": cert.value, **cert.payload()}) + "\n"


def cmd_gamma(args) -> Tuple[int, str]:
    guard = _guard(args)
    cert = solver.gamma(_load_graph(args.file, guard, solver.DOM_SEARCH), guard=guard)
    if args.format == "text":
        return EXIT_OK, f"gamma = {cert.value}\n" + _set_line(cert.vertices)
    return EXIT_OK, dumps({"value": cert.value, "set": list(cert.vertices)}) + "\n"


def cmd_check(args) -> Tuple[int, str]:
    g = _load_graph(args.file)
    members = [_int(x, "check: --set vertex") for x in args.set.split(",")] if args.set else []
    seen = set()
    repeated = [v for v in members if v in seen or seen.add(v)]
    if repeated:
        raise ValueError(f"--set lists vertex {min(repeated)} more than once")
    found = solver._witness_scan(g, members)  # the witness map, or why the set fails
    if isinstance(found, str):
        if args.format == "text":
            return EXIT_VIOLATION, f"not super dominating: {found}\n"
        return EXIT_VIOLATION, dumps({"super_dominating": False, "violation": found}) + "\n"
    if args.format == "text":
        return EXIT_OK, "super dominating\n" + _witness_line(found)
    return EXIT_OK, dumps({"super_dominating": True, "witnesses": solver._witness_payload(found)}) + "\n"


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
    return [parts[0]] + [_int(x, f"op {name}: attach vertex") for x in parts[1:]]


def _compose(name: str, operands: List[str]) -> ops.CompositionResult:
    from . import ops

    if not OP_OPERANDS[name].endswith("...") and len(operands) != 2:
        raise ValueError(f"{name} takes: {OP_OPERANDS[name]}; got {len(operands)} operands")
    if name == "odot":
        g = _load_graph(operands[0])
        return ops.CompositionResult(ops.odot(g, _int(operands[1], "op odot: vertex")), (tuple(range(g.n)),), ())
    if name == "contract":
        g = _load_graph(operands[0])
        v = _int(operands[1], "op contract: vertex")
        result = ops.contract_clique(g, v)
        mapping = [w if w < v else w - 1 for w in range(g.n)]
        mapping[v] = -1  # deleted vertex has no image
        return ops.CompositionResult(result, (tuple(mapping),), ())
    if name == "union":
        return ops.disjoint_union(_load_graph(operands[0]), _load_graph(operands[1]))
    specs = [_parse_attach(spec, name) for spec in operands]
    compose = ops.chain if name == "chain" else ops.bouquet
    return compose([(_load_graph(path), *xs) for path, *xs in specs])


def cmd_op(args) -> Tuple[int, str]:
    comp = _compose(args.operation, args.args)
    sidecar = {
        "order": comp.graph.n,
        "size": comp.graph.m,
        "vertex_maps": [list(m) for m in comp.vertex_maps],
        "merged": list(comp.merged),
    }
    return EXIT_OK, _emit_graph(comp.graph, args.out, sidecar)


def cmd_verify(args) -> Tuple[int, str]:
    import json

    from . import theorems

    if args.config in (None, "default"):
        cfg = theorems.DEFAULT_CONFIG
    else:
        try:
            raw = json.loads(_read_text(args.config, "utf-8"))
        except RecursionError:
            raise ValueError(f"{args.config}: config is nested too deeply") from None
        cfg = theorems.config_from_dict(raw)
    if args.guard_n is not None:
        cfg = cfg._replace(guard=args.guard_n)
    out = args.out and os.path.realpath(args.out)
    created = False
    if out:
        # Opened for appending before the run, so an unwritable path fails
        # before any check does and nothing is truncated until the report
        # is ready.  A refused or failed run removes the file only if this
        # opening created it (through a dangling symlink too).
        created = not os.path.exists(out)
        open(out, "a", encoding="utf-8").close()
    try:
        reports, summary = theorems.run_harness(cfg)
        text = theorems.report_document(reports, summary, cfg)
    except BaseException:
        if created:
            os.remove(out)
        raise
    code = EXIT_OK if summary["failed"] == 0 else EXIT_VIOLATION
    if not out:
        return code, text
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.format == "text":
        lines = [f"{tid}: {slot['checked']} checked, {slot['failed']} failed\n"
                 for tid, slot in sorted(summary["per_theorem"].items())]
        return code, "".join(lines) + f"total: {summary['total']} checked, {summary['failed']} failed\n"
    return code, dumps({"summary": summary}) + "\n"


def _family_kinds():
    from .families import FAMILY_KINDS

    return FAMILY_KINDS


class _Listed(tuple):
    """Choices argparse lists in usage and -h but does not enforce: the
    command refuses a wrong value itself."""

    def __contains__(self, value) -> bool:
        return True


# The command line, stated once: both readers, the usage lines and -h all
# read these tables.  An option maps its flag to (dest, metavar, type,
# choices, default, required, help); an operand is (name, arity, choices,
# help), with arity 1 or "+" (one or more).  ``choices`` is a tuple that is
# enforced, or a function naming what the command checks itself, called
# only when the argparse parser is built.  Command ``c`` runs ``cmd_c``
# (dashes as underscores), looked up when it runs.
OPTIONS = {
    "--guard-n": ("guard_n", "N", int, None, None, False,
                  f"size guard for the exact solvers (default {solver.DEFAULT_GUARD})"),
    "--format": ("format", None, None, ("json", "text"), "json", False, "output format (default json)"),
    "--seed": ("seed", None, int, None, 0, False, "seed for random generation"),
}
_FILE = ("file", 1, None, "edge-list file")
_OUT = ("out", None, None, None, None, False, "edge-list output path (default stdout)")
COMMANDS = {
    "gen": ("generate a named family instance",
            [("family", 1, _family_kinds, None),
             ("params", "+", None, "family parameters (gnp_random: n num/den)")],
            {"--out": _OUT}),
    "gamma-sp": ("minimum super dominating set with witnesses", [_FILE], {}),
    "gamma": ("minimum dominating set", [_FILE], {}),
    "check": ("test whether a set super dominates", [_FILE],
              {"--set": ("set", None, None, None, None, True, "comma-separated vertex indices")}),
    "op": ("apply a graph operation",
           [("operation", 1, tuple(OP_OPERANDS), None),
            ("args", "+", None, "; ".join(f"{name}: {operands}" for name, operands in OP_OPERANDS.items()))],
           {"--out": _OUT}),
    "verify": ("run the bound verification harness", [],
               {"--config": ("config", None, None, None, None, False, "config JSON path, or 'default'"),
                "--out": ("out", None, None, None, None, False, "report output path (default stdout)")}),
}


def _plain(argv: List[str]) -> Optional[SimpleNamespace]:
    """``argv`` read as argparse reads it, if it is spelled plainly: exact
    flags, each followed by a value not starting with ``-``, the global ones
    before a command whose operands each take one value.  None for any
    other spelling, and for anything argparse would refuse."""
    args = SimpleNamespace(command=None)
    options, operands, seen, i = OPTIONS, None, set(), 0
    for dest, _, _, _, default, _, _ in OPTIONS.values():
        setattr(args, dest, default)
    while i < len(argv):
        token = argv[i]
        if token[:1] == "-":
            if token not in options or i + 1 == len(argv) or argv[i + 1][:1] == "-":
                return None
            dest, _, convert, choices, _, _, _ = options[token]
            try:
                value = argv[i + 1] if convert is None else convert(argv[i + 1])
            except ValueError:
                return None
            if type(choices) is tuple and value not in choices:
                return None
            setattr(args, dest, value)
            seen.add(token)
            i += 2
            continue
        if operands is None:
            if token not in COMMANDS:
                return None
            _, operands, options = COMMANDS[token]
            if any(arity != 1 for _, arity, _, _ in operands):
                return None
            args.command, operands = token, list(operands)
            for dest, _, _, _, default, _, _ in options.values():
                setattr(args, dest, default)
        elif not operands:
            return None
        else:
            name, _, choices, _ = operands.pop(0)
            if type(choices) is tuple and token not in choices:
                return None
            setattr(args, name, token)
        i += 1
    if operands is None or operands or any(spec[5] and flag not in seen for flag, spec in options.items()):
        return None
    if args.guard_n is not None and args.guard_n < 1:
        return None
    return args


def _parser():
    """The argparse parser the tables describe, for every spelling
    ``_plain`` leaves: prefixes, ``=``, ``--``, -h and every usage error."""
    import argparse
    from functools import partial

    unwrapped = partial(argparse.HelpFormatter, width=1 << 16)  # usage and -h never wrap

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            """Write -h to stdout as ``main`` writes a command's output:
            argparse's own write drops an error, so a failed one exits
            ``EXIT_WRITE`` with one error line here."""
            if file is not sys.stdout:
                return super()._print_message(message, file)
            code = _flushed(message, EXIT_OK)
            if code:
                self.exit(code)

    def add(parser, operands, options):
        for name, arity, choices, text in operands:
            choices = _Listed(choices()) if callable(choices) else choices
            parser.add_argument(name, nargs=None if arity == 1 else arity, choices=choices, help=text)
        for flag, (dest, metavar, convert, choices, default, required, text) in options.items():
            parser.add_argument(flag, dest=dest, metavar=metavar, type=convert, choices=choices,
                                default=default, required=required, help=text)
        return parser

    parser = add(Parser(prog="superdom", formatter_class=unwrapped,
                        description="Exact super domination solver and bound verification toolkit."),
                 [], OPTIONS)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (text, operands, options) in COMMANDS.items():
        add(commands.add_parser(command, help=text, formatter_class=unwrapped), operands, options)
    return parser


def parse_args(argv: List[str]) -> SimpleNamespace:
    """The command line as ``cmd_*`` handlers read it, ``func`` being the handler.

    Usage errors exit 2 and -h exits 0, as argparse has them.
    """
    args = _plain(argv)
    if args is None:
        parser = _parser()
        args = parser.parse_args(argv, SimpleNamespace())
        if args.guard_n is not None and args.guard_n < 1:
            parser.error(f"argument --guard-n: must be at least 1, got {args.guard_n}")
    args.func = globals()["cmd_" + args.command.replace("-", "_")]
    return args


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to stdout, through its binary layer when it
    has one.  Under ``python3 -u`` that layer is a raw file, which may take
    only part of a write and say so only in the count it returns (the text
    layer would drop the rest silently), so the rest is written again until
    it is taken or the write fails.  What the text layer still holds is
    flushed first, so it stays in front.  A text-only stream, such as an
    ``io.StringIO`` under ``contextlib.redirect_stdout``, takes the text."""
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text)
    else:
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[binary.write(data):]
    out.flush()


def _flushed(text: str, code: int) -> int:
    """``code`` once ``text`` is written to stdout, or ``EXIT_WRITE`` with one
    error line if the write fails."""
    try:
        _write_stdout(text)
    except OSError as exc:
        print(f"error: writing stdout: {exc}", file=sys.stderr)
        return EXIT_WRITE
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code, text = args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (EdgeListError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _flushed(text, code)


def console_main() -> None:
    """Run ``main`` on ``sys.argv`` and leave through ``os._exit`` with its
    exit code.  Argparse ends -h and usage errors by raising ``SystemExit``;
    that code is taken too, -h having written its text as ``main`` writes
    its own output.  Nothing is flushed, closed or collected at exit and
    no ``atexit`` hook runs, so every file the commands open is closed
    explicitly, never left to the collector."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
