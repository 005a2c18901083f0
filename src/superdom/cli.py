"""Command line entry point.

One binary, subcommand style; edge-list files are the composition
mechanism.  Exit codes: 0 success, 1 check/bound violation, 2 usage or
parse error, 3 size guard exceeded.  JSON output is emitted with sorted
keys so identical invocations are byte-identical.

The command line is read from one table, ``OPTIONS`` and ``COMMANDS``,
which also renders the usage lines and -h.  It reads what argparse read
(global options before the command, ``--opt=value``, unique prefixes of
long options, options among or after the operands, negative numbers as
values) and refuses what argparse refused, with the same messages, but
for an unknown ``gen`` family, which ``gen`` itself refuses.  JSON
is written by ``jsontext.dumps``, the writer of the ``verify`` report
too, byte for byte as ``json.dumps(obj, sort_keys=True, indent=2)``
writes it.  Neither ``argparse`` nor ``json`` is imported for a solve;
``verify`` imports ``json`` to read its config.

Only ``graph``, ``solver`` and the writer are imported at the top:
``gamma``, ``gamma-sp`` and ``check`` run nothing else.  The other
layers are imported where they are used: ``ops`` by ``op``,
``theorems`` by ``verify``, and ``families`` by ``gen``, which leaves an
unknown family name to ``families.build_family``, and by ``gen -h`` for
the names.  A solve thus never loads the generators, the compositions or
the harness.
``gamma`` and ``gamma-sp`` hand their guard to the edge-list reader, so a
file above it is refused before its graph is built.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional

from . import solver
from .graph import EdgeListError, Graph, SizeGuardError, read_edge_list, write_edge_list
from .jsontext import dumps

if TYPE_CHECKING:
    from . import ops

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _load_graph(path: str, guard: Optional[int] = None, what: str = "") -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return read_edge_list(fh.read(), guard, what)


def _emit_graph(g: Graph, out: Optional[str], sidecar: dict) -> None:
    """Edge list to --out (sidecar JSON on stdout) or to stdout (sidecar on stderr)."""
    text = write_edge_list(g)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(dumps(sidecar))
    else:
        sys.stdout.write(text)
        print(dumps(sidecar), file=sys.stderr)


def _witness_json(witnesses: dict) -> dict:
    return {str(u): v for u, v in sorted(witnesses.items())}


def _witness_line(witnesses: dict) -> str:
    return "witnesses = " + " ".join(f"{u}->{v}" for u, v in sorted(witnesses.items()))


def _cert_json(cert: solver.SuperDomCertificate) -> dict:
    return {"value": cert.value, "set": list(cert.vertices), "witnesses": _witness_json(cert.witnesses)}


def cmd_gen(args) -> int:
    from . import families

    params = tuple(args.params)
    if args.family == "gnp_random":
        if len(params) != 2:
            raise ValueError("gnp_random takes: n p (p as num/den); seed via --seed")
        p = families._as_probability(params[1])
        params = (int(params[0]), p.numerator, p.denominator, args.seed)
    elif args.family in families.FAMILIES:  # build_family refuses any other kind
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
        print(_witness_line(cert.witnesses))
    else:
        print(dumps(_cert_json(cert)))
    return EXIT_OK


def cmd_gamma(args) -> int:
    guard = _guard(args)
    cert = solver.gamma(_load_graph(args.file, guard, solver.DOM_SEARCH), guard=guard)
    if args.format == "text":
        print(f"gamma = {cert.value}")
        print("set =", " ".join(str(v) for v in cert.vertices))
    else:
        print(dumps({"value": cert.value, "set": list(cert.vertices)}))
    return EXIT_OK


def cmd_check(args) -> int:
    g = _load_graph(args.file)
    members = [int(x) for x in args.set.split(",")] if args.set else []
    seen = set()
    repeated = [v for v in members if v in seen or seen.add(v)]
    if repeated:
        raise ValueError(f"--set lists vertex {min(repeated)} more than once")
    witnesses = solver.super_domination_witnesses(g, members)
    if witnesses is None:
        violation = solver.first_violation(g, members)
        if args.format == "text":
            print(f"not super dominating: {violation}")
        else:
            print(dumps({"super_dominating": False, "violation": violation}))
        return EXIT_VIOLATION
    if args.format == "text":
        print("super dominating")
        print(_witness_line(witnesses))
    else:
        print(dumps({"super_dominating": True, "witnesses": _witness_json(witnesses)}))
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
    import json

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
    if not out:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.format == "text":
            for tid, slot in sorted(summary["per_theorem"].items()):
                print(f"{tid}: {slot['checked']} checked, {slot['failed']} failed")
            print(f"total: {summary['total']} checked, {summary['failed']} failed")
        else:
            print(dumps({"summary": summary}))
    return EXIT_OK if summary["failed"] == 0 else EXIT_VIOLATION


def _family_kinds():
    from .families import FAMILY_KINDS

    return FAMILY_KINDS


# The command line, stated once: the parser, the usage lines and -h all
# read these tables.  An option maps its flag to (dest, metavar, type,
# choices, default, required, help); an operand is (name, arity, choices,
# help), with arity 1, "+" (one or more) or "..." (the command and all that
# follows it).  ``choices`` is a tuple the parser enforces, or a function
# naming what the command checks itself, called only to print usage.
# Command ``c`` runs ``cmd_c`` (dashes as underscores), looked up when it
# runs.
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
_PROG = "superdom"
_DESCRIPTION = "Exact super domination solver and bound verification toolkit."
_COMMAND = ("command", "...", tuple(COMMANDS), None)


def _braces(choices) -> str:
    return "{" + ",".join(choices() if callable(choices) else choices) + "}"


def _option_metavar(dest, metavar, choices) -> str:
    return metavar or (_braces(choices) if choices else dest.upper())


def _operand_metavar(name, arity, choices) -> str:
    mv = _braces(choices) if choices else name
    return {1: mv, "+": f"{mv} [{mv} ...]", "...": f"{mv} ..."}[arity]


def _usage(prog, operands, options) -> str:
    parts = [prog, "[-h]"]
    for flag, (dest, metavar, _, choices, _, required, _) in options.items():
        part = f"{flag} {_option_metavar(dest, metavar, choices)}"
        parts.append(part if required else f"[{part}]")
    parts += [_operand_metavar(name, arity, choices) for name, arity, choices, _ in operands]
    return "usage: " + " ".join(parts)


def _help(prog, operands, options, description=None) -> str:
    """The -h text, laid out as argparse lays it out on a wide terminal."""
    listed = []
    for name, arity, choices, text in operands:
        listed.append((2, _operand_metavar(name, 1, choices), text))
        if arity == "...":
            listed += [(4, command, entry[0]) for command, entry in COMMANDS.items()]
    flags = [(2, "-h, --help", "show this help message and exit")] + [
        (2, f"{flag} {_option_metavar(dest, metavar, choices)}", text)
        for flag, (dest, metavar, _, choices, _, _, text) in options.items()
    ]
    column = min(max(indent + len(name) for indent, name, _ in listed + flags) + 2, 24)

    def line(indent, name, text):
        if text is None:
            return " " * indent + name
        if len(name) <= column - indent - 2:
            return " " * indent + name.ljust(column - indent - 2) + "  " + text
        return " " * indent + name + "\n" + " " * column + text

    sections = [_usage(prog, operands, options)] + ([description] if description else [])
    if listed:
        sections.append("positional arguments:\n" + "\n".join(line(*row) for row in listed))
    sections.append("options:\n" + "\n".join(line(*row) for row in flags))
    return "\n\n".join(sections) + "\n"


def _usage_error(prog, operands, options, message: str) -> None:
    """Exit 2 with argparse's two stderr lines."""
    sys.stderr.write(f"{_usage(prog, operands, options)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _check_choice(name: str, value, choices, fail) -> None:
    if type(choices) is tuple and value not in choices:
        fail(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")


def _is_negative_number(token: str) -> bool:
    whole, dot, frac = token[1:].partition(".")
    return (whole == "" or whole.isdecimal()) and (frac.isdecimal() if dot else whole != "")


def _flag(token: str, flags, fail):
    """How argparse reads ``token`` against ``flags``: None for an operand,
    else the pair (flag, attached value or None), flag None for an unknown
    option.  A long flag may be cut to a unique prefix; ``--flag=value``
    and ``-hvalue`` attach a value."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in flags:
        return token, None
    if token[1] == "-":
        name, eq, value = token.partition("=")
        found = [f for f in flags if f == name] or [f for f in flags if f.startswith(name)]
        if len(found) > 1:
            fail(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[1] == "h":
        value = token[2:]
        return "-h", value[1:] if value[:1] == "=" else value
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _read(prog, operands, options, argv, args, description=None):
    """Fill ``args`` from ``argv`` as argparse reads one parser's arguments:
    options anywhere, each run of operands between options filling as many
    operands as it can, ``--`` ending the options.  Return the tokens
    nothing took and the tokens after the command (None below it)."""
    def fail(message):
        _usage_error(prog, operands, options, message)

    for dest, _, _, _, default, _, _ in options.values():
        setattr(args, dest, default)
    for name, *_ in operands:
        setattr(args, name, None)
    todo, run, extras, seen = list(operands), [], [], set()
    literal = False

    def fill():
        while run and todo:
            name, arity, choices, _ = todo.pop(0)
            values = run[:] if arity == "+" else run[:1]
            del run[:len(values)]
            for value in values:
                _check_choice(name, value, choices, fail)
            setattr(args, name, values if arity == "+" else values[0])
        extras.extend(run)
        run.clear()

    flags = ("-h", "--help", *options)
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        found = None if literal else _flag(token, flags, fail)
        if found is None:
            if todo and todo[0][1] == "...":
                name, _, choices, _ = todo.pop(0)
                _check_choice(name, token, choices, fail)
                setattr(args, name, token)
                return extras, argv[i:]
            if token == "--" and not literal:
                literal = True
            else:
                run.append(token)
            continue
        fill()
        flag, value = found
        if flag is None:
            extras.append(token)
        elif flag in ("-h", "--help"):
            if value is not None:
                fail(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_help(prog, operands, options, description))
            raise SystemExit(EXIT_OK)
        else:
            dest, _, convert, choices, _, _, _ = options[flag]
            if value is None:
                if i < len(argv) and argv[i] == "--" and not literal:
                    literal = True
                    i += 1
                if i == len(argv) or (not literal and _flag(argv[i], flags, fail) is not None):
                    fail(f"argument {flag}: expected one argument")
                value = argv[i]
                i += 1
            if convert is not None:
                try:
                    value = convert(value)
                except (TypeError, ValueError):
                    fail(f"argument {flag}: invalid {convert.__name__} value: {value!r}")
            _check_choice(flag, value, choices, fail)
            setattr(args, dest, value)
            seen.add(flag)
    fill()
    missing = [name for name, *_ in todo] + [
        flag for flag, spec in options.items() if spec[5] and flag not in seen
    ]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    return extras, None


def parse_args(argv: List[str]) -> SimpleNamespace:
    """The command line as ``cmd_*`` handlers read it, ``func`` being the handler.

    Usage errors exit 2 and -h exits 0, as argparse did.
    """
    args = SimpleNamespace()
    extras, rest = _read(_PROG, [_COMMAND], OPTIONS, argv, args, _DESCRIPTION)
    _, operands, options = COMMANDS[args.command]
    more, _ = _read(f"{_PROG} {args.command}", operands, options, rest, args)
    args.func = globals()["cmd_" + args.command.replace("-", "_")]
    extras += more
    if extras:
        _usage_error(_PROG, [_COMMAND], OPTIONS, f"unrecognized arguments: {' '.join(extras)}")
    if args.guard_n is not None and args.guard_n < 1:
        _usage_error(_PROG, [_COMMAND], OPTIONS, f"argument --guard-n: must be at least 1, got {args.guard_n}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (EdgeListError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
