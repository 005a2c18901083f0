"""The command line against the argparse parser it was first written with.

``cli.parse_args`` reads plain spellings itself and hands every other
argv to an argparse parser built from ``cli.OPTIONS`` and ``cli.COMMANDS``.
Both are checked against that first parser, kept unchanged in
``reference_parser``, and the JSON the commands print, written by
``jsontext.dumps``, against ``json.dumps(..., sort_keys=True, indent=2)``.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import reference_parser
from superdom import cli, families, solver
from superdom.graph import Graph
from superdom.jsontext import dumps

ACCEPTED = [
    ["gamma", "g.el"],
    ["gamma-sp", "g.el"],
    ["gamma", "/nonexistent/g.el"],
    ["--guard-n", "12", "gamma-sp", "g.el"],
    ["--guard-n=12", "gamma", "g.el"],
    ["--guard", "5", "gamma", "g.el"],
    ["--g=5", "gamma-sp", "g.el"],
    ["--format", "text", "gamma-sp", "g.el"],
    ["--format", "json", "--format", "text", "gamma", "g.el"],
    ["--form=text", "check", "g.el", "--set", "1,2"],
    ["check", "g.el", "--set", "1,2"],
    ["check", "--set", "1,2", "g.el"],
    ["check", "g.el", "--set=-1"],
    ["check", "g.el", "--set", "-1"],
    ["check", "g.el", "--se", "0"],
    ["gamma", "--", "-g.el"],
    ["check", "--set", "0", "--", "-g.el"],
    ["--seed", "7", "gen", "gnp_random", "8", "1/2"],
    ["--seed=-3", "gen", "path", "5"],
    ["gen", "path", "5", "--out", "f.el"],
    ["gen", "--out", "f.el", "path", "5"],
    ["gen", "path", "--out", "f.el", "5"],
    ["gen", "complete_bipartite", "2", "3", "--o=f.el"],
    ["gen", "path", "-5"],
    ["gen", "path", "3", "4"],
    ["op", "odot", "g.el", "0", "--out", "o.el"],
    ["op", "contract", "g.el", "1"],
    ["op", "chain", "a.el:1:1", "b.el:0:2"],
    ["op", "--out", "o.el", "bouquet", "a.el:0", "b.el:0"],
    ["op", "union", "a.el", "b.el"],
    ["verify"],
    ["verify", "--config", "default", "--out", "r.json"],
    ["--guard-n", "14", "verify", "--conf", "c.json"],
    ["--format", "text", "--guard-n", "20", "--seed", "1", "verify", "--out=r.json"],
]

REFUSED = [
    [],
    ["nope", "g.el"],
    ["--", "gamma", "g.el"],
    ["--format", "xml", "gamma", "g.el"],
    ["--format", "xml", "-h"],
    ["--guard-n", "x", "gamma", "g.el"],
    ["--guard-n", "0", "gamma", "g.el"],
    ["--guard-n", "-1", "gamma-sp", "g.el"],
    ["--guard-n"],
    ["--seed", "x", "gen", "path", "5"],
    ["--seed", "3"],
    ["gamma"],
    ["gamma-sp"],
    ["check", "g.el"],
    ["check"],
    ["check", "g.el", "--set"],
    ["check", "g.el", "--set", "-1,2"],
    ["gen"],
    ["gen", "path"],
    ["gen", "path", "5", "--out", "f.el", "6"],
    ["op", "nope", "g.el"],
    ["op", "odot"],
    ["gamma", "a.el", "b.el"],
    ["gamma", "g.el", "--format", "text"],
    ["gamma", "g.el", "--bogus"],
    ["--bogus", "gamma", "g.el"],
    ["-x", "gamma", "g.el"],
    ["gamma", "-hx"],
    ["gamma", "--help=x"],
    ["verify", "--out"],
]

HELP = [
    ["-h"],
    ["--help"],
    ["--he"],
    ["--guard-n", "5", "-h"],
    ["-h", "gamma"],
    ["gen", "-h"],
    ["gamma-sp", "--help"],
    ["gamma", "g.el", "-h"],
    ["check", "-h"],
    ["op", "odot", "-h"],
    ["verify", "-h"],
]


def _run(parse, argv, capsys):
    """(exit code or None, namespace or None, stdout, stderr) of one parse."""
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return code, args, captured.out, captured.err


# argparse wraps usage and help to the terminal width that COLUMNS sets;
# the cli's parser never wraps, so its text at any width is the
# reference's at a wide terminal
COLUMNS = ("40", "1000")


def _both(argv, monkeypatch, capsys):
    """Pairs (reference outcome, cli outcome) of ``_run``, the reference at
    a wide terminal and the cli at each of ``COLUMNS``."""
    monkeypatch.setenv("COLUMNS", "1000")
    ref = _run(reference_parser.parse, argv, capsys)
    for columns in COLUMNS:
        monkeypatch.setenv("COLUMNS", columns)
        yield ref, _run(cli.parse_args, argv, capsys)


def test_corpus_covers_every_command():
    assert len(ACCEPTED) + len(REFUSED) + len(HELP) >= 40
    for corpus in (ACCEPTED, HELP):
        assert set(cli.COMMANDS) <= {token for argv in corpus for token in argv}


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_accepted_argv_give_the_same_namespace(argv, monkeypatch, capsys):
    for ref, new in _both(argv, monkeypatch, capsys):
        assert ref[0] is None and new[0] is None, (ref[3], new[3])
        want, got = dict(vars(ref[1])), vars(new[1])
        assert got.pop("func") is want.pop("func")
        assert got == want


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_argv_exit_2_with_the_same_message(argv, monkeypatch, capsys):
    for ref, new in _both(argv, monkeypatch, capsys):
        assert ref[0] == new[0] == 2
        assert new[2] == "" and new[3].startswith("usage: superdom") and "error: " in new[3]
        assert new[3] == ref[3]


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_exits_0_with_the_same_text(argv, monkeypatch, capsys):
    for ref, new in _both(argv, monkeypatch, capsys):
        assert ref[0] == new[0] == 0
        assert new[2] == ref[2] and new[3] == ref[3] == ""


def test_reference_wraps_at_the_narrow_width(monkeypatch, capsys):
    # so the runs at 40 columns above show that the cli does not wrap
    narrow, wide = [], []
    for columns, texts in (("40", narrow), ("1000", wide)):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["-h"], ["--format", "xml", "gamma", "g.el"]):
            _, _, out, err = _run(reference_parser.parse, argv, capsys)
            texts.append(out + err)
    assert all(a != b for a, b in zip(narrow, wide))


GLOBAL_PAIRS = [["--guard-n", "5"], ["--guard-n", "0"], ["--format", "text"], ["--format", "xml"],
                ["--seed", "3"], ["--seed", "x"], ["--guard-n", "-1"], ["--g", "5"]]
COMMAND_TOKENS = ["g.el", "x", "", "-1", "0,2", "--set", "--config", "--out", "--format", "text", "-h", "--"]


def test_plain_spellings_are_read_as_the_reference_reads_them(capsys):
    # every argv of at most one global pair, a command and up to three more
    # tokens: wherever the fast path answers, the reference accepts the
    # argv with the same namespace; every other argv goes to argparse
    answered = 0
    for pair in ([], *GLOBAL_PAIRS):
        for command in [*cli.COMMANDS, "nope"]:
            for size in range(4):
                for tokens in itertools.product(COMMAND_TOKENS, repeat=size):
                    argv = [*pair, command, *tokens]
                    args = cli._plain(argv)
                    if args is None:
                        continue
                    code, want, _, err = _run(reference_parser.parse, argv, capsys)
                    assert code is None, (argv, err)
                    want = dict(vars(want))
                    assert want.pop("func") is cli.parse_args(argv).func
                    assert vars(args) == want, argv
                    answered += 1
    assert answered == 284


def test_readme_shows_the_help_and_every_usage_line(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    with pytest.raises(SystemExit):
        cli.parse_args(["-h"])
    assert capsys.readouterr().out in readme
    for command in cli.COMMANDS:
        with pytest.raises(SystemExit):
            cli.parse_args([command, "-h"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert f"`{usage.removeprefix('usage: ')}`" in readme


def test_unknown_family_is_refused_by_build_family(capsys):
    # argparse listed the kinds as choices; now gen hands any name to
    # families.build_family, so solves need not import families
    args = cli.parse_args(["gen", "nope", "x"])
    assert args.family == "nope" and args.func is cli.cmd_gen
    assert cli.main(["gen", "nope", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown family kind 'nope', expected one of {families.FAMILY_KINDS}\n"


def _same_as_json(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def _certificate_outputs(g, checks_too=True):
    """Every object the solve commands print for ``g``."""
    cert = solver.gamma_sp(g, guard=24)
    yield cli._cert_json(cert)
    dom = solver.gamma(g, guard=24)
    yield {"value": dom.value, "set": list(dom.vertices)}
    if checks_too:
        chosen = list(cert.vertices)
        for members in (chosen, chosen[:-1], list(dom.vertices), []):
            witnesses = solver.super_domination_witnesses(g, members)
            if witnesses is None:
                yield {"super_dominating": False, "violation": solver.first_violation(g, members)}
            else:
                yield {"super_dominating": True, "witnesses": cli._witness_json(witnesses)}


def test_dump_matches_json_on_the_atlas():
    atlas = pytest.importorskip("networkx").graph_atlas_g()
    outcomes = set()
    for h in atlas[1:]:
        g = Graph(h.number_of_nodes(), list(h.edges()))
        for obj in _certificate_outputs(g):
            outcomes.add(obj.get("super_dominating"))
            _same_as_json(obj)
    assert outcomes == {None, True, False}


def test_dump_of_k1_has_empty_witnesses():
    (cert, _, *checks) = _certificate_outputs(Graph(1, []))
    assert dumps(cert) == '{\n  "set": [\n    0\n  ],\n  "value": 1,\n  "witnesses": {}\n}'
    _same_as_json({"value": 0, "set": [], "witnesses": {}})
    for obj in checks:
        _same_as_json(obj)


@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_dump_matches_json_on_gnp(n):
    # witness keys from 10 up sort as strings, "10" before "2"
    keys = set()
    for p in (Fraction(1, 4), Fraction(1, 2)):
        for obj in _certificate_outputs(families.gnp_random_graph(n, p, n), checks_too=n <= 16):
            keys.update(obj.get("witnesses", ()))
            _same_as_json(obj)
    assert {len(key) for key in keys} == {1, 2}


def test_sidecars_are_written_as_json_writes_them(tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    p3.write_text("3 2\n0 1\n1 2\n")
    runs = [["--seed", "3", "gen", kind, *params] for kind, params in (
        ("path", ["12"]), ("cycle", ["5"]), ("complete", ["4"]), ("complete_bipartite", ["2", "3"]),
        ("star", ["11"]), ("friendship", ["2"]), ("gnp_random", ["6", "1/2"]))]
    runs += [["op", "odot", str(p3), "1"], ["op", "contract", str(p3), "1"], ["op", "union", str(p3), str(p3)],
             ["op", "chain", f"{p3}:1:1", f"{p3}:0:2"], ["op", "bouquet", *[f"{p3}:1"] * 12]]
    for argv in runs:
        assert cli.main(argv) == 0
        sidecar = capsys.readouterr().err
        assert sidecar == json.dumps(json.loads(sidecar), sort_keys=True, indent=2) + "\n"


JSON_VALUES = st.recursive(
    st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_dump_matches_json_on_any_value(obj):
    _same_as_json(obj)


@pytest.mark.parametrize("value", [(1, 2), 1.5, None])
def test_dump_refuses_what_the_commands_never_print(value):
    with pytest.raises(TypeError):
        dumps(value)
