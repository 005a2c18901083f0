import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry
from referencing.jsonschema import DRAFT7

from superdom import read_edge_list, friendship_graph, is_isomorphic, solver, star_graph, write_edge_list
from superdom.cli import main
from superdom.families import FAMILY_KINDS
from superdom.jsontext import dumps
from superdom.theorems import (
    _JSON_KEYS, _MINIMUMS, ALL_THEOREM_IDS, HarnessConfig, RandomGrid, family_pool, random_pool, report_document,
    run_harness,
)

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "docs" / "schemas"


def schema(name):
    with open(SCHEMAS / name) as fh:
        return json.load(fh)


def validate(payload, name):
    registry = Registry().with_resource(
        "verify_config.schema.json", DRAFT7.create_resource(schema("verify_config.schema.json"))
    )
    jsonschema.Draft7Validator(schema(name), registry=registry).validate(payload)


def write_graph_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def p5(tmp_path):
    return write_graph_file(tmp_path, "p5.el", "5 4\n0 1\n1 2\n2 3\n3 4\n")


@pytest.fixture
def c4(tmp_path):
    return write_graph_file(tmp_path, "c4.el", "4 4\n0 1\n1 2\n2 3\n0 3\n")


@pytest.fixture
def k3(tmp_path):
    return write_graph_file(tmp_path, "k3.el", "3 3\n0 1\n0 2\n1 2\n")


class TestGen:
    def test_friendship(self, tmp_path, capsys):
        out = tmp_path / "f3.el"
        assert main(["gen", "friendship", "3", "--out", str(out)]) == 0
        meta = json.loads(capsys.readouterr().out)
        validate(meta, "gen_meta.schema.json")
        assert meta["order"] == 7 and meta["size"] == 9
        assert meta["distinguished"] == {"center": 0}
        assert read_edge_list(out.read_text()) == friendship_graph(3)

    def test_path1_is_single_vertex(self, capsys):
        assert main(["gen", "path", "1"]) == 0
        assert capsys.readouterr().out == "1 0\n"

    def test_cycle2_usage_error(self, capsys):
        assert main(["gen", "cycle", "2"]) == 2

    def test_gnp_deterministic(self, capsys):
        assert main(["--seed", "7", "gen", "gnp_random", "8", "1/2"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "7", "gen", "gnp_random", "8", "1/2"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_params(self, capsys):
        assert main(["gen", "path", "x"]) == 2
        assert main(["gen", "gnp_random", "8", "1/0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "zero denominator" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["path", "3", "4"], "path takes 1 parameter(s) (n), got 2"),
        (["complete_bipartite", "3"], "complete_bipartite takes 2 parameter(s) (a b), got 1"),
    ], ids=["surplus", "missing"])
    def test_wrong_arity_names_parameters(self, argv, message, capsys):
        assert main(["gen"] + argv) == 2
        assert message in capsys.readouterr().err

    def test_meta_for_every_kind(self, capsys):
        cases = {
            "path": (["5"], {"start": 0, "end": 4}),
            "cycle": (["5"], {}),
            "complete": (["4"], {}),
            "complete_bipartite": (["2", "3"], {"first_of_part_a": 0, "first_of_part_b": 2}),
            "star": (["4"], {"center": 0}),
            "friendship": (["2"], {"center": 0}),
            "gnp_random": (["6", "1/2"], {}),
        }
        assert tuple(cases) == FAMILY_KINDS
        for kind, (params, distinguished) in cases.items():
            assert main(["--seed", "3", "gen", kind] + params) == 0
            meta = json.loads(capsys.readouterr().err)
            validate(meta, "gen_meta.schema.json")
            assert meta["family"] == kind
            assert meta["distinguished"] == distinguished


class TestGammaSp:
    def test_p5(self, p5, capsys):
        assert main(["gamma-sp", p5]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "certificate.schema.json")
        assert payload["value"] == 3

    def test_single_vertex(self, tmp_path, capsys):
        k1 = write_graph_file(tmp_path, "k1.el", "1 0\n")
        assert main(["gamma-sp", k1]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1

    def test_guard_exit(self, tmp_path, capsys):
        edges = "\n".join(f"{i} {i+1}" for i in range(29))
        big = write_graph_file(tmp_path, "p30.el", f"30 29\n{edges}\n")
        assert main(["gamma-sp", big]) == 3

    def test_guard_flag_raises_limit(self, tmp_path, capsys):
        star13 = write_graph_file(
            tmp_path, "s12.el", "13 12\n" + "\n".join(f"0 {i}" for i in range(1, 13)) + "\n"
        )
        assert main(["--guard-n", "12", "gamma-sp", star13]) == 3
        assert main(["--guard-n", "13", "gamma-sp", star13]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 12

    def test_parse_error_exit(self, tmp_path):
        bad = write_graph_file(tmp_path, "bad.el", "2 1\n0 0\n")
        assert main(["gamma-sp", bad]) == 2

    def test_missing_file_exit(self):
        assert main(["gamma-sp", "/nonexistent/g.el"]) == 2

    @pytest.mark.parametrize("guard", ["0", "-1"])
    def test_guard_below_one_is_usage_error(self, p5, guard, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--guard-n", guard, "gamma-sp", p5])
        assert exc.value.code == 2
        assert "--guard-n: must be at least 1" in capsys.readouterr().err

    def test_text_format(self, p5, capsys):
        assert main(["--format", "text", "gamma-sp", p5]) == 0
        assert "gamma_sp = 3" in capsys.readouterr().out


class TestGamma:
    def test_undecodable_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "uni.el"
        path.write_bytes(b"3 1\n0 1\xd9\n")
        assert main(["gamma", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not ASCII text (byte 0xd9 at offset 7)\n"

    def test_p5(self, p5, capsys):
        assert main(["gamma", p5]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "gamma.schema.json")
        assert payload["value"] == 2 and payload["set"] == [0, 3]

    def test_text_format(self, p5, capsys):
        assert main(["--format", "text", "gamma", p5]) == 0
        assert capsys.readouterr().out == "gamma = 2\nset = 0 3\n"

    def test_control_character_is_a_parse_error(self, tmp_path, capsys):
        # \x1c and \x0b are line breaks to str.splitlines(): this once read as the edge (0, 1)
        path = tmp_path / "ctl.el"
        path.write_bytes(b"3 1\x1c0 1\x0b")
        assert main(["gamma", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: line 1: control character '\\x1c'\n")


class TestCheck:
    def test_text_format(self, c4, capsys):
        assert main(["--format", "text", "check", c4, "--set", "0,1"]) == 0
        assert capsys.readouterr().out == "super dominating\nwitnesses = 2->1 3->0\n"

    def test_c4_pair(self, c4, capsys):
        assert main(["check", c4, "--set", "0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "check.schema.json")
        assert payload["witnesses"] == {"2": 1, "3": 0}

    def test_k3_violation(self, k3, capsys):
        assert main(["check", k3, "--set", "0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "check.schema.json")
        assert payload["violation"] == "u=1: no witness"

    def test_failing_set_is_scanned_once(self, k3, monkeypatch, capsys):
        scans = []
        scan = solver._witness_scan
        monkeypatch.setattr(solver, "_witness_scan", lambda g, s: scans.append(s) or scan(g, s))
        assert main(["--format", "text", "check", k3, "--set", "0"]) == 1
        assert capsys.readouterr().out == "not super dominating: u=1: no witness\n"
        assert len(scans) == 1

    def test_full_set_vacuous(self, tmp_path, capsys):
        p3 = write_graph_file(tmp_path, "p3.el", "3 2\n0 1\n1 2\n")
        assert main(["check", p3, "--set", "0,1,2"]) == 0

    def test_bad_indices(self, c4, capsys):
        assert main(["check", c4, "--set", "0,9"]) == 2
        assert main(["check", c4, "--set=-1,2"]) == 2

    def test_duplicate_index(self, c4, capsys):
        assert main(["check", c4, "--set", "0,0,2"]) == 2
        assert "--set lists vertex 0 more than once" in capsys.readouterr().err

    def test_duplicate_index_names_the_smallest_repeat(self, c4, capsys):
        assert main(["check", c4, "--set", "3,1,3,0,1"]) == 2
        assert "--set lists vertex 1 more than once" in capsys.readouterr().err


class TestOp:
    def test_odot_then_solve(self, tmp_path, capsys):
        f2 = tmp_path / "f2.el"
        out = tmp_path / "f2odot.el"
        assert main(["gen", "friendship", "2", "--out", str(f2)]) == 0
        capsys.readouterr()
        assert main(["op", "odot", str(f2), "0", "--out", str(out)]) == 0
        sidecar = json.loads(capsys.readouterr().out)
        validate(sidecar, "op_result.schema.json")
        assert main(["gamma-sp", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 4

    def test_contract_map(self, c4, tmp_path, capsys):
        out = tmp_path / "c.el"
        assert main(["op", "contract", c4, "1", "--out", str(out)]) == 0
        sidecar = json.loads(capsys.readouterr().out)
        validate(sidecar, "op_result.schema.json")
        assert sidecar["vertex_maps"] == [[0, -1, 1, 2]]
        assert read_edge_list(out.read_text()).m == 3  # triangle

    def test_chain_makes_star(self, tmp_path, capsys):
        p3 = write_graph_file(tmp_path, "p3.el", "3 2\n0 1\n1 2\n")
        assert main(["op", "chain", f"{p3}:1:1", f"{p3}:1:1"]) == 0
        captured = capsys.readouterr()
        g = read_edge_list(captured.out)
        assert is_isomorphic(g, star_graph(4))
        sidecar = json.loads(captured.err)
        assert sidecar["merged"] == [1]

    def test_bouquet(self, tmp_path, capsys):
        p2 = write_graph_file(tmp_path, "p2.el", "2 1\n0 1\n")
        assert main(["op", "bouquet", f"{p2}:0", f"{p2}:0", f"{p2}:0"]) == 0
        captured = capsys.readouterr()
        assert is_isomorphic(read_edge_list(captured.out), star_graph(3))

    def test_single_part_bouquet(self, c4, capsys):
        assert main(["op", "bouquet", f"{c4}:2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "4 4\n0 1\n0 3\n1 2\n2 3\n"
        sidecar = json.loads(captured.err)
        validate(sidecar, "op_result.schema.json")
        assert sidecar == {"order": 4, "size": 4, "vertex_maps": [[0, 1, 2, 3]], "merged": [2]}

    def test_union(self, p5, c4, capsys):
        assert main(["op", "union", p5, c4]) == 0
        captured = capsys.readouterr()
        g = read_edge_list(captured.out)
        assert g.n == 9 and g.m == 8
        sidecar = json.loads(captured.err)
        validate(sidecar, "op_result.schema.json")

    def test_bad_attach_spec(self, p5, capsys):
        assert main(["op", "chain", p5]) == 2
        assert f"expected file:x:y in {p5!r}" in capsys.readouterr().err
        assert main(["op", "chain", f"{p5}:1"]) == 2
        assert f"expected file:x:y in '{p5}:1'" in capsys.readouterr().err
        assert main(["op", "bouquet", p5]) == 2
        assert f"expected file:x in {p5!r}" in capsys.readouterr().err
        assert main(["op", "odot", p5, "99"]) == 2

    @pytest.mark.parametrize("operation", ["odot", "contract", "union"])
    def test_surplus_operands_rejected(self, operation, p5, c4, capsys):
        operands = {"odot": [p5, "1", "7"], "contract": [p5, "1", "7"], "union": [p5, c4, p5]}
        assert main(["op", operation] + operands[operation]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{operation} takes: " in captured.err and "got 3 operands" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["gen", "path", "x"], "gen path: parameter 'x' is not an integer"),
    (["op", "odot", "{file}", "x"], "op odot: vertex 'x' is not an integer"),
    (["op", "bouquet", "{file}:x"], "op bouquet: attach vertex 'x' is not an integer"),
    (["check", "{file}", "--set", "0,,2"], "check: --set vertex '' is not an integer"),
], ids=["gen", "odot", "bouquet", "check"])
def test_non_integer_operand_names_command_and_operand(p5, argv, message, capsys):
    assert main([a.format(file=p5) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


SMALL_CONFIG = {
    "theorems": ["T1", "T2i", "R_chain_sharp_upper"],
    "family_max_order": 6,
    "random": {"count": 6, "n_min": 4, "n_max": 6, "p": ["1/2"], "seed": 11},
}


SOLVE_SEARCHES = [("gamma", "exact domination search"), ("gamma-sp", "exact super domination search")]


class TestOversizedHeader:
    """A header order no graph can hold is refused before the graph is built."""

    @pytest.fixture
    def huge(self, tmp_path):
        return write_graph_file(tmp_path, "huge.el", "1000000000000 0\n")

    @pytest.mark.parametrize("command, search", SOLVE_SEARCHES)
    def test_solve_is_guard_exit(self, huge, command, search, capsys):
        assert main([command, huge]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {search}: n=1000000000000 exceeds the size guard of 24\n"

    @pytest.mark.parametrize("argv", [["check", "{}", "--set", "0"], ["op", "odot", "{}", "0"]])
    def test_check_and_op_are_usage_errors(self, huge, argv, capsys):
        assert main([a.format(huge) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex count 1000000000000 exceeds the maximum order of 16384\n"

    @pytest.mark.parametrize("command, search", SOLVE_SEARCHES)
    def test_over_guard_path_message_unchanged(self, tmp_path, command, search, capsys):
        edges = "\n".join(f"{i} {i+1}" for i in range(29))
        p30 = write_graph_file(tmp_path, "p30.el", f"30 29\n{edges}\n")
        assert main([command, p30]) == 3
        assert capsys.readouterr().err == f"error: {search}: n=30 exceeds the size guard of 24\n"


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestOversizedGen:
    """A family order above ``MAX_ORDER`` is refused before any edge is built."""

    @pytest.mark.parametrize("params", [["path", "1000000000000"], ["complete", "16385"], ["gnp_random", "100000", "1/2"]])
    def test_refused_before_building(self, params):
        # capped and timed, so a generator that builds its edges first fails
        # here instead of exhausting the machine
        proc = subprocess.run(
            [sys.executable, "-m", "superdom.cli", "gen", *params],
            capture_output=True, text=True, preexec_fn=_cap_address_space, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: vertex count {params[1]} exceeds the maximum order of 16384\n"


class TestVerify:
    def test_small_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate(doc, "verify_report.schema.json")
        assert doc["summary"]["failed"] == 0
        assert all(r["holds"] for r in doc["reports"])

    def test_empty_config(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["verify", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"] == [] and doc["summary"]["total"] == 0

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"theorems": ["nope"]}')
        assert main(["verify", "--config", str(cfg)]) == 2
        cfg.write_text("{not json")
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        # the JSON decoder's error is a ValueError, caught without naming it
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"theorems": ["T1"],}')
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Expecting property name enclosed in double quotes")

    @pytest.mark.parametrize("config, message", [
        ({"theorems": ["T1"], "random": {"n_min": 8, "n_max": 7}}, "n_min <= n_max"),
        ({"theorems": ["T1"], "random": {"count": -5}}, "count must be >= 0"),
        ({"theorems": ["T1"], "random": {"p": []}}, "at least one p value"),
        ({"theorems": "T1"}, "'theorems' must be a list"),
        ({"theorems": ["T1"], "family_max_order": 25}, "family_max_order 25 exceeds the size guard 24"),
        ({"theorems": ["T1"], "random": {"n_max": 25}}, "n_max 25 exceeds the size guard 24"),
        ({"theorems": ["T1"], "random": {"count": None}}, "random.count must be an integer, got None"),
        ({"theorems": ["T1"], "random": {"count": "7"}}, "random.count must be an integer, got '7'"),
        ({"theorems": ["P_union"], "union_pairs": True}, "union_pairs must be an integer, got True"),
        ({"theorems": ["T1"], "guard": 2.9}, "guard must be an integer, got 2.9"),
        ({"theorems": ["T1"], "random": {"p": [0.5]}}, "random.p: edge probability must be"),
        ({"theorems": ["T1"], "random": {"p": ["1/0"]}}, "random.p: edge probability '1/0' has a zero denominator"),
        ([], "config must be a JSON object, got list"),
        ("x", "config must be a JSON object, got str"),
        ({"theorems": ["T1"], "random": []}, "random must be a JSON object, got list"),
        ({"theorems": ["P_union"], "family_max_order": 1,
          "random": {"count": 2, "n_min": 0, "n_max": 0}, "union_pairs": 2},
         "random.n_min must be >= 1, got 0"),
    ], ids=["n_min_above_n_max", "negative_count", "empty_p", "theorems_not_list",
            "family_order_above_guard", "n_max_above_guard", "null_count", "string_count",
            "bool_union_pairs", "float_guard", "float_p", "zero_denominator_p",
            "top_level_list", "top_level_string", "random_not_object", "zero_vertex_grid"])
    def test_config_faults_are_usage_errors(self, config, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_schema_matches_field_table(self):
        # _JSON_KEYS and _MINIMUMS are the one table of config keys and
        # limits; the schema must promise exactly what they enforce
        top = schema("verify_config.schema.json")
        assert top["properties"]["theorems"]["items"]["enum"] == list(ALL_THEOREM_IDS)
        assert set(_JSON_KEYS) | set(_MINIMUMS) <= set(HarnessConfig._fields) | set(RandomGrid._fields)
        for cls, props in ((HarnessConfig, top["properties"]),
                           (RandomGrid, top["properties"]["random"]["properties"])):
            table = {_JSON_KEYS.get(name, name): name for name in cls._fields}
            assert set(props) == set(table)
            for key, name in table.items():
                if name in _MINIMUMS:
                    assert props[key]["type"] == "integer", key
                    assert props[key].get("minimum") == _MINIMUMS[name], key
                else:
                    assert props[key]["type"] != "integer", key

    def test_guard_flag_checked_against_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorems": ["T2i"], "family_max_order": 14, "guard": 12}))
        assert main(["--guard-n", "14", "verify", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["total"] == 12
        assert main(["--guard-n", "10", "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "family_max_order 12 exceeds the size guard 10" in captured.err

    @pytest.mark.parametrize("guard,named", [
        ("20", "P_union (order 23)"),
        ("18", "R_chain_sharp_lower (order 19)"),
    ])
    def test_derived_graph_above_guard_is_usage_error(self, guard, named, capsys):
        # the default grids fit under these guards, but a union and the F_9
        # sharpness witness do not; the run must stop before any check
        assert main(["--guard-n", guard, "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: checks solve graphs above the size guard {guard}: ")
        assert named in captured.err

    def test_guard_flag_at_default_value_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"guard": 12, "family_max_order": 14}))
        assert main(["--guard-n", "24", "verify", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["guard"] == 24

    def test_undecodable_config_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff{}")
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: not UTF-8 text (byte 0xff at offset 0)\n"

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200000)
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: config is nested too deeply\n"

    def test_failure_maps_to_exit_1(self, tmp_path, monkeypatch, capsys):
        # no honest config fails, so pin the exit-code contract directly
        from superdom import theorems as th

        def fake_run(cfg):
            return [], {"total": 1, "failed": 1, "per_theorem": {"T1": {"checked": 1, "failed": 1}}}

        monkeypatch.setattr(th, "run_harness", fake_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorems": ["T1"]}))
        assert main(["verify", "--config", str(cfg)]) == 1

    def test_failing_row_is_counted_and_reported(self, tmp_path, monkeypatch, capsys):
        # a check that fails is counted per identifier and in total, exits
        # 1, and its row is still written to the report
        from superdom import theorems as th

        def failing():
            return th._report("R_chain_sharp_upper", "made to fail", [(1, "==", 2)])

        monkeypatch.setattr(th, "check_chain_sharp_upper", failing)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorems": ["R_chain_sharp_upper", "R_bouquet_sharp_upper"]}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        summary = {"total": 10, "failed": 1, "per_theorem": {
            "R_bouquet_sharp_upper": {"checked": 9, "failed": 0}, "R_chain_sharp_upper": {"checked": 1, "failed": 1}}}
        assert json.loads(capsys.readouterr().out) == {"summary": summary}
        report = json.loads(out.read_text())
        assert report["summary"] == summary
        assert [r["instance"] for r in report["reports"] if not r["holds"]] == ["made to fail"]

    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        from superdom import theorems as th

        def fake_run(cfg):
            raise AssertionError("run_harness called before the report path was opened")

        monkeypatch.setattr(th, "run_harness", fake_run)
        assert main(["verify", "--out", str(tmp_path / "missing" / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")

    def test_refused_run_keeps_an_existing_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_bytes(b'{"earlier": "report"}\n')
        assert main(["--guard-n", "20", "verify", "--out", str(out)]) == 2
        assert "P_union (order 23)" in capsys.readouterr().err
        assert out.read_bytes() == b'{"earlier": "report"}\n'

    def test_refused_run_leaves_no_new_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["--guard-n", "20", "verify", "--out", str(out)]) == 2
        assert "P_union (order 23)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_refused_run_through_a_dangling_link_leaves_no_report(self, tmp_path, capsys):
        link = tmp_path / "r.json"
        link.symlink_to(tmp_path / "target.json")
        assert main(["--guard-n", "20", "verify", "--out", str(link)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
        assert link.is_symlink() and not link.exists()

    def test_run_overwrites_an_existing_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text("x" * 100_000)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorems": ["R_chain_sharp_upper"]}))
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_text_summary(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorems": ["R_chain_sharp_upper"]}))
        out = tmp_path / "r.json"
        assert main(["--format", "text", "verify", "--config", str(cfg), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "R_chain_sharp_upper: 1 checked, 0 failed" in text

    def test_subprocess_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        runs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "superdom.cli", "verify",
                 "--config", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]


DEFAULT_REPORT_SHA256 = "bdaa0f731250ef624945a8fb823fa3b8e445221d6811e78e9e5f5c1a6ea0846e"


def test_report_t1_witness_is_what_gamma_sp_prints(tmp_path, capsys):
    # the report and the command write one payload, so they cannot drift apart
    cfg = HarnessConfig(theorems=("T1",), family_max_order=7, random=RandomGrid(count=12, n_min=4, n_max=12))
    pool = dict(family_pool(cfg.family_max_order) + random_pool(cfg.random))
    doc = json.loads(report_document(*run_harness(cfg), cfg))
    assert len(doc["reports"]) > 20
    for row in doc["reports"]:
        path = tmp_path / "g.el"
        path.write_text(write_edge_list(pool[row["instance"]]))
        assert main(["gamma-sp", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed.pop("value") == len(printed["set"])
        assert row["witness"]["gamma_sp"] == printed


def test_report_hash_is_pinned_once():
    # CI and the benchmark's recorded digests pin the same default report
    # as the tier-1 tests; a re-pin must change all three
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    with open(ROOT / "bench" / "digests.json") as fh:
        _, report = json.load(fh)["verify-default"]["verify(seed=42)"]
    assert set(re.findall(r"\b[0-9a-f]{64}\b", workflow)) == {report} == {DEFAULT_REPORT_SHA256}


def test_default_report_on_the_oldest_supported_python(tmp_path):
    # requires-python is >=3.10: the report's format templates must write
    # the same bytes there
    exe = shutil.which("python3.10")
    probe = exe and subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, text=True)
    if not probe or probe.returncode != 0 or probe.stdout.strip() != "(3, 10)":
        pytest.skip("no working python3.10 on PATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "report.json"
    proc = subprocess.run([exe, "-m", "superdom.cli", "verify", "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_REPORT_SHA256


def test_cli_imports_only_stdlib():
    # superdom has no runtime dependencies, although numpy, scipy and
    # networkx may be installed next to it
    code = (
        "import sys; before = set(sys.modules); import superdom.cli; "
        "print(' '.join({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split()) - {"superdom"}
    assert loaded and loaded <= set(sys.stdlib_module_names), loaded - set(sys.stdlib_module_names)


HASHING_AND_RATIONALS = {"hashlib", "_hashlib", "fractions", "decimal"}
HEAVY_STDLIB = {"dataclasses", "inspect", "json"} | HASHING_AND_RATIONALS


def _modules_loaded(code):
    """The ``superdom`` submodules and the ``HEAVY_STDLIB`` modules loaded once ``code`` ran."""
    code += (
        "\nimport sys; print()"
        f"\nprint(*sorted(m for m in sys.modules if m.startswith('superdom.') or m in {HEAVY_STDLIB!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _solve_commands(path):
    """Code that runs ``gamma``, ``gamma-sp`` and ``check`` on ``path`` through ``cli.main``."""
    commands = [["gamma", path], ["gamma-sp", path], ["check", path, "--set", "0,2,4"]]
    return (
        "from superdom.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "assert codes == [0, 0, 0], codes"
    )


class TestImportBudget:
    """Each command loads only the layers it runs."""

    def test_solve_commands_load_neither_ops_nor_the_harness(self, p5):
        loaded = _modules_loaded(_solve_commands(p5))
        assert {"superdom.graph", "superdom.solver"} <= loaded
        assert not loaded & {"superdom.theorems", "superdom.ops", "dataclasses"}

    def test_gen_loads_neither_ops_nor_the_harness(self):
        loaded = _modules_loaded("from superdom.cli import main\nassert main(['gen', 'path', '5']) == 0")
        assert "superdom.families" in loaded
        assert not loaded & {"superdom.theorems", "superdom.ops"}

    def test_solve_commands_load_neither_hashlib_nor_fractions(self, p5):
        assert not _modules_loaded(_solve_commands(p5)) & HASHING_AND_RATIONALS

    def test_gen_path_loads_neither_hashlib_nor_fractions(self):
        loaded = _modules_loaded("from superdom.cli import main\nassert main(['gen', 'path', '5']) == 0")
        assert not loaded & HASHING_AND_RATIONALS

    def test_gen_gnp_random_imports_what_it_draws_with(self):
        loaded = _modules_loaded("from superdom.cli import main\nassert main(['gen', 'gnp_random', '8', '1/2']) == 0")
        assert HASHING_AND_RATIONALS <= loaded

    def test_verify_loads_neither_dataclasses_nor_inspect(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorems": ["T2i"], "family_max_order": 4}))
        loaded = _modules_loaded(f"from superdom.cli import main\nassert main(['verify', '--config', {str(cfg)!r}]) == 0")
        assert "superdom.theorems" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", [
        ["gamma", "{file}"],
        ["gamma-sp", "{file}"],
        ["check", "{file}", "--set", "0,2,4"],
        ["verify", "--config", "{config}", "--out", "{out}"],
    ], ids=lambda a: a[0])
    def test_solve_command_loads_no_parser_json_or_other_layer(self, p5, tmp_path, argv):
        # one fresh process per command; the modules counted are those
        # loaded from just before ``import superdom.cli`` to after ``main``.
        # These are the spellings the benchmark runs: none loads argparse,
        # and a solve loads no json nor any other layer (verify reads its
        # config with json and runs the harness)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"theorems": ["T2i"], "family_max_order": 4}))
        argv = [a.format(file=p5, config=config, out=tmp_path / "r.json") for a in argv]
        code = (
            "import sys\nbefore = set(sys.modules)\nfrom superdom import cli\n"
            f"code = cli.main({argv!r})\nprint()\nprint(code, *sorted(set(sys.modules) - before))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        exit_code, *loaded = proc.stdout.splitlines()[-1].split()
        assert exit_code == "0" and "superdom.solver" in loaded
        forbidden = {"argparse", "gettext", "locale"}
        if argv[0] != "verify":
            forbidden |= {"json", "superdom.families", "superdom.ops", "superdom.theorems"}
        assert not forbidden & set(loaded)

    def test_writer_loads_json_only_to_escape(self):
        write = "from superdom.jsontext import dumps\ndumps({!r})"
        assert "json" not in _modules_loaded(write.format({"a": ["b", 1, True]}))
        assert "json" in _modules_loaded(write.format("\u00e9\""))
        assert dumps("\u00e9\"") == json.dumps("\u00e9\"")

    def test_annotations_resolve_under_type_checking(self):
        # the names cli imports only for annotations resolve once the
        # TYPE_CHECKING block runs
        code = (
            "import typing\ntyping.TYPE_CHECKING = True\nfrom superdom import cli, ops\n"
            "assert typing.get_type_hints(cli._compose)['return'] is ops.CompositionResult"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_bare_package_import_loads_no_layer(self):
        assert _modules_loaded("import superdom") == set()


def _run_python(*args, stdout=subprocess.PIPE):
    """A fresh interpreter on ``args``, with ``PYTHONUNBUFFERED`` unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60)


class TestExitPath:
    """``console_main`` freezes the heap before the process exits; ``main`` does not,
    and no command leaves a file for the collector to close."""

    def test_console_main_freezes_before_exit(self, p5):
        code = (
            "import atexit, gc, sys\nfrom superdom import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = ['superdom', 'gamma', {p5!r}]\ncli.console_main()"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        label, count = proc.stdout.splitlines()[-1].split()
        assert label == "frozen" and int(count) > 0

    def test_main_leaves_the_heap_unfrozen(self, p5):
        code = (
            "import gc\nfrom superdom import cli\nbefore = gc.get_freeze_count()\n"
            f"code = cli.main(['gamma', {p5!r}])\nprint(code, before, gc.get_freeze_count())"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        exit_code, before, after = proc.stdout.splitlines()[-1].split()
        assert exit_code == "0" and before == after

    def test_console_entry_prints_what_main_prints(self, p5, capsys):
        assert main(["gamma", p5]) == 0
        proc = _run_python("-m", "superdom.cli", "gamma", p5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    @pytest.mark.parametrize("command, sink", [
        ("gamma", "closed-pipe"), ("gamma", "full"), ("verify", "closed-pipe"), ("verify", "full"),
    ])
    def test_failed_stdout_write_exits_120(self, p5, tmp_path, command, sink):
        # one error line and exit 120, whether the write fails in the
        # command or in the flush after it, and none again at shutdown
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"theorems": ["T2i"], "family_max_order": 4}))
        argv = ["gamma", p5] if command == "gamma" else ["verify", "--config", str(config)]
        if sink == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "w") as full:
                proc = _run_python("-m", "superdom.cli", *argv, stdout=full)
            errno = 28
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = _run_python("-m", "superdom.cli", *argv, stdout=write)
            finally:
                os.close(write)
            errno = 32
        assert (proc.returncode, proc.stderr) == (120, f"error: writing stdout: [Errno {errno}] {os.strerror(errno)}\n")

    @pytest.mark.parametrize("argv", [
        ["gamma", "{file}"],
        ["gamma-sp", "{file}"],
        ["check", "{file}", "--set", "0,2,4"],
        ["gen", "path", "5", "--out", "{out}"],
        ["op", "odot", "{file}", "1", "--out", "{out}"],
        ["verify", "--config", "{config}", "--out", "{out}"],
    ], ids=lambda a: a[0])
    def test_no_file_is_left_to_the_collector(self, p5, tmp_path, argv):
        # -X dev shows a file that is never closed as a ResourceWarning, an
        # error here; the command must exit and print as it does without it
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"theorems": ["T2i"], "family_max_order": 4}))
        argv = [a.format(file=p5, config=config, out=tmp_path / "out") for a in argv]
        plain = _run_python("-m", "superdom.cli", *argv)
        strict = _run_python("-X", "dev", "-W", "error::ResourceWarning", "-m", "superdom.cli", *argv)
        assert plain.returncode == 0, plain.stderr
        assert (strict.returncode, strict.stdout, strict.stderr) == (plain.returncode, plain.stdout, plain.stderr)
