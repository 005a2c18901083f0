"""Tests of the benchmark itself: determinism, tracer arithmetic, checker.

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _file_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_instances_and_inputs(workload, tmp_path):
    assert workloads.sweeps(workload, 7) == workloads.sweeps(workload, 7)
    workloads.write_inputs(workload, 7, str(tmp_path / "a"))
    workloads.write_inputs(workload, 7, str(tmp_path / "b"))
    assert _file_digests(tmp_path / "a") == _file_digests(tmp_path / "b")
    workloads.write_inputs(workload, 8, str(tmp_path / "c"))
    assert _file_digests(tmp_path / "a") != _file_digests(tmp_path / "c")


def test_sweeps_hold_distinct_graphs():
    sweeps = workloads.sweeps("sp-gnp", 3)
    assert len(sweeps) == workloads.SWEEPS
    labels = [inst.label for sweep in sweeps for inst in sweep]
    assert len(labels) == len(set(labels)) == workloads.SWEEPS * len(workloads.SP_N) * len(workloads.SP_P)


def test_recorded_digests_cover_every_instance_and_repeat(tmp_path):
    with open(run.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    seed = digests["seed"]
    for workload in workloads.WORKLOADS:
        labels = {inst.label for sweep in workloads.sweeps(workload, seed) for inst in sweep}
        assert labels == set(digests[workload])
    bench = run.Run(ROOT, "dom-sparse", seed)
    bench.work = str(tmp_path)
    bench.inputs = str(tmp_path / "inputs")
    bench.outputs = str(tmp_path / "outputs")
    bench.checker.inputs = bench.inputs
    os.makedirs(bench.outputs)
    workloads.write_inputs("dom-sparse", seed, bench.inputs)
    inst = workloads.sweeps("dom-sparse", seed)[0][0]
    for k in range(2):
        op, _ = bench.op(k, inst, traced=False)
        assert op.error is None
    assert list(bench.checker.seen[inst.label]) == digests["dom-sparse"][inst.label]


def test_self_time_on_hand_built_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["solver.gamma", 1.0, 4.0, 0, 0],
        ["graph.components", 2.0, 3.0, 1, 0],
        ["theorems.run_harness", 5.0, 9.0, 0, 0],
        ["solver.gamma_sp", 5.0, 7.0, 3, 0],
        ["solver.gamma_sp", 6.0, 8.0, 3, 0],  # overlaps its sibling: covered once
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    totals = tracer.layer_totals(spans)
    assert totals["solver.self_s"] == 6.0
    assert totals["solver.calls"] == 3
    assert totals["solver.gamma_sp.s"] == 4.0
    assert totals["solver.gamma_sp.calls"] == 2
    assert totals["cli.self_s"] == 3.0
    # Without the overlap the tree is properly nested and self times add up to the root.
    assert sum(tracer.self_times(spans[:5])) == 10.0


def test_reference_speed_uses_the_nearby_calibration_median():
    cal = [2 * run.CAL_REFERENCE_S] * 3 + [run.CAL_REFERENCE_S] * 5
    # each time follows the median of the five samples around it
    assert run.at_reference_speed([1.0] * 8, cal) == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_tracer_wraps_bound_names_and_restores(tmp_path):
    import superdom
    from superdom import cli, families, graph, ops, solver, theorems

    modules = {"graph": graph, "families": families, "ops": ops, "solver": solver, "theorems": theorems, "cli": cli}
    original = (cli.read_edge_list, theorems.is_isomorphic, graph.Graph.__init__, solver.gamma)
    path = tmp_path / "p.el"
    path.write_text(graph.write_edge_list(families.path_graph(6)))
    t = tracer.Tracer(op=5)
    t.install(modules, [superdom])
    try:
        assert cli.read_edge_list is graph.read_edge_list is superdom.read_edge_list
        assert theorems.is_isomorphic is not original[1]
        assert cli.main(["gamma", str(path)]) == 0
    finally:
        t.uninstall()
    assert (cli.read_edge_list, theorems.is_isomorphic, graph.Graph.__init__, solver.gamma) == original
    names = [s[0] for s in t.spans]
    assert names[0] == "cli.main" and t.spans[0][3] == -1
    for name in ("cli.cmd_gamma", "graph.read_edge_list", "graph.construct", "solver.gamma", "graph.components"):
        assert name in names
    assert all(s[4] == 5 for s in t.spans)
    assert t.counters["solver.components"] == 1 and t.counters["solver.max_component_n"] == 6


def test_missing_names_are_skipped():
    graph = types.ModuleType("graph")
    solver = types.ModuleType("solver")

    def gamma(x):
        return x

    gamma.__module__ = solver.__name__
    solver.gamma = gamma
    t = tracer.Tracer()
    t.install({"graph": graph, "solver": solver})
    assert solver.gamma(3) == 3
    totals = tracer.layer_totals(t.spans)
    assert totals["solver.gamma.calls"] == 1
    assert totals.get("graph.is_isomorphic.s", 0) == 0


P6 = [{1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4}]  # path 0-1-2-3-4-5


def _gamma_sp_cert(text):
    from superdom import gamma_sp, read_edge_list

    cert = gamma_sp(read_edge_list(text))
    return {"value": cert.value, "set": list(cert.vertices), "witnesses": {str(u): v for u, v in cert.witnesses.items()}}


def test_checker_accepts_real_certificates_and_rejects_tampering():
    from superdom import gnp_random_graph, write_edge_list

    text = write_edge_list(gnp_random_graph(12, "1/4", 11))
    adj = check.parse_edge_list(text)
    cert = _gamma_sp_cert(text)
    assert cert["witnesses"], "instance should have outside vertices"
    assert check.check_gamma_sp(adj, cert) is None

    dropped = dict(cert, witnesses=dict(list(cert["witnesses"].items())[1:]))
    assert check.check_gamma_sp(adj, dropped) is not None

    removed = dict(cert, set=cert["set"][1:], value=cert["value"] - 1)
    assert check.check_gamma_sp(adj, removed) is not None
    assert check.check_gamma_sp(adj, dict(cert, value=cert["value"] + 1)) is not None


def test_checker_on_hand_checked_path():
    good = {"value": 3, "set": [1, 2, 5], "witnesses": {"0": 1, "3": 2, "4": 5}}
    assert check.check_gamma_sp(P6, good) is None
    # 2 is adjacent to 3 but also to the outside vertex 1, so it witnesses nobody
    bad = {"value": 3, "set": [0, 2, 4], "witnesses": {"1": 0, "3": 2, "5": 4}}
    assert check.check_gamma_sp(P6, bad) == "witness 2 has outside neighbours [1, 3], not only u=3"
    assert check.check_gamma(P6, {"value": 2, "set": [1, 4]}, expected=2) is None
    assert check.check_gamma(P6, {"value": 1, "set": [1]}) == "u=3 is not dominated"
    assert check.check_gamma(P6, {"value": 2, "set": [1, 1]}) is not None
