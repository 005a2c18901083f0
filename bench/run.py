"""Benchmark runner for the ``superdom`` command.

    python3 bench/run.py --workload sp-gnp --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout: the program under test is
``src/superdom``, started as ``python3 -m superdom.cli`` with ``src`` on
``PYTHONPATH``.  One client runs one operation at a time (a closed loop);
each operation is a fresh process, timed from spawn to exit.  A run replays
whole sweeps of the workload (see ``workloads.py``) for about ``--seconds``
seconds, always at least one sweep, and checks every output with the
standard-library checker in ``check.py``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs every operation twice, untraced and then under the
layer tracer of ``tracer.py``, and prints the per-layer metrics, per sweep.
The last line of stdout is the JSON result; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
# No operation starts after this point, so a run ends well inside 180 s.
RUN_CAP_S = 100.0
DIGESTS = os.path.join(HERE, "digests.json")
# Per-layer metrics that are maxima, not sums, across a run's sweeps.
MAX_METRICS = {"solver.max_component_n"}

# The speed of a shared host drifts by up to a fifth over tens of seconds,
# and a Python loop slows with it.  Before each timed process the runner
# times a fixed loop; reported times are raw times rescaled to the speed at
# which that loop takes CAL_REFERENCE_S, using the median of the samples
# within CAL_WINDOW of it.
CAL_LOOP = 100_000
CAL_REFERENCE_S = 0.008
CAL_WINDOW = 2


@dataclass
class Op:
    """One finished operation; ``error`` is None when its output checked out."""

    latency: float
    rss_kb: int
    error: Optional[str]


def spawn(argv: List[str], out_path: str, env: Dict[str, str], timeout: float) -> Tuple[float, int, int, bool]:
    """Run ``argv`` to completion; return (seconds, exit code, max RSS in KiB, timed out).

    The child is reaped with ``os.wait4`` so its resource usage is its own,
    not the running total ``RUSAGE_CHILDREN`` would give.
    """
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
    return t1 - t0, proc.returncode, usage.ru_maxrss, bool(killed)


def calibrate() -> float:
    """Time the fixed calibration loop, in seconds."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_LOOP):
        x += i * i
    return time.perf_counter() - t0


def speed_factors(cal: List[float]) -> List[float]:
    """Per sample, the factor that rescales a time taken then to reference speed."""
    return [CAL_REFERENCE_S / statistics.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]) for i in range(len(cal))]


def at_reference_speed(raw: List[float], cal: List[float]) -> List[float]:
    return [t * f for t, f in zip(raw, speed_factors(cal))]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Validates each output, its repeatability within the run, and, at the
    seed recorded in ``digests.json``, its exact bytes."""

    def __init__(self, workload: str, seed: int, inputs: str, digests: Dict):
        self.workload = workload
        self.inputs = inputs
        self.expected = digests.get(workload) if digests.get("seed") == seed else None
        self.seen: Dict[str, Tuple] = {}
        self.graphs: Dict[str, list] = {}
        self.config: Optional[Dict] = None

    def check(self, inst: workloads.Instance, code: int, killed: bool, stdout: bytes, report: bytes) -> Optional[str]:
        if killed:
            return "timed out"
        if code != 0:
            return f"exit code {code}"
        try:
            if inst.kind == "config":
                mark = (sha256(stdout), sha256(report))
            else:
                mark = (sha256(stdout), json.loads(stdout)["value"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"
        if self.seen.setdefault(inst.label, mark) != mark:
            return "output differs from an earlier run of the same instance"
        if self.expected is not None:
            want = self.expected.get(inst.label)
            if want is None or tuple(want) != mark:
                return f"output {mark} differs from the recorded digest {want}"
        path = os.path.join(self.inputs, inst.file)
        if inst.kind == "config":
            if self.config is None:
                with open(path, encoding="utf-8") as fh:
                    self.config = json.load(fh)
            return check.check_report(report, stdout, self.config)
        if inst.file not in self.graphs:
            with open(path, encoding="ascii") as fh:
                self.graphs[inst.file] = check.parse_edge_list(fh.read())
        adj, cert = self.graphs[inst.file], json.loads(stdout)
        if self.workload == "sp-gnp":
            return check.check_gamma_sp(adj, cert)
        closed_form = -(-inst.n // 3) if inst.kind in ("path", "cycle") else None
        return check.check_gamma(adj, cert, closed_form)


class Run:
    """State of one benchmark run inside the checkout at ``root``."""

    def __init__(self, root: str, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_out", workload)
        self.inputs = os.path.join(self.work, "inputs")
        self.outputs = os.path.join(self.work, "outputs")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=self.src + (os.pathsep + path if path else ""))
        # Children cache bytecode as a default install does, whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.started = time.perf_counter()
        self.skipped = 0
        digests = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                digests = json.load(fh)
        self.checker = Checker(workload, seed, self.inputs, digests)
        self.sweeps = workloads.sweeps(workload, seed)

    def setup(self, repeats: int = SETUP_REPEATS) -> List[float]:
        """Write the inputs ``repeats`` times in fresh processes; return the
        times at reference speed."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.outputs)
        times, cal = [], []
        for _ in range(repeats):
            cal.append(calibrate())
            shutil.rmtree(self.inputs, ignore_errors=True)
            argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", self.workload,
                    "--seed", str(self.seed), "--out", self.inputs]
            took, code, _, killed = spawn(argv, os.path.join(self.work, "setup.log"), self.env, OP_TIMEOUT_S)
            if code != 0 or killed:
                with open(os.path.join(self.work, "setup.log.err"), encoding="utf-8", errors="replace") as fh:
                    raise RuntimeError(f"input generation failed (exit {code}): {fh.read().strip()}")
            times.append(took)
        return at_reference_speed(times, cal)

    def op(self, k: int, inst: workloads.Instance, traced: bool) -> Tuple[Op, str]:
        """Run one operation; return it and the path its spans went to."""
        tag = f"{k}{'t' if traced else ''}"
        out = os.path.join(self.outputs, f"{tag}.out")
        report = os.path.join(self.outputs, "report.json")
        spans = os.path.join(self.outputs, f"{tag}.spans.json")
        args = workloads.cli_args(self.workload, inst, self.inputs, report)
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", spans, "--op", str(k), "--"] + args
        else:
            argv = [sys.executable, "-m", "superdom.cli"] + args
        latency, code, rss, killed = spawn(argv, out, self.env, OP_TIMEOUT_S)
        with open(out, "rb") as fh:
            stdout = fh.read()
        body = b""
        if inst.kind == "config" and os.path.exists(report):
            with open(report, "rb") as fh:
                body = fh.read()
            os.remove(report)
        error = self.checker.check(inst, code, killed, stdout, body)
        if error:
            print(f"FAILED {inst.label}{' (traced)' if traced else ''}: {error}", file=sys.stderr)
        return Op(latency, rss, error), spans

    def loop(self, seconds: float):
        """Replay whole sweeps for about ``seconds``; yield (sweep index, instance, op index).

        Past ``RUN_CAP_S`` no operation starts; the ones skipped are counted
        in ``self.skipped`` and fail the run.
        """
        start = time.perf_counter()
        k = done = 0
        while True:
            began = time.perf_counter()
            sweep = self.sweeps[done % len(self.sweeps)]
            for i, inst in enumerate(sweep):
                if time.perf_counter() - self.started > RUN_CAP_S:
                    self.skipped = len(sweep) - i
                    print(f"FAILED run cap of {RUN_CAP_S:.0f} s reached, {self.skipped} ops not started", file=sys.stderr)
                    return
                yield done, inst, k
                k += 1
            done += 1
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def measure_e2e(run: Run, seconds: float) -> Tuple[List[Op], Dict[str, float]]:
    setup = run.setup()
    ops: List[Op] = []
    cal: List[float] = []
    sweeps: List[int] = []
    for sweep, inst, k in run.loop(seconds):
        cal.append(calibrate())
        op, _ = run.op(k, inst, traced=False)
        ops.append(op)
        sweeps.append(sweep)
    lat = at_reference_speed([op.latency for op in ops], cal)
    walls: Dict[int, float] = defaultdict(float)
    for sweep, t in zip(sweeps, lat):
        walls[sweep] += t
    metrics = {
        "wall_s": statistics.median(walls.values()),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_geomean_ms": 1000 * geomean(lat),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(op.rss_kb for op in ops) / 1024,
    }
    print(f"{run.workload}: {len(ops)} ops in {len(walls)} sweeps, {len(setup)} set-ups; "
          f"calibration loop median {1000 * statistics.median(cal):.2f} ms "
          f"(reference {1000 * CAL_REFERENCE_S:.2f} ms)", file=sys.stderr)
    return ops, metrics


def measure_layers(run: Run, seconds: float) -> Tuple[List[Op], Dict[str, float]]:
    run.setup(repeats=1)
    startup, cal = [], []
    for _ in range(STARTUP_REPEATS):
        cal.append(calibrate())
        argv = [sys.executable, "-c", "import superdom.cli"]
        took, code, _, _ = spawn(argv, os.path.join(run.work, "startup.log"), run.env, OP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError("importing superdom.cli failed")
        startup.append(took)
    startup = at_reference_speed(startup, cal)
    ops: List[Op] = []
    per_op: List[Tuple[Dict[str, float], Dict[str, float]]] = []
    cal = []
    plain = traced = 0.0
    sweeps = set()
    for sweep, inst, k in run.loop(seconds):
        sweeps.add(sweep)
        cal.append(calibrate())
        # Alternate which of the pair runs first, so warm file caches favour neither.
        if k % 2:
            op, spans_path = run.op(k, inst, traced=True)
            base, _ = run.op(k, inst, traced=False)
        else:
            base, _ = run.op(k, inst, traced=False)
            op, spans_path = run.op(k, inst, traced=True)
        ops += [base, op]
        plain += base.latency
        traced += op.latency
        if not os.path.exists(spans_path):
            per_op.append(({}, {}))
            continue
        with open(spans_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        if sweep > 0:  # keep the spans of the first sweep only
            os.remove(spans_path)
        per_op.append((tracer.layer_totals(dump["spans"]), dump["counters"]))
    totals: Dict[str, float] = defaultdict(float)
    for (layers, counters), factor in zip(per_op, speed_factors(cal)):
        for name, value in layers.items():
            totals[name] += value * factor if name.endswith(("_s", ".s")) else value
        for name, value in counters.items():
            totals[name] = max(totals[name], value) if name in MAX_METRICS else totals[name] + value
    metrics = {name: value if name in MAX_METRICS else value / len(sweeps) for name, value in totals.items()}
    metrics["cli.startup_ms"] = 1000 * statistics.median(startup)
    metrics["trace_overhead_ratio"] = traced / plain
    print(f"{run.workload}: {len(ops) // 2} traced ops in {len(sweeps)} sweeps", file=sys.stderr)
    return ops, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the superdom command on one workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superdom", "cli.py")):
        print("error: run from the root of a superdom checkout (src/superdom is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(root, args.workload, args.seed)
    try:
        ops, values = (measure_layers if args.trace else measure_e2e)(run, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(op.error is not None for op in ops) + run.skipped
    result = {
        "correct": failed == 0,
        "attempted": len(ops) + run.skipped,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
