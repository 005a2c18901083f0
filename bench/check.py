"""Independent correctness checks for the benchmark's CLI outputs.

Standard library only: nothing here imports ``superdom``, so a defect in
the package cannot hide itself from the checker.  Each check returns None
when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Set


def parse_edge_list(text: str) -> List[Set[int]]:
    """Adjacency sets of an edge-list file (header ``n m``, then ``m`` edges)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    if len(lines) != m + 1:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in ((int(a), int(b)) for a, b in lines[1:]):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _vertex_set(adj: List[Set[int]], members) -> Set[int]:
    s = set(members)
    if len(s) != len(members):
        raise ValueError("set lists a vertex twice")
    if any(not isinstance(v, int) or not 0 <= v < len(adj) for v in s):
        raise ValueError("set holds a vertex out of range")
    return s


def check_gamma_sp(adj: List[Set[int]], cert: Dict) -> Optional[str]:
    """A super dominating set with a private witness for every outside vertex.

    The witness v of u must lie in the set, be adjacent to u, and have u as
    its only neighbour outside the set.  Also checks ``value == |set|`` and
    the lower bound ``gamma_sp >= n/2`` that every valid set meets.
    """
    try:
        s = _vertex_set(adj, cert["set"])
        witnesses = {int(u): v for u, v in cert["witnesses"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed certificate: {exc}"
    if cert.get("value") != len(s):
        return f"value {cert.get('value')} != |set| {len(s)}"
    outside = set(range(len(adj))) - s
    if set(witnesses) != outside:
        return f"witness keys {sorted(witnesses)} != outside vertices {sorted(outside)}"
    for u, v in sorted(witnesses.items()):
        if v not in s:
            return f"witness {v} of u={u} is not in the set"
        if u not in adj[v]:
            return f"witness {v} is not adjacent to u={u}"
        if adj[v] - s != {u}:
            return f"witness {v} has outside neighbours {sorted(adj[v] - s)}, not only u={u}"
    if 2 * len(s) < len(adj):
        return f"value {len(s)} is below the bound n/2 = {len(adj) / 2}"
    return None


def check_gamma(adj: List[Set[int]], cert: Dict, expected: Optional[int] = None) -> Optional[str]:
    """A dominating set whose size is ``value`` (and ``expected`` when known)."""
    try:
        s = _vertex_set(adj, cert["set"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed certificate: {exc}"
    if cert.get("value") != len(s):
        return f"value {cert.get('value')} != |set| {len(s)}"
    for u in range(len(adj)):
        if u not in s and not adj[u] & s:
            return f"u={u} is not dominated"
    if expected is not None and len(s) != expected:
        return f"value {len(s)} != closed form {expected}"
    return None


def check_report(report: bytes, stdout: bytes, config: Dict) -> Optional[str]:
    """A verify report whose checks all hold and whose summary is consistent."""
    try:
        doc = json.loads(report)
        printed = json.loads(stdout)
        reports, summary = doc["reports"], doc["summary"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc}"
    if doc.get("config") != config:
        return "report config echo differs from the config file"
    if summary.get("failed") != 0:
        return f"summary.failed = {summary.get('failed')}"
    if summary.get("total") != len(reports) or not reports:
        return f"summary.total = {summary.get('total')} but {len(reports)} report rows"
    bad = [r.get("instance") for r in reports if r.get("holds") is not True]
    if bad:
        return f"{len(bad)} rows do not hold, first {bad[0]}"
    if printed != {"summary": summary}:
        return "stdout summary differs from the report summary"
    return None
