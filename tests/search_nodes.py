"""The search-node table: how many nodes each exact search enters on a fixed grid.

A node is one call of a search's inner ``extend``.  ``gamma`` enters one
search per component; ``gamma_sp`` runs one pass per component below
``solver._TWO_PASS_ORDER`` and two from it on, a value pass and a
lexicographic pass.  The table holds, for every graph of :func:`grid`,
the nodes ``gamma`` enters in all and the nodes of each ``gamma_sp``
pass in the order they run.  ``tests/test_search_nodes.py`` fails when a
count rises.  A change that lowers counts records the table again:

    PYTHONPATH=src python3 tests/search_nodes.py

which writes ``tests/data/search_nodes.json``.  CI runs the same command
and fails when the committed table differs from the one it writes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from superdom import Graph, cycle_graph, gamma, gamma_sp, gnp_random_graph, path_graph, solver

TABLE = Path(__file__).resolve().parent / "data" / "search_nodes.json"
SEED = 42
# the largest order of the grid, and the size guard its solves run under
MAX_N = 30
SEARCHES = ("_best_complement", "_min_dominating")


def grid() -> Iterator[Tuple[str, Graph]]:
    """The labelled graphs of the table: G(n,p) at seed 42 for n 16..30 and
    p in {1/8, 1/4, 1/2, 3/4}, then every path and cycle up to order 30."""
    for n in range(16, MAX_N + 1):
        for p in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            yield f"gnp(n={n},p={p},seed={SEED})", gnp_random_graph(n, p, SEED)
    for n in range(1, MAX_N + 1):
        yield f"path({n})", path_graph(n)
    for n in range(3, MAX_N + 1):
        yield f"cycle({n})", cycle_graph(n)


def searches_entered(g: Graph, solve: Callable[[Graph], object]) -> List[int]:
    """The nodes each search of ``solve(g)`` enters, in the order the searches run."""
    entered: List[int] = []

    def count(frame, event, arg):
        if event == "call" and frame.f_globals is vars(solver):
            name = frame.f_code.co_name
            if name in SEARCHES:
                entered.append(0)
            elif name == "extend":
                entered[-1] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        solve(g)
    finally:
        sys.setprofile(previous)
    return entered


def table() -> Dict[str, Dict[str, object]]:
    """Each grid graph's label mapped to its ``gamma`` total and ``gamma_sp`` passes."""
    solve_dom, solve_sp = partial(gamma, guard=MAX_N), partial(gamma_sp, guard=MAX_N)
    return {
        label: {"gamma": sum(searches_entered(g, solve_dom)), "gamma_sp": searches_entered(g, solve_sp)}
        for label, g in grid()
    }


def main() -> int:
    # one graph a line, so a change of counts reads as a line diff
    rows = [f" {json.dumps(label)}: {json.dumps(counts)}" for label, counts in table().items()]
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
