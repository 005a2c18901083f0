"""No exact search enters more nodes than ``tests/data/search_nodes.json`` records.

The table and its grid are described in ``tests/search_nodes.py``, which
records it again after a change that lowers counts.  A rise is a weaker
search and fails here.
"""

import json

from search_nodes import TABLE, grid, table


def recorded():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_the_grid():
    assert list(recorded()) == [label for label, _ in grid()]


def test_no_search_enters_more_nodes_than_recorded():
    old = recorded()
    rises = []
    for label, new in table().items():
        was = old[label]
        if new["gamma"] > was["gamma"]:
            rises.append(f"{label}: gamma {was['gamma']} -> {new['gamma']}")
        passes = new["gamma_sp"]
        if len(passes) != len(was["gamma_sp"]) or any(a > b for a, b in zip(passes, was["gamma_sp"])):
            rises.append(f"{label}: gamma_sp passes {was['gamma_sp']} -> {passes}")
    assert rises == []
