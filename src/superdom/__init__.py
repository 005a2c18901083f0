"""Exact super domination toolkit for small simple graphs.

Core pieces: an immutable bitset graph type with edge-list I/O and a
small-graph isomorphism test, deterministic family generators, the
vertex surgeries and point-attaching compositions, exact gamma /
gamma_sp solvers with certificates, and an executable harness for the
known bounds.

The public names live in their layer modules; ``_EXPORTS`` lists them
under their home module.  ``import superdom`` loads none of those
modules: a name's home module is imported on first access (PEP 562), so
a script that uses only the solvers never loads the harness.  Names are
looked up afresh on every access rather than cached here, so
``superdom.gamma`` is always whatever ``superdom.solver.gamma`` is now.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "graph": (
        "Graph", "EdgeListError", "SizeGuardError",
        "read_edge_list", "write_edge_list", "is_isomorphic",
    ),
    "families": (
        "path_graph", "cycle_graph", "complete_graph", "complete_bipartite_graph",
        "star_graph", "friendship_graph", "gnp_random_graph", "build_family",
    ),
    "ops": ("odot", "contract_clique", "disjoint_union", "chain", "bouquet", "CompositionResult"),
    "solver": (
        "is_dominating", "is_super_dominating", "super_domination_witnesses", "first_violation",
        "gamma", "gamma_sp", "DomCertificate", "SuperDomCertificate",
    ),
    "theorems": ("TheoremReport", "HarnessConfig", "RandomGrid", "run_harness"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
