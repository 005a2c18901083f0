"""Executable encodings of the known super domination bounds.

Every check evaluates one closed form, inequality, or sharpness claim on a
concrete instance and returns a :class:`TheoremReport` whose ``holds``
flag is exactly the conjunction of the recorded lhs/relation/rhs rows.
Boolean claims (isomorphism of a sharpness witness, validity of a
constructed set) are encoded as 0/1 equality rows so that invariant stays
literal.

All arithmetic is exact: integers throughout, ``Fraction`` for the half
terms.  Reports carry replayable instance labels (family parameters or
(n, p, seed) for random instances), and :func:`run_harness` emits them in
a deterministic order so identical configurations produce byte-identical
output.

Check identifiers
-----------------
T1                      1 <= gamma <= n/2 <= gamma_sp <= n-1 (isolated-free
                        graphs; on graphs that merely have an edge the
                        gamma <= n/2 row is dropped, since it can fail there)
T2i..T2v, T_Fn          closed forms for paths, cycles, cliques, complete
                        bipartite graphs, stars, friendship graphs
P_odot_pendant          clearing around a pendant vertex keeps gamma_sp
T_odot, T_Gv            gamma_sp(op(G,v)) <= gamma_sp(G) + floor(deg/2) - 1
                        for edge clearing / clique contraction, deg(v) >= 2
C_combined              the averaged lower bound combining T_odot and T_Gv;
                        :func:`check_vertex` reports the ids of v's degree
                        class at one (G, v), building each surgery once
P_union                 additivity over disjoint unions
T_chain2, C_chain_n     sum - slack <= gamma_sp <= sum for chains, with
                        slack 1 for two parts and slack = parts in general
P_bouquet2, T_bouquet3, C_bouquet_n
                        the same sandwich for bouquets, slack = parts - 1
R_*                     sharpness witnesses achieving a bound with equality;
                        each is a family member, whose value and label
                        come from ``families.FAMILIES``

Each bound is stated once.  :func:`_op_slack` holds floor(deg/2) - 1 for
the vertex operations, and :func:`_glued_sandwich` builds the chain and
bouquet sandwich rows from the part values and a slack.  The checks and
the sharpness witnesses take their bounds from these two.  The chain and
bouquet checks take their parts' labels, and :func:`_glued_label` spells
their instance labels from them.

The size guard is checked once, by :func:`run_harness`, before any check
runs.  ``family_max_order`` and the largest n the random grid draws are
held to it only when a check that draws the shared pool (``T1``, a vertex
id, ``P_union``) is selected; a closed form above the guard is refused by
the plan that names it.  The checks and the certificate caches take no guard,
so a check called directly solves whatever graph it is given.

:class:`TheoremReport` and the config records :class:`RandomGrid` and
:class:`HarnessConfig` are ``NamedTuple``s, so ``verify`` loads neither
``dataclasses`` nor what it imports (``inspect``, ``ast``, ``dis``).  The
config records check their fields in ``__new__``, and ``_replace`` builds
through it, so a replaced field is checked as a given one is.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import families, ops, solver
from .graph import DEFAULT_ISO_GUARD, Graph, is_isomorphic
from .jsontext import dumps

ALL_THEOREM_IDS = (
    "T1",
    "T2i",
    "T2ii",
    "T2iii",
    "T2iv",
    "T2v",
    "T_Fn",
    "P_odot_pendant",
    "T_odot",
    "T_Gv",
    "C_combined",
    "P_union",
    "T_chain2",
    "C_chain_n",
    "P_bouquet2",
    "T_bouquet3",
    "C_bouquet_n",
    "R_odot_sharp",
    "R_chain_sharp_upper",
    "R_chain_sharp_lower",
    "R_bouquet_sharp_lower",
    "R_bouquet_sharp_upper",
)

Number = Union[int, Fraction]
Row = Tuple[Number, str, Number]


class TheoremReport(NamedTuple):
    theorem_id: str
    instance: str
    lhs: Tuple
    relations: Tuple[str, ...]
    rhs: Tuple
    holds: bool
    witness: Dict


def _num(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _row_ok(lhs, rel, rhs) -> bool:
    if rel == "<=":
        return lhs <= rhs
    if rel == ">=":
        return lhs >= rhs
    if rel == "==":
        return lhs == rhs
    raise ValueError(f"unknown relation {rel!r}")


def _report(tid: str, instance: str, rows: Sequence[Row], witness: Optional[Dict] = None) -> TheoremReport:
    lhs, relations, rhs = zip(*rows) if rows else ((), (), ())
    return TheoremReport(tid, instance, lhs, relations, rhs, all(map(_row_ok, lhs, relations, rhs)), witness or {})


# guard=g.n: run_harness refused every plan above cfg.guard before any solve
@lru_cache(maxsize=None)
def _sdom_cert(g: Graph) -> solver.SuperDomCertificate:
    return solver.gamma_sp(g, guard=g.n)


@lru_cache(maxsize=None)
def _dom_cert(g: Graph) -> solver.DomCertificate:
    return solver.gamma(g, guard=g.n)


def _default_label(g: Graph) -> str:
    return f"graph(n={g.n},m={g.m})"


def _glued_label(name: str, parts: Sequence[Tuple], labels: Optional[Sequence[str]] = None) -> str:
    """The instance label ``name(label@a:b,...)`` of glued parts (graph,
    attach vertices...): each part's label, by default
    ``graph(n=..,m=..)``, then its attach vertices joined by colons."""
    labels = labels or [_default_label(g) for g, *_ in parts]
    return f"{name}(" + ",".join(f"{label}@" + ":".join(map(str, ends)) for label, (_, *ends) in zip(labels, parts)) + ")"


# ---------------------------------------------------------------------------
# Single-instance checks


def check_sandwich(g: Graph, instance: Optional[str] = None) -> TheoremReport:
    """1 <= gamma(G) <= n/2 <= gamma_sp(G) <= n-1, for graphs with an edge.

    The gamma <= n/2 row is the classical domination bound, which needs
    every vertex to have a neighbour (K_2 plus an isolated vertex has
    gamma = 2 > 3/2), so it is dropped exactly when ``g`` has an isolated
    vertex.  The other three rows hold for any graph with an edge.
    """
    if g.m == 0:
        raise ValueError("sandwich bound applies only to graphs with at least one edge")
    dom = _dom_cert(g)
    sdom = _sdom_cert(g)
    half = Fraction(g.n, 2)
    rows: List[Row] = [(1, "<=", dom.value)]
    if all(g.adj):
        rows.append((dom.value, "<=", half))
    rows += [(half, "<=", sdom.value), (sdom.value, "<=", g.n - 1)]
    witness = {"gamma_set": list(dom.vertices), "gamma_sp": sdom.payload()}
    return _report("T1", instance or _default_label(g), rows, witness)


def check_closed_forms(max_order: int) -> List[TheoremReport]:
    """Solver value == closed form, for every family instance of order <=
    max_order that lies in the domain of its family's closed form."""
    reports = []
    for inst in families.family_grid(max_order):
        family = families.FAMILIES[inst.kind]
        if family.check_id and family.in_domain(*inst.params):
            rows = [(_sdom_cert(inst.graph).value, "==", family.value(*inst.params))]
            reports.append(_report(family.check_id, inst.label(), rows))
    return reports


# The ids check_vertex reports at a vertex of degree 0, 1, and 2 or more.
_VERTEX_IDS = ((), ("P_odot_pendant",), ("T_odot", "T_Gv", "C_combined"))


def _op_slack(deg: int) -> int:
    """The floor(deg/2) - 1 that clearing around, or contracting, a vertex of
    degree ``deg`` may add to gamma_sp."""
    return deg // 2 - 1


def check_vertex(g: Graph, v: int, instance: Optional[str] = None) -> List[TheoremReport]:
    """Every vertex-operation check at v, each surgery built once.

    A pendant v gives ``P_odot_pendant``: clearing around it keeps
    gamma_sp.  For deg(v) >= 2, ``T_odot`` and ``T_Gv`` bound clearing and
    contraction by gamma_sp(G) + floor(deg/2) - 1, and ``C_combined``
    bounds gamma_sp(G) below by their average minus the same slack.  An
    isolated v is rejected: clearing around it is a no-op and the bound
    would be false.
    """
    deg = g.degree(v)
    if deg == 0:
        raise ValueError(f"vertex {v} is isolated: the bound needs deg(v) >= 2")
    base = _sdom_cert(g).value
    cleared = _sdom_cert(ops.odot(g, v)).value
    label = instance or _default_label(g)
    witness = {"v": v, "degree": deg, "base_value": base}
    if deg == 1:
        return [_report("P_odot_pendant", f"odot({label},v={v})", [(cleared, "==", base)], witness)]
    contracted = _sdom_cert(ops.contract_clique(g, v)).value
    slack = _op_slack(deg)
    return [
        _report("T_odot", f"odot({label},v={v})", [(cleared, "<=", base + slack)], witness),
        _report("T_Gv", f"contract({label},v={v})", [(contracted, "<=", base + slack)], dict(witness)),
        _report("C_combined", f"combined({label},v={v})", [(base, ">=", Fraction(cleared + contracted, 2) - slack)],
                {"v": v, "degree": deg, "cleared_value": cleared, "contracted_value": contracted}),
    ]


def _check_union(g1: Graph, g2: Graph, instance: str) -> TheoremReport:
    """gamma_sp is additive over the disjoint union of g1 and g2."""
    v1 = _sdom_cert(g1).value
    v2 = _sdom_cert(g2).value
    total = _sdom_cert(ops.disjoint_union(g1, g2).graph).value
    return _report("P_union", instance, [(total, "==", v1 + v2)], {"part_values": [v1, v2]})


def _glued_sandwich(compose: Callable, parts: Sequence[Tuple], slack: int) -> Tuple[ops.CompositionResult, List[int], List[Row]]:
    """Glue connected parts with ``ops.chain`` or ``ops.bouquet`` and state
    the composition bound sum - slack <= gamma_sp <= sum over the part values.

    Returns the composition, the part values, and the lower and upper rows.
    """
    for i, (g, *_) in enumerate(parts):
        if not g.is_connected():
            raise ValueError(f"part {i} is disconnected; the composition bounds assume connected parts")
    comp = compose(parts)
    values = [_sdom_cert(g).value for g, *_ in parts]
    total = sum(values)
    val = _sdom_cert(comp.graph).value
    return comp, values, [(total - slack, "<=", val), (val, "<=", total)]


def check_chain2(
    g1: Graph,
    y1: int,
    g2: Graph,
    x2: int,
    labels: Optional[Sequence[str]] = None,
) -> TheoremReport:
    """Two-part chain sandwich, plus a constructive spot check when it applies.

    When both solver certificates land in the case where the attachment
    vertices are inside their sets and each has a unique outside
    neighbour, the explicitly constructed set (parts' sets, minus the two
    attachment vertices, plus the identified vertex and the first part's
    private neighbour) is verified to super dominate the chain at size
    value1 + value2.  Other certificate shapes skip the spot check.
    """
    comp, values, rows = _glued_sandwich(ops.chain, [(g1, y1, y1), (g2, x2, x2)], 1)
    z = comp.merged[0]
    c1 = _sdom_cert(g1)
    c2 = _sdom_cert(g2)
    total = sum(values)
    witness: Dict = {"part_values": values, "merged_vertex": z}

    out1 = sum(1 << u for u in range(g1.n) if u not in c1.vertices)
    out2 = sum(1 << u for u in range(g2.n) if u not in c2.vertices)
    private1 = g1.adj[y1] & out1
    private2 = g2.adj[x2] & out2
    if y1 in c1.vertices and x2 in c2.vertices and private1.bit_count() == private2.bit_count() == 1:
        m1, m2 = comp.vertex_maps
        g1_private = private1.bit_length() - 1
        built = {m1[w] for w in c1.vertices if w != y1}
        built |= {m2[w] for w in c2.vertices if w != x2}
        built |= {z, m1[g1_private]}
        valid = solver.is_super_dominating(comp.graph, built)
        rows.append((int(valid), "==", 1))
        rows.append((len(built), "==", total))
        witness["proof_case"] = {
            "constructed_set": sorted(built),
            "valid": valid,
        }
    else:
        witness["proof_case"] = "skipped (certificates outside the constructive case)"
    return _report("T_chain2", _glued_label("chain", [(g1, y1), (g2, x2)], labels), rows, witness)


def check_chain_n(
    parts: Sequence[Tuple[Graph, int, int]],
    labels: Optional[Sequence[str]] = None,
) -> TheoremReport:
    """Chain of any number of connected parts: sum - k <= value <= sum."""
    comp, values, rows = _glued_sandwich(ops.chain, parts, len(parts))
    return _report("C_chain_n", _glued_label("chain", parts, labels), rows, {"part_values": values, "merged": list(comp.merged)})


# The id a bouquet check reports under, by its part count; any count not
# listed takes the general C_bouquet_n.  The harness samples each count.
_BOUQUET_IDS = {2: "P_bouquet2", 3: "T_bouquet3", 4: "C_bouquet_n"}


def check_bouquet(
    parts: Sequence[Tuple[Graph, int]],
    labels: Optional[Sequence[str]] = None,
) -> TheoremReport:
    """Bouquet of connected parts: sum - k + 1 <= value <= sum.

    Two- and three-part instances report under their dedicated
    identifiers; the bound itself coincides with the general form.
    """
    comp, values, rows = _glued_sandwich(ops.bouquet, parts, len(parts) - 1)
    tid = _BOUQUET_IDS.get(len(parts), _BOUQUET_IDS[4])
    return _report(tid, _glued_label("bouquet", parts, labels), rows, {"part_values": values, "hub": comp.merged[0]})


# ---------------------------------------------------------------------------
# Sharpness witnesses


def _check_sharp(tid: str, instance: str, graph: Graph, bound: int, kind: str, param: int) -> TheoremReport:
    """``graph`` is the family member ``kind(param)`` and achieves ``bound``:
    its gamma_sp equals both the family's closed form and the bound."""
    target = families.build_family(kind, (param,))
    val = _sdom_cert(graph).value
    iso = is_isomorphic(graph, target.graph, max_n=max(DEFAULT_ISO_GUARD, graph.n))
    rows = [(val, "==", families.FAMILIES[kind].value(param)), (val, "==", bound), (int(iso), "==", 1)]
    return _report(tid, instance, rows, {"isomorphic_to": target.label()})


def check_odot_sharp(k: int) -> TheoremReport:
    """Clearing around a friendship centre turns F_k into the star K_{1,2k},
    achieving the clearing bound with equality."""
    f = families.friendship_graph(k)
    bound = _sdom_cert(f).value + _op_slack(f.degree(0))
    return _check_sharp("R_odot_sharp", f"odot(friendship({k}),v=0)", ops.odot(f, 0), bound, "star", 2 * k)


def check_chain_sharp_upper() -> TheoremReport:
    """Two paths P_3 chained at their middles give K_{1,4} and hit the upper bound."""
    p3 = families.path_graph(3)
    comp, _, (_, upper) = _glued_sandwich(ops.chain, [(p3, 1, 1), (p3, 1, 1)], 1)
    return _check_sharp("R_chain_sharp_upper", "chain(path(3)@1,path(3)@1)", comp.graph, upper[2], "star", 4)


def check_chain_sharp_lower() -> TheoremReport:
    """F_4 and F_5 chained at their centres give F_9 and hit the lower bound."""
    parts = [(families.friendship_graph(4), 0, 0), (families.friendship_graph(5), 0, 0)]
    comp, _, (lower, _) = _glued_sandwich(ops.chain, parts, 1)
    return _check_sharp("R_chain_sharp_lower", "chain(friendship(4)@0,friendship(5)@0)", comp.graph, lower[0], "friendship", 9)


def check_bouquet_sharp_lower(k: int) -> TheoremReport:
    """k copies of F_2 glued at their centres give F_{2k} and hit the lower bound."""
    comp, _, (lower, _) = _glued_sandwich(ops.bouquet, [(families.friendship_graph(2), 0)] * k, k - 1)
    return _check_sharp("R_bouquet_sharp_lower", f"bouquet({k} x friendship(2)@0)", comp.graph, lower[0], "friendship", 2 * k)


def check_bouquet_sharp_upper(k: int) -> TheoremReport:
    """k edges glued at one endpoint give K_{1,k} and hit the upper bound."""
    comp, _, (_, upper) = _glued_sandwich(ops.bouquet, [(families.path_graph(2), 0)] * k, k - 1)
    return _check_sharp("R_bouquet_sharp_upper", f"bouquet({k} x path(2)@0)", comp.graph, upper[2], "star", k)


# ---------------------------------------------------------------------------
# Instance pools


# The one table of config keys and limits: the JSON key of each field whose
# key is not its name, and the least value of each integer field (None where
# any integer will do).  docs/schemas/verify_config.schema.json promises the same.
_JSON_KEYS = {"p_values": "p"}
_MINIMUMS = {
    "count": 0, "n_min": 1, "n_max": 1, "seed": None,
    "family_max_order": 1, "union_pairs": 0, "chain_samples": 0, "bouquet_samples": 0, "guard": 1,
}


def _check_ints(record, prefix: str) -> None:
    """The integer fields of a config record must be ints (not bools) at or above their minimums."""
    for name, value in zip(record._fields, record):
        if name in _MINIMUMS:
            low = _MINIMUMS[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{prefix}{name} must be an integer, got {value!r}")
            if low is not None and value < low:
                raise ValueError(f"{prefix}{name} must be >= {low}, got {value}")


def _validated_make(cls, iterable):
    """A config record's ``_make``, which ``_replace`` calls: built through
    the constructor, so a replaced field is checked as a given one is."""
    return cls(*iterable)


class _GridFields(NamedTuple):
    count: int = 200
    n_min: int = 4
    n_max: int = 12
    p_values: Tuple[Fraction, ...] = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    seed: int = 42


class RandomGrid(_GridFields):
    """Replayable G(n,p) grid: instance i uses n cycling over [n_min, n_max],
    p cycling per full n-sweep, and seed base_seed + i.  Each p value is
    parsed by ``families._as_probability``, so ``"1/4"`` is stored as a Fraction.
    Construction and ``_replace`` check every field."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, *args, **kwargs):
        grid = super().__new__(cls, *args, **kwargs)
        _check_ints(grid, "random.")
        if grid.n_min > grid.n_max:
            raise ValueError(f"random grid needs n_min <= n_max, got n_min={grid.n_min}, n_max={grid.n_max}")
        try:
            p_values = tuple(map(families._as_probability, grid.p_values))
        except ValueError as exc:
            raise ValueError(f"random.p: {exc}") from None
        if grid.count and not p_values:
            raise ValueError("random grid with count > 0 needs at least one p value")
        return super().__new__(cls, grid.count, grid.n_min, grid.n_max, p_values, grid.seed)


def _gnp_stream(seed: int, n_min: int, n_max: int, p_values: Sequence[Fraction]) -> Iterator[Tuple[str, Graph]]:
    """The labelled G(n,p) draws of a :class:`RandomGrid`, without end."""
    span = n_max - n_min + 1
    for i in itertools.count():
        n = n_min + i % span
        p = p_values[(i // span) % len(p_values)]
        yield f"gnp(n={n},p={p},seed={seed + i})", families.gnp_random_graph(n, p, seed + i)


def random_pool(grid: RandomGrid) -> List[Tuple[str, Graph]]:
    return list(itertools.islice(_gnp_stream(grid.seed, grid.n_min, grid.n_max, grid.p_values), grid.count))


def family_pool(max_order: int) -> List[Tuple[str, Graph]]:
    """Every named-family instance of order <= max_order."""
    return [(inst.label(), inst.graph) for inst in families.family_grid(max_order)]


def connected_random_pool(
    count: int,
    seed: int,
    n_min: int = 4,
    n_max: int = 7,
    p_values: Tuple[Fraction, ...] = (Fraction(1, 2), Fraction(3, 4)),
) -> List[Tuple[str, Graph]]:
    """First ``count`` connected graphs from the seeded stream (disconnected
    draws are skipped, keeping the selection replayable)."""
    stream = _gnp_stream(seed, n_min, n_max, p_values)
    return list(itertools.islice((item for item in stream if item[1].is_connected()), count))


def _pick_vertex(seed: int, tag: str, n: int) -> int:
    draw = families._keyed_state(seed)
    draw.update(tag.encode())
    return int.from_bytes(draw.digest(), "little") % n


# ---------------------------------------------------------------------------
# Harness


class _ConfigFields(NamedTuple):
    theorems: Tuple[str, ...] = ALL_THEOREM_IDS
    family_max_order: int = 12
    random: RandomGrid = RandomGrid()
    union_pairs: int = 50
    chain_samples: int = 20
    bouquet_samples: int = 20
    guard: int = solver.DEFAULT_GUARD


class HarnessConfig(_ConfigFields):
    """What ``verify`` checks.  Construction and ``_replace`` check every
    field against the table of config limits above."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        _check_ints(cfg, "")
        bad = [t for t in cfg.theorems if t not in ALL_THEOREM_IDS]
        if bad:
            raise ValueError(f"unknown check identifiers: {bad}")
        return cfg


DEFAULT_CONFIG = HarnessConfig()


def _field_args(cls, data, where: str) -> Dict:
    """Constructor arguments of ``cls`` from a JSON object, checked for shape only:
    known keys, and a JSON list for each tuple-valued field."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    table = {_JSON_KEYS.get(name, name): name for name in cls._fields}
    extra = set(data) - set(table)
    if extra:
        raise ValueError(f"unknown {where} keys: {sorted(extra)}")
    args = {}
    for key, value in data.items():
        name = table[key]
        # a plain tuple default, not the RandomGrid record
        is_list = type(cls._field_defaults[name]) is tuple
        if is_list and not isinstance(value, list):
            raise ValueError(f"{where} key {key!r} must be a list, got {type(value).__name__}")
        args[name] = tuple(value) if is_list else value
    return args


def config_from_dict(data: Dict) -> HarnessConfig:
    """Build a config from parsed JSON; unknown keys are rejected.

    Values pass unconverted to the records, which check them.  A missing
    or empty ``theorems`` list selects nothing, so ``{}`` is the empty run.
    Other missing keys take the :class:`HarnessConfig` and
    :class:`RandomGrid` defaults.  Probabilities are strings or integers.
    """
    args = _field_args(HarnessConfig, data, "config")
    args.setdefault("theorems", ())
    args["random"] = RandomGrid(**_field_args(RandomGrid, args.get("random", {}), "random"))
    return HarnessConfig(**args)


def _echo(value):
    if isinstance(value, RandomGrid):
        return config_to_dict(value)
    return [str(v) for v in value] if isinstance(value, tuple) else value


def config_to_dict(cfg: HarnessConfig) -> Dict:
    """JSON echo of a config (or of its random grid), one key per field."""
    return {_JSON_KEYS.get(name, name): _echo(value) for name, value in zip(cfg._fields, cfg)}


def run_harness(cfg: HarnessConfig = DEFAULT_CONFIG) -> Tuple[List[TheoremReport], Dict]:
    """Evaluate every selected check over the configured instance grids.

    Reports come back sorted by (theorem_id, instance); the summary counts
    checks and failures per identifier.  Instances are derived purely from
    the config, so identical configs yield identical reports.  Every check
    instance is planned with the largest order it solves (its derived
    graphs included: unions, compositions, sharpness witnesses) before any
    runs, and a plan above the size guard is a ``ValueError`` naming the
    checks, rather than a size-guard error halfway through the run.  That
    is the only guard check of a harness solve: a plan's stated order must
    be the largest it solves, which the tests pin for every identifier.
    Every plan passes one filter, which keeps it under its selected ids
    and drops it if it has none.  Only two kinds of input are left undrawn
    when none of their ids is selected: the shared pool (the family and
    random graphs of ``T1``, the vertex checks and ``P_union``) and each
    glued check's parts.  ``family_max_order`` and the largest n the
    random grid draws are held to the guard when, and only when, the
    shared pool is drawn, before any of it is built.  A closed-form plan
    carries ``family_max_order`` as its order, so a closed form above the
    guard is refused by name.  :func:`check_closed_forms` runs once if any
    closed form is selected, and :func:`check_vertex` at each vertex whose
    degree class has a selected id; each reports all its ids, and only the
    selected ones are kept.
    """
    want = set(cfg.theorems)
    guard = cfg.guard
    # (the selected ids an entry reports under, the largest order it solves, its run)
    plans: List[Tuple[Sequence[str], int, Callable[[], List[TheoremReport]]]] = []

    def plan(ids: Sequence[str], order: int, run: Callable[[], List[TheoremReport]]) -> None:
        """Keep a plan under its selected ids, and drop a plan with none."""
        ids = [tid for tid in ids if tid in want]
        if ids:
            plans.append((ids, order, run))

    def plan_one(tid: str, order: int, check: Callable[..., TheoremReport], *args) -> None:
        plan((tid,), order, lambda: [check(*args)])

    pool: List[Tuple[str, Graph]] = []
    if want & {"T1", "P_union"}.union(*_VERTEX_IDS):
        if cfg.family_max_order > guard:
            raise ValueError(f"family_max_order {cfg.family_max_order} exceeds the size guard {guard}")
        grid = cfg.random
        if grid.count and min(grid.n_max, grid.n_min + grid.count - 1) > guard:  # the largest n drawn
            raise ValueError(f"random grid n_max {grid.n_max} exceeds the size guard {guard}")
        pool = family_pool(cfg.family_max_order) + random_pool(grid)

    for label, g in pool:
        if g.m:
            plan_one("T1", g.n, check_sandwich, g, label)

    closed = [f.check_id for f in families.FAMILIES.values() if f.check_id]
    plan(closed, cfg.family_max_order, partial(check_closed_forms, cfg.family_max_order))

    for label, g in [(label, g) for label, g in pool if g.n <= 10]:
        for v in range(g.n):
            plan(_VERTEX_IDS[min(g.degree(v), 2)], g.n, partial(check_vertex, g, v, label))

    for i in range(min(cfg.union_pairs, len(pool) // 2)):
        (l1, g1), (l2, g2) = pool[2 * i], pool[2 * i + 1]
        plan_one("P_union", g1.n + g2.n, _check_union, g1, g2, f"union({l1},{l2})")

    # (id, check, samples, seed offset, n_max, vertex tag, the tag suffixes of
    # each part's attach vertices: x and y in a longer chain, one vertex else)
    glued = [
        ("T_chain2", lambda parts, labels: check_chain2(*parts[0], *parts[1], labels),
         cfg.chain_samples, 100_000, 7, "chain2", [("y1",), ("x2",)]),
        ("C_chain_n", check_chain_n, cfg.chain_samples, 200_000, 6, "chainN", [(f"{j}:x", f"{j}:y") for j in range(3)]),
    ]
    glued += [
        (tid, check_bouquet, cfg.bouquet_samples, 300_000 + 1000 * k, 5, f"bouquet:{k}", [(str(j),) for j in range(k)])
        for k, tid in _BOUQUET_IDS.items()
    ]
    for tid, check, samples, offset, n_max, tag, ends in glued:
        if tid not in want:
            continue
        k = len(ends)
        parts = connected_random_pool(k * samples, cfg.random.seed + offset, n_min=4, n_max=n_max)
        for i in range(samples):
            drawn = parts[k * i:k * i + k]
            chosen = [
                (g, *[_pick_vertex(cfg.random.seed, f"{tag}:{i}:{end}", g.n) for end in part])
                for (_, g), part in zip(drawn, ends)
            ]
            plan_one(tid, ops._glued_order([g.n for _, g in drawn]), check, chosen, [label for label, _ in drawn])

    # Orders of the fixed witnesses: F_k has 2k+1 vertices, P_k has k.
    for k in range(2, 6):
        plan_one("R_odot_sharp", 2 * k + 1, check_odot_sharp, k)
    plan_one("R_chain_sharp_upper", ops._glued_order([3, 3]), check_chain_sharp_upper)
    plan_one("R_chain_sharp_lower", ops._glued_order([9, 11]), check_chain_sharp_lower)
    for k in (2, 3):
        plan_one("R_bouquet_sharp_lower", ops._glued_order([5] * k), check_bouquet_sharp_lower, k)
    for k in range(2, 11):
        plan_one("R_bouquet_sharp_upper", ops._glued_order([2] * k), check_bouquet_sharp_upper, k)

    over: Dict[str, int] = {}
    for ids, order, _ in plans:
        if order > guard:
            for tid in ids:
                over[tid] = max(order, over.get(tid, 0))
    if over:
        named = ", ".join(f"{tid} (order {order})" for tid, order in sorted(over.items()))
        raise ValueError(f"checks solve graphs above the size guard {guard}: {named}")

    reports = [r for _, _, run in plans for r in run() if r.theorem_id in want]
    reports.sort(key=attrgetter("theorem_id", "instance"))
    per: Dict[str, Dict[str, int]] = {}
    failed = 0
    for r in reports:
        slot = per.setdefault(r.theorem_id, {"checked": 0, "failed": 0})
        slot["checked"] += 1
        if not r.holds:
            slot["failed"] += 1
            failed += 1
    summary = {"total": len(reports), "failed": failed, "per_theorem": per}
    return reports, summary


def report_document(reports: List[TheoremReport], summary: Dict, cfg: HarnessConfig) -> str:
    """Canonical JSON for a harness run (sorted keys, stable ordering).

    The text is byte for byte ``json.dumps(doc, sort_keys=True, indent=2)``
    plus a newline, for ``doc`` the config echo, each report as an object
    of its seven fields (lhs and rhs through :func:`_num`) and the summary.
    ``report_dict`` in ``tests/test_theorems.py`` builds that object, the
    reference the tests compare these bytes against.  One :func:`dumps`
    call, the package's one JSON writer, writes the whole document; the
    reports go to it as a generator, so each report's object is built and
    written in turn and only the row texts, never every row's object, are
    held at once.  Anything a report never holds (a float, a ``Fraction``
    outside lhs and rhs, ``None``, a tuple, a non-str key) is a
    ``TypeError``, so no other bytes are silently written.
    """
    rows = ({
        "holds": r.holds,
        "instance": r.instance,
        "lhs": [_num(x) for x in r.lhs],
        "relations": list(r.relations),
        "rhs": [_num(x) for x in r.rhs],
        "theorem_id": r.theorem_id,
        "witness": r.witness,
    } for r in reports)
    return dumps({"config": config_to_dict(cfg), "reports": rows, "summary": summary}) + "\n"
