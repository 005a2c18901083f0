"""Generators for the named graph families plus seeded G(n,p) instances.

:data:`FAMILIES` is the one table of what is known about each family: its
generator, parameter names, distinguished vertices, the parameter grid
the harness draws from, and the closed form of gamma_sp with the check
identifier that verifies it.  ``gen``, :func:`build_family`,
``theorems.family_pool``, ``theorems.check_closed_forms`` and the
sharpness checks all read it.  The generators hand :class:`Graph` lazy
edge iterables, so an order above ``graph.MAX_ORDER`` is refused before
any edge is built.

Labelling conventions are part of the contract here, since downstream
checks attach compositions at specific vertices:

* paths: vertices 0..n-1 in path order;
* cycles: cyclic order 0,1,...,n-1,0;
* complete bipartite K_{a,b}: first part 0..a-1, second part a..a+b-1;
* stars K_{1,n}: centre 0, leaves 1..n;
* friendship F_n: centre 0 with the n triangles {0, 2i-1, 2i}.

``gen``, ``gen -h`` and ``verify`` import this module, so it imports at
the top only what building the table needs.  ``fractions`` (which loads
``decimal``) is imported in :func:`_as_probability`, and
``hashlib.blake2b`` (which loads OpenSSL) in :func:`_keyed_state`, so
only ``gen gnp_random`` and the harness load them.  The ``blake2b`` import, and the keying of the hash
state, run once per graph; each vertex pair copies that keyed state, which
digests its index exactly as a freshly keyed ``blake2b`` would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple, Union

from .graph import Graph

if TYPE_CHECKING:
    from fractions import Fraction

RationalLike = Union["Fraction", int, str, Tuple[int, int]]


def path_graph(n: int) -> Graph:
    """Path P_n on n >= 1 vertices."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle C_n on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    """Complete graph K_n on n >= 1 vertices."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite K_{a,b} with parts 0..a-1 and a..a+b-1."""
    if min(a, b) < 1:
        raise ValueError(f"complete bipartite needs both parts >= 1, got ({a}, {b})")
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def star_graph(n: int) -> Graph:
    """Star K_{1,n}: centre 0 joined to leaves 1..n."""
    if n < 1:
        raise ValueError(f"star needs n >= 1 leaves, got {n}")
    return Graph(n + 1, ((0, i) for i in range(1, n + 1)))


def friendship_graph(n: int) -> Graph:
    """Friendship graph F_n: n triangles sharing the centre vertex 0.

    Order 2n+1 and size 3n; triangle i is {0, 2i-1, 2i}.  The centre
    labelling is a documented contract relied on by the composition checks.
    """
    if n < 1:
        raise ValueError(f"friendship graph needs n >= 1, got {n}")
    triangles = ((2 * i - 1, 2 * i) for i in range(1, n + 1))
    return Graph(2 * n + 1, (e for a, b in triangles for e in ((0, a), (0, b), (a, b))))


def _as_probability(p: RationalLike) -> Fraction:
    """The one parser of edge probabilities: a ``RationalLike`` in [0, 1]."""
    from fractions import Fraction

    if isinstance(p, bool) or not isinstance(p, (Fraction, int, str, tuple)):
        raise ValueError(f"edge probability must be a fraction, an integer or a string, got {p!r}")
    try:
        p = Fraction(*p) if isinstance(p, tuple) else Fraction(p)
    except ZeroDivisionError:
        raise ValueError(f"edge probability {p!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"edge probability {p!r} is not a fraction") from None
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    return p


def _keyed_state(seed: int):
    """A fresh BLAKE2b state keyed by ``seed`` (reduced mod 2**64, 8 bytes
    little-endian) with an 8-byte digest: the one rule every seeded draw
    in the package follows.  A draw copies or updates it with its own
    message, such as a pair index here or a tag in the harness."""
    from hashlib import blake2b

    return blake2b(key=(seed % (1 << 64)).to_bytes(8, "little"), digest_size=8)


def gnp_random_graph(n: int, p: RationalLike, seed: int) -> Graph:
    """G(n,p) with a counter-based keyed BLAKE2b stream.

    Pair t (the lexicographic index of (u, v), u < v) becomes an edge iff
    the 64-bit draw r_t satisfies r_t * den < num * 2**64, with p = num/den
    held exactly as a rational.  Same (n, p, seed) gives the same edge set
    on every platform; no global RNG state is involved.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    p = _as_probability(p)
    keyed = _keyed_state(seed)
    num, den = p.numerator, p.denominator
    bound = num << 64

    def edges() -> Iterator[Tuple[int, int]]:
        t = 0
        for u in range(n):
            for v in range(u + 1, n):
                draw = keyed.copy()
                draw.update(t.to_bytes(8, "little"))
                if int.from_bytes(draw.digest(), "little") * den < bound:
                    yield u, v
                t += 1

    return Graph(n, edges())


class Family(NamedTuple):
    """Everything stated about one named family.

    ``grid(max_order)`` yields the parameter tuples of the harness pool, in
    pool order.  Where ``in_domain`` holds, gamma_sp of the instance equals
    ``value(*params)``, and the harness checks that under ``check_id``.
    """

    build: Callable[..., Graph]
    params: Tuple[str, ...]
    distinguished: Callable[..., Dict[str, int]] = lambda *params: {}
    grid: Callable[[int], Iterable[Tuple[int, ...]]] = lambda max_order: ()
    check_id: Optional[str] = None
    value: Optional[Callable[..., int]] = None
    in_domain: Callable[..., bool] = lambda *params: True


def _orders(lo: int, hi: int) -> Iterator[Tuple[int]]:
    return ((n,) for n in range(lo, hi + 1))


FAMILIES: Dict[str, Family] = {
    "path": Family(
        path_graph, ("n",),
        distinguished=lambda n: {"start": 0, "end": n - 1},
        grid=lambda m: _orders(1, m),
        check_id="T2i", value=lambda n: (n + 1) // 2, in_domain=lambda n: n >= 3,
    ),
    "cycle": Family(
        cycle_graph, ("n",),
        grid=lambda m: _orders(3, m),
        check_id="T2ii", value=lambda n: (n + 1) // 2 if n % 4 in (0, 3) else (n + 2) // 2,
    ),
    "complete": Family(
        complete_graph, ("n",),
        grid=lambda m: _orders(1, m),
        check_id="T2iii", value=lambda n: n - 1, in_domain=lambda n: n >= 2,
    ),
    "complete_bipartite": Family(
        complete_bipartite_graph, ("a", "b"),
        distinguished=lambda a, b: {"first_of_part_a": 0, "first_of_part_b": a},
        grid=lambda m: ((a, b) for a in range(2, m + 1) for b in range(a, m - a + 1)),
        check_id="T2iv", value=lambda a, b: a + b - 2, in_domain=lambda a, b: min(a, b) >= 2,
    ),
    "star": Family(
        star_graph, ("leaves",),
        distinguished=lambda leaves: {"center": 0},
        grid=lambda m: _orders(1, m - 1),
        check_id="T2v", value=lambda leaves: leaves,
    ),
    "friendship": Family(
        friendship_graph, ("k",),
        distinguished=lambda k: {"center": 0},
        grid=lambda m: _orders(1, (m - 1) // 2),
        check_id="T_Fn", value=lambda k: k + 1,
    ),
    "gnp_random": Family(
        lambda n, num, den, seed: gnp_random_graph(n, (num, den), seed),
        ("n", "p_numerator", "p_denominator", "seed"),
    ),
}

FAMILY_KINDS = tuple(FAMILIES)


class FamilyInstance(NamedTuple):
    """A generated family member together with its replay parameters."""

    kind: str
    params: Tuple[int, ...]
    graph: Graph
    distinguished: Dict[str, int]

    def label(self) -> str:
        inner = ",".join(str(x) for x in self.params)
        return f"{self.kind}({inner})"


def build_family(kind: str, params: Tuple[int, ...]) -> FamilyInstance:
    """Build a family member from (kind, integer params), the params named
    by ``FAMILIES[kind].params``."""
    family = FAMILIES.get(kind)
    if family is None:
        raise ValueError(f"unknown family kind {kind!r}, expected one of {FAMILY_KINDS}")
    if len(params) != len(family.params):
        raise ValueError(
            f"{kind} takes {len(family.params)} parameter(s) ({' '.join(family.params)}), "
            f"got {len(params)}"
        )
    return FamilyInstance(kind, tuple(params), family.build(*params), family.distinguished(*params))


def family_grid(max_order: int) -> Iterator[FamilyInstance]:
    """Every grid instance of order <= max_order, family by family in table order."""
    for kind, family in FAMILIES.items():
        for params in family.grid(max_order):
            yield build_family(kind, params)
