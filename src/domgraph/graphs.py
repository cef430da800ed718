"""Simple undirected graphs: named families, graph products, serialization.

Vertices are 0-based internally and 1-based on every external surface
(JSON, DOT, printed labels).  Graphs are immutable and capped at 63
vertices, so any vertex subset fits one machine word as a bitmask.
Graph(n, edges) checks and canonicalizes every graph however it is made,
so the families and products restate none of its checks.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DegenerateFamilyError, InvalidSizeError, InvalidSubsetError

MAX_VERTICES = 63

FAMILY_KINDS = ("path", "cycle", "complete", "empty")


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with per-vertex closed-neighborhood bitmasks.

    Graph(n, edges) raises InvalidSizeError unless 1 <= n <= 63 and each
    0-based pair of edges joins two distinct vertices in 0..n-1.  It reads n
    and each endpoint as an int (through operator.index) and stores edges as
    each pair once, (u, v) with u < v, sorted lexicographically.
    closed_nbhd[v] is the bitmask of N[v]; bit v is always set.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    closed_nbhd: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        n = operator.index(self.n)
        if n < 1:
            raise InvalidSizeError(f"a graph needs at least one vertex, got n={n}")
        if n > MAX_VERTICES:
            raise InvalidSizeError(
                f"n={n} exceeds the {MAX_VERTICES}-vertex single-word bitmask budget"
            )
        canon = set()
        for u, v in self.edges:
            u, v = operator.index(u), operator.index(v)  # TypeError unless integers, NumPy's too
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidSizeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidSizeError(f"self-loop at vertex {u} (graphs are simple)")
            canon.add((u, v) if u < v else (v, u))
        edges = tuple(sorted(canon))
        # a plain attribute, not a cached_property, whose reads cost 3x on Python 3.11
        nbhd = [1 << v for v in range(n)]
        for u, v in edges:
            nbhd[u] |= 1 << v
            nbhd[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "closed_nbhd", tuple(nbhd))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.closed_nbhd[v].bit_count() - 1

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in range(self.n))

    def edges_1based(self) -> tuple[tuple[int, int], ...]:
        return tuple((u + 1, v + 1) for u, v in self.edges)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph from 0-based endpoint pairs: Graph(n, edges)."""
    return Graph(n, edges)


def make_family(kind: str, n: int) -> Graph:
    """Construct P_n, C_n, K_n, or the edgeless graph O_n with labels 1..n."""
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family {kind!r}, expected one of {FAMILY_KINDS}")
    # lazy edges: Graph checks n before it reads them, so a huge n allocates nothing
    if kind == "path":
        return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "cycle":
        if n < 3:
            raise DegenerateFamilyError(
                f"C_{n} is not a simple cycle; cycles need n >= 3"
            )
        return graph_from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    if kind == "complete":
        return graph_from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))
    return graph_from_edges(n, [])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between the two vertex sets.

    g's vertices come first, then h's shifted by g.n.
    """
    edges = list(g.edges)
    edges += [(g.n + u, g.n + v) for u, v in h.edges]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return graph_from_edges(g.n + h.n, edges)


def corona(g: Graph, h: Graph) -> Graph:
    """One copy of g and g.n copies of h, vertex i of g joined to all of copy i.

    Layout: g's vertices 0..p-1, then copy i of h at p + i*q .. p + i*q + q - 1.
    """
    p, q = g.n, h.n
    edges = list(g.edges)
    for i in range(p):
        base = p + i * q
        edges += [(base + u, base + v) for u, v in h.edges]
        edges += [(i, base + v) for v in range(q)]
    return graph_from_edges(p * (1 + q), edges)


def cartesian(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u1,v1) ~ (u2,v2) iff equal in one coordinate and
    adjacent in the other.  Pair (u, v) maps to index u*h.n + v.
    """
    edges = []
    for u in range(g.n):
        for a, b in h.edges:
            edges.append((u * h.n + a, u * h.n + b))
    for a, b in g.edges:
        for v in range(h.n):
            edges.append((a * h.n + v, b * h.n + v))
    return graph_from_edges(g.n * h.n, edges)


def ladder(n: int) -> Graph:
    """The ladder L_n, the cartesian product of P_n with K_2 (2n vertices)."""
    if n < 1:
        raise InvalidSizeError(f"ladder L_n needs n >= 1, got n={n}")
    return cartesian(make_family("path", n), make_family("complete", 2))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0 covers all vertices."""
    reach = 1
    while True:
        nxt = reach
        m = reach
        while m:
            v = (m & -m).bit_length() - 1
            nxt |= g.closed_nbhd[v]
            m &= m - 1
        if nxt == reach:
            return reach == g.full_mask
        reach = nxt


# ---------------------------------------------------------------------------
# Vertex subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexSubset:
    """A set of vertices encoded as a bitmask over 0..n-1."""

    bits: int

    def __post_init__(self):
        if type(self.bits) is not int:  # NumPy integers too; TypeError unless an integer
            object.__setattr__(self, "bits", operator.index(self.bits))
        if self.bits < 0:
            raise InvalidSubsetError("subset bitmask must be nonnegative")

    @property
    def card(self) -> int:
        return self.bits.bit_count()

    def vertices(self) -> tuple[int, ...]:
        """Members as sorted 1-based labels."""
        return tuple(v + 1 for v in range(self.bits.bit_length()) if self.bits >> v & 1)

    @staticmethod
    def from_vertices(vertices: Iterable[int]) -> "VertexSubset":
        """Build from 1-based labels."""
        bits = 0
        for v in vertices:
            if v < 1:
                raise InvalidSubsetError(f"vertex labels are 1-based, got {v}")
            bits |= 1 << (v - 1)
        return VertexSubset(bits)

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.vertices()) + "}"


def subset_bits(g: Graph, subset) -> int:
    """Normalize a subset (VertexSubset, bitmask integer such as a NumPy
    uint64, or iterable of 1-based labels) to a bitmask, validating it
    against g's vertex range."""
    if isinstance(subset, VertexSubset):
        subset = subset.bits
    try:
        bits = operator.index(subset)
    except TypeError:
        bits = VertexSubset.from_vertices(subset).bits
    if bits < 0 or bits > g.full_mask:
        raise InvalidSubsetError(
            f"subset {bin(bits)} out of range for a graph on {g.n} vertices"
        )
    return bits


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges_1based()]}


def to_json(g: Graph) -> str:
    return json.dumps(to_json_obj(g))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_obj(obj: dict) -> Graph:
    n = obj["n"]
    if not _is_int(n):
        raise InvalidSizeError(f"graph JSON needs an integer n, got {n!r}")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise InvalidSizeError(f"graph JSON edges must be a list, got {edges!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and e[0] != e[1]
                and all(_is_int(x) and 1 <= x <= n for x in e)):
            raise InvalidSizeError(f"graph JSON edge {e!r} is not two distinct labels in 1..{n}")
    return graph_from_edges(n, [(u - 1, v - 1) for u, v in edges])


def from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    # json.loads raises RecursionError on input nested deeper than the recursion limit
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidSizeError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidSizeError('graph JSON must look like {"n": 3, "edges": [[1,2],...]}')
    return from_json_obj(obj)


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  v{v + 1};")
    for u, v in g.edges:
        lines.append(f"  v{u + 1} -- v{v + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
