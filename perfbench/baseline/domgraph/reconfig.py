"""The k-dominating graph D_k(G) and its structural analysis.

Nodes are the dominating sets of G with cardinality at most k; two nodes
are adjacent iff the sets differ by adding or deleting a single vertex.
Node ids are positions in the DomFamily sort order (cardinality, then
bitmask), so exports are deterministic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .domination import ENUMERATION_CAP, DomFamily, enumerate_dominating
from .errors import EmptyGraphError, TooLargeError
from .graphs import Graph

HAMILTONIAN_ORDER_CAP = 20


@dataclass(frozen=True)
class ReconfigGraph:
    """D_k(G) with cached degrees and component labels.

    empty is a warning flag: k < gamma(G) gives a valid graph with no nodes
    rather than an error, so callers can probe k ranges.
    """

    base_n: int
    k: int
    nodes: DomFamily
    adj: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    component: tuple[int, ...]
    empty: bool

    @property
    def order(self) -> int:
        return len(self.adj)

    @property
    def size(self) -> int:
        return sum(self.degrees) // 2

    def node_id(self, bits: int) -> int:
        """Node id of the dominating set with this bitmask (KeyError if absent)."""
        for i, s in enumerate(self.nodes.sets):
            if s.bits == bits:
                return i
        raise KeyError(f"no node with bitmask {bin(bits)}")


def build(
    g: Graph, k: int | None = None, *, cap: int = ENUMERATION_CAP, method: str = "prune"
) -> ReconfigGraph:
    """Construct D_k(G); k defaults to n.

    Adjacency is built by toggling each of the n bits of every node and
    looking the result up in a bitmask index, O(order * n) instead of the
    quadratic pairwise check.
    """
    if k is None:
        k = g.n
    family = enumerate_dominating(g, k, cap=cap, method=method)
    index = {s.bits: i for i, s in enumerate(family.sets)}
    adj: list[list[int]] = [[] for _ in family.sets]
    for i, s in enumerate(family.sets):
        for v in range(g.n):
            j = index.get(s.bits ^ (1 << v))
            if j is not None:
                adj[i].append(j)
    adj_t = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    degrees = tuple(len(nbrs) for nbrs in adj_t)
    return ReconfigGraph(
        base_n=g.n,
        k=k,
        nodes=family,
        adj=adj_t,
        degrees=degrees,
        component=_component_labels(adj_t),
        empty=not family.sets,
    )


def _component_labels(adj) -> tuple[int, ...]:
    labels = [-1] * len(adj)
    current = 0
    for start in range(len(adj)):
        if labels[start] != -1:
            continue
        labels[start] = current
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if labels[y] == -1:
                    labels[y] = current
                    queue.append(y)
        current += 1
    return tuple(labels)


def bipartition(r: ReconfigGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(odd-cardinality node ids, even-cardinality node ids).

    Every move changes cardinality by one, so every edge crosses the parts.
    """
    odd = tuple(i for i, s in enumerate(r.nodes.sets) if s.card % 2 == 1)
    even = tuple(i for i, s in enumerate(r.nodes.sets) if s.card % 2 == 0)
    return odd, even


def degree_extremes(r: ReconfigGraph) -> tuple[int, int]:
    """(min degree, max degree)."""
    if r.order == 0:
        raise EmptyGraphError("degree extremes of an empty reconfiguration graph")
    return min(r.degrees), max(r.degrees)


def is_regular(r: ReconfigGraph) -> bool:
    if r.order == 0:
        raise EmptyGraphError("regularity of an empty reconfiguration graph")
    return len(set(r.degrees)) == 1


def connected_components(r: ReconfigGraph) -> tuple[int, tuple[int, ...]]:
    """(component count, per-node component label); 0 components when empty."""
    count = max(r.component) + 1 if r.component else 0
    return count, r.component


def distance(r: ReconfigGraph, a: int, b: int) -> int | None:
    """Breadth-first hop count between node ids; None when unreachable."""
    if not (0 <= a < r.order and 0 <= b < r.order):
        raise ValueError(f"node ids must be in 0..{r.order - 1}")
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        for y in r.adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == b:
                    return dist[y]
                queue.append(y)
    return None


def euler_status(r: ReconfigGraph) -> str:
    """'eulerian', 'trail-only', or 'neither'.

    Connectivity plus the odd-degree count decides: 0 odd vertices gives a
    closed tour, exactly 2 an open trail.  A single node is vacuously
    eulerian; a disconnected graph is neither.
    """
    if r.order == 0:
        return "eulerian"
    if max(r.component) + 1 > 1:
        return "neither"
    odd = sum(1 for d in r.degrees if d % 2)
    if odd == 0:
        return "eulerian"
    if odd == 2:
        return "trail-only"
    return "neither"


def is_hamiltonian(r: ReconfigGraph, *, max_order: int = HAMILTONIAN_ORDER_CAP) -> bool:
    """Exact Hamiltonian-cycle decision by subset dynamic programming.

    ends[S] is the bitmask of vertices where a simple path from node 0
    covering exactly S can end; a cycle exists iff some end at the full
    subset is adjacent to node 0.  Exponential in the order, hence the cap.
    """
    if r.order > max_order:
        raise TooLargeError(
            f"order {r.order} exceeds the Hamiltonian search cap {max_order}"
        )
    n = r.order
    if n < 3:
        return False
    if min(r.degrees) < 2:
        return False
    if max(r.component) + 1 > 1:
        return False
    adj_mask = [0] * n
    for i, nbrs in enumerate(r.adj):
        for j in nbrs:
            adj_mask[i] |= 1 << j
    size = 1 << n
    ends = [0] * size
    ends[1] = 1
    for s in range(1, size, 2):  # only subsets containing node 0
        e = ends[s]
        if not e:
            continue
        m = e
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            ext = adj_mask[v] & ~s
            t = ext
            while t:
                w = (t & -t).bit_length() - 1
                t &= t - 1
                ends[s | (1 << w)] |= 1 << w
    return bool(ends[size - 1] & adj_mask[0])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def edge_list(r: ReconfigGraph) -> list[tuple[int, int]]:
    """Edges as (i, j) with i < j, sorted."""
    return sorted((i, j) for i, nbrs in enumerate(r.adj) for j in nbrs if i < j)


def to_json_obj(r: ReconfigGraph) -> dict:
    return {
        "base_n": r.base_n,
        "k": r.k,
        "nodes": r.nodes.to_json_obj(),
        "edges": [[i, j] for i, j in edge_list(r)],
    }


def to_json(r: ReconfigGraph) -> str:
    return json.dumps(to_json_obj(r))


def to_dot(r: ReconfigGraph, name: str = "D") -> str:
    lines = [f"graph {name} {{"]
    for i, s in enumerate(r.nodes.sets):
        lines.append(f'  s{i} [label="{s}"];')
    for i, j in edge_list(r):
        lines.append(f"  s{i} -- s{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
