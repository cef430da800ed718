"""The k-dominating graph D_k(G) and its structural analysis.

Nodes are the dominating sets of G with cardinality at most k; two nodes
are adjacent iff the sets differ by adding or deleting a single vertex.
Node ids are positions in the DomFamily sort order (cardinality, then
bitmask), so exports are deterministic.

A ReconfigGraph is a handful of NumPy arrays indexed by node id:

* ``bits`` (uint64): the node's dominating set as a bitmask;
* ``cards`` (uint8): its cardinality, so each cardinality is one block of
  ids, sorted by bitmask inside the block;
* ``indptr`` (int64) and ``indices`` (int32): the adjacency in CSR form,
  the neighbours of node i being ``indices[indptr[i]:indptr[i + 1]]`` in
  increasing order;
* ``component``: the component label, components numbered by their
  smallest node id.

Adjacency is found by toggling one vertex bit of every node at once and
looking the results up.  While the dense id map of 2^n int32 entries is no
larger than the order x n neighbour matrix it fills (2^n <= order * n),
the lookup is one gather from it; otherwise it is ``np.searchsorted`` in a
value-sorted copy of ``bits``, so the lookup never needs more memory than
the matrix.
Analysis works on the arrays: breadth-first levels are masks over node
ids, and the Hamiltonian search keeps its layers as uint32 arrays.
Export formats the node labels from ``bits`` through
``domination.subset_texts`` and the edges from the upper CSR entries, with
no Python object per node; ``nodes`` is a DomFamily over ``bits`` whose
VertexSubset objects are made only when a caller reads them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domination import ENUMERATION_CAP, DomFamily, enumerate_dominating, subset_texts
from .errors import EmptyGraphError, TooLargeError
from .graphs import Graph

HAMILTONIAN_ORDER_CAP = 20


@dataclass(frozen=True, eq=False)
class ReconfigGraph:
    """D_k(G) as node bitmask, cardinality, CSR adjacency and component arrays.

    empty is a warning flag: k < gamma(G) gives a valid graph with no nodes
    rather than an error, so callers can probe k ranges.
    """

    base_n: int
    k: int
    bits: np.ndarray
    cards: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    component: np.ndarray
    empty: bool

    @property
    def order(self) -> int:
        return len(self.bits)

    @property
    def size(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        degrees = np.diff(self.indptr)
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def nodes(self) -> DomFamily:
        return DomFamily(self.base_n, self.k, self.bits)

    def node_id(self, bits: int) -> int:
        """Node id of the dominating set with this bitmask (KeyError if absent)."""
        bits = operator.index(bits)  # TypeError unless an integer, NumPy's too
        if 0 <= bits < 1 << self.base_n:
            # binary search inside the block of ids with this cardinality
            lo, hi = np.searchsorted(self.cards, [bits.bit_count(), bits.bit_count() + 1])
            i = lo + int(np.searchsorted(self.bits[lo:hi], np.uint64(bits)))
            if i < hi and self.bits[i] == bits:
                return int(i)
        raise KeyError(f"no node with bitmask {bin(bits)}")


def build(g: Graph, k: int | None = None, *, cap: int = ENUMERATION_CAP) -> ReconfigGraph:
    """Construct D_k(G) on the sets enumerate_dominating returns; k defaults to n.

    Adjacency toggles each of the n bits of every node at once and looks
    the results up, one gather each from a 2^n id map while 2^n <= order * n
    and a binary search otherwise, then sorts each row of n candidates:
    O(order * n log n) with the map and O(order * n log order) without it,
    instead of the quadratic pairwise check.  Components take one
    breadth-first search from node 0, which covers D_n(G), and label
    propagation only for the nodes it leaves over.
    """
    nodes = enumerate_dominating(g, k, cap=cap)
    bits = nodes.bits
    cards = np.bitwise_count(bits)
    indptr, indices = _adjacency(bits, g.n)
    component = _component_labels(indptr, indices)
    for a in (bits, cards, indptr, indices, component):
        a.flags.writeable = False  # the graph is frozen; degrees and nodes are cached from these
    return ReconfigGraph(g.n, nodes.k, bits, cards, indptr, indices, component, empty=not bits.size)


def _adjacency(bits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    order = len(bits)
    indptr = np.zeros(order + 1, dtype=np.int64)
    # column v: the id of bits ^ (1 << v), or the sentinel `order` when that set is
    # not a node; sorting each row puts the ids in order and the sentinels last
    nbr = np.empty((order, n), dtype=np.int32)
    (_map_columns if 1 << n <= order * n else _search_columns)(bits, nbr)
    nbr.sort(axis=1)
    present = nbr < order
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    return indptr, nbr[present]


def _map_columns(bits: np.ndarray, nbr: np.ndarray) -> None:
    """Fill the toggle columns from an id map over all 2^n bitmasks, one gather each."""
    order, n = nbr.shape
    ids = np.full(1 << n, order, dtype=np.int32)
    ids[bits] = np.arange(order, dtype=np.int32)
    for v in range(n):
        np.take(ids, bits ^ np.uint64(1 << v), out=nbr[:, v])


def _search_columns(bits: np.ndarray, nbr: np.ndarray) -> None:
    """Fill the toggle columns by binary search in a value-sorted copy of bits."""
    order, n = nbr.shape
    by_value = np.argsort(bits)
    values = bits[by_value]
    for v in range(n):
        toggled = bits ^ np.uint64(1 << v)
        pos = np.searchsorted(values, toggled)
        np.minimum(pos, order - 1, out=pos)
        nbr[:, v] = np.where(values[pos] == toggled, by_value[pos], order)


def _component_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-node component label, components numbered by their smallest node id.

    One breadth-first search labels node 0's component 0; it reaches every
    node of D_n(G), which is connected.  The nodes it leaves over take label
    propagation: each takes the smallest label among itself and its
    neighbours, then the label of its label (pointer jumping), until nothing
    changes.  Labels only fall and stay node ids of the component, so the
    fixed point labels every node with its component's smallest id.  One
    search per component would be one per node on edgeless D_1(K_n).
    """
    order = len(indptr) - 1
    seen = np.arange(order) == 0
    for _ in _frontiers(indptr, indices, seen):
        pass
    labels = np.arange(order)
    labels[seen] = 0
    # gather the leftover rows alone: a reduceat segment runs to the next start
    rest = np.flatnonzero(~seen & (np.diff(indptr) > 0))
    nbrs, lengths = _rows(indptr, indices, rest)
    starts = np.cumsum(lengths) - lengths
    while rest.size:
        low = labels.copy()
        low[rest] = np.minimum(labels[rest], np.minimum.reduceat(labels[nbrs], starts))
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    roots = labels == np.arange(order)
    return (np.cumsum(roots) - 1)[labels]


def bipartition(r: ReconfigGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(odd-cardinality node ids, even-cardinality node ids).

    Every move changes cardinality by one, so every edge crosses the parts.
    """
    odd = r.cards % 2 == 1
    return tuple(np.flatnonzero(odd).tolist()), tuple(np.flatnonzero(~odd).tolist())


def degree_extremes(r: ReconfigGraph) -> tuple[int, int]:
    """(min degree, max degree)."""
    if r.order == 0:
        raise EmptyGraphError("degree extremes of an empty reconfiguration graph")
    return int(r.degrees.min()), int(r.degrees.max())


def is_regular(r: ReconfigGraph) -> bool:
    if r.order == 0:
        raise EmptyGraphError("regularity of an empty reconfiguration graph")
    return bool((r.degrees == r.degrees[0]).all())


def connected_components(r: ReconfigGraph) -> tuple[int, tuple[int, ...]]:
    """(component count, per-node component label); 0 components when empty."""
    return _component_count(r), tuple(r.component.tolist())


def _component_count(r: ReconfigGraph) -> int:
    return int(r.component.max()) + 1 if r.order else 0


def _rows(indptr: np.ndarray, indices: np.ndarray,
          ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of the nodes ids, concatenated, and the length of each row."""
    starts = indptr[ids]
    lengths = indptr[ids + 1] - starts
    ends = np.cumsum(lengths)
    offsets = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)
    return indices[offsets], lengths


def _frontiers(indptr: np.ndarray, indices: np.ndarray, seen: np.ndarray):
    """Breadth-first levels from the nodes marked in seen: yields the ids of
    each nonempty level in turn, depth 1 first, and marks them in seen."""
    frontier = np.flatnonzero(seen)
    while True:
        level = np.zeros(len(seen), dtype=bool)
        level[_rows(indptr, indices, frontier)[0]] = True
        level &= ~seen
        seen |= level
        frontier = np.flatnonzero(level)
        if not frontier.size:
            return
        yield frontier


def _node_ids(r: ReconfigGraph, *ids) -> list[int]:
    """The ids as ints; ValueError unless each is an integer (NumPy's too) in 0..order-1."""
    try:
        ids = [operator.index(i) for i in ids]
    except TypeError:
        pass  # not all integers: refused below
    if not all(isinstance(i, int) and 0 <= i < r.order for i in ids):
        raise ValueError(f"node ids must be in 0..{r.order - 1}")
    return ids


def distance(r: ReconfigGraph, a: int, b: int) -> int | None:
    """Breadth-first hop count between node ids; None when unreachable.

    The search runs from both ends, each step growing the smaller frontier
    by one level.  The balls of radii d_a and d_b were disjoint before the
    step, so d(a, b) > d_a + d_b, and the first new level that meets the
    other side's ball gives d(a, b) = d_a + d_b + 1 exactly.
    """
    a, b = _node_ids(r, a, b)
    if a == b:
        return 0
    seen = [np.arange(r.order) == a, np.arange(r.order) == b]
    searches = [_frontiers(r.indptr, r.indices, mask) for mask in seen]
    sizes = [1, 1]
    depth = 0
    while True:
        side = int(sizes[1] < sizes[0])
        frontier = next(searches[side], None)
        if frontier is None:
            return None
        depth += 1
        if seen[1 - side][frontier].any():
            return depth
        sizes[side] = frontier.size


def distance_row(r: ReconfigGraph, a: int) -> np.ndarray:
    """Hop counts from node a to every node, -1 where unreachable."""
    [a] = _node_ids(r, a)
    row = np.full(r.order, -1)
    row[a] = 0
    for depth, frontier in enumerate(_frontiers(r.indptr, r.indices, np.arange(r.order) == a), 1):
        row[frontier] = depth
    return row


def euler_status(r: ReconfigGraph) -> str:
    """'eulerian', 'trail-only', or 'neither'.

    Connectivity plus the odd-degree count decides: 0 odd vertices gives a
    closed tour, exactly 2 an open trail, and a disconnected graph neither.
    A single node and an empty D_k(G) (no odd degree) are vacuously eulerian.
    """
    if _component_count(r) > 1:
        return "neither"
    odd = np.count_nonzero(r.degrees % 2)
    if odd == 0:
        return "eulerian"
    if odd == 2:
        return "trail-only"
    return "neither"


def is_hamiltonian(r: ReconfigGraph) -> bool:
    """Exact Hamiltonian-cycle decision by subset dynamic programming.

    Layer j holds the vertex set S of each simple path of j + 1 nodes from
    node 0 (``sets``) and the bitmask of the nodes where such a path can end
    (``ends``), as uint32 arrays, so only reachable sets are stored.  One
    broadcast lists every extension (S, w) by an end's neighbour w outside
    S; sorting the grown sets and OR-ing w's bit over each run of equal sets
    gives the next layer.  A cycle exists iff some end at the full set is
    adjacent to node 0, so pendant nodes and split graphs need no check.
    Exponential in the order, hence the cap.  Every edge changes the
    cardinality parity, so parity classes of unequal size decide False first.
    """
    n = r.order
    if n > HAMILTONIAN_ORDER_CAP:
        raise TooLargeError(f"order {n} exceeds the Hamiltonian search cap {HAMILTONIAN_ORDER_CAP}")
    if n < 3:  # the search would take the 2-node path for a cycle
        return False
    if 2 * np.count_nonzero(r.cards % 2) != n:
        return False
    bit = np.uint32(1) << np.arange(n, dtype=np.uint32)
    adj = np.zeros(n, dtype=np.uint32)  # adj[w]: the bitmask of w's neighbours
    np.bitwise_or.at(adj, np.repeat(np.arange(n), r.degrees), bit[r.indices])
    sets = ends = bit[:1]
    for _ in range(n - 1):
        si, w = np.nonzero(((ends[:, None] & adj) != 0) & ((sets[:, None] & bit) == 0))
        if not si.size:
            return False
        grown = sets[si] | bit[w]
        by_set = np.argsort(grown, kind="stable")
        grown = grown[by_set]
        starts = np.flatnonzero(np.r_[True, grown[1:] != grown[:-1]])
        sets = grown[starts]
        ends = np.bitwise_or.reduceat(bit[w[by_set]], starts)
    return bool(ends[0] & adj[0])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _upper_edges(r: ReconfigGraph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (i, j) of the edges with i < j, sorted."""
    # CSR rows are in id order with sorted neighbours, so the upper entries
    # come out sorted
    rows = np.repeat(np.arange(r.order), r.degrees)
    upper = r.indices > rows
    return rows[upper], r.indices[upper]


def edge_list(r: ReconfigGraph) -> list[tuple[int, int]]:
    """Edges as (i, j) with i < j, sorted."""
    rows, cols = _upper_edges(r)
    return list(zip(rows.tolist(), cols.tolist()))


def _edges_text(r: ReconfigGraph, left: str, mid: str, right: str) -> str:
    """left + i + mid + j + right for every edge i < j, sorted, concatenated."""
    rows, cols = _upper_edges(r)
    names = np.array([str(i) for i in range(r.order)], dtype=object)
    # two shared strings per edge, so the join is the only per-edge work
    pieces = np.empty((len(rows), 2), dtype=object)
    pieces[:, 0] = (left + names + mid)[rows]
    pieces[:, 1] = (names + right)[cols]
    return "".join(pieces.ravel().tolist())


def to_json_obj(r: ReconfigGraph) -> dict:
    return {
        "base_n": r.base_n,
        "k": r.k,
        "nodes": r.nodes.to_json_obj(),
        "edges": [[i, j] for i, j in edge_list(r)],
    }


def to_json(r: ReconfigGraph) -> str:
    """json.dumps(to_json_obj(r)), formatted from the arrays."""
    edges = _edges_text(r, "[", ", ", "], ")[:-2]
    return f'{{"base_n": {r.base_n}, "k": {r.k}, "nodes": {r.nodes.to_json()}, "edges": [{edges}]}}'


def to_dot(r: ReconfigGraph) -> str:
    labels = subset_texts(r.bits, r.base_n, ",")
    nodes = "".join(f'  s{i} [label="{{{s}}}"];\n' for i, s in enumerate(labels))
    edges = _edges_text(r, "  s", " -- s", ";\n")
    return f"graph D {{\n{nodes}{edges}}}\n"
