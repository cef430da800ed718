"""The k-dominating graph D_k(G) and its structural analysis.

Nodes are the dominating sets of G with cardinality at most k; two nodes
are adjacent iff the sets differ by adding or deleting a single vertex.
Node ids are positions in the DomFamily sort order (cardinality, then
bitmask), so exports are deterministic.

A ReconfigGraph is the DomFamily it was built on and NumPy arrays, all
indexed by node id:

* ``nodes``: the family, whose ``bits`` and ``cards`` give each node's set
  and cardinality, each cardinality one block of ids sorted by bitmask;
* ``indptr`` (int64) and ``indices`` (int32): the adjacency in CSR form,
  the neighbours of node i being ``indices[indptr[i]:indptr[i + 1]]`` in
  increasing order;
* ``component``: the component label, components numbered by their
  smallest node id.

Adjacency is found by toggling one vertex bit of every node at once and
looking the results up, each vertex filling one contiguous toggle row of
an n x order candidate array.  While the dense id map of 2^n int32 entries
is no larger than that array (2^n <= order * n), the lookup is one gather
from it; otherwise it is ``np.searchsorted`` in a value-sorted copy of
``nodes.bits``, so the lookup never needs more memory than the array.  The
n candidates of each node, a row of the array's transposed view, are then
sorted in place.
Analysis works on the arrays and on the superset closure: every superset
of a dominating set dominates, so a node S with |S| < k is adjacent to all
n - |S| of its supersets S + v.
* Components: two up-neighbours S + v and S + w of a node below layer
  k - 1 share the up-neighbour S + v + w, so by downward induction every
  lower node and all its up-neighbours climb into one component of layers
  k - 1 and k.  Label propagation runs on those two layers alone, and each
  lower node copies the label of a neighbour one layer up.  At k = n
  every node climbs to V, so D_n(G) is connected: build reads that from
  the lemma and labels every node 0 with no search.
* Statistics: S - v dominates iff no vertex u has N[u] ∩ S = {v}, so a
  node S has degree down(S) + (n - |S| if |S| < k else 0), where down(S)
  is |S| less its members that are some vertex's only dominator.  stats
  reads the order, size, parts, degree range and components from the
  family and this count, building adjacency only on layers k - 1 and k,
  and only when k < n.
* Distance: each edge toggles one vertex, so d(A, B) >= |A △ B|; when
  |A ∪ B| <= k, adding B - A and then deleting A - B reaches that bound,
  every set on the way being a superset of A or of B with at most
  |A ∪ B| members.  Only the other pairs search, from both ends, with
  breadth-first levels as masks over node ids.
The Hamiltonian search keeps its layers as uint32 arrays.
Export writes each node line and each edge as a fixed-width byte record
(``domination._records``): node ids from one digit table per call, labels
from ``nodes.bits`` through the 8-bit chunk tables of ``domination._labels``
and edges from the upper CSR entries, with no Python object per node or
edge.  json_chunks and dot_chunks make the text in blocks of _BLOCK // n
node ids, one chunk each, whose CSR rows hold at most _BLOCK entries, so
the CLI writes D_k(G) with memory bounded by the block; to_json and to_dot
join the chunks.  The family makes its VertexSubset objects only when a
caller reads them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domination import (_BLOCK, ENUMERATION_CAP, DomFamily, _blocks, _labels, _records,
                          enumerate_dominating)
from .errors import EmptyGraphError, TooLargeError
from .graphs import Graph

HAMILTONIAN_ORDER_CAP = 20


@dataclass(frozen=True, eq=False)
class ReconfigGraph:
    """D_k(G) as its node family plus CSR adjacency and component arrays.

    k < gamma(G) gives a valid graph with no nodes (order 0) rather than an
    error, so callers can probe k ranges.
    """

    nodes: DomFamily
    indptr: np.ndarray
    indices: np.ndarray
    component: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)

    @property
    def size(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        degrees = np.diff(self.indptr)
        degrees.flags.writeable = False
        return degrees

    def node_id(self, bits: int) -> int:
        """Node id of the dominating set with this bitmask (KeyError if absent)."""
        bits = operator.index(bits)  # TypeError unless an integer, NumPy's too
        if 0 <= bits < 1 << self.nodes.graph_n:
            # binary search inside the block of ids with this cardinality; the keys
            # take the dtype of cards, which a mixed search would cast whole
            card, cards = bits.bit_count(), self.nodes.cards
            lo, hi = np.searchsorted(cards, np.arange(card, card + 2, dtype=cards.dtype))
            i = lo + int(np.searchsorted(self.nodes.bits[lo:hi], np.uint64(bits)))
            if i < hi and self.nodes.bits[i] == bits:
                return int(i)
        raise KeyError(f"no node with bitmask {bin(bits)}")


def build(g: Graph, k: int | None = None, *, cap: int = ENUMERATION_CAP) -> ReconfigGraph:
    """Construct D_k(G) on the sets enumerate_dominating returns; k defaults to n.

    Adjacency toggles each of the n bits of every node at once and looks
    the results up, one gather each from a 2^n id map while 2^n <= order * n
    and a binary search otherwise, then sorts each row of n candidates:
    O(order * n log n) with the map and O(order * n log order) without it,
    instead of the quadratic pairwise check.  Components need no search:
    two up-neighbours S + v and S + w of a node below layer k - 1 share the
    up-neighbour S + v + w, so the components are those of layers k - 1 and
    k, found by label propagation there, and each lower node copies the
    label of a neighbour one layer up (_component_labels gives the proof).
    At k = n every node climbs to V through its supersets, so D_n(G) is one
    component and every label is 0.
    """
    nodes = enumerate_dominating(g, k, cap=cap)
    indptr, indices = _adjacency(nodes.bits, g.n)
    if nodes.k == g.n:  # every node climbs to V through its supersets
        component = np.zeros(len(nodes), dtype=np.int64)
    else:
        component = _component_labels(indptr, indices, nodes.cards, nodes.k)
    for a in (indptr, indices, component):
        a.flags.writeable = False  # the graph is frozen; degrees are cached from these
    return ReconfigGraph(nodes, indptr, indices, component)


@dataclass(frozen=True)
class Stats:
    """The summary of D_k(G) that ``reconfig --stats`` prints.

    parts is (odd, even): the node counts of the two cardinality parities,
    the part sizes of bipartition.  The degrees are None when D_k(G) has no
    nodes.
    """

    order: int
    size: int
    parts: tuple[int, int]
    min_degree: int | None
    max_degree: int | None
    components: int


def stats(g: Graph, nodes: DomFamily) -> Stats:
    """Order, size, parts, degree range and component count of D_k(G), with
    nodes = enumerate_dominating(g, k), from the family alone: no adjacency
    is built unless k < n, and then only on layers k - 1 and k.

    Degrees: a node S has degree down(S) + (n - |S| if |S| < k else 0).
    Every superset of a dominating set dominates, so each of the n - |S|
    sets S + v is a node while |S| < k.  S - v dominates iff v is no
    vertex's only dominator, that is, no u has N[u] ∩ S = {v}, so
    down(S) = |S| - #{v in S : v is the only member of S in some N[u]}.
    One pass over the vertices u ORs each node's hits S ∩ N[u] that hold a
    single member.  Every edge is the up-edge of its lower end, so the size
    is the sum over j < k of (n - j) d_j, with d_j nodes of cardinality j.

    Components: at k = n every node climbs to V through its supersets, so
    D_n(G) is connected.  Below n they are the components of layers k - 1
    and k (the lemma of _component_labels), labelled on those layers' bits.
    """
    if nodes.graph_n != g.n:
        raise ValueError(f"the family is of a graph on {nodes.graph_n} vertices, not {g.n}")
    order = len(nodes)
    if not order:
        return Stats(0, 0, (0, 0), None, None, 0)
    n, k, bits, cards = g.n, nodes.k, nodes.bits, nodes.cards
    if k == n:
        components = 1
    else:  # labelled first, so their arrays are freed before the degrees are made
        top = int(np.searchsorted(cards, np.uint8(k - 1)))  # the first node of layer k - 1
        components = int(_component_labels(*_adjacency(bits[top:], n), cards[top:], k).max()) + 1
    # up-degree plus |S|, less the members that are some vertex's only dominator
    degrees = np.where(cards < k, n, cards)
    nbhds = np.array(g.closed_nbhd, dtype=np.uint64)
    for lo in range(0, order, _BLOCK):  # cache-sized passes
        block = bits[lo:lo + _BLOCK]
        owned, hit = np.zeros_like(block), np.empty_like(block)
        for nbhd in nbhds:
            np.bitwise_and(block, nbhd, out=hit)
            np.bitwise_or(owned, hit, out=owned, where=np.bitwise_count(hit) == 1)
        degrees[lo:lo + _BLOCK] -= np.bitwise_count(owned)
    size = sum((n - j) * d for j, d in enumerate(nodes.by_card[:k]))
    odd = int(np.count_nonzero(cards & 1))
    return Stats(order, size, (odd, order - odd), int(degrees.min()), int(degrees.max()),
                 components)


def _adjacency(bits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    order = len(bits)
    # toggle row v: the id of bits ^ (1 << v), or the sentinel `order` when that set
    # is not a node; sorting the n candidates of each node, a row of the transposed
    # view, in place puts the ids in order and the sentinels last
    rows = np.empty((n, order), dtype=np.int32)
    (_map_rows if 1 << n <= order * n else _search_rows)(bits, rows)
    rows = rows.T
    rows.sort(axis=1)
    present = rows < order
    indices = rows[present]
    del rows  # freed before indptr is made, which lowers the peak by indptr's size
    indptr = np.zeros(order + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    return indptr, indices


def _map_rows(bits: np.ndarray, rows: np.ndarray) -> None:
    """Fill the toggle rows from an id map over all 2^n bitmasks, one gather each."""
    n, order = rows.shape
    ids = np.full(1 << n, order, dtype=np.int32)
    keys = bits.view(np.int64)  # n <= 63: the same values, which the gathers take uncast
    ids[keys] = np.arange(order, dtype=np.int32)
    for v in range(n):
        np.take(ids, keys ^ (1 << v), out=rows[v])


def _search_rows(bits: np.ndarray, rows: np.ndarray) -> None:
    """Fill the toggle rows by binary search in a value-sorted copy of bits."""
    n, order = rows.shape
    by_value = np.argsort(bits)
    values = bits[by_value]
    for v in range(n):
        toggled = bits ^ np.uint64(1 << v)
        pos = np.searchsorted(values, toggled)
        np.minimum(pos, order - 1, out=pos)
        rows[v] = np.where(values[pos] == toggled, by_value[pos], order)


def _component_labels(indptr: np.ndarray, indices: np.ndarray,
                      cards: np.ndarray, k: int) -> np.ndarray:
    """Per-node component label, components numbered by their smallest node id.

    Every superset of a dominating set dominates, so a node S with |S| < k
    is adjacent to each of its n - |S| supersets S + v.  Lemma: the
    components of D_k(G) are those of the subgraph on layers k - 1 and k,
    each lower node joining the component its up-neighbours reach.  Proof:
    two up-neighbours S + v and S + w of a node S with |S| <= k - 2 share
    the up-neighbour S + v + w.  At |S| = k - 2 that puts them in one
    component of the top two layers; below, downward induction on |S|
    gives every up-neighbour of S the component of S + v + w.  So every
    edge below layer k - 1 joins nodes whose climbs end in one component
    of the top two layers, and every node is joined to where its climb ends.

    The nodes of layers k - 1 and k take label propagation over the edges
    between them: each takes the smallest label among itself and its
    neighbours, then the label of its label (pointer jumping), until
    nothing changes, which labels each with the smallest id of its
    component there.  Then, layer by layer downward, each lower node copies
    the label of its last CSR neighbour, which has the largest id and so
    lies one layer up.  Last, components are numbered by their smallest
    node id, which may lie below layer k - 1.
    """
    order = len(cards)
    # first[j]: the first id of layer >= j; the keys take the dtype of cards,
    # which a mixed search would cast whole
    first = np.searchsorted(cards, np.arange(k, dtype=cards.dtype))
    # the rows of layers k - 1 and k are the tail of indices; the entries
    # inside those layers are the edges between them, still grouped by row
    top = int(first[k - 1])
    rows = np.repeat(np.arange(top, order), np.diff(indptr[top:]))
    nbrs = indices[indptr[top]:]
    inside = nbrs >= top
    rows, nbrs = rows[inside], nbrs[inside]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    heads = rows[starts]
    labels = np.arange(order)
    while heads.size:
        low = labels.copy()
        low[heads] = np.minimum(labels[heads], np.minimum.reduceat(labels[nbrs], starts))
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    for j in range(k - 2, -1, -1):
        lo, hi = first[j], first[j + 1]
        labels[lo:hi] = labels[indices[indptr[lo + 1:hi + 1] - 1]]
    smallest = np.full(order, order)
    np.minimum.at(smallest, labels, np.arange(order))
    smallest = smallest[labels]
    return (np.cumsum(smallest == np.arange(order)) - 1)[smallest]


def bipartition(r: ReconfigGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(odd-cardinality node ids, even-cardinality node ids).

    Every move changes cardinality by one, so every edge crosses the parts.
    """
    odd = r.nodes.cards % 2 == 1
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
    if r.order == 0:
        raise ValueError(f"D_{r.nodes.k}(G) has no nodes: k is below the domination number")
    if not all(isinstance(i, int) and 0 <= i < r.order for i in ids):
        raise ValueError(f"node ids must be in 0..{r.order - 1}")
    return ids


def distance(r: ReconfigGraph, a: int, b: int) -> int | None:
    """Hop count between node ids; None when unreachable.

    Lemma: with sets A and B, d(A, B) = |A △ B| whenever |A ∪ B| <= k.
    Proof: every edge toggles one vertex, so no walk is shorter than
    |A △ B|.  Adding the members of B - A to A one at a time, then deleting
    those of A - B, takes |A △ B| steps, and every set on the way is a
    superset of A or of B, so it dominates, with at most |A ∪ B| <= k
    members, so it is a node.

    Otherwise a breadth-first search runs from both ends, each step growing
    the smaller frontier by one level.  The balls of radii d_a and d_b were
    disjoint before the step, so d(a, b) > d_a + d_b, and the first new
    level that meets the other side's ball gives d(a, b) = d_a + d_b + 1
    exactly.
    """
    a, b = _node_ids(r, a, b)
    x, y = r.nodes.bits[[a, b]].tolist()
    if (x | y).bit_count() <= r.nodes.k:
        return (x ^ y).bit_count()
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
    cardinality parity, so parity classes of unequal size decide False at
    any order, before the cap: every D_n(G) among them, whose order (the
    number of dominating sets) is odd.
    """
    n = r.order
    if 2 * np.count_nonzero(r.nodes.cards % 2) != n:
        return False
    if n > HAMILTONIAN_ORDER_CAP:
        raise TooLargeError(f"order {n} exceeds the Hamiltonian search cap {HAMILTONIAN_ORDER_CAP}")
    if n < 3:  # the search would take the 2-node path for a cycle
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

def _upper_edges(r: ReconfigGraph, block: slice) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (i, j) of the edges with i < j and i in the block of
    node ids, sorted."""
    # CSR rows are in id order with sorted neighbours, so the upper entries
    # come out sorted
    lo, hi, _ = block.indices(r.order)
    rows = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(r.indptr[lo:hi + 1]))
    cols = r.indices[r.indptr[lo]:r.indptr[hi]]
    upper = cols > rows
    return rows[upper], cols[upper]


def edge_list(r: ReconfigGraph) -> list[tuple[int, int]]:
    """Edges as (i, j) with i < j, sorted."""
    rows, cols = _upper_edges(r, slice(None))
    return list(zip(rows.tolist(), cols.tolist()))


def _digits(count: int) -> np.ndarray:
    """The decimal text of each id below count, as fixed-width bytes with NUL
    bytes for the leading zeros."""
    ids = np.arange(count)
    width = len(str(max(count - 1, 0)))
    digits = np.zeros((count, width), dtype=np.uint8)
    digits[:, -1] = ids % 10 + 48
    for p in range(width - 1):
        scale = 10 ** (width - 1 - p)  # the ids below it have a leading zero here
        digits[scale:, p] = ids[scale:] // scale % 10 + 48
    return digits.view(f"S{width}").ravel()


def _edges(r: ReconfigGraph, digits: np.ndarray, block: slice,
           left: bytes, mid: bytes, right: bytes) -> str:
    """left + i + mid + j + right for every edge i < j with i in the block, sorted."""
    rows, cols = _upper_edges(r, block)
    return _records(left, digits[rows], mid, digits[cols], right)


def to_json_obj(r: ReconfigGraph) -> dict:
    return {
        "base_n": r.nodes.graph_n,
        "k": r.nodes.k,
        "nodes": r.nodes.to_json_obj(),
        "edges": [[i, j] for i, j in edge_list(r)],
    }


def json_chunks(r: ReconfigGraph):
    """The chunks of to_json(r), one per block of node ids, made as they are read."""
    yield f'{{"base_n": {r.nodes.graph_n}, "k": {r.nodes.k}, "nodes": '
    yield from r.nodes.json_chunks()
    yield ', "edges": ['
    digits = _digits(r.order)
    lead = 2  # the first edge's ", "
    for block in _blocks(r.order, r.nodes.graph_n):
        text = _edges(r, digits, block, b", [", b", ", b"]")
        if text:
            yield text[lead:]
            lead = 0
    yield "]}"


def to_json(r: ReconfigGraph) -> str:
    """json.dumps(to_json_obj(r)), formatted from the arrays."""
    return "".join(json_chunks(r))


def dot_chunks(r: ReconfigGraph):
    """The chunks of to_dot(r), one per block of node ids, made as they are read."""
    yield "graph D {\n"
    n, digits = r.nodes.graph_n, _digits(r.order)
    for block in _blocks(r.order, n):
        yield _records(b"  s", digits[block], b' [label="{', *_labels(r.nodes.bits[block], n, ","),
                       b'}"];\n')
    for block in _blocks(r.order, n):
        yield _edges(r, digits, block, b"  s", b" -- s", b";\n")
    yield "}\n"


def to_dot(r: ReconfigGraph) -> str:
    return "".join(dot_chunks(r))
