"""The k-dominating graph D_k(G) and its structural analysis.

Nodes are the dominating sets of G with cardinality at most k; two nodes
are adjacent iff the sets differ by adding or deleting a single vertex.
Node ids are positions in the DomFamily sort order (cardinality, then
bitmask), so exports are deterministic.

A ReconfigGraph is G, k and the cap on n, checked once, when it is made.
While G fits the subset table it keeps G's SubsetTable from its first
read on: the one table its count rows, degree lemmas and parity rows read.
``by_card``, the node count of each layer j = 0..k, is that table's
``dom_by_card[:k + 1]``, the layer counts of the scan's family, and the
counts of ``nodes`` above it.  The order, the size and the parts come from
by_card alone, and so do the layer starts: layer j holds the ids from
``_first[j]`` to ``_first[j + 1]``, the cumulative sums of by_card, which
node_id, the component labels and the top two layers read.  ``nodes``, the
DomFamily enumerate_dominating(G, k, cap=cap) returns (``bits`` and
``cards`` give each node's set and cardinality, each cardinality one block
of ids sorted by bitmask), is listed on its first read.
The rest is made from it on first read and cached, indexed by node id:

* ``indptr`` (int64) and ``indices`` (int32): the adjacency in CSR form,
  the neighbours of node i being ``indices[indptr[i]:indptr[i + 1]]`` in
  increasing order;
* ``degrees`` (uint8: no degree exceeds n <= 63);
* ``component``: the component label, components numbered by their
  smallest node id.

Every superset of a dominating set dominates, so a node S with |S| < k is
adjacent to all n - |S| of its supersets S + v (Haas, Seyffarth, "The
k-dominating graph", Graphs Combin. 2014).  From this closure alone, with
no adjacency:
* Size: each edge is the up-edge of its lower end, so D_k(G) has the sum
  over j < k of (n - j) d_j edges, d_j nodes of cardinality j.
* Degrees: S - v dominates iff no vertex u has N[u] ∩ S = {v}, so a node
  S has degree down(S) + (n - |S| if |S| < k else 0), where down(S) is
  |S| - |P(S)|, P(S) the members of S that are some vertex's only
  dominator (a private neighbour of the member; Haynes, Hedetniemi,
  Slater, Fundamentals of Domination in Graphs, 1998).  At k = n that is
  n - |P(S)|, and two lemmas give the degree range from G and the table:
  - Lemma A: the minimum degree of D_n(G) is n - Gamma(G).  Proof:
    deleting a member outside P(S) keeps S dominating, and keeps every
    member of P(S) some vertex's only dominator, since each N[u] ∩ S only
    shrinks and never loses that member.  Deleting such members one at a
    time ends at a minimal dominating set M with P(S) ⊆ M ⊆ S, so
    |P(S)| <= |M| <= Gamma.  In a minimal dominating set every member is
    in P(S), so a Gamma-set attains n - Gamma.  (P(S) is irredundant and
    IR can exceed Gamma: the lemma needs S to dominate.)
  - Lemma B: the maximum degree of D_n(G) is n - i(G), i(G) the number of
    isolated vertices.  Proof: an isolated vertex is in every dominating
    set, its own only dominator, so |P(S)| >= i(G).  At S = V, N[u] ∩ V =
    N[u] is a single vertex only when u is isolated, so |P(V)| = i(G).
  Gamma(G) is the top nonempty layer of the table's ``minimal_by_card``.
  The parity of every degree, at every k, comes from the table too: with
  o_j the dominating j-sets whose down(S) is odd (``odd_down_by_card``, the
  table's XOR over v of the sets S containing v with S - v dominating) and
  d_j those of cardinality j, D_k(G) has the sum over j < k of (o_j if
  n - j is even, else d_j - o_j), plus o_k, nodes of odd degree.
* Components: those of layers k - 1 and k (the lemma of
  ReconfigGraph.component), labelled by propagation over their own CSR;
  each lower node S takes the label of S plus its lowest missing vertex.
  At k = n every node climbs to V, so D_n(G) is connected.
* Distance: each edge toggles one vertex, so d(A, B) >= |A △ B|; when
  |A ∪ B| <= k, adding B - A and then deleting A - B reaches that bound,
  every set on the way being a superset of A or of B with at most
  |A ∪ B| members.  Only the other pairs search: the breadth-first levels
  of distance_row, masks over node ids, run from A and stop at B's.
So ``reconfig --stats`` at k = n reads the table's two count rows and G,
``euler_status`` its count rows and parity row, and ``dominating --format
csv`` or ``table`` by_card alone, and none of them lists a node while G fits
the table; below n ``reconfig --stats`` and ``euler_status`` list the family
for the components and make only the CSR of layers k - 1 and k.

The CSR has its exact size before it is made, twice the size above.  More
than ENUMERATION_CAP * 2^ENUMERATION_CAP entries (D_24(K_24) has
402,653,136) raise TooLargeError on the first read of indptr or indices,
before anything is allocated, and so do the components below n when
layers k - 1 and k alone have that many.  Otherwise indptr and indices are made once
and filled in blocks of _BLOCK // n node ids: a block toggles each vertex
bit of its nodes and looks the results up, one gather from a 2^n int32 id
map while 2^n <= order * n, so that filling the map costs no more than the
order * n lookups it serves, and ``np.searchsorted`` in a value-sorted copy
of ``nodes.bits`` otherwise; sorting each node's n candidates, in a
contiguous copy, puts its neighbours in order and the sentinels of absent
sets last.
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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domination import (_BLOCK, ENUMERATION_CAP, DomFamily, SubsetTable, _blocks, _checked_bound,
                         _labels, _records, _table, enumerate_dominating)
from .errors import EmptyGraphError, TooLargeError
from .graphs import Graph

HAMILTONIAN_ORDER_CAP = 20


@dataclass(frozen=True, eq=False)
class ReconfigGraph:
    """D_k(G) on the nodes enumerate_dominating(graph, k, cap=cap), k
    defaulting to n.  Making it raises what that call raises for its
    arguments: ValueError unless 1 <= k <= n, then TooLargeError when n
    exceeds cap.  ``by_card``, ``nodes``, the CSR, degrees and component
    labels are made on first read.

    While G fits the subset table, the first read of by_card, of the degree
    range at k = n or of the odd-degree count takes G's SubsetTable, and the
    object keeps it for as long as it lives (2^n / 8 bytes a mask, the
    minimal mask once the degree range has read it), so those reads never
    build the table again, whatever graph the table cache has moved on to.

    k < gamma(G) gives a valid graph with no nodes (order 0) rather than an
    error, so callers can probe k ranges.
    """

    graph: Graph
    k: int | None = None
    cap: int = field(default=ENUMERATION_CAP, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "k", _checked_bound(self.graph, self.k, self.cap))

    @cached_property
    def _subset_table(self) -> SubsetTable | None:
        """G's subset table, None when G does not fit it."""
        return _table(self.graph) if self.graph.n <= ENUMERATION_CAP else None

    @cached_property
    def by_card(self) -> tuple[int, ...]:
        """The node count of each layer j = 0..k: the table's dominating sets of
        each cardinality, or the counts of nodes above the table."""
        table = self._subset_table
        return self.nodes.by_card if table is None else table.dom_by_card[: self.k + 1]

    @cached_property
    def _first(self) -> np.ndarray:
        """_first[j]: the first node id of layer j, for j = 0..k + 1, the last
        being the order."""
        return np.cumsum((0, *self.by_card))

    @cached_property
    def nodes(self) -> DomFamily:
        return enumerate_dominating(self.graph, self.k, cap=self.cap)

    @property
    def order(self) -> int:
        return sum(self.by_card)

    @property
    def size(self) -> int:
        return _size(self.graph.n, self.by_card, self.k)

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        csr = _adjacency(self.nodes.bits, self.graph.n, self.by_card, self.k)
        for a in csr:
            a.flags.writeable = False  # the graph is frozen
        return csr

    @cached_property
    def degrees(self) -> np.ndarray:
        """Each node's degree, down(S) + (n - |S| if |S| < k else 0).

        Each of the n - |S| sets S + v is a node while |S| < k.  S - v
        dominates iff v is no vertex's only dominator, that is, no u has
        N[u] ∩ S = {v}, so down(S) = |S| - #{v in S : v is the only member
        of S in some N[u]}.  One pass over the vertices u ORs each node's
        hits S ∩ N[u] that hold a single member.
        """
        n, k, bits, cards = self.graph.n, self.k, self.nodes.bits, self.nodes.cards
        # up-degree plus |S|, less the members that are some vertex's only dominator
        degrees = np.where(cards < k, n, cards)
        nbhds = np.array(self.graph.closed_nbhd, dtype=np.uint64)
        for lo in range(0, self.order, _BLOCK):  # cache-sized passes
            block = bits[lo:lo + _BLOCK]
            owned, hit = np.zeros_like(block), np.empty_like(block)
            for nbhd in nbhds:
                np.bitwise_and(block, nbhd, out=hit)
                np.bitwise_or(owned, hit, out=owned, where=np.bitwise_count(hit) == 1)
            degrees[lo:lo + _BLOCK] -= np.bitwise_count(owned)
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def _degree_extremes(self) -> tuple[int, int]:
        n, table = self.graph.n, self._subset_table
        if self.k == n and table is not None:  # Lemmas A and B
            upper_gamma = max(j for j, c in enumerate(table.minimal_by_card) if c)
            return n - upper_gamma, n - self.graph.degree_sequence().count(0)
        return int(self.degrees.min()), int(self.degrees.max())

    @cached_property
    def _odd_degrees(self) -> int:
        """The nodes of odd degree: the table's parity identity of the module
        docstring (Degrees) while G fits the table, odd degrees above it."""
        n, k, table = self.graph.n, self.k, self._subset_table
        if table is None:
            return int(np.count_nonzero(self.degrees % 2))
        odd, dom = table.odd_down_by_card, table.dom_by_card
        return sum(odd[j] if (n - j) % 2 == 0 else dom[j] - odd[j] for j in range(k)) + odd[k]

    @property
    def component_count(self) -> int:
        """1 at k = n, where every node climbs to V; below n, the components of
        layers k - 1 and k, with no label for the nodes below them."""
        if self.k == self.graph.n:
            return 1
        return int(np.count_nonzero(self._top == np.arange(len(self._top))))

    @cached_property
    def component(self) -> np.ndarray:
        """Per-node component label, components numbered by their smallest node id.

        Lemma: the components of D_k(G) are those of the subgraph on layers
        k - 1 and k, each lower node joining the component its up-neighbours
        reach.  Proof: two up-neighbours S + v and S + w of a node S with
        |S| <= k - 2 share the up-neighbour S + v + w.  At |S| = k - 2 that
        puts them in one component of the top two layers; below, downward
        induction on |S| gives every up-neighbour of S the component of
        S + v + w.  So every edge below layer k - 1 joins nodes whose climbs
        end in one component of the top two layers, and every node is joined
        to where its climb ends.

        Layers k - 1 and k take the labels of _top.  Then, layer by layer
        downward, each node S copies the label of S | (S + 1), S plus its
        lowest missing vertex, found by binary search in the layer above.
        Last, components are numbered by their smallest node id, which may
        lie below layer k - 1.
        """
        order, k = self.order, self.k
        if k == self.graph.n:  # every node climbs to V through its supersets
            labels = np.zeros(order, dtype=np.int64)
        else:
            top = self._top  # before any per-node array: its CSR may be refused
            bits, first = self.nodes.bits, self._first
            labels = np.empty(order, dtype=np.int64)
            labels[first[k - 1]:] = first[k - 1] + top
            for j in range(k - 2, -1, -1):
                lo, mid, hi = first[j:j + 3]
                up = bits[lo:mid] | (bits[lo:mid] + np.uint64(1))
                labels[lo:mid] = labels[mid + np.searchsorted(bits[mid:hi], up)]
            smallest = np.full(order, order)
            np.minimum.at(smallest, labels, np.arange(order))
            smallest = smallest[labels]
            labels = (np.cumsum(smallest == np.arange(order)) - 1)[smallest]
        labels.flags.writeable = False
        return labels

    @cached_property
    def _top(self) -> np.ndarray:
        """Each node of layers k - 1 and k labelled with the smallest position,
        among those layers, of its component there, by label propagation over
        their own CSR: each node takes the smallest label among itself and its
        neighbours, then the label of its label (pointer jumping), until
        nothing changes.  TooLargeError when that CSR exceeds the budget."""
        top = self._first[self.k - 1]
        indptr, indices = _adjacency(self.nodes.bits[top:], self.graph.n, self.by_card, self.k)
        heads = np.flatnonzero(np.diff(indptr))  # the nodes with a neighbour
        starts = indptr[heads]
        labels = np.arange(len(indptr) - 1)
        while heads.size:
            low = labels.copy()
            low[heads] = np.minimum(labels[heads], np.minimum.reduceat(labels[indices], starts))
            low = low[low]
            if np.array_equal(low, labels):
                break
            labels = low
        return labels

    def node_id(self, bits: int) -> int:
        """Node id of the dominating set with this bitmask (KeyError if absent):
        a binary search in the layer of its cardinality, whose ids _first
        bounds."""
        bits = operator.index(bits)  # TypeError unless an integer, NumPy's too
        card = bits.bit_count()
        if 0 <= bits < 1 << self.graph.n and card <= self.k:
            lo, hi = self._first[card:card + 2]
            i = lo + int(np.searchsorted(self.nodes.bits[lo:hi], np.uint64(bits)))
            if i < hi and self.nodes.bits[i] == bits:
                return int(i)
        raise KeyError(f"no node with bitmask {bin(bits)}")


def build(g: Graph, k: int | None = None, *, cap: int = ENUMERATION_CAP) -> ReconfigGraph:
    """ReconfigGraph(g, k, cap=cap) with its layer counts read.  It raises what
    enumerate_dominating(g, k, cap=cap) raises, at this call: ValueError for
    k, then TooLargeError for cap, then, above the subset table, where
    by_card lists the family, the prune route's budget.  While g fits the
    table it lists no node."""
    r = ReconfigGraph(g, k, cap=cap)
    r.by_card  # the table's build and counts, or the listing above it, are this call's work
    return r


def _size(n: int, by_card: tuple[int, ...], k: int, low: int = 0) -> int:
    """The edges of D_k(G) whose lower end lies in layers low..k - 1, with
    by_card[j] nodes in layer j: every edge is the up-edge of its lower end,
    and a node S with |S| < k has all n - |S| of its supersets S + v."""
    return sum((n - j) * by_card[j] for j in range(low, k))


def _adjacency(bits: np.ndarray, n: int, by_card: tuple[int, ...],
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of D_k(G) on the nodes bits: the family's layers from
    the lowest in bits up to k, by_card[j] sets in layer j.  Their size is
    exact (_size), and checked against the budget before anything is
    allocated; then they are filled in blocks of _BLOCK // n node ids, in
    O(order * n log n) with the id map and O(order * n log order) with the
    binary search, instead of the quadratic pairwise check.  The 2^n id map
    is within the budget too: a family has at most 2^ENUMERATION_CAP sets,
    so 2^n <= order * n only for n <= 28, and 2^28 is below
    ENUMERATION_CAP * 2^ENUMERATION_CAP."""
    order = len(bits)
    low = int(bits[0]).bit_count() if order else k
    entries = 2 * _size(n, by_card, k, low)
    if entries > ENUMERATION_CAP << ENUMERATION_CAP:
        raise TooLargeError(f"layers {low}..{k} of D_{k}(G) have {entries} adjacency entries, "
                            f"more than {ENUMERATION_CAP} * 2^{ENUMERATION_CAP}")
    indptr = np.empty(order + 1, dtype=np.int64)
    indices = np.empty(entries, dtype=np.int32)
    indptr[0] = end = 0
    for span, rows in _toggle_rows(bits, n, 1 << n <= order * n):
        # n <= 63 present candidates a node: its row length fits a uint8 sum
        lengths = np.add.reduce((rows < order).view(np.uint8), axis=0, dtype=np.uint8)
        ends = indptr[span.start + 1:span.stop + 1]
        np.cumsum(lengths, dtype=np.int64, out=ends)
        ends += end
        nbrs = rows.T.copy()
        nbrs.sort(axis=1)
        indices[end:ends[-1]] = nbrs[nbrs < order]
        end = ends[-1]
    assert end == entries  # the count of the superset lemma
    return indptr, indices


def _toggle_rows(bits: np.ndarray, n: int, by_map: bool):
    """Each block of _BLOCK // n node ids with its toggle rows, in one buffer
    that each block rewrites: row v holds the id of every node's set with
    bit v toggled, or the sentinel order when that set is not a node.  They
    are gathered from an id map over all 2^n bitmasks when by_map, and
    found by binary search in a value-sorted copy of bits otherwise."""
    order = len(bits)
    if by_map:
        ids = np.full(1 << n, order, dtype=np.int32)
        for span in _blocks(order, n):
            ids[bits[span].view(np.int64)] = np.arange(*span.indices(order), dtype=np.int32)
    else:
        by_value = np.argsort(bits)
        values = bits[by_value]
    rows = np.empty((n, min(order, _BLOCK // n)), dtype=np.int32)
    for span in _blocks(order, n):
        block = bits[span]
        m = len(block)
        for v in range(n):
            toggled = block ^ np.uint64(1 << v)
            if by_map:  # n <= 63: the int64 view has the same values, all below 2^n
                np.take(ids, toggled.view(np.int64), out=rows[v, :m], mode="clip")
            else:
                pos = np.searchsorted(values, toggled)
                np.minimum(pos, order - 1, out=pos)
                rows[v, :m] = np.where(values[pos] == toggled, by_value[pos], order)
        yield span, rows[:, :m]


def bipartition(r: ReconfigGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(odd-cardinality node ids, even-cardinality node ids).

    Every move changes cardinality by one, so every edge crosses the parts.
    """
    odd = r.nodes.cards % 2 == 1
    return tuple(np.flatnonzero(odd).tolist()), tuple(np.flatnonzero(~odd).tolist())


def degree_extremes(r: ReconfigGraph) -> tuple[int, int]:
    """(min degree, max degree), cached on r.

    At k = n, while G fits the subset table, Lemmas A and B of the module
    docstring give (n - Gamma(G), n - i(G)), Gamma(G) from the table's
    minimal_by_card and i(G) the number of isolated vertices, with no node
    listed.  Below n, and above the table, the range of r.degrees.
    """
    if r.order == 0:
        raise EmptyGraphError("degree extremes of an empty reconfiguration graph")
    return r._degree_extremes


def is_regular(r: ReconfigGraph) -> bool:
    """Whether every node has one degree: min == max of degree_extremes."""
    if r.order == 0:
        raise EmptyGraphError("regularity of an empty reconfiguration graph")
    low, high = degree_extremes(r)
    return low == high


def connected_components(r: ReconfigGraph) -> tuple[int, tuple[int, ...]]:
    """(component count, per-node component label); 0 components when empty."""
    return r.component_count, tuple(r.component.tolist())


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
        raise ValueError(f"D_{r.k}(G) has no nodes: k is below the domination number")
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

    Otherwise the breadth-first levels of distance_row run from a and stop
    at the first that reaches b.
    """
    a, b = _node_ids(r, a, b)
    x, y = r.nodes.bits[[a, b]].tolist()
    if (x | y).bit_count() <= r.k:
        return (x ^ y).bit_count()
    seen = np.arange(r.order) == a  # each level is marked in seen before it is yielded
    levels = enumerate(_frontiers(r.indptr, r.indices, seen), 1)
    return next((depth for depth, _ in levels if seen[b]), None)


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
    The components come first (1 at k = n without looking), then the count,
    from the subset table's count and parity rows while G fits the table
    (module docstring, Degrees), so at k = n no node is listed there.
    """
    if r.component_count > 1:
        return "neither"
    odd = r._odd_degrees
    if odd == 0:
        return "eulerian"
    if odd == 2:
        return "trail-only"
    return "neither"


def is_hamiltonian(r: ReconfigGraph) -> bool:
    """Exact Hamiltonian-cycle decision: the pruned path search of _hamiltonian.

    Exponential in the order, hence the cap.  Every edge changes the
    cardinality parity, so parity classes of unequal size decide False at
    any order, before the cap: every D_n(G) among them, whose order (the
    number of dominating sets) is odd.  Only balanced CSRs reach the search.
    """
    n = r.order
    if 2 * sum(r.by_card[1::2]) != n:
        return False
    if n > HAMILTONIAN_ORDER_CAP:
        raise TooLargeError(f"order {n} exceeds the Hamiltonian search cap {HAMILTONIAN_ORDER_CAP}")
    return _hamiltonian(r.indptr, r.indices)


def _hamiltonian(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether the graph with this CSR has a Hamiltonian cycle, by a
    depth-first search over the simple paths from node 0, the path's set S,
    its end v and each row held as Python int bitmasks.  A cycle exists iff
    some path over all the nodes ends next to node 0.

    * The cut: after a step to w, every node outside S must keep two
      neighbours among the free nodes, w and node 0, since each is an inner
      node of the rest of the cycle, from w back to 0.
    * The memo: a pair (S, v) whose search failed is not searched again, so
      each is expanded at most once, the state bound of the subset DP.  Its
      key holds v: whether a path closes depends on where it ends.

    The parity bar of is_hamiltonian comes first: on a CSR whose parts
    differ, which has no cycle, the search can be slow.
    """
    n = len(indptr) - 1
    if n < 3:  # the search would take the 2-node path for a cycle
        return False
    ptr, nbrs = indptr.tolist(), indices.tolist()
    # adj[1 << i]: the bitmask of node i's neighbours, which are distinct
    adj = {1 << i: sum(1 << j for j in nbrs[ptr[i]:ptr[i + 1]]) for i in range(n)}
    full = (1 << n) - 1
    dead = set()

    def extend(seen: int, v: int) -> bool:
        if seen == full:
            return bool(adj[v] & 1)
        if (seen, v) not in dead:
            keep = full & ~seen | 1  # the free nodes after any step, the step w and node 0
            steps = adj[v] & ~seen
            while steps:
                w = steps & -steps
                steps ^= w
                free = keep ^ w ^ 1  # the free nodes after the step to w
                while free and (adj[free & -free] & keep).bit_count() >= 2:
                    free &= free - 1
                if not free and extend(seen | w, w):
                    return True
            dead.add((seen, v))
        return False

    return extend(1, 1)


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
        "base_n": r.graph.n,
        "k": r.k,
        "nodes": r.nodes.to_json_obj(),
        "edges": [[i, j] for i, j in edge_list(r)],
    }


def json_chunks(r: ReconfigGraph):
    """The chunks of to_json(r), one per block of node ids, made as they are read."""
    yield f'{{"base_n": {r.graph.n}, "k": {r.k}, "nodes": '
    yield from r.nodes.json_chunks()
    yield ', "edges": ['
    digits = _digits(r.order)
    lead = 2  # the first edge's ", "
    for block in _blocks(r.order, r.graph.n):
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
    n, digits = r.graph.n, _digits(r.order)
    for block in _blocks(r.order, n):
        yield _records(b"  s", digits[block], b' [label="{', *_labels(r.nodes.bits[block], n, ","),
                       b'}"];\n')
    for block in _blocks(r.order, n):
        yield _edges(r, digits, block, b"  s", b" -- s", b";\n")
    yield "}\n"


def to_dot(r: ReconfigGraph) -> str:
    return "".join(dot_chunks(r))
