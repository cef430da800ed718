"""Dominating-set decision, enumeration, and exact counting.

Two independent enumeration routes exist on purpose:

* ``method="scan"``: a vectorized sweep over all 2^n subsets of the
  graph's SubsetTable.  This is the trusted oracle.
* ``method="prune"``: branch on the lowest uncovered vertex, cut when
  k - |S| members cannot cover the rest (each covers at most Delta + 1
  vertices, so at k = n the cut never fires).  Already-tried candidates
  are excluded on later branches, so each dominating set is generated
  exactly once and work follows the output, far below 2^n for sparse
  graphs at small k.  A parent decides each child: one that dominates
  goes straight to the listing of its supersets, and only one that
  passes the cut is searched.  It raises TooLargeError before it lists
  more than 2^24 sets, the most the scan route returns.

Both return the identical DomFamily, sorted by (cardinality, bitmask
value); the test suite holds them to that.  ``enumerate_dominating`` is the
one place that picks the route when none is given: scan while n <=
SCAN_LIMIT (20), prune above it (its docstring gives the measurements).
An explicit ``method`` forces a route, so tests, demos and benchmarks can
pit one against the other.

The counting operations read the same table.  It builds the coverage of
every subset by doubling (subsets of {0..v} are those of {0..v-1} with and
without v), keeps only the boolean dominating mask, and fills popcounts and
the minimal mask on first use.  The last graph's table is kept, so queries
on one graph (or on equal graphs) build it once.  The last prune-route
family is kept the same way: a prune-route call on an equal graph with no
larger k returns the kept family's first sets, those with at most k
members, so reconfig.build after enumerate_dominating searches once.  The
table refuses graphs above ENUMERATION_CAP = 24 vertices with
TooLargeError, whatever the query or route.  enumerate_dominating and
reconfig.build also take a ``cap`` on n (default 24); only the prune route
can use a larger one.

A DomFamily holds the bitmask array and makes VertexSubset objects only
when ``sets`` is read.  Its JSON, and the labels of reconfig's exports, come
from ``subset_texts``, which formats a whole bitmask array through one
256-entry string table per 8-bit chunk of the mask.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TooLargeError
from .graphs import Graph, VertexSubset, subset_bits

# The subset table holds 2^n words; 24 keeps that around 16.7M.
ENUMERATION_CAP = 24
# Up to this n enumerate_dominating's default route is the scan; above it, prune.
SCAN_LIMIT = 20


@dataclass(frozen=True, eq=False)
class DomFamily:
    """All dominating sets of a graph with cardinality at most k.

    bits holds their bitmasks (uint64), sorted by (cardinality, bitmask
    value) and duplicate-free; sets wraps them as VertexSubset on first
    use; by_card[j] counts members of cardinality j for j = 0..k.
    Families are equal when graph_n, k and bits are.
    """

    graph_n: int
    k: int
    bits: np.ndarray

    def __post_init__(self):
        self.bits.flags.writeable = False  # sets and by_card are cached from it

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.sets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DomFamily):
            return NotImplemented
        return (self.graph_n, self.k) == (other.graph_n, other.k) and np.array_equal(
            self.bits, other.bits
        )

    @cached_property
    def sets(self) -> tuple[VertexSubset, ...]:
        return tuple(VertexSubset(b) for b in self.bits.tolist())

    @cached_property
    def by_card(self) -> tuple[int, ...]:
        return tuple(np.bincount(np.bitwise_count(self.bits), minlength=self.k + 1).tolist())

    def to_json_obj(self) -> list[list[int]]:
        return [list(s.vertices()) for s in self.sets]

    def to_json(self) -> str:
        """json.dumps(self.to_json_obj()), formatted from the bitmasks."""
        return "[" + ", ".join(f"[{s}]" for s in subset_texts(self.bits, self.graph_n, ", ")) + "]"


def _chunk_table(low: int, sep: str) -> np.ndarray:
    """For each byte value x, sep + label for each member of x << low, as one str."""
    return np.array(
        ["".join(f"{sep}{low + v + 1}" for v in range(8) if x >> v & 1) for x in range(256)],
        dtype=object,
    )


def subset_texts(bits: np.ndarray, n: int, sep: str) -> list[str]:
    """The 1-based members of each bitmask over n vertices, in increasing
    order and joined by sep (sep="," gives what VertexSubset prints between
    its braces).

    Each 8-bit chunk of every mask is looked up in that chunk's table at
    once; a member's text starts with sep, so the parts concatenate and
    lose the first sep at the end.
    """
    texts = np.full(len(bits), "", dtype=object)
    for low in range(0, n, 8):
        texts += _chunk_table(low, sep)[(bits >> np.uint64(low)) & np.uint64(255)]
    return [t[len(sep):] for t in texts.tolist()]


class SubsetTable:
    """Dominating and minimal masks, and popcounts, over all 2^n subsets."""

    @staticmethod
    def check_size(g: Graph) -> None:
        if g.n > ENUMERATION_CAP:
            raise TooLargeError(
                f"n={g.n} exceeds {ENUMERATION_CAP}, the limit of the 2^n subset table"
            )

    def __init__(self, g: Graph):
        self.check_size(g)
        cov = np.empty(1 << g.n, dtype=np.uint32)
        cov[0] = 0
        size = 1
        for v in range(g.n):
            np.bitwise_or(cov[:size], np.uint32(g.closed_nbhd[v]), out=cov[size : 2 * size])
            size <<= 1
        self.n = g.n
        self.dom = cov == np.uint32(g.full_mask)

    @cached_property
    def cards(self) -> np.ndarray:
        return np.bitwise_count(np.arange(1 << self.n, dtype=np.uint32))

    @cached_property
    def minimal(self) -> np.ndarray:
        # v in S is removable iff S - v dominates.  In blocks of 2 << v subsets the upper
        # half is the lower half plus v; OR in words of up to 8 (short rows are slow)
        removable = np.zeros_like(self.dom)
        for v in range(self.n):
            word = np.dtype(f"u{min(1 << v, 8)}")
            step = (1 << v) // word.itemsize
            with_v = removable.view(word).reshape(-1, 2, step)[:, 1, :]
            with_v |= self.dom.view(word).reshape(-1, 2, step)[:, 0, :]
        # a set with a removable vertex dominates, so minimal = dom xor removable
        return np.logical_xor(self.dom, removable, out=removable)

    @cached_property
    def dom_by_card(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.cards[self.dom], minlength=self.n + 1).tolist())

    @cached_property
    def minimal_by_card(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.cards[self.minimal], minlength=self.n + 1).tolist())


_last_table: tuple = (None, None)  # (graph, SubsetTable) of the last graph queried


def _table(g: Graph) -> SubsetTable:
    global _last_table
    graph, table = _last_table
    if graph != g:
        SubsetTable.check_size(g)  # a refused graph keeps the cached table
        _last_table = (None, None)  # free the previous masks before building new ones
        table = SubsetTable(g)
        _last_table = (g, table)
    return table


def _family(n: int, k: int, bits: np.ndarray) -> DomFamily:
    # bits is sorted by value; a stable sort by cardinality keeps that inside each block
    return DomFamily(n, k, bits[np.argsort(np.bitwise_count(bits), kind="stable")])


_last_family: tuple = (None, None)  # (graph, DomFamily) of the last prune-route search


def _prune_family(g: Graph, k: int) -> DomFamily:
    global _last_family
    graph, family = _last_family
    if graph != g or family.k < k:
        _last_family = (None, None)  # free the previous family before searching again
        family = _family(g.n, k, np.sort(_prune_bits(g, k)))
        _last_family = (g, family)
    # sorted by cardinality, so the sets with at most k members come first
    return DomFamily(g.n, k, family.bits[: sum(family.by_card[: k + 1])])


def is_dominating(g: Graph, subset) -> bool:
    """True iff the union of closed neighborhoods over the subset is V."""
    bits = subset_bits(g, subset)
    cov = 0
    m = bits
    while m:
        v = (m & -m).bit_length() - 1
        cov |= g.closed_nbhd[v]
        m &= m - 1
    return cov == g.full_mask


def is_minimal_dominating(g: Graph, subset) -> bool:
    """Dominating, and no single-vertex deletion still dominates.

    Single deletions suffice: domination is monotone under supersets.
    """
    bits = subset_bits(g, subset)
    if not is_dominating(g, bits):
        return False
    m = bits
    while m:
        v = (m & -m).bit_length() - 1
        if is_dominating(g, bits & ~(1 << v)):
            return False
        m &= m - 1
    return True


def _prune_bits(g: Graph, k: int) -> np.ndarray:
    full = g.full_mask
    nbhd = g.closed_nbhd
    width = max(m.bit_count() for m in nbhd)  # the most vertices one member covers
    budget = 1 << ENUMERATION_CAP  # sets; the scan route returns at most as many
    out = array("Q")  # 8 bytes a set, where a list of ints takes about 71

    def expand(base: int, card: int, banned: int) -> None:
        # every superset of a dominating set dominates; list those within budget
        free = []  # the bits of the vertices that may join base
        m = full & ~(base | banned) if card < k else 0
        while m:
            free.append(m & -m)
            m &= m - 1
        extras = min(k - card, len(free))
        # 2^|free| bounds the exact count, which is only summed near the budget
        if len(out) + (1 << len(free)) > budget and len(out) + sum(
            math.comb(len(free), j) for j in range(extras + 1)
        ) > budget:
            raise TooLargeError(
                f"more than 2^{ENUMERATION_CAP} dominating sets with k={k}, "
                "the output budget of the prune route (the most the scan route returns)"
            )
        out.append(base)
        for extra in range(1, extras + 1):
            # distinct bits, so their sum is their union
            out.extend(base | sum(combo) for combo in itertools.combinations(free, extra))

    def branch(chosen: int, card: int, banned: int, miss: int) -> None:
        # miss is not empty and card < k; a child that leaves more than reach
        # uncovered is cut, as every root child is when k * width < n
        u = (miss & -miss).bit_length() - 1
        reach = (k - card - 1) * width  # the most a child's remaining members cover
        # u must be covered by a not-yet-banned member of N[u]; trying the
        # candidates in order and banning earlier ones partitions the space
        tried = 0
        m = nbhd[u] & ~banned
        while m:
            low = m & -m
            m ^= low
            left = miss & ~nbhd[low.bit_length() - 1]
            if not left:
                expand(chosen | low, card + 1, banned | tried)
            elif left.bit_count() <= reach:
                branch(chosen | low, card + 1, banned | tried, left)
            tried |= low

    branch(0, 0, 0, full)
    return np.frombuffer(out, dtype=np.uint64)


def enumerate_dominating(
    g: Graph, k: int | None = None, *, cap: int = ENUMERATION_CAP, method: str | None = None
) -> DomFamily:
    """All dominating sets with cardinality at most k (default k = n).

    method is "scan" or "prune"; None picks scan while n <= SCAN_LIMIT and
    prune above it.  At n <= 20 the subset table holds at most 6 MB and the
    scan takes a few ms at any k, while the prune route's time follows the
    output: the scan wins at k = n and the prune route near gamma (P_20,
    enumerate_dominating in a fresh process, median of 5, table build
    included: scan 10 ms against prune 0.24 s at k=20, scan 9 ms against
    prune 0.3 ms at k=7).  Above 20 the table grows to about 100 MB more
    peak RSS by n = 24, and at small k the scan loses by more.
    reconfig.build in a fresh process (median of 5), 2 cores, Python 3.11,
    NumPy 2.4:

        case         prune              scan
        P_22, k=22   1.34 s   / 137 MB  0.57 s   / 153 MB
        P_24, k=12   0.40 s   /  53 MB  0.31 s   / 126 MB
        P_24, k=9    0.0014 s /  31 MB  0.087 s  / 126 MB
        C_24, k=10   0.018 s  /  32 MB  0.105 s  / 126 MB
        P_20, k=7    0.0009 s /  31 MB  0.0073 s /  37 MB
    """
    try:
        k = g.n if k is None else operator.index(k)  # NumPy integers too
    except TypeError:
        pass  # not an integer: refused below
    if not (isinstance(k, int) and 1 <= k <= g.n):
        raise ValueError(f"cardinality bound k={k!r} must satisfy 1 <= k <= {g.n}")
    if g.n > cap:
        raise TooLargeError(f"n={g.n} exceeds the enumeration cap {cap}; "
                            "raise cap (--cap on the command line) to override")
    if method is None:
        method = "scan" if g.n <= SCAN_LIMIT else "prune"
    if method == "prune":
        return _prune_family(g, k)
    if method != "scan":
        raise ValueError(f"unknown enumeration method {method!r}")
    table = _table(g)
    return _family(g.n, k, np.flatnonzero(table.dom & (table.cards <= k)).astype(np.uint64))


def count_by_cardinality(g: Graph) -> tuple[int, ...]:
    """d(G, j) for j = 0..n: the number of dominating sets of each size."""
    return _table(g).dom_by_card


def total_count(g: Graph) -> int:
    """Number of dominating sets of G (odd for every graph, see verify)."""
    return int(np.count_nonzero(_table(g).dom))


def domination_number(g: Graph) -> int:
    """gamma(G): minimum cardinality of a dominating set."""
    return next(j for j, c in enumerate(_table(g).dom_by_card) if c)


def upper_domination_number(g: Graph) -> int:
    """Gamma(G): maximum cardinality over minimal dominating sets."""
    return max(j for j, c in enumerate(_table(g).minimal_by_card) if c)


def count_minimum_sets(g: Graph) -> int:
    """Number of dominating sets of cardinality gamma(G)."""
    return next(c for c in count_by_cardinality(g) if c)


def count_maximal_minimal_sets(g: Graph) -> int:
    """Number of minimal dominating sets of cardinality Gamma(G)."""
    return next(c for c in reversed(_table(g).minimal_by_card) if c)
