"""Dominating-set decision, enumeration, and exact counting.

Two independent enumeration routes exist on purpose:

* ``method="scan"``: a vectorized sweep over all 2^n subsets of the
  graph's SubsetTable.  This is the trusted oracle.
* ``method="prune"``: branch on the lowest uncovered vertex (Fomin,
  Grandoni, Pyatkin, Stepanov, TALG 2008).  Two cuts drop a child whose
  k - |S| members cannot finish it: the width cut, when it leaves more
  vertices uncovered than they cover (each covers at most Delta + 1, so at
  k = n it never fires), and the packing cut, when it leaves more vertices
  of a 2-packing P uncovered than it has members left.  The closed
  neighborhoods of P's vertices are disjoint, so no member covers two of
  them and each needs its own.  A 2-packing is at most gamma, and on trees
  the largest one equals it (Meir, Moon, Pacific J. Math. 1975); P is
  taken greedily, smallest N[v] first.  Already-tried candidates are
  excluded on later branches, so each dominating set is generated exactly
  once and work follows the output, far below 2^n for sparse graphs at
  small k.  A parent decides each child: one that dominates goes straight
  to the listing of its supersets, only one that passes both cuts is
  searched, and the k-th member is decided in its parent's loop, with no
  call per set.  It raises TooLargeError once it lists more than 2^24
  sets, the most the scan route returns.

Both return the identical DomFamily, sorted by (cardinality, bitmask
value); the test suite holds them to that.  ``enumerate_dominating`` is the
one place that picks the route when none is given: the scan whenever the
graph fits the subset table, the prune route above it (its docstring gives
the measurements).  An explicit ``method`` forces a route, so tests, demos
and benchmarks can pit one against the other.

The counting operations read the same table.  It keeps the dominating mask
as a bitset, 64 subsets a word (2 MB at n = 24), and fills the minimal mask
and the counts by cardinality on first use.  S dominates iff it meets every
N[u], so the mask is built in place: each u marks word ~h (h = N[u]'s high
part) with the positions that meet N[u], then one spread pass per vertex
v >= 6 ANDs each word into the word without v, leaving word w the AND of the
marks at every word that contains it.  Right, since w is inside ~h exactly
when w misses h, and where w meets h it meets N[u] already.  The counts read
each word through seven masks of in-word positions by popcount, and the scan
masks each word the same way before it unpacks the words that hold a set.
The last graph's table is kept (``lru_cache(maxsize=1)``), so queries on one
graph (or on equal graphs) build it once.  The last prune-route family is
kept too: a prune-route call on an equal graph with no larger k returns the
kept family's first sets, those with at most k members, so reconfig.build
after enumerate_dominating searches once.  Each is dropped only once its
successor is made.  The table's constructor refuses graphs above
ENUMERATION_CAP = 24 vertices with TooLargeError, whatever the query or
route, so a refused graph keeps the cached table.
enumerate_dominating and reconfig.build also take a ``cap`` on n (default
24); only the prune route can use a larger one.

A DomFamily holds the bitmask array and makes VertexSubset objects only
when ``sets`` is read.  Its JSON, and the labels and edges of reconfig's
exports, are written as fixed-width byte records with no Python object per
set: ``_records`` lays each record's fields out in one structured array,
drops their NUL padding with one boolean compress over its bytes and
decodes once.  A label is one field per 8-bit chunk of the mask, looked up
in that chunk's table of 512 NUL-padded texts: entry x lists the members of
x, each after the separator, and entry 256 + x the same without the first
separator, for the chunk that holds the set's lowest member.  The texts are
made in blocks of _BLOCK // n sets, one chunk of output each, so an export
is streamed with memory bounded by the block.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import TooLargeError
from .graphs import Graph, VertexSubset, subset_bits

# The subset table covers 2^n subsets; 24 keeps that, and the scan's output, around 16.7M.
ENUMERATION_CAP = 24


@dataclass(frozen=True, eq=False)
class DomFamily:
    """All dominating sets of a graph with cardinality at most k.

    bits holds their bitmasks (uint64), sorted by (cardinality, bitmask
    value) and duplicate-free; cards (uint8 popcounts) and sets (VertexSubset)
    are made on first use; by_card[j] counts members of cardinality j <= k.
    Families are equal when graph_n, k and bits are.
    """

    graph_n: int
    k: int
    bits: np.ndarray

    def __post_init__(self):
        self.bits.flags.writeable = False  # sets and cards are cached from it

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
    def cards(self) -> np.ndarray:
        cards = np.bitwise_count(self.bits)
        cards.flags.writeable = False
        return cards

    @cached_property
    def by_card(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.cards, minlength=self.k + 1).tolist())

    def to_json_obj(self) -> list[list[int]]:
        return [list(s.vertices()) for s in self.sets]

    def json_chunks(self):
        """The chunks of to_json(), one per block of sets, made as they are read."""
        yield "["
        for block in _blocks(len(self), self.graph_n):
            text = _records(b", [", *_labels(self.bits[block], self.graph_n, ", "), b"]")
            yield text if block.start else text[2:]
        yield "]"

    def to_json(self) -> str:
        """json.dumps(self.to_json_obj()), formatted from the bitmasks."""
        return "".join(self.json_chunks())


# records per block of the streamed text exports, and nodes per pass of reconfig.stats:
# a block's arrays stay in cache, which made stats on L_12 three times faster than one
# pass over all 4.9M nodes
_BLOCK = 1 << 16


def _blocks(count: int, n: int):
    """Slices of count ids in blocks of _BLOCK // n: a block's sets have at most
    _BLOCK members in all, and its nodes at most _BLOCK neighbours in D_k(G)."""
    step = max(1, _BLOCK // n)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _records(*fields) -> str:
    """One record per item, each its fields in turn, as one str.

    A field is a bytes constant, the same in every record, or an array of
    fixed-width bytes items, one per record, padded with NUL bytes.  The
    records are laid out in one structured array, and one boolean compress
    over its bytes drops the padding before the single decode.
    """
    rec = np.empty(next(len(f) for f in fields if not isinstance(f, bytes)),
                   [(str(i), f"S{len(f)}" if isinstance(f, bytes) else f.dtype)
                    for i, f in enumerate(fields)])  # packed: no alignment padding
    for i, f in enumerate(fields):
        rec[str(i)] = f
    raw = rec.view(np.uint8)
    kept = raw[raw != 0]
    del rec, raw  # freed before the decode copies kept
    return str(kept, "ascii")


@lru_cache(maxsize=None)  # one per 8-vertex chunk and separator: at most 16
def _chunk_table(low: int, sep: str) -> np.ndarray:
    """For each byte value x, sep + label for each member of x << low; entry
    256 + x the same without the first sep, for the chunk of a set's lowest
    member.  Fixed-width bytes, padded with NUL bytes."""
    texts = [""]
    for v in range(8):  # the values with bit v set follow those below 1 << v
        label = f"{sep}{low + v + 1}"
        texts += [t + label for t in texts]
    table = np.array([t.encode() for t in texts + [t[len(sep):] for t in texts]])
    table.flags.writeable = False
    return table


def _labels(bits: np.ndarray, n: int, sep: str) -> list[np.ndarray]:
    """The 1-based members of each bitmask over n vertices, in increasing
    order and joined by sep, as one _records field per 8-bit chunk of the
    mask (sep="," gives what VertexSubset prints between its braces).

    A member's text starts with sep, except the first: a chunk with no
    member below it takes its table's second half.
    """
    fields = []
    for low in range(0, n, 8):
        chunk = (bits >> np.uint64(low)) & np.uint64(255)
        chunk[(bits & np.uint64((1 << low) - 1)) == 0] |= np.uint64(256)
        fields.append(_chunk_table(low, sep)[chunk])
    return fields


# In-word masks over the 64 subsets of one word: _MEETS[m] holds the positions whose
# subset of vertices 0..5 meets m, _AT_MOST[c + 1] those with at most c set bits
# (_AT_MOST[0] is empty)
_MEETS = np.array([sum(1 << p for p in range(64) if p & m) for m in range(64)], dtype=np.uint64)
_AT_MOST = np.array([sum(1 << p for p in range(64) if p.bit_count() < c) for c in range(8)],
                    dtype=np.uint64)


class SubsetTable:
    """Dominating and minimal masks over all 2^n subsets, packed 64 a word.

    Subset s is bit s & 63 of word s >> 6 (one word when n < 6), so word w
    holds the subsets whose high part is w, and the popcount of a subset is
    that of its position in the word plus that of w.
    """

    def __init__(self, g: Graph):
        if g.n > ENUMERATION_CAP:
            raise TooLargeError(
                f"n={g.n} exceeds {ENUMERATION_CAP}, the limit of the 2^n subset table"
            )
        self.n = g.n
        # mark: a word that misses the high part h of N[u] needs its low part to meet
        # N[u], so u ANDs that into ~h, the largest such word
        words = max(1, (1 << g.n) >> 6)
        self.dom = np.full(words, (1 << (1 << min(g.n, 6))) - 1, dtype="<u8")
        for nbhd in g.closed_nbhd:
            self.dom[(words - 1) ^ (nbhd >> 6)] &= _MEETS[nbhd & 63]
        # spread: AND each word into the one without bit v - 6, so that word w holds
        # the AND of the marks at every word that contains w
        for v in range(6, g.n):
            half = self.dom.reshape(-1, 2, 1 << (v - 6))
            half[:, 0, :] &= half[:, 1, :]

    @cached_property
    def _word_cards(self) -> np.ndarray:
        return np.bitwise_count(np.arange(len(self.dom), dtype=np.uint32))

    @cached_property
    def minimal(self) -> np.ndarray:
        # v in S is removable iff S - v dominates: for v < 6, S - v sits 2^v bits lower
        # in S's word; above, in the lower half of each block of 2 << (v - 6) words
        removable = np.zeros_like(self.dom)
        for v in range(min(self.n, 6)):
            removable |= (self.dom << np.uint64(1 << v)) & _MEETS[1 << v]
        for v in range(6, self.n):
            step = 1 << (v - 6)
            removable.reshape(-1, 2, step)[:, 1, :] |= self.dom.reshape(-1, 2, step)[:, 0, :]
        # a set with a removable vertex dominates, so minimal = dom and not removable
        return np.bitwise_and(self.dom, np.invert(removable, out=removable), out=removable)

    def _by_card(self, words: np.ndarray) -> tuple[int, ...]:
        # the subsets at positions with c set bits in a word with j set bits have j + c
        counts = np.zeros(self.n + 7, dtype=np.int64)
        for c in range(7):
            in_word = np.bitwise_count(words & (_AT_MOST[c + 1] ^ _AT_MOST[c]))
            by_word = np.bincount(self._word_cards, weights=in_word)  # exact: sums < 2^53
            counts[c : c + len(by_word)] += by_word.astype(np.int64)
        return tuple(counts[: self.n + 1].tolist())

    @cached_property
    def dom_by_card(self) -> tuple[int, ...]:
        return self._by_card(self.dom)

    @cached_property
    def minimal_by_card(self) -> tuple[int, ...]:
        return self._by_card(self.minimal)

    def scan(self, k: int) -> np.ndarray:
        """The bitmasks of the dominating sets with at most k members, sorted by value."""
        # in a word with j set bits, keep the positions with at most k - j set bits
        allowed = _AT_MOST[np.clip(k + 1 - np.arange(self.n + 1), 0, 7)]
        words = self.dom & allowed[self._word_cards]
        nonzero = np.flatnonzero(words)
        members = np.flatnonzero(
            np.unpackbits(words[nonzero].astype("<u8", copy=False).view(np.uint8),
                          bitorder="little"))
        bits = nonzero[members >> 6] << 6
        bits |= members & 63
        return bits.view(np.uint64)


# equal graphs share the table: a Graph hashes and compares by (n, edges)
_table = lru_cache(maxsize=1)(SubsetTable)


def _family(n: int, k: int, bits: np.ndarray) -> DomFamily:
    # bits is sorted by value; a stable sort by cardinality keeps that inside each block
    return DomFamily(n, k, bits[np.argsort(np.bitwise_count(bits), kind="stable")])


_last_family: tuple = (None, None)  # (graph, DomFamily) of the last prune-route search


def _prune_family(g: Graph, k: int) -> DomFamily:
    global _last_family
    graph, family = _last_family
    if graph != g or family.k < k:
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
    # a 2-packing, greedily from the smallest N[v]: the N[v] of its vertices are
    # disjoint, so no member covers two of them and each uncovered one needs its own
    packing = union = 0
    for v in sorted(range(g.n), key=lambda v: nbhd[v].bit_count()):
        if not nbhd[v] & union:
            packing |= 1 << v
            union |= nbhd[v]
    budget = 1 << ENUMERATION_CAP  # sets; the scan route returns at most as many
    refusal = (f"more than 2^{ENUMERATION_CAP} dominating sets with k={k}, "
               "the output budget of the prune route (the most the scan route returns)")
    out = array("Q")  # 8 bytes a set, where a list of ints takes about 71

    def expand(base: int, card: int, banned: int) -> None:
        # every superset of a dominating set dominates; list those within budget
        free = []  # the bits of the vertices that may join base
        m = full & ~(base | banned)
        while m:
            free.append(m & -m)
            m &= m - 1
        extras = min(k - card, len(free))
        # 2^|free| bounds the exact count, which is only summed near the budget
        if len(out) + (1 << len(free)) > budget and len(out) + sum(
            math.comb(len(free), j) for j in range(extras + 1)
        ) > budget:
            raise TooLargeError(refusal)
        out.append(base)
        for extra in range(1, extras + 1):
            # distinct bits, so their sum is their union
            out.extend(base | sum(combo) for combo in itertools.combinations(free, extra))

    def branch(chosen: int, card: int, banned: int, miss: int) -> None:
        # miss is not empty and card < k
        u = (miss & -miss).bit_length() - 1
        # u must be covered by a not-yet-banned member of N[u]; trying the
        # candidates in order and banning earlier ones partitions the space
        m = nbhd[u] & ~banned
        if card + 1 == k:
            # the last member: a candidate that covers miss completes a set, and
            # no other can; at most |N[u]| sets get past the budget before it raises
            while m:
                low = m & -m
                m ^= low
                if not miss & ~nbhd[low.bit_length() - 1]:
                    out.append(chosen | low)
            if len(out) > budget:
                raise TooLargeError(refusal)
            return
        # a child that leaves more than reach uncovered, or more packing
        # vertices than it has members left, is cut
        rest = k - card - 1  # the members a child may still add
        reach = rest * width  # the most they cover
        tried = 0
        while m:
            low = m & -m
            m ^= low
            left = miss & ~nbhd[low.bit_length() - 1]
            if not left:
                expand(chosen | low, card + 1, banned | tried)
            elif left.bit_count() <= reach and (left & packing).bit_count() <= rest:
                branch(chosen | low, card + 1, banned | tried, left)
            tried |= low

    branch(0, 0, 0, full)
    return np.frombuffer(out, dtype=np.uint64)


def enumerate_dominating(
    g: Graph, k: int | None = None, *, cap: int = ENUMERATION_CAP, method: str | None = None
) -> DomFamily:
    """All dominating sets with cardinality at most k (default k = n).

    method is "scan" or "prune"; None picks the scan whenever the graph fits
    the subset table (n <= ENUMERATION_CAP), and prune above it, which only a
    raised cap reaches.  The scan's time grows with 2^n whatever k is, the
    prune route's with the output: the scan wins at k = n, and the prune
    route near gamma by about the table's build.  In a fresh process, table
    build included, median of 5, time / peak RSS (2 cores, Python 3.11,
    NumPy 2.4):

        case          sets       scan               prune
        P_24, k=24    1800281    0.073 s  /  76 MB  3.14 s   /  86 MB
        P_24, k=8     1          0.0125 s /  33 MB  0.0002 s /  28 MB
        L_12, k=24    4888173    0.18 s   / 148 MB  4.42 s   / 183 MB
        L_12, k=7     28         0.0111 s /  33 MB  0.0004 s /  29 MB
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
        method = "scan" if g.n <= ENUMERATION_CAP else "prune"
    if method == "prune":
        return _prune_family(g, k)
    if method != "scan":
        raise ValueError(f"unknown enumeration method {method!r}")
    return _family(g.n, k, _table(g).scan(k))


def count_by_cardinality(g: Graph) -> tuple[int, ...]:
    """d(G, j) for j = 0..n: the number of dominating sets of each size."""
    return _table(g).dom_by_card


def total_count(g: Graph) -> int:
    """Number of dominating sets of G (odd for every graph, see verify)."""
    return int(np.bitwise_count(_table(g).dom).sum())


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
