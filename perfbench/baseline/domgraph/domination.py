"""Dominating-set decision, enumeration, and exact counting.

Two independent enumeration routes exist on purpose:

* ``method="scan"``: a vectorized sweep over all 2^n subsets.  Coverage
  masks for every subset are built by doubling (subsets of {0..v} are the
  subsets of {0..v-1} with and without v), so the whole table costs one
  pass of bitwise ORs.  This is the trusted oracle.
* ``method="prune"``: branch on which vertex covers the lowest uncovered
  vertex, with already-tried candidates excluded on later branches.  Each
  dominating set is generated exactly once and work is proportional to the
  output, which is far below 2^n for sparse graphs.

Both return the identical DomFamily, sorted by (cardinality, bitmask
value); the test suite holds them to that.

Counting operations (total_count, count_by_cardinality, the gamma/Gamma
numbers) use the scan route without materializing set objects.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError
from .graphs import Graph, VertexSubset, subset_bits

# Full enumeration is 2^n subsets; 24 keeps that around 16.7M words.
ENUMERATION_CAP = 24


@dataclass(frozen=True)
class DomFamily:
    """All dominating sets of a graph with cardinality at most k.

    sets is sorted by (cardinality, bitmask value) and duplicate-free;
    by_card[j] counts members of cardinality j for j = 0..k.
    """

    graph_n: int
    k: int
    sets: tuple[VertexSubset, ...]
    by_card: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def to_json_obj(self) -> list[list[int]]:
        return [list(s.vertices()) for s in self.sets]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise TooLargeError(
            f"n={g.n} exceeds the enumeration cap {cap}; pass cap= to override"
        )


def _coverage_table(g: Graph) -> np.ndarray:
    """closed-neighborhood union for every subset, indexed by bitmask."""
    cov = np.empty(1 << g.n, dtype=np.int64)
    cov[0] = 0
    size = 1
    for v in range(g.n):
        np.bitwise_or(cov[:size], np.int64(g.closed_nbhd[v]), out=cov[size : 2 * size])
        size <<= 1
    return cov


def _dominating_mask(g: Graph) -> np.ndarray:
    return _coverage_table(g) == np.int64(g.full_mask)


def _popcounts(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


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


def _scan_bits(g: Graph, k: int) -> list[int]:
    dom = _dominating_mask(g)
    idx = np.flatnonzero(dom)
    cards = np.bitwise_count(idx.astype(np.uint64)).astype(np.int64)
    return [int(b) for b in idx[cards <= k]]


def _prune_bits(g: Graph, k: int) -> list[int]:
    full = g.full_mask
    nbhd = g.closed_nbhd
    n = g.n
    out: list[int] = []

    def expand(base: int, card: int, banned: int) -> None:
        # every superset of a dominating set dominates; list those within budget
        out.append(base)
        free = [v for v in range(n) if not (base | banned) >> v & 1]
        for extra in range(1, min(k - card, len(free)) + 1):
            for combo in itertools.combinations(free, extra):
                bits = base
                for v in combo:
                    bits |= 1 << v
                out.append(bits)

    def branch(chosen: int, card: int, banned: int, covered: int) -> None:
        if covered == full:
            expand(chosen, card, banned)
            return
        if card == k:
            return
        miss = full & ~covered
        u = (miss & -miss).bit_length() - 1
        # u must be covered by a not-yet-banned member of N[u]; trying the
        # candidates in order and banning earlier ones partitions the space
        cand = nbhd[u] & ~banned
        tried = 0
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            branch(chosen | (1 << v), card + 1, banned | tried, covered | nbhd[v])
            tried |= 1 << v

    branch(0, 0, 0, 0)
    return out


def enumerate_dominating(
    g: Graph, k: int | None = None, *, cap: int = ENUMERATION_CAP, method: str = "prune"
) -> DomFamily:
    """All dominating sets with cardinality at most k (default k = n)."""
    if k is None:
        k = g.n
    if not 1 <= k <= g.n:
        raise ValueError(f"cardinality bound k={k} must satisfy 1 <= k <= {g.n}")
    _check_cap(g, cap)
    if method == "prune":
        bits = _prune_bits(g, k)
    elif method == "scan":
        bits = _scan_bits(g, k)
    else:
        raise ValueError(f"unknown enumeration method {method!r}")
    bits.sort(key=lambda b: (b.bit_count(), b))
    by_card = [0] * (k + 1)
    for b in bits:
        by_card[b.bit_count()] += 1
    return DomFamily(
        graph_n=g.n,
        k=k,
        sets=tuple(VertexSubset(b) for b in bits),
        by_card=tuple(by_card),
    )


def count_by_cardinality(g: Graph, *, cap: int = ENUMERATION_CAP) -> tuple[int, ...]:
    """d(G, j) for j = 0..n: the number of dominating sets of each size."""
    _check_cap(g, cap)
    dom = _dominating_mask(g)
    cards = _popcounts(g.n)
    counts = np.bincount(cards[dom], minlength=g.n + 1)
    return tuple(int(c) for c in counts)


def total_count(g: Graph, *, cap: int = ENUMERATION_CAP) -> int:
    """Number of dominating sets of G (odd for every graph, see verify)."""
    _check_cap(g, cap)
    return int(_dominating_mask(g).sum())


def domination_number(g: Graph, *, cap: int = ENUMERATION_CAP) -> int:
    """gamma(G): minimum cardinality of a dominating set."""
    _check_cap(g, cap)
    dom = _dominating_mask(g)
    cards = _popcounts(g.n)
    return int(cards[dom].min())


def _minimal_mask(g: Graph) -> np.ndarray:
    """Boolean mask over all subsets: dominating with no removable vertex."""
    dom = _dominating_mask(g)
    idx = np.arange(1 << g.n, dtype=np.int64)
    minimal = dom.copy()
    for v in range(g.n):
        bit = np.int64(1 << v)
        has = (idx & bit) != 0
        minimal &= ~(has & dom[idx ^ bit])
    return minimal


def upper_domination_number(g: Graph, *, cap: int = ENUMERATION_CAP) -> int:
    """Gamma(G): maximum cardinality over minimal dominating sets."""
    _check_cap(g, cap)
    cards = _popcounts(g.n)[_minimal_mask(g)]
    return int(cards.max())


def count_minimum_sets(g: Graph, *, cap: int = ENUMERATION_CAP) -> int:
    """Number of dominating sets of cardinality gamma(G)."""
    counts = count_by_cardinality(g, cap=cap)
    return counts[domination_number(g, cap=cap)]


def count_maximal_minimal_sets(g: Graph, *, cap: int = ENUMERATION_CAP) -> int:
    """Number of minimal dominating sets of cardinality Gamma(G)."""
    _check_cap(g, cap)
    cards = _popcounts(g.n)[_minimal_mask(g)]
    return int((cards == cards.max()).sum())


def counts_csv(graph_n: int, counts) -> str:
    """CSV block `n,j,count` with one row per nonzero cardinality."""
    lines = ["n,j,count"]
    lines += [f"{graph_n},{j},{c}" for j, c in enumerate(counts) if c]
    return "\n".join(lines) + "\n"
