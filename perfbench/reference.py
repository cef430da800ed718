"""Independent reference values for the benchmark's answer checks.

Nothing here imports domgraph.  Graphs arrive as (n, edges) with 0-based
edges, in the same vertex labelling the domgraph constructors use, so node
ids of D_k(G) (positions in the order (cardinality, bitmask)) can be
reproduced here.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Edge lists with domgraph's vertex labelling
# ---------------------------------------------------------------------------

def canonical(edges) -> list[tuple[int, int]]:
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return canonical((i, (i + 1) % n) for i in range(n))


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def ladder_edges(n: int) -> list[tuple[int, int]]:
    """P_n x K_2 with pair (u, side) at index 2u + side, as domgraph.ladder."""
    rungs = [(2 * u, 2 * u + 1) for u in range(n)]
    rails = [(2 * a + s, 2 * b + s) for a, b in path_edges(n) for s in (0, 1)]
    return canonical(rungs + rails)


def random_tree(rng, n: int) -> list[tuple[int, int]]:
    return canonical((rng.randrange(v), v) for v in range(1, n))


def random_regular(rng, n: int, d: int) -> list[tuple[int, int]]:
    """A connected d-regular simple graph from the pairing model, retried
    until the pairing has no loop, no repeated edge, and one component."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2]) if u != v}
        if len(edges) == n * d // 2 and connected(n, edges):
            return sorted(edges)


def connected(n: int, edges) -> bool:
    nbhd = closed_nbhd(n, edges)
    reach, grown = 0, 1
    while grown != reach:
        reach = grown
        for v in range(n):
            if reach >> v & 1:
                grown |= nbhd[v]
    return reach == (1 << n) - 1


def random_connected(rng, n: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree plus random extra edges, m edges in total."""
    edges = set(random_tree(rng, n))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


# ---------------------------------------------------------------------------
# Subset tables
# ---------------------------------------------------------------------------

def closed_nbhd(n: int, edges) -> list[int]:
    nbhd = [1 << v for v in range(n)]
    for u, v in edges:
        nbhd[u] |= 1 << v
        nbhd[v] |= 1 << u
    return nbhd


def dominates(nbhd: list[int], bits: int) -> bool:
    cov = 0
    for v, mask in enumerate(nbhd):
        if bits >> v & 1:
            cov |= mask
    return cov == (1 << len(nbhd)) - 1


def dominating_table(n: int, edges) -> np.ndarray:
    """Boolean table over all 2^n subsets (indexed by bitmask): dominating."""
    cov = np.zeros(1, dtype=np.uint64)
    for mask in closed_nbhd(n, edges):
        cov = np.concatenate([cov, cov | np.uint64(mask)])
    return cov == np.uint64((1 << n) - 1)


def cardinalities(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def minimal_table(dom: np.ndarray, n: int) -> np.ndarray:
    """Minimal dominating subsets, one vertex at a time on a reshaped view:
    axis 1 of dom.reshape(-1, 2, 2^v) splits on membership of v."""
    minimal = dom.copy()
    for v in range(n):
        with_v = minimal.reshape(-1, 2, 1 << v)[:, 1, :]
        with_v &= ~dom.reshape(-1, 2, 1 << v)[:, 0, :]
    return minimal


def table_answers(n: int, edges) -> dict:
    """Counts by cardinality, Gamma and the maximal-minimal count."""
    dom = dominating_table(n, edges)
    cards = cardinalities(n)
    counts = tuple(int(c) for c in np.bincount(cards[dom], minlength=n + 1))
    minimal_cards = cards[minimal_table(dom, n)]
    upper = int(minimal_cards.max())
    return {
        "counts": counts,
        "upper": upper,
        "max_minimal": int((minimal_cards == upper).sum()),
    }


def reconfig_answers(n: int, edges, k: int) -> dict:
    """D_k(G) from the subset table: node bitmasks in id order, degrees."""
    dom = dominating_table(n, edges)
    cards = cardinalities(n)
    node = dom & (cards <= k)
    idx = np.arange(1 << n, dtype=np.int64)
    degree = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        degree += node[idx ^ (1 << v)]
    ids = np.flatnonzero(node)
    ids = ids[np.lexsort((ids, cards[ids]))]
    deg = degree[ids]
    return {
        "bits": ids,
        "parts": (int((cards[ids] % 2 == 1).sum()), int((cards[ids] % 2 == 0).sum())),
        "size": int(deg.sum()) // 2,
        "degrees": deg,
    }


# ---------------------------------------------------------------------------
# Trees: the domination polynomial by dynamic programming
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a, b, sign=1):
    size = max(len(a), len(b))
    a = a + [0] * (size - len(a))
    b = b + [0] * (size - len(b))
    return [x + sign * y for x, y in zip(a, b)]


def tree_domination_counts(n: int, edges) -> list[int]:
    """d(T, j) for j = 0..n on a tree, rooted at 0.

    Per vertex v: A = v in S; B = v not in S but dominated by a child;
    C = v not in S and not yet dominated (its parent must be in S).
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent = [0], [-1] * n
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    a, b, c = [None] * n, [None] * n, [None] * n
    for v in reversed(order):
        in_s, free, undominated = [0, 1], [1], [1]
        for ch in adj[v]:
            if ch == parent[v]:
                continue
            in_s = _poly_mul(in_s, _poly_add(_poly_add(a[ch], b[ch]), c[ch]))
            free = _poly_mul(free, _poly_add(a[ch], b[ch]))
            undominated = _poly_mul(undominated, b[ch])
        a[v], b[v], c[v] = in_s, _poly_add(free, undominated, -1), undominated
    counts = _poly_add(a[0], b[0])
    return (counts + [0] * (n + 1))[: n + 1]


# ---------------------------------------------------------------------------
# Small graphs
# ---------------------------------------------------------------------------

def has_hamiltonian_cycle(adj: list[set[int]]) -> bool:
    """Depth-first search over simple paths from node 0."""
    order = len(adj)
    if order < 3:
        return False
    path, on_path = [0], [False] * order
    on_path[0] = True

    def extend(v: int) -> bool:
        if len(path) == order:
            return 0 in adj[v]
        for w in adj[v]:
            if not on_path[w]:
                on_path[w] = True
                path.append(w)
                if extend(w):
                    return True
                path.pop()
                on_path[w] = False
        return False

    return extend(0)


def tribonacci(seeds: tuple[int, int, int], count: int) -> list[int]:
    vals = list(seeds[:count])
    while len(vals) < count:
        vals.append(vals[-1] + vals[-2] + vals[-3])
    return vals
