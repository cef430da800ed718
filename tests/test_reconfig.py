import dataclasses
import itertools
import json
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_domination import drawn_graphs, table_is_cached

from domgraph import (
    EmptyGraphError,
    TooLargeError,
    bipartition,
    build,
    connected_components,
    degree_extremes,
    distance,
    enumerate_dominating,
    euler_status,
    is_hamiltonian,
    is_regular,
    make_family,
    path_triangle,
)
from domgraph import cli, domination, reconfig
from domgraph.domination import ENUMERATION_CAP
from domgraph.graphs import VertexSubset, graph_from_edges, ladder
from domgraph.reconfig import edge_list, to_dot, to_json, to_json_obj


def test_build_complete_3():
    r = build(make_family("complete", 3))
    assert r.order == 7 and r.size == 9
    assert r.nodes.k == 3 and r.nodes.graph_n == 3


def test_build_holds_the_family_enumerate_dominating_returns():
    # the scan route, the prune route above the scan limit, and k < gamma
    p10, p28 = make_family("path", 10), make_family("path", 28)
    for g, k, cap in [(p10, 10, ENUMERATION_CAP), (p28, 11, 63), (p10, 3, ENUMERATION_CAP)]:
        r = build(g, k, cap=cap)
        assert r.nodes == enumerate_dominating(g, k, cap=cap)
        assert r.order == len(r.nodes) and r.nodes.k == k
    assert r.order == 0  # gamma(P_10) = 4


def test_build_path_3():
    r = build(make_family("path", 3))
    assert r.order == 5 and r.size == 5
    assert edge_list(r) == [(0, 1), (0, 3), (1, 4), (2, 4), (3, 4)]


def test_build_k1_bound_gives_complement():
    r = build(make_family("complete", 4), 1)
    assert r.order == 4 and r.size == 0
    assert is_regular(r)
    assert connected_components(r)[0] == 4


def test_adjacency_matches_pairwise_symmetric_difference():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        r = build(g)
        expected = set()
        for i, a in enumerate(r.nodes.sets):
            for j, b in enumerate(r.nodes.sets):
                if i < j and (a.bits ^ b.bits).bit_count() == 1:
                    expected.add((i, j))
        assert set(edge_list(r)) == expected


def test_bipartition_sizes():
    x, y = bipartition(build(make_family("complete", 3)))
    assert (len(x), len(y)) == (4, 3)
    # D_3(P_3): cardinalities of the 5 sets are 1,2,2,2,3, so 2 odd / 3 even
    x, y = bipartition(build(make_family("path", 3)))
    assert (len(x), len(y)) == (2, 3)
    x, y = bipartition(build(make_family("complete", 2), 1))
    assert (len(x), len(y)) == (2, 0)


def test_every_edge_crosses_the_parity_parts():
    r = build(make_family("cycle", 5))
    cards = [s.card for s in r.nodes.sets]
    for i, j in edge_list(r):
        assert (cards[i] + cards[j]) % 2 == 1


def test_degree_extremes():
    assert degree_extremes(build(make_family("complete", 4))) == (3, 4)
    assert degree_extremes(build(make_family("path", 7))) == (3, 7)
    assert degree_extremes(build(make_family("cycle", 6))) == (3, 6)


def test_is_regular():
    assert not is_regular(build(make_family("complete", 3)))
    assert is_regular(build(make_family("complete", 3), 1))
    assert not is_regular(build(make_family("path", 4)))


def test_every_array_the_graph_hands_out_refuses_a_write():
    r = build(make_family("path", 5))
    arrays = {"nodes.bits": r.nodes.bits, "nodes.cards": r.nodes.cards, "indptr": r.indptr,
              "indices": r.indices, "component": r.component, "degrees": r.degrees}
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[:] = 3
        assert not a.flags.writeable, name
    assert degree_extremes(r) == (2, 5) and not is_regular(r)


def test_empty_graph_ops_raise():
    r = build(make_family("path", 9), 2)  # gamma(P_9) = 3
    assert r.order == 0 and r.nodes.k == 2
    assert connected_components(r) == (0, ())
    with pytest.raises(EmptyGraphError):
        degree_extremes(r)
    with pytest.raises(EmptyGraphError):
        is_regular(r)


def test_connected_components():
    assert connected_components(build(make_family("path", 5)))[0] == 1
    assert connected_components(build(make_family("complete", 3), 1))[0] == 3
    assert connected_components(build(make_family("cycle", 4)))[0] == 1


def test_distance_examples():
    r = build(make_family("path", 5))
    a = r.node_id(VertexSubset.from_vertices([1, 4]).bits)
    b = r.node_id(VertexSubset.from_vertices([2, 4]).bits)
    c = r.node_id(VertexSubset.from_vertices([2, 5]).bits)
    assert distance(r, a, b) == 2
    assert distance(r, a, a) == 0
    # disjoint same-cardinality pair: distance 2 is impossible, BFS gives 4
    assert distance(r, a, c) == 4


def test_distance_unreachable_and_validation():
    r = build(make_family("complete", 3), 1)
    assert distance(r, 0, 1) is None
    with pytest.raises(ValueError):
        distance(r, 0, 99)
    with pytest.raises(ValueError):
        reconfig.distance_row(r, r.order)
    for bits in (0b111, 0b1000, -1):  # a set above k, one out of range, a negative
        with pytest.raises(KeyError):
            r.node_id(bits)
    # a non-integer id is refused, never read as a node or an unreachable one
    p5 = build(make_family("path", 5))  # connected
    for a, b in ((0.5, 3), (1.0, 2), (0, "1"), (np.float64(2.0), 1)):
        with pytest.raises(ValueError, match="node ids must be in"):
            distance(p5, a, b)
    for a in (1.0, "0", None):
        with pytest.raises(ValueError, match="node ids must be in"):
            reconfig.distance_row(p5, a)
    with pytest.raises(TypeError):
        p5.node_id(3.0)
    # NumPy integers are ids and bitmasks
    assert distance(p5, np.int64(0), np.uint8(3)) == distance(p5, 0, 3) == 1
    assert reconfig.distance_row(p5, np.int32(1)).tolist() == reconfig.distance_row(p5, 1).tolist()
    assert p5.node_id(p5.nodes.bits[3]) == p5.node_id(int(p5.nodes.bits[3])) == 3


def test_distance_two_characterization_small():
    r = build(make_family("path", 6))
    for a in range(r.order):
        for b in range(a + 1, r.order):
            sa, sb = r.nodes.sets[a], r.nodes.sets[b]
            if sa.card != sb.card:
                continue
            expected = (sa.bits & sb.bits).bit_count() == sa.card - 1
            assert (distance(r, a, b) == 2) == expected


def test_euler_status():
    assert euler_status(build(make_family("complete", 3))) == "neither"
    assert euler_status(build(make_family("complete", 4))) == "neither"
    assert euler_status(build(make_family("path", 1))) == "eulerian"
    assert euler_status(build(make_family("path", 3))) == "trail-only"
    assert euler_status(build(make_family("complete", 3), 1)) == "neither"
    # D_1(P_6) has no node (gamma(P_6) = 2): no component and no odd degree
    empty = build(make_family("path", 6), 1)
    assert euler_status(empty) == "eulerian"
    assert empty.indptr.tolist() == [0]
    assert empty.indices.dtype == np.int32 and empty.indices.size == 0


def test_is_hamiltonian():
    assert not is_hamiltonian(build(make_family("complete", 3)))
    assert not is_hamiltonian(build(make_family("path", 3)))
    assert not is_hamiltonian(build(make_family("complete", 2)))
    # positive control: D_2(K_3) is a 6-cycle
    assert is_hamiltonian(build(make_family("complete", 3), 2))


def test_is_hamiltonian_cap():
    r = build(make_family("complete", 5), 4)
    assert r.order == 30 and [len(part) for part in bipartition(r)] == [15, 15]
    with pytest.raises(TooLargeError):
        is_hamiltonian(r)
    # parity decides before the cap: D_5(C_5) has order 21, parts 11 and 10
    r = build(make_family("cycle", 5))
    assert r.order == 21 and [len(part) for part in bipartition(r)] == [11, 10]
    assert not is_hamiltonian(r)


def csr_rows(indptr, indices) -> list[list[int]]:
    """The adjacency rows of a CSR as lists."""
    return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(len(indptr) - 1)]


def dfs_hamiltonian(indptr, indices) -> bool:
    """Depth-first search over the simple paths from node 0 of the graph with this CSR."""
    nbrs = csr_rows(indptr, indices)

    def extend(path: list[int]) -> bool:
        if len(path) == len(nbrs):
            return path[0] in nbrs[path[-1]]
        return any(extend([*path, w]) for w in nbrs[path[-1]] if w not in path)

    return len(nbrs) >= 3 and extend([0])


def row_components(rows: list[list[int]]) -> np.ndarray:
    """Component labels of the graph with these adjacency rows, numbered by smallest node."""
    labels = [-1] * len(rows)
    count = 0
    for a in range(len(rows)):
        if labels[a] < 0:
            labels[a], stack = count, [a]
            while stack:
                for j in rows[stack.pop()]:
                    if labels[j] < 0:
                        labels[j] = count
                        stack.append(j)
            count += 1
    return np.array(labels)


def edges_csr(order: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of the graph on nodes 0..order-1 with these edges."""
    rows = [sorted({b for a, b in edges if a == i} | {a for a, b in edges if b == i})
            for i in range(order)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr, np.array([j for row in rows for j in row], dtype=np.int32)


def test_is_hamiltonian_search_finds_no_cycle_across_a_bridge():
    # graphs on which only the search can say no, given to the search kernel as
    # a CSR, since none is a D_k(G); m = 10 is at the order cap.  Two m-cycles joined by
    # one edge have minimum degree 2 and one component (small D_k(G) like
    # that all turn out Hamiltonian): across a bridge at node 0 no path
    # covers both cycles; across one far from node 0 paths do, and only the
    # closing edge is missing.  Two disjoint m-cycles leave one unreached,
    # and a pendant node, at node 0 or away from it, is a leaf of every path
    for m in (4, 8, 10):
        order = 2 * m
        cycle = [(i, (i + 1) % m) for i in range(m)]
        twins = cycle + [(m + a, m + b) for a, b in cycle]
        # a cycle of order - 2 nodes and a two-node tail, whose end is the leaf
        ring = [(i, (i + 1) % (order - 2)) for i in range(order - 2)]
        tail_far = ring + [(1, order - 2), (order - 2, order - 1)]
        tail_at_0 = [(a + 2, b + 2) for a, b in ring] + [(1, 2), (0, 1)]
        for edges in (twins + [(0, m + 1)], twins + [(m - 1, m)], twins, tail_far, tail_at_0):
            indptr, indices = edges_csr(order, edges)
            assert not reconfig._hamiltonian(indptr, indices)
            assert not dfs_hamiltonian(indptr, indices)


def test_is_hamiltonian_search_on_every_graph_up_to_4_vertices():
    # on these small graphs, the D_k(G) with parity parts of equal size,
    # minimum degree 2 and one component are all Hamiltonian; the search must
    # say yes on those and no on every other
    reached = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            g = graph_from_edges(n, itertools.compress(pairs, chosen))
            for k in range(1, n + 1):
                r = build(g, k)
                necessary = (r.order >= 3 and 2 * len(bipartition(r)[0]) == r.order
                             and degree_extremes(r)[0] >= 2 and connected_components(r)[0] == 1)
                reached += necessary
                assert is_hamiltonian(r) == necessary
    assert reached == 38


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn_graphs(6))
def test_is_hamiltonian_equals_a_path_search_on_drawn_graphs(g):
    for k in range(1, g.n + 1):
        r = build(g, k)
        if r.order <= 12:
            assert is_hamiltonian(r) == dfs_hamiltonian(r.indptr, r.indices)


def test_is_hamiltonian_equals_a_path_search_on_every_graph_on_5_vertices():
    # the D_k(G) of order up to the cap whose parity parts are equal, the
    # only ones the search is given: orders 13-20 among them
    searched = hamiltonian = 0
    pairs = list(itertools.combinations(range(5), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        g = graph_from_edges(5, itertools.compress(pairs, chosen))
        for k in range(1, 6):
            r = build(g, k)
            if 2 * len(bipartition(r)[0]) == r.order <= reconfig.HAMILTONIAN_ORDER_CAP:
                answer = is_hamiltonian(r)
                assert answer == dfs_hamiltonian(r.indptr, r.indices)
                searched += 1
                hamiltonian += answer
    assert (searched, hamiltonian) == (1468, 547)


def test_hamiltonian_search_equals_a_path_search_on_seeded_graphs():
    # graphs that are no D_k(G), to test the search's cut and its memo of
    # dead (set, end) pairs.  On the 6-node witness the path 0 1 2 is dead
    # and 0 2 1 grows to the cycle 0 2 1 4 3 5: the two share the set
    # {0, 1, 2} and not the end, so a memo keyed by the set alone says no
    witness = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (3, 5)]
    assert reconfig._hamiltonian(*edges_csr(6, witness))
    rng = random.Random(11)
    graphs = []
    for _ in range(300):
        n, p = rng.randint(4, 9), rng.random()
        graphs.append((n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    # balanced bipartite graphs on 20 nodes, the order cap, with minimum degree 2
    while len(graphs) < 340:
        p = rng.uniform(0.12, 0.3)
        edges = [(a, 10 + b) for a in range(10) for b in range(10) if rng.random() < p]
        if all(sum(v in e for e in edges) >= 2 for v in range(20)):
            label = rng.sample(range(20), 20)
            graphs.append((20, [(label[a], label[b]) for a, b in edges]))
    answers = [reconfig._hamiltonian(*edges_csr(n, edges)) for n, edges in graphs]
    assert answers == [dfs_hamiltonian(*edges_csr(n, edges)) for n, edges in graphs]
    assert (sum(answers[:300]), sum(answers[300:])) == (127, 21)


def test_default_k_is_n():
    r = build(make_family("path", 4))
    assert r.nodes.k == 4


def test_k_is_read_as_an_integer():
    p4 = make_family("path", 4)
    r = build(p4, np.uint8(3))
    assert type(r.nodes.k) is int and np.array_equal(r.nodes.bits, build(p4, 3).nodes.bits)
    with pytest.raises(ValueError, match="k=3.5 must satisfy"):
        build(p4, 3.5)


def test_edgeless_base_graph_gives_single_regular_node():
    # only the full vertex set dominates O_n, so D_n(O_n) is one node
    r = build(make_family("empty", 4))
    assert r.order == 1 and r.size == 0
    assert is_regular(r)
    assert euler_status(r) == "eulerian"


def test_json_export():
    r = build(make_family("path", 3))
    obj = json.loads(to_json(r))
    assert obj == {
        "base_n": 3,
        "k": 3,
        "nodes": [[2], [1, 2], [1, 3], [2, 3], [1, 2, 3]],
        "edges": [[0, 1], [0, 3], [1, 4], [2, 4], [3, 4]],
    }


def test_dot_export():
    dot = to_dot(build(make_family("path", 3)))
    assert 'label="{1,3}"' in dot
    assert "s0 -- s1;" in dot


# ---------------------------------------------------------------------------
# The arrays against the definitions
# ---------------------------------------------------------------------------

def python_bfs(n: int, bits: list[int], a: int) -> dict[int, int]:
    """Hop counts from node a, neighbours found by toggling one vertex."""
    index = {b: i for i, b in enumerate(bits)}
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        for v in range(n):
            y = index.get(bits[x] ^ (1 << v))
            if y is not None and y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def python_components(n: int, bits: list[int]) -> tuple[int, tuple[int, ...]]:
    """(component count, labels), components numbered by their smallest node."""
    labels, count = {}, 0
    for a in range(len(bits)):
        if a not in labels:
            labels.update(dict.fromkeys(python_bfs(n, bits, a), count))
            count += 1
    return count, tuple(labels[i] for i in range(len(bits)))


# node 0's component is not all of D_3(G): the search from node 0 leaves four
# components to label propagation
LEFTOVER_G = graph_from_edges(10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 6),
                                   (1, 8), (3, 5), (4, 5), (5, 7), (5, 9), (7, 9), (8, 9)])


def test_components_left_over_by_the_search_from_node_0():
    r = build(LEFTOVER_G, 3)
    assert r.order == 21
    assert connected_components(r) == python_components(10, r.nodes.bits.tolist())
    assert connected_components(r)[0] == 5
    # edgeless: one component per node
    assert connected_components(build(make_family("complete", 4), 1)) == (4, (0, 1, 2, 3))


def test_distance_equals_the_distance_row_on_every_pair(monkeypatch):
    # the lemma's pairs read no level; the others read the levels from a up to
    # the one that reaches b, or all of them across components (None)
    frontiers, levels = reconfig._frontiers, []

    def counted(*args):
        levels.append(0)
        for level in frontiers(*args):
            levels[-1] += 1
            yield level

    monkeypatch.setattr(reconfig, "_frontiers", counted)
    for g, k in [(LEFTOVER_G, 3), (make_family("cycle", 5), 3), (ladder(2), 4)]:
        r = build(g, k)
        bits = r.nodes.bits.tolist()
        for a in range(r.order):
            row = reconfig.distance_row(r, a)
            for b in range(r.order):
                levels.clear()
                assert distance(r, a, b) == (int(row[b]) if row[b] >= 0 else None)
                if (bits[a] | bits[b]).bit_count() <= k:
                    assert levels == []
                else:
                    assert levels == [row[b] if row[b] >= 0 else row.max()]


def test_components_from_the_top_two_layers_equal_a_python_search_at_every_k():
    graphs = [make_family("path", n) for n in range(1, 13)]
    graphs += [make_family("cycle", n) for n in range(3, 13)] + [ladder(5)]
    for g in graphs:
        for k in range(1, g.n + 1):
            r = build(g, k)
            assert connected_components(r) == python_components(g.n, r.nodes.bits.tolist())
    # D_5(P_9) has two components, and a smallest node below layer k - 1 = 4
    r = build(make_family("path", 9), 5)
    count, labels = connected_components(r)
    smallest = [labels.index(c) for c in range(count)]
    assert count == 2 and min(r.nodes.cards[smallest]) <= 3


def test_build_and_distances_within_k_make_no_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("breadth-first search")

    monkeypatch.setattr(reconfig, "_frontiers", no_search)
    assert connected_components(build(make_family("path", 10), 10))[0] == 1
    r = build(make_family("path", 8), 8)  # every |A ∪ B| <= 8 = k
    bits = r.nodes.bits.tolist()
    for a in range(r.order):
        hops = python_bfs(8, bits, a)
        assert [distance(r, a, b) for b in range(r.order)] == [hops[b] for b in range(r.order)]


def test_distance_searches_only_when_the_union_exceeds_k(monkeypatch):
    frontiers, searches = reconfig._frontiers, []

    def counted(*args):
        searches.append(args)
        return frontiers(*args)

    monkeypatch.setattr(reconfig, "_frontiers", counted)
    for g, k in [(LEFTOVER_G, 3), (make_family("cycle", 6), 3)]:
        r = build(g, k)
        bits = r.nodes.bits.tolist()
        beyond = 0
        for a in range(r.order):
            hops = python_bfs(g.n, bits, a)
            for b in range(r.order):
                searches.clear()
                assert distance(r, a, b) == hops.get(b)
                wide = (bits[a] | bits[b]).bit_count() > k
                assert bool(searches) == wide
                beyond += wide
        assert beyond > 0


def test_distance_on_an_empty_graph_says_it_has_no_nodes():
    r = build(make_family("path", 9), 2)  # gamma(P_9) = 3
    with pytest.raises(ValueError, match=r"D_2\(G\) has no nodes"):
        distance(r, 0, 0)
    with pytest.raises(ValueError, match=r"D_2\(G\) has no nodes"):
        reconfig.distance_row(r, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn_graphs(10), st.data())
def test_arrays_match_the_definitions_on_drawn_graphs(g, data):
    for k in range(1, g.n + 1):
        r = build(g, k)
        bits = r.nodes.bits.tolist()
        assert bits == [s.bits for s in enumerate_dominating(g, k).sets]
        assert r.nodes.cards.tolist() == [b.bit_count() for b in bits]
        assert all(r.node_id(b) == i for i, b in enumerate(bits))
        if not bits:
            assert r.order == 0 and connected_components(r) == (0, ())
            continue
        # adjacent iff the sets differ in exactly one vertex
        pairwise = np.bitwise_count(r.nodes.bits[:, None] ^ r.nodes.bits[None, :]) == 1
        for i in range(r.order):
            row = r.indices[r.indptr[i] : r.indptr[i + 1]]
            assert np.array_equal(row, np.flatnonzero(pairwise[i]))
        assert (pairwise == pairwise.T).all() and r.size == pairwise.sum() // 2
        # the exact size of the superset lemma, on the family and on the slice of
        # layers k - 1 and k that stats passes
        d = r.nodes.by_card
        assert len(r.indices) == 2 * sum((g.n - j) * d[j] for j in range(k))
        top = sum(d[:k - 1])
        indptr, indices = reconfig._adjacency(r.nodes.bits[top:], g.n, d, k)
        assert len(indices) == 2 * (g.n - k + 1) * d[k - 1]
        within = pairwise[top:, top:]
        assert np.array_equal(indptr, np.r_[0, np.cumsum(within.sum(axis=1))])
        assert np.array_equal(indices, np.nonzero(within)[1])
        # components and distances against a breadth-first search in Python
        assert connected_components(r) == python_components(g.n, bits)
        for _ in range(3):
            a = data.draw(st.integers(0, r.order - 1))
            b = data.draw(st.integers(0, r.order - 1))
            assert distance(r, a, b) == python_bfs(g.n, bits, a).get(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_graphs(12))
# across blocks too: D_17(P_17) has 25,281 nodes in seven, D_14(L_7) 7,361 in two
@example(make_family("path", 17))
@example(ladder(7))
def test_id_map_adjacency_equals_searchsorted_adjacency(g):
    # the blocks and toggle rows, looked up in the id map and by binary search
    for k in range(1, g.n + 1):
        bits = enumerate_dominating(g, k, method="prune").bits
        blocks = itertools.zip_longest(reconfig._toggle_rows(bits, g.n, True),
                                       reconfig._toggle_rows(bits, g.n, False),
                                       fillvalue=(None, None))
        assert all(a == b and np.array_equal(x, y) for (a, x), (b, y) in blocks)


def test_adjacency_across_blocks_is_exact_within_the_csr_its_lookup_and_a_few_blocks():
    # P_20: 157,305 nodes in 49 blocks, 15.7 MB in all, and K_16: 65,535 in 16,
    # 5.8 MB, by the id map; D_12(P_28): 40,312 in 18, 2.2 MB, by binary search;
    # the temporaries measured 3.2-3.3 blocks of int32 candidates
    block = 4 * domination._BLOCK
    for g, k in ((make_family("path", 20), 20), (make_family("complete", 16), 16),
                 (make_family("path", 28), 12)):
        nodes = enumerate_dominating(g, k, cap=63)
        bits, n = nodes.bits, g.n
        nodes.by_card
        tracemalloc.start()
        try:
            indptr, indices = reconfig._adjacency(bits, n, nodes.by_card, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the id map, or the search's value-sorted copy of bits and its order
        lookup = 4 << n if 1 << n <= len(bits) * n else 2 * bits.nbytes
        assert peak < indptr.nbytes + indices.nbytes + lookup + 4 * block
        # every entry a one-vertex toggle, each row increasing, and the lemma's count
        # in all: so each row holds exactly its node's neighbours, in order
        rows = np.repeat(np.arange(len(bits)), np.diff(indptr))
        assert (np.bitwise_count(bits[rows] ^ bits[indices]) == 1).all()
        assert ((np.diff(indices) > 0) | (np.diff(rows) > 0)).all()
        assert len(indices) == 2 * sum((n - j) * d for j, d in enumerate(nodes.by_card[:k]))


def test_first_csr_read_refuses_a_csr_beyond_the_budget_before_allocating_it(monkeypatch):
    # D_12(P_28) on the prune route's kept family: 40,312 nodes, 322 kB of bits and
    # 100,632 entries, whose toggle candidates would take 28 * 40,312 * 4 bytes
    g = make_family("path", 28)
    r = build(g, 12, cap=63)
    r.nodes.by_card
    monkeypatch.setattr(reconfig, "ENUMERATION_CAP", 12)  # 12 * 2^12 = 49,152 entries
    tracemalloc.start()
    try:
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(TooLargeError, match=r"layers 10\.\.12 of D_12\(G\) have 100632 "
                                                    r"adjacency entries, more than 12 \* 2\^12"):
                r.indices
        # the components' slice of layers 11 and 12 alone has 2 * 17 * 2,892 entries
        for read in (lambda: r.component_count, lambda: r.component):
            with pytest.raises(TooLargeError, match=r"layers 11\.\.12 of D_12\(G\) have 98328 "):
                read()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < r.nodes.bits.nbytes
    monkeypatch.undo()
    assert len(r.indices) == 100632 and r.component_count > 1


def test_default_route_depends_on_n(monkeypatch):
    domination._table.cache_clear()
    monkeypatch.setattr(domination, "_last_family", (None, None))
    # above the subset table, prune: its peak stays far below a 2^25-subset table
    p25 = make_family("path", 25)
    tracemalloc.start()
    try:
        assert build(p25, 6, cap=63).order == 0  # gamma(P_25) = 9
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # at the table's limit, scan: it leaves P_24's table in the cache
    p24 = make_family("path", 24)
    assert domination._table.cache_info().currsize == 0
    build(p24, 9)
    assert table_is_cached(p24)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn_graphs(9))
def test_json_export_gives_back_the_bits_and_edges(g):
    for k in range(1, g.n + 1):
        r = build(g, k)
        obj = json.loads(to_json(r))
        assert (obj["base_n"], obj["k"]) == (g.n, k)
        assert all(node == sorted(node) for node in obj["nodes"])
        bits = [sum(1 << (v - 1) for v in node) for node in obj["nodes"]]
        assert bits == r.nodes.bits.tolist()
        assert [tuple(e) for e in obj["edges"]] == edge_list(r)


def assert_exports_equal_the_object_formatting(r):
    # to_json_obj(r) holds r.nodes.to_json_obj(), so this checks DomFamily.to_json too
    assert to_json(r) == json.dumps(to_json_obj(r))
    lines = ["graph D {"]
    lines += [f'  s{i} [label="{s}"];' for i, s in enumerate(r.nodes.sets)]
    lines += [f"  s{i} -- s{j};" for i, j in edge_list(r)]
    assert to_dot(r) == "\n".join([*lines, "}"]) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn_graphs(10), st.data())
def test_exports_equal_the_object_formatting(g, data):
    assert_exports_equal_the_object_formatting(build(g, data.draw(st.integers(1, g.n))))


def test_exports_equal_the_object_formatting_across_blocks():
    # D_17(P_17): 25,281 nodes in seven blocks, ids of five digits and labels in the
    # third 8-vertex chunk; D_14(L_7): 7,361 nodes in two blocks
    for g in (make_family("path", 17), ladder(7)):
        r = build(g)
        assert r.order > domination._BLOCK // g.n
        assert_exports_equal_the_object_formatting(r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_graphs(10))
def test_components_at_k_equal_n_are_read_from_the_lemma(g):
    # every node climbs to V through its supersets: one component, with no search
    r = build(g)
    assert r.component.dtype == np.int64 and not r.component.any() and r.component_count == 1
    assert np.array_equal(r.component, row_components(csr_rows(r.indptr, r.indices)))


def assert_the_numbers_equal_the_csr(r):
    """The size, degrees and components that r reads from its family, against
    those of its CSR: entries, row lengths, and a search over its rows."""
    labels = row_components(csr_rows(r.indptr, r.indices))
    assert r.size == len(r.indices) // 2
    assert np.array_equal(r.degrees, np.diff(r.indptr))
    assert np.array_equal(r.component, labels)
    assert r.component_count == (labels.max() + 1 if r.order else 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn_graphs(12))
def test_stats_equal_the_built_graph_on_drawn_graphs(g):
    # every k, the ones below gamma (no nodes) among them
    for k in range(1, g.n + 1):
        assert_the_numbers_equal_the_csr(build(g, k))


def test_stats_equal_the_built_graph_on_the_prune_route():
    for g, k in [(make_family("path", 26), 9), (ladder(13), 8)]:
        r = build(g, k, cap=63)
        assert_the_numbers_equal_the_csr(r)
        assert r.order > 0 and r.component_count > 1
    # connected D_k(G) above the table, 24 or 22 of whose vertices are isolated:
    # euler_status counts the odd degrees of r.degrees there
    one_edge, two_edges = graph_from_edges(26, [(0, 1)]), graph_from_edges(26, [(0, 1), (2, 3)])
    for g, k, order, status in [(one_edge, 26, 3, "trail-only"), (two_edges, 25, 8, "eulerian"),
                                (two_edges, 26, 9, "neither")]:
        r = build(g, k, cap=63)
        assert_the_numbers_equal_the_csr(r)
        odd = int(np.count_nonzero(np.diff(r.indptr) % 2))
        by_csr = {0: "eulerian", 2: "trail-only"}.get(odd, "neither")
        assert r.component_count == 1 and r.order == order
        assert euler_status(r) == by_csr == status


def test_stats_make_no_adjacency_at_k_equal_n_and_two_layers_below_it(monkeypatch):
    # build makes no CSR; the numbers of reconfig --stats make none at k = n, and
    # below it only that of layers k - 1 and k, which the labels reuse
    adjacency, calls = reconfig._adjacency, []

    def counted(bits, n, *layers):
        calls.append(len(bits))
        return adjacency(bits, n, *layers)

    monkeypatch.setattr(reconfig, "_adjacency", counted)
    for g in (make_family("path", 12), make_family("cycle", 9), ladder(5)):
        for k in range(1, g.n + 1):
            r = build(g, k)
            assert calls == []
            r.order, r.size, r.degrees, r.component_count, r.component  # read, made once
            d = r.nodes.by_card
            assert calls == ([] if k == g.n else [d[k - 1] + d[k]])
            calls.clear()


def test_stats_peak_is_a_fraction_of_builds():
    # P_20 at k = 20, the subset table cached, enumeration included: the CSR's peak
    # was 17.1 MB, and that of the numbers of reconfig --stats 3.9 MB
    g = make_family("path", 20)
    enumerate_dominating(g, 1)
    peaks = []
    for read in (lambda r: r.indices, lambda r: (r.size, degree_extremes(r), r.component_count)):
        tracemalloc.start()
        try:
            read(build(g))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 4 * peaks[1] < peaks[0]


def test_reconfig_graph_checks_its_arguments_when_made():
    assert [f.name for f in dataclasses.fields(reconfig.ReconfigGraph)] == ["graph", "k", "cap"]
    p6 = make_family("path", 6)
    for k in (0, 7, 1.5):
        with pytest.raises(ValueError, match=f"k={k!r} must satisfy 1 <= k <= 6"):
            reconfig.ReconfigGraph(p6, k)
    with pytest.raises(TooLargeError, match="n=6 exceeds the enumeration cap 5"):
        reconfig.ReconfigGraph(p6, cap=5)
    with pytest.raises(TooLargeError, match="n=25 exceeds the enumeration cap 24"):
        reconfig.ReconfigGraph(make_family("path", 25), 9)
    # within the subset table, making it reads nothing, not even the table
    domination._table.cache_clear()
    r = reconfig.ReconfigGraph(p6)
    assert r.k == 6 and "by_card" not in vars(r) and "nodes" not in vars(r)
    assert domination._table.cache_info().currsize == 0
    # above the table, what build gives
    p26 = make_family("path", 26)
    r, built = reconfig.ReconfigGraph(p26, 9, cap=63), build(p26, 9, cap=63)
    assert r.by_card == built.by_card and np.array_equal(r.nodes.bits, built.nodes.bits)


@st.composite
def graphs_with_isolated_vertices(draw, max_n):
    """A drawn graph with up to three isolated vertices added after its own."""
    g = draw(drawn_graphs(max_n - 3))
    return graph_from_edges(g.n + draw(st.integers(0, 3)), g.edges)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs_with_isolated_vertices(12))
def test_degree_lemmas_and_layer_counts_equal_the_per_node_pass(g):
    for k in range(1, g.n + 1):
        r = build(g, k)
        assert r.by_card == enumerate_dominating(g, k).by_card
        if not r.order:
            continue
        # the lemmas at k = n read before any per-node array, so none of it feeds them
        extremes, regular = degree_extremes(r), is_regular(r)
        assert extremes == (int(r.degrees.min()), int(r.degrees.max()))
        assert regular == bool((r.degrees == r.degrees[0]).all())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs_with_isolated_vertices(12))
def test_odd_degree_count_of_the_parity_plane_equals_the_per_node_pass(g):
    for k in range(1, g.n + 1):
        r = build(g, k)
        # the table's count reads before any per-node array, so none of it feeds it
        odd, status = r._odd_degrees, euler_status(r)
        per_node = int(np.count_nonzero(r.degrees % 2))
        assert odd == per_node
        assert status == ("neither" if r.component_count > 1
                          else {0: "eulerian", 2: "trail-only"}.get(per_node, "neither"))


def test_lemma_b_counts_the_isolated_vertices():
    # every isolated vertex is its own only dominator in every dominating set, V
    # included: max degree n - i(G), where n alone would be off by i(G)
    for m in range(1, 7):
        r = build(make_family("empty", m))  # D_m(O_m) is the single node V
        assert degree_extremes(r) == (0, 0) and is_regular(r)
        assert r.degrees.tolist() == [0]
    for isolated in range(5):
        g = graph_from_edges(2 + isolated, [(0, 1)])  # Gamma = 1 + i(G)
        r = build(g)
        assert degree_extremes(r) == (1, 2) == (int(r.degrees.min()), int(r.degrees.max()))
        assert not is_regular(r)


NO_LISTING_CASES = (("path", 12), ("cycle", 9), ("ladder", 5), ("empty", 4), ("complete", 6))


def count_scans(monkeypatch) -> list:
    """Record the k of each SubsetTable.scan call, the table's listing of the nodes."""
    scans = []
    scan = domination.SubsetTable.scan

    def counted(table, k):
        scans.append(k)
        return scan(table, k)

    monkeypatch.setattr(domination.SubsetTable, "scan", counted)
    return scans


def test_euler_status_lists_no_node_at_k_equal_n(monkeypatch):
    scans = count_scans(monkeypatch)
    for kind, n in NO_LISTING_CASES:
        g = ladder(n) if kind == "ladder" else make_family(kind, n)
        r = build(g)
        # r keeps the table it counted with: the table cache's loss costs no build
        domination._table.cache_clear()
        euler_status(r), degree_extremes(r)
        assert scans == [] and domination._table.cache_info().misses == 0
        # below n, the component check lists the family once, D_3(O_4)'s empty one too
        euler_status(build(g, g.n - 1))
        assert scans == [g.n - 1]
        scans.clear()


def test_stats_list_no_node_at_k_equal_n(monkeypatch, tmp_path):
    scans = count_scans(monkeypatch)
    out = str(tmp_path / "stats.txt")
    for kind, n in NO_LISTING_CASES:
        argv = ["reconfig", "--family", kind, "--n", str(n), "--stats", "--output", out]
        assert cli.main(argv) == 0 and scans == []
        # below n, the components list the family once; D_3(O_4) has no node to list
        vertices = 2 * n if kind == "ladder" else n
        assert cli.main([*argv, "--k", str(vertices - 1)]) == 0
        assert scans == ([] if kind == "empty" else [vertices - 1])
        scans.clear()
        # dominating prints the layer counts with no scan, and lists the sets for json
        for fmt, listed in (("csv", []), ("table", []), ("json", [vertices])):
            argv = ["dominating", "--family", kind, "--n", str(n), "--format", fmt, "--output", out]
            assert cli.main(argv) == 0 and scans == listed
            scans.clear()


def test_build_refuses_at_the_call_and_reads_the_layer_counts():
    p6 = make_family("path", 6)
    for k in (0, 7, 1.5):
        with pytest.raises(ValueError, match=f"k={k!r} must satisfy 1 <= k <= 6"):
            build(p6, k)
    with pytest.raises(TooLargeError, match="n=6 exceeds the enumeration cap 5"):
        build(p6, cap=5)
    with pytest.raises(TooLargeError, match="n=25 exceeds the enumeration cap 24"):
        build(make_family("path", 25))
    # within the table, build has read the counts and listed no node
    r = build(p6, 4)
    assert "by_card" in vars(r) and "nodes" not in vars(r)
    assert r.by_card == path_triangle(6).row(6)[:5]
    # above it, build has listed the family
    r = build(make_family("path", 26), 9, cap=63)
    assert "nodes" in vars(r) and r.by_card == r.nodes.by_card
