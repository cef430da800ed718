import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgraph import (
    InvalidSubsetError,
    TooLargeError,
    count_by_cardinality,
    count_maximal_minimal_sets,
    count_minimum_sets,
    domination_number,
    enumerate_dominating,
    is_dominating,
    is_minimal_dominating,
    make_family,
    total_count,
    upper_domination_number,
)
from domgraph import cycle_triangle, domination, path_triangle
from domgraph.domination import DomFamily, SubsetTable, _labels, _records
from domgraph.graphs import VertexSubset, graph_from_edges, ladder
from domgraph.reconfig import build
from domgraph.verify import labeled_graph_sweep


def random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    return graph_from_edges(n, edges)


def test_is_dominating_examples():
    assert is_dominating(make_family("path", 3), [2])
    assert not is_dominating(make_family("path", 4), [1])
    k5 = make_family("complete", 5)
    for bits in range(1, 32):
        assert is_dominating(k5, bits)
    assert not is_dominating(k5, 0)


def test_is_dominating_range_check():
    with pytest.raises(InvalidSubsetError):
        is_dominating(make_family("path", 3), 0b1000)


def test_is_minimal_dominating_examples():
    assert is_minimal_dominating(make_family("path", 5), [1, 3, 5])
    assert not is_minimal_dominating(make_family("path", 3), [1, 2, 3])
    assert is_minimal_dominating(make_family("cycle", 4), [1, 3])


def test_numpy_bitmasks_are_subsets():
    # the uint64 elements of a family's and of D_k(G)'s bits arrays
    c6 = make_family("cycle", 6)
    fam = enumerate_dominating(c6, 4)
    assert all(is_dominating(c6, b) for b in fam.bits)
    assert all(is_dominating(c6, b) for b in build(c6, 3).nodes.bits)
    assert [is_minimal_dominating(c6, b) for b in fam.bits[:2]] == [True, True]
    assert not is_minimal_dominating(c6, fam.bits[-1])  # a 4-set of C_6 is never minimal
    with pytest.raises(InvalidSubsetError):
        is_dominating(c6, np.uint64(1 << 6))


def test_enumerate_p3_exact_order():
    fam = enumerate_dominating(make_family("path", 3), 3)
    assert fam.to_json_obj() == [[2], [1, 2], [1, 3], [2, 3], [1, 2, 3]]
    assert fam.by_card == (0, 1, 3, 1)


def test_enumerate_counts():
    assert len(enumerate_dominating(make_family("complete", 3), 3)) == 7
    assert len(enumerate_dominating(make_family("cycle", 4), 4)) == 11
    assert len(enumerate_dominating(make_family("complete", 3), 1)) == 3


def test_enumerate_k_validation():
    g = make_family("path", 4)
    with pytest.raises(ValueError):
        enumerate_dominating(g, 0)
    with pytest.raises(ValueError):
        enumerate_dominating(g, 5)
    with pytest.raises(ValueError, match="unknown enumeration method 'bogus'"):
        enumerate_dominating(g, method="bogus")
    # k is read as an index: NumPy integers pass, a float does not, on either route
    for method in ("scan", "prune"):
        fam = enumerate_dominating(g, np.int64(3), method=method)
        assert type(fam.k) is int and fam.by_card == (0, 0, 4, 4)
        with pytest.raises(ValueError, match="k=3.0 must satisfy"):
            enumerate_dominating(g, 3.0, method=method)


def test_enumeration_cap():
    # enumerate_dominating's own cap
    g = make_family("path", 10)
    with pytest.raises(TooLargeError):
        enumerate_dominating(g, cap=9)
    assert len(enumerate_dominating(g, cap=10)) == 355
    # the subset table refuses n > 24 for every query and route, before it allocates
    p25 = make_family("path", 25)
    queries = (count_by_cardinality, total_count, domination_number, upper_domination_number,
               count_minimum_sets, count_maximal_minimal_sets,
               lambda g: enumerate_dominating(g, 9, cap=63, method="scan"))
    tracemalloc.start()
    try:
        for query in queries:
            with pytest.raises(TooLargeError, match="2\\^n subset table"):
                query(p25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a raised cap still lets the output-sensitive prune route through
    assert len(enumerate_dominating(p25, 9, cap=63)) == 53


def test_prune_route_output_budget(monkeypatch):
    # K_30 has 2^30 - 1 dominating sets: refused before the first is listed
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="output budget of the prune route"):
            enumerate_dominating(make_family("complete", 30), 30, cap=63, method="prune")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the budget is 2^ENUMERATION_CAP sets, counted exactly: at 2^8, K_11 passes at
    # k = 3 (231 sets, though the first expansion has 2^10 supersets) and not at k = 4 (561)
    monkeypatch.setattr(domination, "ENUMERATION_CAP", 8)
    k11 = make_family("complete", 11)
    assert len(enumerate_dominating(k11, 3, method="prune")) == 231
    with pytest.raises(TooLargeError, match="more than 2\\^8 dominating sets"):
        enumerate_dominating(k11, 4, method="prune")


def test_prune_route_budget_at_the_last_member(monkeypatch):
    # the k-th member is decided in its parent's loop, and the budget is checked
    # after that loop: the sets of three disjoint edges at k = 3 (2^3) and of two
    # disjoint triangles at k = 2 (3^2 = 2^3 + 1) are all listed there
    monkeypatch.setattr(domination, "ENUMERATION_CAP", 3)
    edges = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert len(enumerate_dominating(edges, 3, method="prune")) == 8
    triangles = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(TooLargeError, match="more than 2\\^3 dominating sets"):
        enumerate_dominating(triangles, 2, method="prune")


def ladder_counts(n):
    """d(L_n, j) for j = 0..2n by a transfer over the columns: each vertex of the
    last column is "in" S, "dom"inated, or "wait"s for the next column."""
    polys = {None: [1]}  # per state of the last column, the counts by cardinality
    for _ in range(n):
        nxt = {}
        for prev, poly in polys.items():
            for col in itertools.product((0, 1), repeat=2):
                if prev and any(p == "wait" and not c for p, c in zip(prev, col)):
                    continue
                state = tuple("in" if c else "dom" if col[1 - r] or (prev and prev[r] == "in")
                              else "wait" for r, c in enumerate(col))
                acc = nxt.setdefault(state, [0] * (len(poly) + 2))
                for j, c in enumerate(poly):
                    acc[j + sum(col)] += c
        polys = nxt
    return tuple(map(sum, zip(*(p for s, p in polys.items() if "wait" not in s))))


def test_prune_route_on_a_ladder_above_the_table():
    for n in range(1, 9):
        assert ladder_counts(n) == count_by_cardinality(ladder(n))
    # L_13 has 26 vertices; gamma = 7, and k = 9 lists 6,086 sets
    fam = enumerate_dominating(ladder(13), 9, cap=63, method="prune")
    assert len(fam) == 6086 and fam.by_card == ladder_counts(13)[:10]


def test_prune_route_collects_8_bytes_a_set():
    # the sets go into one uint64 buffer, not a list of Python ints (about 71 bytes a set)
    tracemalloc.start()
    try:
        bits = domination._prune_bits(ladder(13), 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bits.dtype == np.uint64 and len(bits) == 6086
    assert peak < 16 * len(bits)


def table_is_cached(g) -> bool:
    """True iff the cached subset table is g's: reading it through _table is a hit."""
    misses = domination._table.cache_info().misses
    domination._table(g)
    return domination._table.cache_info().misses == misses


def count_searches(monkeypatch) -> list:
    """Empty the kept prune family and record each (n, k) the prune search runs on."""
    calls = []
    prune_bits = domination._prune_bits

    def counted(g, k):
        calls.append((g.n, k))
        return prune_bits(g, k)

    monkeypatch.setattr(domination, "_prune_bits", counted)
    monkeypatch.setattr(domination, "_last_family", (None, None))
    return calls


def test_prune_route_keeps_the_last_family(monkeypatch):
    row = path_triangle(9).row(9)  # its seeds come from the prune route, so before counting
    calls = count_searches(monkeypatch)
    p9, c9 = make_family("path", 9), make_family("cycle", 9)
    p9_again = graph_from_edges(9, [(i + 1, i) for i in reversed(range(8))])
    enumerate_dominating(p9, 5, method="prune")
    # an equal graph at the same or a smaller k reads the kept family
    for k in (5, 3, 4):
        assert enumerate_dominating(p9_again, k, method="prune").by_card == row[: k + 1]
    assert calls == [(9, 5)]
    # a larger k and a different graph search again
    enumerate_dominating(p9, 6, method="prune")
    enumerate_dominating(c9, 4, method="prune")
    assert calls == [(9, 5), (9, 6), (9, 4)]
    # the scan route reads the subset table, not the kept family, and keeps it
    domination._table.cache_clear()
    assert enumerate_dominating(c9, 3, method="scan") == enumerate_dominating(c9, 3, method="prune")
    assert table_is_cached(c9) and len(calls) == 3


def test_build_reads_the_kept_prune_family(monkeypatch):
    calls = count_searches(monkeypatch)
    p28 = make_family("path", 28)  # above the subset table, so build takes the prune route
    fam = enumerate_dominating(p28, 11, cap=63, method="prune")
    for k in (11, 10):
        want = fam.bits[: sum(fam.by_card[: k + 1])]
        assert np.array_equal(build(p28, k, cap=63).nodes.bits, want)
    assert calls == [(28, 11)]


def test_default_route_scans_up_to_the_table_limit(monkeypatch):
    # n = 21..24 near gamma, where the prune route is faster: the default call
    # still reads the graph's subset table, and lists what the prune route does
    g22 = random_graph(random.Random(22), 22)
    cases = [(make_family("path", 21), 7), (make_family("cycle", 22), 8), (ladder(12), 7),
             (g22, domination_number(g22))]
    calls = count_searches(monkeypatch)
    for g, gamma in cases:
        assert count_by_cardinality(g)[gamma] and not count_by_cardinality(g)[gamma - 1]
        for k in (gamma, gamma + 1):
            domination._table.cache_clear()
            searched = len(calls)
            fam = enumerate_dominating(g, k)
            assert len(calls) == searched and table_is_cached(g)
            assert fam == enumerate_dominating(g, k, method="prune")


def test_refused_query_keeps_the_cached_table():
    p20 = make_family("path", 20)
    total_count(p20)
    assert table_is_cached(p20)
    table = domination._table(p20)
    with pytest.raises(TooLargeError):
        total_count(make_family("path", 25))
    assert table_is_cached(p20) and domination._table(p20) is table


def test_scan_and_prune_agree():
    rng = random.Random(42)
    graphs = [make_family(k, n) for k in ("path", "complete", "empty") for n in (1, 2, 5, 8)]
    graphs += [make_family("cycle", n) for n in (3, 5, 8)]
    graphs += [random_graph(rng, rng.randint(2, 9)) for _ in range(40)]
    for g in graphs:
        for k in {1, (g.n + 1) // 2, g.n}:
            a = enumerate_dominating(g, k, method="scan")
            b = enumerate_dominating(g, k, method="prune")
            assert a == b
    # 2 * 3 < 9: two members cover at most six vertices, so both routes are empty
    for g in (make_family("path", 9), make_family("cycle", 9)):
        a = enumerate_dominating(g, 2, method="scan")
        assert a == enumerate_dominating(g, 2, method="prune") and len(a) == 0


def test_family_sorted_and_unique():
    fam = enumerate_dominating(make_family("cycle", 6), 6)
    keys = [(s.card, s.bits) for s in fam]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert sum(fam.by_card) == len(fam)


def test_every_member_dominates_and_supersets_dominate():
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8))
        fam = enumerate_dominating(g, g.n)
        for s in fam.sets:
            assert is_dominating(g, s)
            for v in range(g.n):
                assert is_dominating(g, s.bits | (1 << v))


def test_domination_number_examples():
    assert domination_number(make_family("path", 7)) == 3
    assert domination_number(make_family("complete", 9)) == 1
    assert domination_number(make_family("cycle", 6)) == 2


def test_gamma_formulas_small():
    for n in range(1, 16):
        assert domination_number(make_family("path", n)) == -(-n // 3)
    for n in range(3, 16):
        assert domination_number(make_family("cycle", n)) == -(-n // 3)


def test_upper_domination_examples():
    assert upper_domination_number(make_family("path", 7)) == 4
    assert upper_domination_number(make_family("cycle", 8)) == 4
    assert upper_domination_number(make_family("complete", 5)) == 1


def test_count_minimum_sets_examples():
    assert count_minimum_sets(make_family("path", 6)) == 1
    assert count_minimum_sets(make_family("path", 7)) == 8
    assert count_minimum_sets(make_family("path", 8)) == 4


def test_count_maximal_minimal_sets_oracle_values():
    # P_7 and odd paths have the unique alternating Gamma-set; the even-path
    # and odd-cycle counts below are exhaustive-enumeration facts (published
    # claims of 2 and n are too small from P_6 / C_7 on, see the verify
    # suite's erratum records).
    assert count_maximal_minimal_sets(make_family("path", 7)) == 1
    assert count_maximal_minimal_sets(make_family("path", 2)) == 2
    assert count_maximal_minimal_sets(make_family("path", 4)) == 4
    assert count_maximal_minimal_sets(make_family("path", 6)) == 6
    assert count_maximal_minimal_sets(make_family("path", 8)) == 9
    assert count_maximal_minimal_sets(make_family("cycle", 4)) == 6
    assert count_maximal_minimal_sets(make_family("cycle", 5)) == 5
    assert count_maximal_minimal_sets(make_family("cycle", 6)) == 2
    assert count_maximal_minimal_sets(make_family("cycle", 7)) == 14
    assert count_maximal_minimal_sets(make_family("cycle", 10)) == 2


def test_maximal_minimal_members_are_minimal():
    g = make_family("path", 6)
    fam = enumerate_dominating(g, 6)
    gamma_upper = upper_domination_number(g)
    witnesses = [
        s for s in fam.sets if s.card == gamma_upper and is_minimal_dominating(g, s)
    ]
    assert len(witnesses) == count_maximal_minimal_sets(g)
    assert {s.vertices() for s in witnesses} >= {(1, 3, 5), (2, 4, 6), (1, 4, 5), (1, 3, 6)}


def test_count_by_cardinality_examples():
    assert count_by_cardinality(make_family("path", 5))[3] == 8
    assert count_by_cardinality(make_family("path", 4))[3] == 4
    assert count_by_cardinality(make_family("path", 6))[5] == 6


def test_count_by_cardinality_boundaries():
    for n in (1, 4, 7, 9):
        g = make_family("path", n)
        counts = count_by_cardinality(g)
        gamma = domination_number(g)
        assert all(c == 0 for c in counts[:gamma])
        assert counts[n] == 1
        assert counts[0] == 0


def test_total_count_examples():
    assert total_count(make_family("complete", 4)) == 15
    assert total_count(make_family("path", 4)) == 9
    assert total_count(make_family("cycle", 3)) == 7


def test_total_count_parity_on_random_connected():
    rng = random.Random(11)
    done = 0
    while done < 30:
        g = random_graph(rng, rng.randint(2, 12))
        from domgraph import is_connected

        if not is_connected(g):
            continue
        assert total_count(g) % 2 == 1
        done += 1


# ---------------------------------------------------------------------------
# The subset table against the definitions
# ---------------------------------------------------------------------------

@st.composite
def drawn_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, on in zip(pairs, flags) if on])


def packed_bit(words, bits):
    """Subset bits's entry of a packed mask: bit bits & 63 of word bits >> 6."""
    return bool(int(words[bits >> 6]) >> (bits & 63) & 1)


def assert_table_matches_definitions(g):
    table = SubsetTable(g)
    dom_by_card, minimal_by_card = [0] * (g.n + 1), [0] * (g.n + 1)
    for bits in range(1 << g.n):
        dominating, minimal = is_dominating(g, bits), is_minimal_dominating(g, bits)
        assert packed_bit(table.dom, bits) == dominating
        assert packed_bit(table.minimal, bits) == minimal
        dom_by_card[bits.bit_count()] += dominating
        minimal_by_card[bits.bit_count()] += minimal
    # the histograms also see any bit set past subset 2^n - 1 of the last word
    assert table.dom_by_card == tuple(dom_by_card)
    assert table.minimal_by_card == tuple(minimal_by_card)


def test_subset_table_on_every_labeled_graph_up_to_5():
    for n in range(1, 6):
        # the same edge-subset universe as the parity sweep, in its order
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        _, counts = labeled_graph_sweep(n)
        for index in range(1 << len(pairs)):
            g = graph_from_edges(n, [p for i, p in enumerate(pairs) if index >> i & 1])
            assert_table_matches_definitions(g)
            assert total_count(g) == counts[index]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_graphs(12))
def test_subset_table_on_drawn_graphs(g):
    assert_table_matches_definitions(g)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(drawn_graphs(14), st.data())
def test_scan_equals_prune_on_drawn_graphs(g, data):
    k = data.draw(st.integers(1, g.n))
    assert enumerate_dominating(g, k, method="scan") == enumerate_dominating(g, k, method="prune")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn_graphs(9))
def test_kept_prune_family_answers_every_smaller_k(g):
    fresh = {}
    for k in range(1, g.n + 1):
        domination._last_family = (None, None)
        fresh[k] = enumerate_dominating(g, k, method="prune")
    for top in range(1, g.n + 1):
        enumerate_dominating(g, top, method="prune")
        for k in range(1, top + 1):
            assert enumerate_dominating(g, k, method="prune") == fresh[k]


@st.composite
def graphs_with_isolated_vertices(draw, max_n):
    g = draw(drawn_graphs(max_n))
    return graph_from_edges(g.n + draw(st.integers(0, 3)), g.edges)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graphs_with_isolated_vertices(11), st.data())
def test_scan_equals_prune_near_gamma(g, data):
    # k near gamma, where the prune route cuts branches that k - |S| members
    # cannot finish
    gamma = domination_number(g)
    k = data.draw(st.integers(gamma, min(gamma + 2, g.n)))
    assert enumerate_dominating(g, k, method="scan") == enumerate_dominating(g, k, method="prune")


@st.composite
def trees_with_chords(draw, max_n):
    """A random tree (each vertex v > 0 joins one below it) plus at most n // 4 chords."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=n // 4))
    return graph_from_edges(n, edges | {(min(c), max(c)) for c in chords if c[0] != c[1]})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trees_with_chords(16), st.data())
def test_scan_equals_prune_near_gamma_on_sparse_graphs(g, data):
    # a largest 2-packing of a tree has gamma vertices (Meir, Moon 1975), so near
    # gamma the packing cut does most of the cutting on these graphs
    gamma = domination_number(g)
    k = data.draw(st.integers(gamma, min(gamma + 2, g.n)))
    assert enumerate_dominating(g, k, method="scan") == enumerate_dominating(g, k, method="prune")


def sparse_graph(rng, n):
    """A random tree on n vertices plus n // 4 more edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return graph_from_edges(n, sorted(edges))


def test_blocked_table_matches_the_prune_route():
    # n = 17..20, where the table's spread makes 11 to 14 passes over the words
    rng = random.Random(17)
    n17, n20 = sparse_graph(rng, 17), sparse_graph(rng, 20)
    for g in (make_family("path", 18), make_family("cycle", 19), ladder(9), n17, n20):
        assert count_by_cardinality(g) == enumerate_dominating(g, method="prune").by_card
        for k in (g.n, domination_number(g) + 1):
            assert enumerate_dominating(g, k, method="scan") == enumerate_dominating(
                g, k, method="prune")
    minimal_by_card = [0] * (n17.n + 1)
    for bits in enumerate_dominating(n17, method="prune").bits.tolist():
        minimal_by_card[bits.bit_count()] += is_minimal_dominating(n17, bits)
    assert SubsetTable(n17).minimal_by_card == tuple(minimal_by_card)


def test_table_at_23_and_24_vertices():
    # the spread's passes for vertices 22 and 23 run only above 22 vertices
    p24 = make_family("path", 24)
    assert count_by_cardinality(p24) == path_triangle(24).row(24)
    assert upper_domination_number(p24) == 12
    assert count_by_cardinality(make_family("cycle", 23)) == cycle_triangle(23).row(23)
    g = sparse_graph(random.Random(24), 24)
    k = domination_number(g) + 1
    assert count_by_cardinality(g)[: k + 1] == enumerate_dominating(g, k, method="prune").by_card


def test_table_queries_trace_less_than_a_byte_a_subset():
    # the packed masks take 2^n / 8 bytes each, and no 2^n-entry array is made
    domination._table.cache_clear()
    p22 = make_family("path", 22)
    tracemalloc.start()
    try:
        assert count_by_cardinality(p22) == path_triangle(22).row(22)
        assert upper_domination_number(p22) == 11
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22


def test_prune_route_above_the_table_matches_the_triangles():
    # n = 25..63 is out of the scan route's reach; these k take under a second with
    # the cut, and more than 40 s without it
    triangles = {"path": path_triangle(63), "cycle": cycle_triangle(63)}
    for n in range(25, 64):
        gamma = -(-n // 3)
        for k in (gamma, gamma + 1) if n <= 36 else (gamma,):
            for kind, triangle in triangles.items():
                fam = enumerate_dominating(make_family(kind, n), k, cap=63, method="prune")
                assert fam.by_card == triangle.row(n)[: k + 1], (kind, n, k)


def test_alternating_graphs_never_read_a_stale_table():
    for n in (7, 8, 9):
        path = make_family("path", n)
        cycle = make_family("cycle", n)
        path_again = graph_from_edges(n, [(i + 1, i) for i in reversed(range(n - 1))])
        assert path_again == path and path_again is not path
        # equal graphs are equal dict keys, so path_again finds path's entry
        want = {path: (path_triangle(n).row(n), -(-n // 2)), cycle: (cycle_triangle(n).row(n), n // 2)}
        for g in (path, cycle, path_again, cycle, path, path_again):
            row, upper = want[g]
            gamma = -(-n // 3)
            assert count_by_cardinality(g) == row
            assert (total_count(g), domination_number(g), count_minimum_sets(g)) == (
                sum(row), gamma, row[gamma])
            assert upper_domination_number(g) == upper
        assert table_is_cached(path)
        assert domination._table(path) is domination._table(path_again)


def test_family_makes_its_sets_on_first_use():
    p20 = make_family("path", 20)
    fam = enumerate_dominating(p20)
    assert len(fam) == 157305 and "sets" not in vars(fam)
    assert fam == enumerate_dominating(p20, method="prune")
    assert fam != enumerate_dominating(p20, 19) and fam != DomFamily(19, 20, fam.bits)
    assert fam != fam.bits.tolist() and fam != 157305
    assert fam.sets[0] == VertexSubset(int(fam.bits[0])) and "sets" in vars(fam)
    assert not fam.bits.flags.writeable


def test_chunk_tables_equal_the_member_comprehension():
    for low in range(0, 64, 8):
        for sep in (",", ", "):
            texts = ["".join(f"{sep}{low + v + 1}" for v in range(8) if x >> v & 1)
                     for x in range(256)]
            # the second half, for the chunk of a set's lowest member, drops the first sep
            assert [t.decode() for t in domination._chunk_table(low, sep).tolist()] == [
                *texts, *(t[len(sep):] for t in texts)]


def test_family_json_equals_the_object_formatting():
    # P_40 at k = 14 by the prune route: labels up to 40, five 8-vertex chunks
    families = [enumerate_dominating(make_family("path", 40), 14, cap=63)]
    families.append(enumerate_dominating(make_family("path", 9), 2))  # k < gamma: empty
    families.append(enumerate_dominating(make_family("complete", 1)))
    assert [len(f) for f in families] == [118, 0, 1]
    for family in families:
        assert family.to_json() == json.dumps(family.to_json_obj())


def test_labels_print_as_vertex_subsets():
    rng = random.Random(3)
    for n in (1, 7, 8, 9, 16, 17, 40, 63):
        masks = [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(50))]
        bits = np.array(masks, dtype=np.uint64)
        assert _records(b"{", *_labels(bits, n, ","), b"}\n") == "".join(
            f"{VertexSubset(b)}\n" for b in masks)
        assert _records(b"[", *_labels(bits, n, ", "), b"]\n") == "".join(
            f"{list(VertexSubset(b).vertices())}\n" for b in masks)
