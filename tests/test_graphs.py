import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from test_domination import drawn_graphs

from domgraph import (
    DegenerateFamilyError,
    Graph,
    InvalidSizeError,
    InvalidSubsetError,
    VertexSubset,
    build,
    cartesian,
    corona,
    from_json,
    graph_from_edges,
    is_connected,
    join,
    ladder,
    make_family,
    to_dot,
    to_json,
)
from domgraph.graphs import subset_bits


def test_path_edges_match_labeling():
    g = make_family("path", 3)
    assert g.edges_1based() == ((1, 2), (2, 3))


def test_cycle_closes_back_to_one():
    g = make_family("cycle", 4)
    assert set(g.edges_1based()) == {(1, 2), (2, 3), (3, 4), (1, 4)}


def test_complete_single_vertex():
    g = make_family("complete", 1)
    assert g.n == 1 and g.m == 0


def test_complete_edge_count():
    for n in range(1, 8):
        assert make_family("complete", n).m == n * (n - 1) // 2


def test_empty_family_has_no_edges():
    assert make_family("empty", 5).m == 0


def test_family_size_errors():
    with pytest.raises(InvalidSizeError):
        make_family("path", 0)
    with pytest.raises(DegenerateFamilyError):
        make_family("cycle", 2)
    with pytest.raises(InvalidSizeError):
        make_family("complete", 64)


def test_family_beyond_the_gate_is_refused_before_its_edges_are_made():
    tracemalloc.start()
    try:
        for kind in ("path", "cycle", "complete"):
            with pytest.raises(InvalidSizeError, match="exceeds the 63-vertex"):
                make_family(kind, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_family("wheel", 5)


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(InvalidSizeError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(InvalidSizeError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(InvalidSizeError, match="at least one vertex"):
        graph_from_edges(0, [])


def test_direct_construction_checks_and_canonicalizes():
    for n, edges in ((0, ()), (64, ()), (3, ((1, 1),)), (3, ((0, 5),))):
        with pytest.raises(InvalidSizeError):
            Graph(n, edges)
    g = Graph(3, [(2, 0), (1, 0), (0, 1)])
    assert g == graph_from_edges(3, [(0, 1), (0, 2)])
    assert g.edges == ((0, 1), (0, 2))
    assert hash(g) == hash(graph_from_edges(3, [(0, 1), (0, 2)]))


def test_numpy_and_bool_vertex_counts_are_read_as_ints():
    assert to_json(make_family("path", np.int64(4))) == to_json(make_family("path", 4))
    assert build(make_family("path", np.int64(4))).order == build(make_family("path", 4)).order
    assert to_json(make_family("path", True)) == '{"n": 1, "edges": []}'


def test_numpy_endpoints_are_read_as_ints():
    g = graph_from_edges(3, np.array([[0, 1], [2, 1]]))
    assert g.edges == ((0, 1), (1, 2)) and all(type(v) is int for e in g.edges for v in e)
    assert to_json(g) == to_json(graph_from_edges(3, [(0, 1), (2, 1)]))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        Graph(3, [(0.0, 1.0)])


def test_join_of_two_singletons_is_k2():
    g = join(make_family("complete", 1), make_family("complete", 1))
    assert g.edges_1based() == ((1, 2),)


def test_join_of_empty_pairs_is_four_cycle():
    g = join(make_family("empty", 2), make_family("empty", 2))
    assert g.n == 4 and g.m == 4
    assert g.degree_sequence() == (2, 2, 2, 2)
    assert is_connected(g)


def test_join_p2_o1_is_triangle():
    g = join(make_family("path", 2), make_family("empty", 1))
    assert g.n == 3 and g.m == 3


def test_join_edge_count_formula():
    rng = random.Random(7)
    for _ in range(20):
        g = make_family("path", rng.randint(1, 6))
        h = make_family("complete", rng.randint(1, 6))
        assert join(g, h).m == g.m + h.m + g.n * h.n


def test_corona_identities():
    k1 = make_family("complete", 1)
    assert corona(k1, k1).edges_1based() == ((1, 2),)
    star = corona(k1, make_family("empty", 2))
    assert star.degree_sequence() == (2, 1, 1)
    p = corona(make_family("path", 2), make_family("empty", 1))
    assert p.n == 4 and p.m == 3 and sorted(p.degree_sequence()) == [1, 1, 2, 2]


def test_corona_vertex_count():
    g = make_family("cycle", 3)
    h = make_family("path", 2)
    assert corona(g, h).n == g.n * (1 + h.n)


def test_cartesian_basic():
    square = cartesian(make_family("complete", 2), make_family("complete", 2))
    assert square.n == 4 and square.m == 4
    assert square.degree_sequence() == (2, 2, 2, 2)
    p3 = cartesian(make_family("path", 3), make_family("complete", 1))
    assert p3.edges == make_family("path", 3).edges


def test_ladder_matches_cartesian_construction():
    for n in range(1, 6):
        lhs = ladder(n)
        rhs = cartesian(make_family("path", n), make_family("complete", 2))
        assert lhs.edges == rhs.edges and lhs.n == rhs.n
    assert ladder(1).edges_1based() == ((1, 2),)
    assert ladder(2).m == 4
    assert ladder(3).n == 6 and ladder(3).m == 7


def test_product_size_overflow():
    with pytest.raises(InvalidSizeError):
        join(make_family("complete", 32), make_family("complete", 32))
    with pytest.raises(InvalidSizeError):
        corona(make_family("complete", 8), make_family("complete", 8))
    with pytest.raises(InvalidSizeError):
        cartesian(make_family("complete", 8), make_family("complete", 8))
    k63 = make_family("complete", 63)
    for product in (join, corona, cartesian):
        with pytest.raises(InvalidSizeError, match="exceeds the 63-vertex"):
            product(k63, k63)


def test_handshake_over_random_products():
    rng = random.Random(99)
    for _ in range(25):
        g = make_family(rng.choice(["path", "complete", "empty"]), rng.randint(1, 5))
        h = make_family(rng.choice(["path", "complete", "empty"]), rng.randint(1, 5))
        for prod in (join(g, h), corona(g, h), cartesian(g, h)):
            assert sum(prod.degree_sequence()) == 2 * prod.m


def test_json_round_trip_and_format():
    g = make_family("path", 3)
    text = to_json(g)
    assert json.loads(text) == {"n": 3, "edges": [[1, 2], [2, 3]]}
    back = from_json(text)
    assert back.n == g.n and back.edges == g.edges


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_graphs(16))
def test_json_round_trip_on_drawn_graphs(g):
    assert from_json(to_json(g)) == g


def test_from_json_rejects_garbage():
    with pytest.raises(InvalidSizeError):
        from_json("not json")
    with pytest.raises(InvalidSizeError):
        from_json('{"edges": []}')
    with pytest.raises(InvalidSizeError, match="malformed graph JSON"):
        from_json("[" * 100_000)


def test_from_json_rejects_malformed_edges():
    for edges in ('[[1, "2"]]', "[[1, 2.0]]", "[[false, 2]]", "[[1]]", "[[1, 4]]", "[[0, 2]]", "{}"):
        with pytest.raises(InvalidSizeError):
            from_json('{"n": 3, "edges": %s}' % edges)


def test_dot_format():
    dot = to_dot(make_family("path", 2))
    assert dot.startswith("graph G {")
    assert "v1 -- v2;" in dot


def test_vertex_subset_round_trip():
    s = VertexSubset.from_vertices([1, 3])
    assert s.bits == 0b101 and s.card == 2
    assert s.vertices() == (1, 3)
    assert str(s) == "{1,3}"


def test_subset_bits_validation():
    g = make_family("path", 3)
    assert subset_bits(g, [2]) == 0b010
    assert subset_bits(g, VertexSubset(0b111)) == 0b111
    with pytest.raises(InvalidSubsetError):
        subset_bits(g, 0b1000)
    with pytest.raises(InvalidSubsetError):
        subset_bits(g, [0])
    with pytest.raises(InvalidSubsetError, match="nonnegative"):
        VertexSubset(-1)


def test_subset_card_matches_popcount():
    rng = random.Random(3)
    for _ in range(50):
        bits = rng.getrandbits(12)
        assert VertexSubset(bits).card == bin(bits).count("1")


def test_is_connected():
    assert is_connected(make_family("path", 5))
    assert not is_connected(make_family("empty", 3))
    assert is_connected(make_family("complete", 1))
