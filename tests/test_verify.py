import json
import re
import tracemalloc
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_domination import drawn_graphs

from domgraph import (counting, domination, make_family, order_sequence, reconfig, verify,
                      verify_suite)
from domgraph.errors import TooLargeError
from domgraph.verify import (
    PARITY_EXHAUSTIVE_MAX_N,
    labeled_graph_sweep,
    random_connected_graph,
    report_to_json_obj,
    suite_parity,
)


def by_check(records):
    return {r.check: r for r in records}


def test_complete_suite_all_pass():
    records = verify_suite("complete", max_n=6)
    assert records and all(r.status == "pass" for r in records)


def test_cycles_suite_flags_the_seed_erratum():
    records = by_check(verify_suite("cycles", max_n=8))
    seed = records["cycle/order-seed-erratum"]
    assert seed.status == "erratum"
    assert seed.expected == [[3, 5]]
    assert seed.observed == [[3, 7]]
    assert records["cycle/order-tribonacci"].status == "pass"
    assert records["cycle/triangle"].status == "pass"


def test_cycles_suite_flags_gamma_set_count_errata():
    records = by_check(verify_suite("cycles", max_n=8))
    assert records["cycle/upper-gamma-set-count/odd"].status == "erratum"
    assert records["cycle/upper-gamma-set-count/even"].status == "erratum"
    assert records["cycle/upper-gamma"].status == "pass"


def test_paths_suite_statuses():
    records = verify_suite("paths", max_n=8)
    statuses = {r.check: r.status for r in records}
    errata = {check for check, status in statuses.items() if status == "erratum"}
    assert errata == {
        "path/upper-gamma-set-count/even",
        "path/gamma-plus-one-binding",
        "path/closed-form-constants",
    }
    assert not [c for c, s in statuses.items() if s == "fail"]
    assert statuses["path/triangle"] == "pass"
    assert statuses["path/distance-2-law"] == "pass"
    assert statuses["path/upper-gamma-set-count/odd"] == "pass"


def test_closed_form_constants_pin_the_printed_variant():
    # the printed alternating-sign form gives (-1)^n s_(n-3) for paths
    s = order_sequence("path", 12)
    path = by_check(verify_suite("paths", max_n=3))["path/closed-form-constants"]
    assert path.expected == [[n, (-1) ** n * s[n - 4]] for n in range(4, 13)]
    assert path.observed == [[n, s[n - 1]] for n in range(4, 13)]
    c = order_sequence("cycle", 12)
    cycle = by_check(verify_suite("cycles", max_n=3))["cycle/closed-form-constants"]
    printed = [5, -11, 19, -35, 65, -119, 219, -403, 741]
    assert cycle.expected == [[n, v] for n, v in zip(range(4, 13), printed)]
    assert cycle.observed == [[n, c[n - 1]] for n in range(4, 13)]


def test_products_suite_passes():
    records = verify_suite("products", max_n=10)
    assert all(r.status == "pass" for r in records)
    labels = {r.check for r in records}
    assert labels == {"product/join", "product/corona", "product/ladder"}


def test_parity_suite_passes():
    records = suite_parity(max_n=5, seed=1)
    assert all(r.status == "pass" for r in records)


@pytest.mark.parametrize("suite", ["parity", "all"])
def test_numpy_seed_gives_the_int_seed_records(suite):
    assert verify_suite(suite, max_n=4, seed=np.int64(3)) == verify_suite(suite, max_n=4, seed=3)


def test_records_always_carry_both_values():
    for r in verify_suite("all", max_n=5):
        assert r.expected is not None and r.observed is not None
        assert r.status in ("pass", "erratum", "fail")


RANGE = re.compile(r"(?:(odd|even) n, )?(\d+)<=n<=(\d+)")
LISTED = re.compile(r"n in \{(\d+(?:, \d+)*)\}|n=(\d+)")


@pytest.mark.parametrize("max_n", [3, 4, 12])
def test_records_check_only_the_n_their_range_names(max_n):
    ranged = listed = 0
    for r in verify_suite("all", max_n=max_n):
        named = LISTED.fullmatch(r.range)
        if named:
            # the n listed are exactly the n checked
            listed += 1
            want = [int(n) for n in (named[1] or named[2]).split(", ")]
            assert [label for label, _ in r.expected] == want, r.check
            assert [label for label, _ in r.observed] == want, r.check
            continue
        m = RANGE.fullmatch(r.range)
        if not m:
            continue
        ranged += 1
        parity, lo, hi = m[1], int(m[2]), int(m[3])
        for pairs in (r.expected, r.observed):
            labels = [label for label, _ in pairs]
            assert all(type(n) is int and lo <= n <= hi for n in labels), r.check
            assert labels == sorted(set(labels)), r.check
            if parity:
                assert all(n % 2 == (parity == "odd") for n in labels), r.check
    assert ranged >= 30 and listed >= 2


def test_report_json_serializable():
    records = verify_suite("complete", max_n=4)
    obj = report_to_json_obj(records, "complete", 4)
    text = json.dumps(obj)
    parsed = json.loads(text)
    assert parsed["suite"] == "complete"
    assert parsed["counts"]["fail"] == 0
    assert len(parsed["records"]) == len(records)


@pytest.mark.parametrize("max_n", [4, 8, 12])
def test_report_records_are_shallow_copies_of_asdict(max_n):
    records = verify_suite("all", max_n=max_n)
    report = report_to_json_obj(records, "all", max_n)
    deep = [asdict(r) for r in records]
    assert report["records"] == deep
    assert json.dumps(report, indent=2) == json.dumps({**report, "records": deep}, indent=2)

    def holds_a_dataclass(value):
        if isinstance(value, (list, tuple)):
            return any(holds_a_dataclass(v) for v in value)
        if isinstance(value, dict):
            return any(holds_a_dataclass(v) for v in value.values())
        return is_dataclass(value)

    assert not any(holds_a_dataclass(r.expected) or holds_a_dataclass(r.observed)
                   for r in records)
    first = report["records"][0]
    first["status"] = "fail"
    first["check"] = "changed"
    assert (records[0].status, records[0].check) == (deep[0]["status"], deep[0]["check"])


def test_unknown_suite_and_cap():
    with pytest.raises(ValueError):
        verify_suite("nope", max_n=5)
    with pytest.raises(ValueError):
        verify_suite("paths", max_n=30)
    for max_n in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="3..24"):
            verify_suite("all", max_n=max_n)


def test_labeled_graph_sweep_small_counts():
    connected, counts = labeled_graph_sweep(3)
    # graphs on 3 vertices: empty graph has 1 dominating set (all vertices)
    assert counts[0] == 1
    # the triangle (all three edges) has 2^3 - 1 = 7
    assert counts[-1] == 7
    assert int(connected.sum()) == 4


def masked_sweep(n):
    """labeled_graph_sweep through boolean masks: int64 edge indices, reach
    grown by masked assignment, and one coverage per vertex subset."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = np.arange(1 << len(pairs), dtype=np.int64)
    nbhd = [np.full(index.size, 1 << v, dtype=np.uint8) for v in range(n)]
    for i, (u, v) in enumerate(pairs):
        has = (index >> i & 1).astype(bool)
        nbhd[u][has] |= np.uint8(1 << v)
        nbhd[v][has] |= np.uint8(1 << u)
    full = (1 << n) - 1
    reach = np.ones(index.size, dtype=np.uint8)
    for _ in range(n):
        for v in range(n):
            has_v = (reach >> v & 1).astype(bool)
            reach[has_v] |= nbhd[v][has_v]
    counts = np.zeros(index.size, dtype=np.int32)
    for s in range(1 << n):
        cov = np.zeros(index.size, dtype=np.uint8)
        for v in range(n):
            if s >> v & 1:
                cov |= nbhd[v]
        counts += cov == full
    return reach == full, counts


def test_labeled_graph_sweep_equals_a_masked_sweep():
    for n in range(1, 8):
        got, want = labeled_graph_sweep(n), masked_sweep(n)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_labeled_graph_sweep_splits_on_vertex_0():
    # the low n-1 bits of an edge index are vertex 0's neighbours A
    for n in range(2, PARITY_EXHAUSTIVE_MAX_N + 1):
        connected, counts = (a.reshape(-1, 2 ** (n - 1)) for a in labeled_graph_sweep(n))
        # an isolated vertex 0 is in every dominating set
        assert np.array_equal(counts[:, 0], labeled_graph_sweep(n - 1)[1])
        assert not connected[:, 0].any()
        assert counts[-1, -1] == 2**n - 1  # K_n


def test_parity_tally_equals_the_sweep_counts():
    # every count is odd, so each tally is 0
    [record] = [r for r in suite_parity(max_n=7) if r.check == "parity/exhaustive"]
    expected, checked = [], 0
    for n in range(1, 8):
        connected, counts = labeled_graph_sweep(n)
        expected.append([n, int(((counts % 2 == 0) & connected).sum())])
        checked += int(connected.sum())
    assert record.observed == expected
    assert record.note.startswith(f"{checked} connected graphs checked")


def test_parity_tally_counts_connected_graphs_with_an_even_count(monkeypatch):
    # flips the parity of every odd-numbered graph H, so the tally must find
    # the even counts that the unpatched sweep never has
    sweep, expected = verify._sweep, []

    def flipped(n):
        connected, counts = sweep(n)
        counts += (np.arange(counts.shape[1]) & 1).astype(np.uint8)
        expected.append([n, int(((counts % 2 == 0) & connected).sum())])
        return connected, counts

    monkeypatch.setattr(verify, "_sweep", flipped)
    [record] = [r for r in suite_parity(max_n=7) if r.check == "parity/exhaustive"]
    assert record.observed == expected and expected[-1][1] > 0


def test_parity_suite_peak_memory():
    # the sweep at n = 7 holds two (sets x graphs) uint8 tables, 2 MB each
    tracemalloc.start()
    try:
        suite_parity(max_n=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20


def test_labeled_graph_sweep_refuses_n_outside_1_to_7():
    # both raise before the sweep allocates anything
    with pytest.raises(TooLargeError, match="limit 7"):
        labeled_graph_sweep(PARITY_EXHAUSTIVE_MAX_N + 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            labeled_graph_sweep(n)


def test_small_upper_gamma_set_counts_can_fail(monkeypatch):
    checks = ("path/upper-gamma-set-count/small-even", "cycle/upper-gamma-set-count/C4")
    records = by_check(verify_suite("paths", max_n=4) + verify_suite("cycles", max_n=4))
    assert [records[c].status for c in checks] == ["pass", "pass"]
    count = domination.count_maximal_minimal_sets
    monkeypatch.setattr(domination, "count_maximal_minimal_sets", lambda g: count(g) + 1)
    records = by_check(verify_suite("paths", max_n=4) + verify_suite("cycles", max_n=4))
    assert [records[c].status for c in checks] == ["fail", "fail"]


def clear_seeds():
    counting._base_rows.cache_clear()
    counting._ladder_seeds.cache_clear()
    domination._last_family = (None, None)  # so that each seed graph is searched again


def test_recurrence_records_fail_when_the_prune_route_drops_a_set(monkeypatch):
    # the recurrences take their seeds from the prune route and verify judges
    # them with the subset table, so a set the route drops from C_4, L_2 or L_3
    # shows as a fail
    checks = ("cycle/triangle", "cycle/gf", "product/ladder")

    def statuses():
        clear_seeds()
        records = by_check(verify_suite("cycles", max_n=8) + verify_suite("products", max_n=8))
        return [records[c].status for c in checks]

    assert statuses() == ["pass", "pass", "pass"]
    prune_bits = domination._prune_bits

    def drop_first(g, k):
        bits = prune_bits(g, k)
        return bits[1:] if g.n in (4, 6) else bits

    monkeypatch.setattr(domination, "_prune_bits", drop_first)
    try:
        assert statuses() == ["fail", "fail", "fail"]
    finally:
        monkeypatch.undo()
        clear_seeds()


def test_random_connected_graph_is_connected():
    import random

    from domgraph import is_connected

    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 10))
        assert is_connected(g)


def distance_two_by_bfs(r):
    rows = [reconfig.distance_row(r, a) == 2 for a in range(r.order)]
    return np.array(rows).reshape(r.order, r.order)


def test_two_walk_marks_equal_the_distances_on_path_graphs():
    for n in range(2, 9):
        r = reconfig.build(make_family("path", n))
        assert np.array_equal(verify._distance_two_marks(r), distance_two_by_bfs(r))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_graphs(7), st.data())
def test_two_walk_marks_equal_the_distances_below_k_equals_n(g, data):
    # with k < n, D_k(G) may miss the sets a path through |A xor B| would use
    if g.n < 2:
        return
    r = reconfig.build(g, data.draw(st.integers(1, g.n - 1)))
    assert np.array_equal(verify._distance_two_marks(r), distance_two_by_bfs(r))


def record(suite, check):
    return next(r for r in suite(6) if r.check == check)


def drop_entries(monkeypatch, dropped):
    """Make reconfig._adjacency leave out the CSR entries whose rows and
    columns dropped(rows, cols) marks."""
    adjacency = reconfig._adjacency

    def without(*args):
        indptr, indices = adjacency(*args)
        order = len(indptr) - 1
        src = np.repeat(np.arange(order), np.diff(indptr))
        keep = ~dropped(src, indices)
        indptr = np.zeros_like(indptr)
        np.cumsum(np.bincount(src[keep], minlength=order), out=indptr[1:])
        return indptr, indices[keep]

    monkeypatch.setattr(reconfig, "_adjacency", without)


def test_distance_two_law_fails_when_an_edge_is_dropped(monkeypatch):
    # the distance-2 record checks the D_n(P_n) that suite_paths built for the
    # structure records
    cases = [(verify.suite_paths, "path/distance-2-law"), (verify.suite_complete, "complete/size")]
    assert all(record(*case).status == "pass" for case in cases)

    def first_edge(src, cols):
        b = cols[:1]  # node 0's first neighbour; none in D_1(P_1), a single node
        return ((src == 0) & np.isin(cols, b)) | (np.isin(src, b) & (cols == 0))

    drop_entries(monkeypatch, first_edge)
    distance_two, size = (record(*case) for case in cases)
    assert distance_two.status == "fail"
    assert any(violations for _, violations in distance_two.observed)
    # the size that the superset lemma claims, against the CSR's entries
    assert size.status == "fail"


def test_connected_records_fail_when_node_0_is_isolated(monkeypatch):
    # at k = n the superset lemma says D_n(G) is connected: the records search the CSR
    cases = [(verify.suite_paths, "path/connected"), (verify.suite_cycles, "cycle/connected")]
    assert all(record(*case).status == "pass" for case in cases)
    drop_entries(monkeypatch, lambda src, cols: (src == 0) | (cols == 0))
    for case in cases:
        rec = record(*case)
        # D_1(P_1) is the single node 0
        assert rec.status == "fail" and all(count == 1 + (n > 1) for n, count in rec.observed)
