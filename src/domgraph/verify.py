"""Cross-validation of counting formulas and structure theorems against the
exhaustive enumeration oracle.

Every check yields one CheckRecord carrying the claimed (formula) values
and the observed (oracle) values side by side, never a bare boolean.

Status semantics:

* ``pass``    - formula and oracle agree over the whole range.
* ``erratum`` - a published claim the oracle refutes; the implementation
  follows the oracle and the record documents the gap with both values.
* ``fail``    - this package's own formula implementation disagrees with
  the oracle, which would be a bug here.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from . import counting, domination, reconfig
from .errors import TooLargeError
from .graphs import Graph, corona, graph_from_edges, join, ladder, make_family


@dataclass(frozen=True)
class CheckRecord:
    check: str
    range: str
    expected: object
    observed: object
    status: str
    note: str = ""


def _pairs_record(check, rng, triples, note="", mismatch_status="fail"):
    """Build a record from (label, expected, observed) triples."""
    triples = list(triples)
    ok = all(e == o for _, e, o in triples)
    return CheckRecord(
        check=check,
        range=rng,
        expected=[[lab, e] for lab, e, _ in triples],
        observed=[[lab, o] for lab, _, o in triples],
        status="pass" if ok else mismatch_status,
        note=note,
    )


def _over_n(check, items, lo, hi, claim, observe, *, parity="", note="", mismatch_status="fail"):
    """Build a record over the n of items in lo..hi (only odd or even n when
    parity says so), pairing claim(n) with observe(items[n]); the range
    label is written from the same bounds."""
    rest = {"odd": 1, "even": 0}.get(parity)
    return _pairs_record(
        check, f"{parity} n, {lo}<=n<={hi}" if parity else f"{lo}<=n<={hi}",
        [
            (n, claim(n), observe(item)) for n, item in items.items()
            if lo <= n <= hi and (rest is None or n % 2 == rest)
        ],
        note=note, mismatch_status=mismatch_status,
    )


# ---------------------------------------------------------------------------
# Complete graphs
# ---------------------------------------------------------------------------

def suite_complete(max_n: int = 12) -> list[CheckRecord]:
    hi = min(max_n, 12)
    built = {n: reconfig.build(make_family("complete", n)) for n in range(1, hi + 1)}
    records = [
        _over_n("complete/order", built, 1, hi, lambda n: 2**n - 1, lambda r: r.order),
        _over_n("complete/size", built, 1, hi, lambda n: n * (2 ** (n - 1) - 1), lambda r: r.size),
        _over_n("complete/bipartition", built, 1, hi, lambda n: [2 ** (n - 1), 2 ** (n - 1) - 1],
                lambda r: [len(p) for p in reconfig.bipartition(r)],
                note="parts are the odd- and even-cardinality dominating sets"),
        _over_n("complete/min-degree", built, 1, hi, lambda n: n - 1,
                lambda r: reconfig.degree_extremes(r)[0]),
        _over_n("complete/max-degree", built, 2, hi, lambda n: n,
                lambda r: reconfig.degree_extremes(r)[1],
                note="D_1(K_1) is a single node with degree 0, excluded"),
        _over_n("complete/degree-n-1-count", built, 1, hi, lambda n: n,
                lambda r: int(np.count_nonzero(r.degrees == r.nodes.graph_n - 1)),
                note="exactly the n singletons have degree n-1"),
        _over_n("complete/non-regularity", built, 2, hi, lambda n: False, reconfig.is_regular),
        _over_n("complete/bipartite-edges-cross", built, 1, hi, lambda n: 0, parity_violations),
        _over_n("complete/euler", built, 3, min(hi, 10), lambda n: "neither",
                reconfig.euler_status),
    ]
    ham = _over_n("complete/hamiltonian", built, 1, min(hi, 4), lambda n: False,
                  reconfig.is_hamiltonian)
    records.append(replace(ham, range=f"{ham.range} (order <= {reconfig.HAMILTONIAN_ORDER_CAP})"))

    def complement(r):
        r1 = reconfig.build(make_family("complete", r.nodes.graph_n), 1)
        return [r1.size, reconfig.connected_components(r1)[0]]

    records.append(_over_n(
        "complete/k1-is-complement", built, 1, min(hi, 8), lambda n: [0, n], complement,
        note="D_1(K_n) is edgeless on n nodes, the complement of K_n"))
    return records


def parity_violations(r: reconfig.ReconfigGraph) -> int:
    """Edges of D_k(G) joining two sets whose cardinalities have equal parity."""
    rows = np.repeat(r.nodes.cards, r.degrees)
    # every edge appears in both endpoints' rows
    return int(np.count_nonzero((rows ^ r.nodes.cards[r.indices]) % 2 == 0)) // 2


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

# The claimed Gamma(G) of each family
UPPER_GAMMA = {"path": lambda n: math.ceil(n / 2), "cycle": lambda n: n // 2}


def _upper_gamma_sets_by_prune(g: Graph) -> int:
    """The same count as domination.count_maximal_minimal_sets, observed
    without the subset table: the prune route lists the dominating sets,
    is_minimal_dominating keeps the minimal ones, and those of the largest
    cardinality count."""
    family = domination.enumerate_dominating(g, g.n, method="prune")
    cards = [b.bit_count() for b in family.bits.tolist() if domination.is_minimal_dominating(g, b)]
    return cards.count(max(cards))


def suite_paths(max_n: int = 12) -> list[CheckRecord]:
    enum_hi = min(max_n, 20)
    struct_hi = min(max_n, 14)
    dist_hi = min(max_n, 10)
    paths = {n: make_family("path", n) for n in range(1, enum_hi + 1)}
    table = counting.path_triangle(max(3 * 30 + 2, enum_hi))
    # the gamma-set counts of P_n for n = 3k, 3k+1, 3k+2, as formulas of k
    gamma_sets = [counting.PATH_FORMULAS[case].value
                  for case in ("d(P3n,n)", "d(P3n+1,n+1)", "d(P3n+2,n+1)")]

    records = [
        _over_n("path/gamma", paths, 1, enum_hi, lambda n: math.ceil(n / 3),
                domination.domination_number),
        _over_n("path/upper-gamma", paths, 1, enum_hi, UPPER_GAMMA["path"],
                domination.upper_domination_number),
        _over_n("path/gamma-set-count", paths, 1, enum_hi, lambda n: gamma_sets[n % 3](n // 3),
                domination.count_minimum_sets,
                note="1 / (k^2+5k+2)/2 / k+2 for n = 3k, 3k+1, 3k+2"),
        _over_n("path/upper-gamma-set-count/odd", paths, 1, enum_hi, lambda n: 1,
                domination.count_maximal_minimal_sets, parity="odd"),
        _over_n(
            "path/upper-gamma-set-count/even", paths, 6, enum_hi, lambda n: 2,
            domination.count_maximal_minimal_sets, parity="even", mismatch_status="erratum",
            note="claimed: exactly the two alternating sets; refuted by exhaustive "
            "enumeration, e.g. {1,4,5} and {1,3,6} are also maximum minimal "
            "dominating sets of P_6 (counts grow: 6, 9, 12, 16, ...)",
        ),
    ]
    small_even = [n for n in (2, 4) if n in paths]  # the label names only the n paired
    records.append(_pairs_record(
        "path/upper-gamma-set-count/small-even", f"n in {{{', '.join(map(str, small_even))}}}",
        [(n, _upper_gamma_sets_by_prune(paths[n]), domination.count_maximal_minimal_sets(paths[n]))
         for n in small_even],
        note="no closed count claimed for P_4; brute-force values reported",
    ))
    records.append(_over_n(
        "path/triangle", paths, 1, enum_hi, lambda n: list(table.row(n)),
        lambda g: list(domination.count_by_cardinality(g)),
        note="three-term recurrence vs exhaustive enumeration, entrywise",
    ))
    records.append(_order_record("path", paths, enum_hi))
    for case, formula in counting.PATH_FORMULAS.items():
        triples = []
        for n in range(formula.min_n, 31):
            length, card = formula.target(n)
            oracle = table.row_sum(length) if card is None else table.row(length)[card]
            triples.append((n, counting.closed_d(case, n), oracle))
        records.append(_pairs_record(
            f"path/formula:{case}", f"{formula.min_n}<=n<=30",
            triples, note=formula.description,
        ))
    records.append(_pairs_record(
        "path/gamma-plus-one-binding", "1<=n<=6",
        [
            (n, counting.closed_d("d(P3n+2,n+2)", n), table.row(3 * n + 1)[n + 2])
            for n in range(1, 7)
        ],
        note=(
            "the quartic is sometimes titled as the (gamma+1)-set count of "
            "P_{3n+1}; it actually equals d(P_{3n+2}, n+2) (see "
            "path/formula:d(P3n+2,n+2)), while d(P_{3n+1}, n+2) follows the "
            "quintic. Shown here: quartic vs d(P_{3n+1}, n+2) disagree"
        ),
        mismatch_status="erratum",
    ))
    records += _gf_and_closed_form_records("path")
    built = {n: reconfig.build(g) for n, g in paths.items() if n <= struct_hi}
    records += _structure_records("path", built, struct_hi)
    records.append(_distance_two_record(built, dist_hi))
    return records


def _order_record(family: str, graphs: dict[int, Graph], enum_hi: int) -> CheckRecord:
    seq = counting.order_sequence(family, enum_hi)
    return _over_n(
        f"{family}/order-tribonacci", graphs, min(graphs), enum_hi,
        lambda n: seq[n - 1], domination.total_count,
        note="seeds " + ", ".join(map(str, counting.order_sequence(family, 3))),
    )


def _distance_two_marks(r: reconfig.ReconfigGraph) -> np.ndarray:
    """The order x order mask of the node pairs at distance 2 in r: the ends
    a != b of some walk a-m-b of two edges that are not adjacent themselves,
    all walks listed at once from the CSR arrays."""
    src = np.repeat(np.arange(r.order), r.degrees)  # the near end of each CSR entry
    # the rows of each entry's far end
    far, lengths = reconfig._rows(r.indptr, r.indices, r.indices)
    marks = np.zeros((r.order, r.order), dtype=bool)
    marks[np.repeat(src, lengths), far] = True
    marks[src, r.indices] = False
    np.fill_diagonal(marks, False)
    return marks


def _distance_two_record(built: dict[int, reconfig.ReconfigGraph], dist_hi: int) -> CheckRecord:
    """Same-cardinality nodes of D_n(P_n) are at distance 2 iff the sets share
    all but one vertex, checked on every such pair a < b of built[n], n = 2..dist_hi.

    No breadth-first search is needed: a pair at distance 2 has a shortest
    path a-m-b, which is a walk of two edges, and a walk a-m-b between
    a != b that are not adjacent leaves no shorter path, so the walk alone
    decides.  The adjacency test stays although same-cardinality nodes are
    never adjacent, so that a wrong edge still shows as a violation.
    """
    triples = []
    pairs_checked = 0
    for n in range(2, dist_hi + 1):
        r = built[n]
        bits, cards = r.nodes.bits, r.nodes.cards.astype(np.int64)
        same = np.triu(cards[:, None] == cards, 1)  # the pairs a < b of one cardinality
        want_two = np.bitwise_count(bits[:, None] & bits) == cards[:, None] - 1
        pairs_checked += int(np.count_nonzero(same))
        triples.append((n, 0, int(np.count_nonzero((want_two != _distance_two_marks(r)) & same))))
    return _pairs_record(
        "path/distance-2-law", f"2<=n<={dist_hi}",
        triples,
        note=(
            "distance 2 iff the same-cardinality sets share all but one "
            f"vertex; {pairs_checked} pairs checked exhaustively"
        ),
    )


ROOT_RESIDUAL_TOL = 1e-12  # for the numeric cubic roots, which are only displayed
# The printed variant's numerators, (t-1)^2 and 3t^2-2t+1, ascending.
PRINTED_NUMERATORS = {"path": (1, -2, 1), "cycle": (1, -2, 3)}


def _gf_and_closed_form_records(family: str) -> list[CheckRecord]:
    seq = counting.order_sequence(family, 40)
    gf = counting.PATH_ORDER_GF if family == "path" else counting.CYCLE_ORDER_GF
    coeffs = counting.expand_gf(gf, 40)
    records = [
        _pairs_record(
            f"{family}/gf", "1<=n<=40",
            [(n, seq[n - 1], coeffs[n - 1]) for n in range(1, 41)],
            note="coefficient of x^(n-1) is the order at n",
        ),
        _pairs_record(
            f"{family}/closed-form", "1<=n<=40",
            [(n, seq[n - 1], counting.closed_form_order(family, n)) for n in range(1, 41)],
            note="exact root formula vs recurrence",
        ),
    ]
    form = counting.cubic_closed_form(family)
    records.append(_pairs_record(
        f"{family}/cubic-roots", "3 roots",
        [
            (i, True, bool(abs(t**3 + t**2 + t - 1) < ROOT_RESIDUAL_TOL))
            for i, t in enumerate(form.roots)
        ],
        note=f"each root satisfies x^3+x^2+x-1 = 0 to {ROOT_RESIDUAL_TOL:g}",
    ))
    # the printed variant's (-1)^n and 1/t factors make it (-1)^n times the
    # partial-fraction form at n + 1 with the printed numerator
    printed = counting.cubic_closed_form(family, PRINTED_NUMERATORS[family])
    records.append(_pairs_record(
        f"{family}/closed-form-constants", "4<=n<=12",
        [(n, (-1) ** n * printed.evaluate(n + 1), seq[n - 1]) for n in range(4, 13)],
        note=(
            "the alternating-sign variant (numerators (t-1)^2 for paths, "
            "3t^2-2t+1 for cycles, extra (-1)^n and 1/t factors) does not "
            "reproduce the order sequence; for paths it equals "
            "(-1)^n * s_(n-3) since (t-1)^2 = (t+1)^2 t^4 at the roots. The "
            "partial-fraction form with the generating-function numerator "
            "is implemented instead"
        ),
        mismatch_status="erratum",
    ))
    return records


def _structure_records(family: str, built: dict[int, reconfig.ReconfigGraph],
                       struct_hi: int) -> list[CheckRecord]:
    lo = min(built)
    return [
        _over_n(f"{family}/connected", built, lo, struct_hi, lambda n: 1,
                lambda r: reconfig.connected_components(r)[0]),
        _over_n(f"{family}/max-degree", built, max(lo, 2), struct_hi, lambda n: n,
                lambda r: reconfig.degree_extremes(r)[1],
                note="n=1 is a single node" if family == "path" else ""),
        _over_n(f"{family}/min-degree", built, lo, struct_hi, lambda n: n - UPPER_GAMMA[family](n),
                lambda r: reconfig.degree_extremes(r)[0],
                note="minimum degree is n - Gamma, attained at the Gamma-sets"),
        _over_n(f"{family}/bipartite-edges-cross", built, lo, struct_hi, lambda n: 0,
                parity_violations),
        _over_n(f"{family}/non-regularity", built, max(lo, 2), struct_hi, lambda n: False,
                reconfig.is_regular),
    ]


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def suite_cycles(max_n: int = 12) -> list[CheckRecord]:
    enum_hi = min(max_n, 20)
    struct_hi = min(max_n, 14)
    cycles = {n: make_family("cycle", n) for n in range(3, enum_hi + 1)}
    table = counting.cycle_triangle(max(enum_hi, 5))

    records = [
        _over_n("cycle/upper-gamma", cycles, 3, enum_hi, UPPER_GAMMA["cycle"],
                domination.upper_domination_number),
        _over_n(
            "cycle/upper-gamma-set-count/odd", cycles, 3, enum_hi, lambda n: n,
            domination.count_maximal_minimal_sets, parity="odd", mismatch_status="erratum",
            note="claimed: the n rotations of the alternating pattern; refuted by "
            "exhaustive enumeration from n=7 on (C_7 has 14, C_9 has 18, ...)",
        ),
        _over_n(
            "cycle/upper-gamma-set-count/even", cycles, 6, enum_hi, lambda n: 2,
            domination.count_maximal_minimal_sets, parity="even", mismatch_status="erratum",
            note="claimed: two; holds for n = 2 mod 4 but fails for n = 0 mod 4 "
            "(C_8 and C_12 have 6)",
        ),
    ]
    if 4 <= enum_hi:
        records.append(_pairs_record(
            "cycle/upper-gamma-set-count/C4", "n=4",
            [(4, _upper_gamma_sets_by_prune(cycles[4]),
              domination.count_maximal_minimal_sets(cycles[4]))],
            note="no closed count claimed for C_4; brute-force value reported",
        ))
    records.append(_over_n(
        "cycle/triangle", cycles, 3, enum_hi, lambda n: list(table.row(n)),
        lambda g: list(domination.count_by_cardinality(g)),
        note="three-term recurrence from enumerated base rows C_3..C_5",
    ))
    records.append(_order_record("cycle", cycles, enum_hi))
    records.append(_pairs_record(
        "cycle/order-seed-erratum", "n=3",
        [(3, 5, domination.total_count(cycles[3]))],
        note=(
            "documented erratum: the order corollary states the initial "
            "value |V(D_3(C_3))| = 5, but C_3 = K_3 has 2^3 - 1 = 7 "
            "dominating sets, consistent with the recurrence seed S_3 = 7; "
            "the sequence uses 7"
        ),
        mismatch_status="erratum",
    ))
    records += _gf_and_closed_form_records("cycle")
    built = {n: reconfig.build(g) for n, g in cycles.items() if n <= struct_hi}
    records += _structure_records("cycle", built, struct_hi)
    return records


# ---------------------------------------------------------------------------
# Graph products
# ---------------------------------------------------------------------------

def family_pool(max_size: int):
    """(name, graph) for K_m, P_m, C_m and O_m, m <= max_size, where simple."""
    pool = []
    for m in range(1, max_size + 1):
        pool.append((f"K{m}", make_family("complete", m)))
        if m >= 2:
            pool.append((f"P{m}", make_family("path", m)))
        if m >= 3:
            pool.append((f"C{m}", make_family("cycle", m)))
        pool.append((f"O{m}", make_family("empty", m)))
    return pool


def suite_products(max_n: int = 12) -> list[CheckRecord]:
    pool = family_pool(max_n - 1)
    totals = {name: domination.total_count(g) for name, g in pool}

    def product_record(check, rng, note, pairs, op):
        """The claimed order against the count of op(g, h) over the (label,
        claim, g, h) pairs; note is formatted with their number."""
        triples = [(label, claim, domination.total_count(op(g, h))) for label, claim, g, h in pairs]
        return _pairs_record(check, rng, triples, note=note.format(len(triples)))

    records = [
        product_record(
            "product/join", f"p+q<={max_n}", "(2^p-1)(2^q-1) + d(G) + d(H) over {} family pairs",
            [(f"{a}+{b}", counting.join_order(g.n, h.n, totals[a], totals[b]), g, h)
             for i, (a, g) in enumerate(pool) for b, h in pool[i:] if g.n + h.n <= max_n],
            join,
        ),
        product_record(
            "product/corona", f"p(1+q)<={max_n}", "(2^q + d(H))^p over {} ordered family pairs",
            [(f"{a}o{b}", counting.corona_order(g.n, h.n, totals[b]), g, h)
             for a, g in pool for b, h in pool if g.n * (1 + h.n) <= max_n],
            corona,
        ),
    ]
    ladder_hi = min(max_n // 2, 10)
    orders = counting.ladder_order(ladder_hi)
    ladders = {n: ladder(n) for n in range(1, ladder_hi + 1)}
    records.append(_over_n(
        "product/ladder", ladders, 1, ladder_hi, lambda n: orders[n - 1], domination.total_count,
        note="five-term recurrence from brute-forced seeds for L_1..L_5",
    ))
    return records


# ---------------------------------------------------------------------------
# Parity of the number of dominating sets
# ---------------------------------------------------------------------------

PARITY_EXHAUSTIVE_MAX_N = 7  # the largest n of labeled_graph_sweep


def labeled_graph_sweep(n: int):
    """(connected, dominating-set count) for every labeled graph G on n
    vertices, as a bool and an int32 array over all 2^(n(n-1)/2) edge
    subsets, edge pairs (u, v), u < v, in lexicographic order.

    Vertex 0's pairs come first, so the low n-1 bits of an edge index are
    its neighbour set A (bit v-1 for vertex v) and the high bits index a
    graph H on 1..n-1 in the order of the (n-1)-vertex sweep.  A dominating
    set S of G is S' or S' + {0} with S' a set of H's vertices:

    * 0 in S: S' must cover the rest, ~A; hits[t] counts the S' with
      N_H[S'] containing t, by inclusion-exclusion over the S' that miss
      N_H[u] for each u in t;
    * 0 not in S: S' dominates H and meets A; within[t] counts the
      dominating sets of H inside t, and within[full] - within[~A] those.

    Both tables are built over the 2^(n-1) sets and the 2^C(n-1,2) graphs H,
    never over the graphs G, and held in uint8, since every count is at
    most 2^n <= 128.  G is connected iff every component of H meets A.
    Raises TooLargeError above PARITY_EXHAUSTIVE_MAX_N, before anything is
    allocated.
    """
    if n < 1:
        raise ValueError(f"n={n} must be at least 1")
    if n > PARITY_EXHAUSTIVE_MAX_N:
        raise TooLargeError(
            f"n={n} exceeds the exhaustive sweep limit {PARITY_EXHAUSTIVE_MAX_N} "
            f"(2^{n * (n - 1) // 2} graphs)"
        )
    r = n - 1  # H's vertices 1..n-1 are its bits 0..r-1
    sets = 1 << r
    pairs = [(u, v) for u in range(r) for v in range(u + 1, r)]
    graphs = 1 << len(pairs)
    edge_bits = np.arange(graphs, dtype=np.uint32)
    nbhd = [np.full(graphs, 1 << v, dtype=np.uint8) for v in range(r)]
    for idx, (u, v) in enumerate(pairs):
        has = ((edge_bits >> idx) & 1).astype(np.uint8)
        nbhd[u] |= has << v
        nbhd[v] |= has << u

    def unions(rows):
        # out[s, h] = the OR of rows[v][h] over v in s; the (sets, H) layout
        # keeps every pass on whole rows
        out = np.zeros((sets, graphs), dtype=np.uint8)
        for v, row in enumerate(rows):
            out[1 << v:2 << v] = out[:1 << v] | row
        return out

    cov = unions(nbhd)  # N_H[s]

    # Every final count is at most 2^n <= 128, so uint8 holds it; the
    # subtractions of the transform wrap, and the wrap is exact mod 256.
    hits = np.uint8(1) << (r - np.bitwise_count(cov))  # the S' that miss N_H[u]
    within = (cov == sets - 1).astype(np.uint8)  # the S' that dominate H
    for v in range(r):
        b = 1 << v
        h = hits.reshape(-1, 2 * b, graphs)
        h[:, b:] = h[:, :b] - h[:, b:]  # signed subset (Moebius) transform
        w = within.reshape(-1, 2 * b, graphs)
        w[:, b:] += w[:, :b]  # subset sums
    # row A: hits[~A] + within[full] - within[~A], and ~A = full - A
    counts = hits[::-1] + within[-1] - within[::-1]

    comps = [np.full(graphs, 1 << v, dtype=np.uint8) for v in range(r)]
    for comp in comps:
        for _ in range(r):  # r passes over the vertices cover every path in H
            for u in range(r):
                comp |= nbhd[u] * (comp >> u & 1)
    connected = unions(comps) == sets - 1  # the components meeting A cover H
    return connected.T.ravel(), counts.T.astype(np.int32, order="C").ravel()


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random recursive tree on n vertices plus G(n, p) edges, p in [0.05, 0.5)."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    p = rng.uniform(0.05, 0.5)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return graph_from_edges(n, edges)


PARITY_SAMPLES = 200  # random connected graphs per parity run
PARITY_RANDOM_MAX_N = 16  # their largest order


def suite_parity(max_n: int = 12, seed: int = 0) -> list[CheckRecord]:
    records = []
    exhaustive_hi = min(max_n, PARITY_EXHAUSTIVE_MAX_N)
    triples = []
    total_checked = 0
    for n in range(1, exhaustive_hi + 1):
        connected, counts = labeled_graph_sweep(n)
        even = int((counts[connected] % 2 == 0).sum())
        total_checked += int(connected.sum())
        triples.append((n, 0, even))
    records.append(_pairs_record(
        "parity/exhaustive", f"all labeled connected graphs, 1<=n<={exhaustive_hi}",
        triples,
        note=(
            f"{total_checked} connected graphs checked; value is the number "
            "with an even count of dominating sets (equivalently an "
            "even-order D_n(G))"
        ),
    ))

    rng = random.Random(operator.index(seed))  # NumPy integers too
    even = 0
    sizes = []
    for _ in range(PARITY_SAMPLES):
        n = rng.randint(2, PARITY_RANDOM_MAX_N)
        g = random_connected_graph(rng, n)
        sizes.append(n)
        if domination.total_count(g) % 2 == 0:
            even += 1
    records.append(_pairs_record(
        "parity/random-connected", f"{PARITY_SAMPLES} samples, 2<=n<={PARITY_RANDOM_MAX_N}",
        [(f"seed={seed}", 0, even)],
        note=f"largest sampled n = {max(sizes)}",
    ))
    return records


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Suite name -> runner(max_n, seed); the order is the order of --suite all.
SUITES = {
    "complete": lambda max_n, seed: suite_complete(max_n),
    "paths": lambda max_n, seed: suite_paths(max_n),
    "cycles": lambda max_n, seed: suite_cycles(max_n),
    "products": lambda max_n, seed: suite_products(max_n),
    "parity": lambda max_n, seed: suite_parity(max_n, seed=seed),
}


def verify_suite(suite: str = "all", max_n: int = 12, seed: int = 0) -> list[CheckRecord]:
    """Run one named suite (or all of them) and return its records."""
    if not 3 <= max_n <= domination.ENUMERATION_CAP:
        raise ValueError(f"max_n={max_n} outside the valid range 3..{domination.ENUMERATION_CAP}")
    if suite == "all":
        return [r for name in SUITES for r in verify_suite(name, max_n=max_n, seed=seed)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; options: {(*SUITES, 'all')}")
    return SUITES[suite](max_n, seed)


def status_counts(records: list[CheckRecord]) -> dict[str, int]:
    """Number of records with each status, in the order pass, erratum, fail."""
    return {status: sum(1 for r in records if r.status == status)
            for status in ("pass", "erratum", "fail")}


def report_to_json_obj(records: list[CheckRecord], suite: str, max_n: int) -> dict:
    """The JSON report; each record a shallow dict in field order, whose
    expected/observed lists are the record's own (json.dumps only reads them)."""
    return {
        "suite": suite,
        "max_n": max_n,
        "counts": status_counts(records),
        "records": [dict(vars(r)) for r in records],
    }
