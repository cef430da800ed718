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
import random
from dataclasses import asdict, dataclass

import numpy as np

from . import counting, domination, reconfig
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


# ---------------------------------------------------------------------------
# Complete graphs
# ---------------------------------------------------------------------------

def suite_complete(max_n: int = 12) -> list[CheckRecord]:
    hi = min(max_n, 12)
    records = []
    built = {n: reconfig.build(make_family("complete", n)) for n in range(1, hi + 1)}

    records.append(_pairs_record(
        "complete/order", f"1<=n<={hi}",
        [(n, 2**n - 1, r.order) for n, r in built.items()],
    ))
    records.append(_pairs_record(
        "complete/size", f"1<=n<={hi}",
        [(n, n * (2 ** (n - 1) - 1), r.size) for n, r in built.items()],
    ))
    records.append(_pairs_record(
        "complete/bipartition", f"1<=n<={hi}",
        [
            (n, [2 ** (n - 1), 2 ** (n - 1) - 1],
             [len(p) for p in reconfig.bipartition(r)])
            for n, r in built.items()
        ],
        note="parts are the odd- and even-cardinality dominating sets",
    ))
    records.append(_pairs_record(
        "complete/min-degree", f"1<=n<={hi}",
        [(n, n - 1, reconfig.degree_extremes(r)[0]) for n, r in built.items()],
    ))
    records.append(_pairs_record(
        "complete/max-degree", f"2<=n<={hi}",
        [(n, n, reconfig.degree_extremes(r)[1]) for n, r in built.items() if n >= 2],
        note="D_1(K_1) is a single node with degree 0, excluded",
    ))
    records.append(_pairs_record(
        "complete/degree-n-1-count", f"1<=n<={hi}",
        [
            (n, n, int(np.count_nonzero(r.degrees == n - 1)))
            for n, r in built.items()
        ],
        note="exactly the n singletons have degree n-1",
    ))
    records.append(_pairs_record(
        "complete/non-regularity", f"2<=n<={hi}",
        [(n, False, reconfig.is_regular(r)) for n, r in built.items() if n >= 2],
    ))
    records.append(_pairs_record(
        "complete/bipartite-edges-cross", f"1<=n<={hi}",
        [(n, 0, parity_violations(r)) for n, r in built.items()],
    ))
    records.append(_pairs_record(
        "complete/euler", f"3<=n<={min(hi, 10)}",
        [
            (n, "neither", reconfig.euler_status(built[n]))
            for n in range(3, min(hi, 10) + 1)
        ],
    ))
    records.append(_pairs_record(
        "complete/hamiltonian", f"1<=n<={min(hi, 4)} (order <= 20)",
        [
            (n, False, reconfig.is_hamiltonian(built[n]))
            for n in range(1, min(hi, 4) + 1)
        ],
    ))
    records.append(_pairs_record(
        "complete/k1-is-complement", f"1<=n<={min(hi, 8)}",
        [
            (n, [0, n], [r1.size, reconfig.connected_components(r1)[0]])
            for n in range(1, min(hi, 8) + 1)
            for r1 in [reconfig.build(make_family("complete", n), 1)]
        ],
        note="D_1(K_n) is edgeless on n nodes, the complement of K_n",
    ))
    return records


def parity_violations(r: reconfig.ReconfigGraph) -> int:
    """Edges of D_k(G) joining two sets whose cardinalities have equal parity."""
    rows = np.repeat(r.cards, r.degrees)
    # every edge appears in both endpoints' rows
    return int(np.count_nonzero((rows ^ r.cards[r.indices]) % 2 == 0)) // 2


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def _path_gamma_count_claim(n: int) -> int:
    k, rem = divmod(n, 3)
    if rem == 0:
        return 1
    if rem == 1:
        return ((k * k + 5 * k + 2) // 2)
    return k + 2


def suite_paths(max_n: int = 12) -> list[CheckRecord]:
    enum_hi = min(max_n, 20)
    struct_hi = min(max_n, 14)
    dist_hi = min(max_n, 10)
    records = []
    paths = {n: make_family("path", n) for n in range(1, enum_hi + 1)}
    table = counting.path_triangle(max(3 * 30 + 2, enum_hi))

    records.append(_pairs_record(
        "path/gamma", f"1<=n<={enum_hi}",
        [(n, math.ceil(n / 3), domination.domination_number(g)) for n, g in paths.items()],
    ))
    records.append(_pairs_record(
        "path/upper-gamma", f"1<=n<={enum_hi}",
        [(n, math.ceil(n / 2), domination.upper_domination_number(g)) for n, g in paths.items()],
    ))
    records.append(_pairs_record(
        "path/gamma-set-count", f"1<=n<={enum_hi}",
        [(n, _path_gamma_count_claim(n), domination.count_minimum_sets(g)) for n, g in paths.items()],
        note="1 / (k^2+5k+2)/2 / k+2 for n = 3k, 3k+1, 3k+2",
    ))
    records.append(_pairs_record(
        "path/upper-gamma-set-count/odd", f"odd n, 1<=n<={enum_hi}",
        [
            (n, 1, domination.count_maximal_minimal_sets(g))
            for n, g in paths.items() if n % 2 == 1
        ],
    ))
    records.append(_pairs_record(
        "path/upper-gamma-set-count/even", f"even n, 6<=n<={enum_hi}",
        [
            (n, 2, domination.count_maximal_minimal_sets(g))
            for n, g in paths.items() if n % 2 == 0 and n >= 6
        ],
        note=(
            "claimed: exactly the two alternating sets; refuted by exhaustive "
            "enumeration, e.g. {1,4,5} and {1,3,6} are also maximum minimal "
            "dominating sets of P_6 (counts grow: 6, 9, 12, 16, ...)"
        ),
        mismatch_status="erratum",
    ))
    records.append(_pairs_record(
        "path/upper-gamma-set-count/small-even", "n in {2, 4}",
        [
            (n, domination.count_maximal_minimal_sets(paths[n]),
             domination.count_maximal_minimal_sets(paths[n]))
            for n in (2, 4) if n <= enum_hi
        ],
        note="no closed count claimed for P_4; brute-force values reported",
    ))
    records.append(_pairs_record(
        "path/triangle", f"1<=n<={enum_hi}",
        [
            (n, list(table.row(n)), list(domination.count_by_cardinality(g)))
            for n, g in paths.items()
        ],
        note="three-term recurrence vs exhaustive enumeration, entrywise",
    ))
    records.append(_pairs_record(
        "path/order-tribonacci", f"1<=n<={enum_hi}",
        [
            (n, counting.order_sequence("path", enum_hi)[n - 1], domination.total_count(g))
            for n, g in paths.items()
        ],
        note="seeds 1, 3, 5",
    ))
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
    records += _structure_records("path", paths, struct_hi)
    records.append(_distance_two_record(dist_hi))
    return records


def _distance_two_record(dist_hi: int) -> CheckRecord:
    triples = []
    pairs_checked = 0
    for n in range(2, dist_hi + 1):
        r = reconfig.build(make_family("path", n))
        violations = 0
        for a in range(r.order):
            # the later nodes of a's cardinality block
            card = int(r.cards[a])
            b = np.arange(a + 1, np.searchsorted(r.cards, card + 1))
            if not b.size:
                continue
            pairs_checked += b.size
            want_two = np.bitwise_count(r.bits[a] & r.bits[b]) == card - 1
            is_two = reconfig.distance_row(r, a)[b] == 2
            violations += int(np.count_nonzero(want_two != is_two))
        triples.append((n, 0, violations))
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
            [(n, seq[n - 1], coeffs[n - gf.offset]) for n in range(1, 41)],
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


def _structure_records(family: str, graphs: dict[int, Graph], struct_hi: int) -> list[CheckRecord]:
    lo = 1 if family == "path" else 3
    built = {n: reconfig.build(graphs[n]) for n in range(lo, struct_hi + 1)}
    gamma_upper = (lambda n: math.ceil(n / 2)) if family == "path" else (lambda n: n // 2)
    records = [
        _pairs_record(
            f"{family}/connected", f"{lo}<=n<={struct_hi}",
            [(n, 1, reconfig.connected_components(r)[0]) for n, r in built.items()],
        ),
        _pairs_record(
            f"{family}/max-degree", f"{max(lo, 2)}<=n<={struct_hi}",
            [(n, n, reconfig.degree_extremes(r)[1]) for n, r in built.items() if n >= 2],
            note="n=1 is a single node" if family == "path" else "",
        ),
        _pairs_record(
            f"{family}/min-degree", f"{lo}<=n<={struct_hi}",
            [(n, n - gamma_upper(n), reconfig.degree_extremes(r)[0]) for n, r in built.items()],
            note="minimum degree is n - Gamma, attained at the Gamma-sets",
        ),
        _pairs_record(
            f"{family}/bipartite-edges-cross", f"{lo}<=n<={struct_hi}",
            [(n, 0, parity_violations(r)) for n, r in built.items()],
        ),
        _pairs_record(
            f"{family}/non-regularity", f"{max(lo, 2)}<=n<={struct_hi}",
            [(n, False, reconfig.is_regular(r)) for n, r in built.items() if n >= 2],
        ),
    ]
    return records


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def suite_cycles(max_n: int = 12) -> list[CheckRecord]:
    enum_hi = min(max_n, 20)
    struct_hi = min(max_n, 14)
    records = []
    cycles = {n: make_family("cycle", n) for n in range(3, enum_hi + 1)}
    table = counting.cycle_triangle(max(enum_hi, 5))

    records.append(_pairs_record(
        "cycle/upper-gamma", f"3<=n<={enum_hi}",
        [(n, n // 2, domination.upper_domination_number(g)) for n, g in cycles.items()],
    ))
    records.append(_pairs_record(
        "cycle/upper-gamma-set-count/odd", f"odd n, 3<=n<={enum_hi}",
        [
            (n, n, domination.count_maximal_minimal_sets(g))
            for n, g in cycles.items() if n % 2 == 1
        ],
        note=(
            "claimed: the n rotations of the alternating pattern; refuted by "
            "exhaustive enumeration from n=7 on (C_7 has 14, C_9 has 18, ...)"
        ),
        mismatch_status="erratum",
    ))
    records.append(_pairs_record(
        "cycle/upper-gamma-set-count/even", f"even n, 6<=n<={enum_hi}",
        [
            (n, 2, domination.count_maximal_minimal_sets(g))
            for n, g in cycles.items() if n % 2 == 0 and n >= 6
        ],
        note=(
            "claimed: two; holds for n = 2 mod 4 but fails for n = 0 mod 4 "
            "(C_8 and C_12 have 6)"
        ),
        mismatch_status="erratum",
    ))
    if 4 <= enum_hi:
        c4 = domination.count_maximal_minimal_sets(cycles[4])
        records.append(_pairs_record(
            "cycle/upper-gamma-set-count/C4", "n=4",
            [(4, c4, c4)],
            note="no closed count claimed for C_4; brute-force value reported",
        ))
    records.append(_pairs_record(
        "cycle/triangle", f"3<=n<={enum_hi}",
        [
            (n, list(table.row(n)), list(domination.count_by_cardinality(g)))
            for n, g in cycles.items()
        ],
        note="three-term recurrence from enumerated base rows C_3..C_5",
    ))
    records.append(_pairs_record(
        "cycle/order-tribonacci", f"3<=n<={enum_hi}",
        [
            (n, counting.order_sequence("cycle", enum_hi)[n - 1], domination.total_count(g))
            for n, g in cycles.items()
        ],
        note="seeds 1, 3, 7",
    ))
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
    records += _structure_records("cycle", cycles, struct_hi)
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
    records = []
    pool = family_pool(max_n - 1)
    totals = {name: domination.total_count(g) for name, g in pool}

    join_triples = []
    for i, (name_g, g) in enumerate(pool):
        for name_h, h in pool[i:]:
            if g.n + h.n > max_n:
                continue
            formula = counting.join_order(g.n, h.n, totals[name_g], totals[name_h])
            join_triples.append(
                (f"{name_g}+{name_h}", formula, domination.total_count(join(g, h)))
            )
    records.append(_pairs_record(
        "product/join", f"p+q<={max_n}",
        join_triples,
        note=f"(2^p-1)(2^q-1) + d(G) + d(H) over {len(join_triples)} family pairs",
    ))

    corona_triples = []
    for name_g, g in pool:
        for name_h, h in pool:
            if g.n * (1 + h.n) > max_n:
                continue
            formula = counting.corona_order(g.n, h.n, totals[name_h])
            corona_triples.append(
                (f"{name_g}o{name_h}", formula, domination.total_count(corona(g, h)))
            )
    records.append(_pairs_record(
        "product/corona", f"p(1+q)<={max_n}",
        corona_triples,
        note=f"(2^q + d(H))^p over {len(corona_triples)} ordered family pairs",
    ))

    ladder_hi = min(max_n // 2, 10)
    if ladder_hi >= 1:
        orders = counting.ladder_order(ladder_hi)
        records.append(_pairs_record(
            "product/ladder", f"1<=n<={ladder_hi}",
            [
                (n, orders[n - 1], domination.total_count(ladder(n)))
                for n in range(1, ladder_hi + 1)
            ],
            note="five-term recurrence from brute-forced seeds for L_1..L_5",
        ))
    return records


# ---------------------------------------------------------------------------
# Parity of the number of dominating sets
# ---------------------------------------------------------------------------

def labeled_graph_sweep(n: int):
    """(connected, dominating-set count) for every labeled graph on n
    vertices, vectorized over all 2^(n(n-1)/2) edge subsets."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(pairs)
    count = 1 << m
    edge_bits = np.arange(count, dtype=np.int64)
    nbhd = [np.full(count, 1 << v, dtype=np.uint8) for v in range(n)]
    for idx, (u, v) in enumerate(pairs):
        has = ((edge_bits >> idx) & 1).astype(np.uint8)
        nbhd[u] |= has << v
        nbhd[v] |= has << u
    full = np.uint8((1 << n) - 1)

    reach = np.full(count, 1, dtype=np.uint8)
    for _ in range(n):
        nxt = reach.copy()
        for v in range(n):
            has_v = ((reach >> v) & 1).astype(bool)
            nxt[has_v] |= nbhd[v][has_v]
        reach = nxt
    connected = reach == full

    counts = np.zeros(count, dtype=np.int32)

    def rec(v, cov):
        if v == n:
            counts[:] += cov == full
            return
        rec(v + 1, cov)
        rec(v + 1, cov | nbhd[v])

    rec(0, np.zeros(count, dtype=np.uint8))
    return connected, counts


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


def suite_parity(max_n: int = 12, seed: int = 0, samples: int = 200,
                 random_max_n: int = 16) -> list[CheckRecord]:
    records = []
    exhaustive_hi = min(max_n, 7)
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

    rng = random.Random(seed)
    even = 0
    sizes = []
    for _ in range(samples):
        n = rng.randint(2, random_max_n)
        g = random_connected_graph(rng, n)
        sizes.append(n)
        if domination.total_count(g) % 2 == 0:
            even += 1
    records.append(_pairs_record(
        "parity/random-connected", f"{samples} samples, 2<=n<={random_max_n}",
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
    return {
        "suite": suite,
        "max_n": max_n,
        "counts": status_counts(records),
        "records": [asdict(r) for r in records],
    }
