"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 6 is split: the gamma/Gamma formulas (6a) hold, while the stated
counts of maximum-cardinality minimal dominating sets (6b) are refuted by
the exhaustive oracle from P_6 / C_7 / C_8 on.  6b asserts each stated count
where it holds and, where it is refuted, that the claim undercounts and
that `domgraph verify` reports the gap as an erratum record carrying both
values (see the README).  The true counts are also asserted in
test_domination.py.
"""

import math
import time

from domgraph import (
    bipartition,
    build,
    closed_form_order,
    connected_components,
    corona,
    corona_order,
    count_by_cardinality,
    count_maximal_minimal_sets,
    cubic_closed_form,
    degree_extremes,
    distance,
    domination_number,
    euler_status,
    expand_gf,
    is_hamiltonian,
    is_regular,
    join,
    join_order,
    ladder,
    ladder_order,
    make_family,
    order_sequence,
    path_triangle,
    total_count,
    upper_domination_number,
)
from domgraph.counting import CYCLE_ORDER_GF, PATH_FORMULAS, PATH_ORDER_GF, closed_d
from domgraph.verify import (
    family_pool,
    labeled_graph_sweep,
    parity_violations,
    random_connected_graph,
)


def _report(name: str, failures: list, elapsed: float | None = None, budget: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.1f}s < {budget:.0f}s)" if elapsed is not None else ""
    print(f"[acceptance] {name}: {status}{timing}")
    assert not failures, f"{name}: first failures: {failures[:5]}"


def test_criterion_01_complete_graphs():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 13):
        r = build(make_family("complete", n))
        if r.order != 2**n - 1:
            failures.append((n, "order", r.order))
        if r.size != n * (2 ** (n - 1) - 1):
            failures.append((n, "size", r.size))
        x, y = bipartition(r)
        if (len(x), len(y)) != (2 ** (n - 1), 2 ** (n - 1) - 1):
            failures.append((n, "parts", (len(x), len(y))))
        lo, hi = degree_extremes(r)
        if lo != n - 1:
            failures.append((n, "min degree", lo))
        if hi != (n if n >= 2 else 0):  # D_1(K_1) is a single node
            failures.append((n, "max degree", hi))
    elapsed = time.monotonic() - t0
    if elapsed >= 10:
        failures.append(("runtime", elapsed))
    _report("criterion 1 (complete graphs)", failures, elapsed, 10)


def test_criterion_02_path_triangle_and_orders():
    t0 = time.monotonic()
    failures = []
    table = path_triangle(20)
    orders = order_sequence("path", 20)
    for n in range(1, 21):
        g = make_family("path", n)
        if count_by_cardinality(g) != table.row(n):
            failures.append((n, "triangle row"))
        if total_count(g) != orders[n - 1]:
            failures.append((n, "order"))
    elapsed = time.monotonic() - t0
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    _report("criterion 2 (path counts vs recurrence)", failures, elapsed, 30)


def test_criterion_03_path_closed_forms():
    failures = []
    table = path_triangle(3 * 30 + 2)
    for case, formula in PATH_FORMULAS.items():
        for n in range(formula.min_n, 31):
            length, card = formula.target(n)
            oracle = table.row_sum(length) if card is None else table.row(length)[card]
            if closed_d(case, n) != oracle:
                failures.append((case, n))
    _report("criterion 3 (closed forms, n <= 30)", failures)


def test_criterion_04_generating_functions_and_root_form():
    failures = []
    for family, gf in (("path", PATH_ORDER_GF), ("cycle", CYCLE_ORDER_GF)):
        seq = order_sequence(family, 40)
        coeffs = expand_gf(gf, 40)
        form = cubic_closed_form(family)
        for n in range(1, 41):
            if coeffs[n - 1] != seq[n - 1]:
                failures.append((family, "gf", n))
            if closed_form_order(family, n) != seq[n - 1]:
                failures.append((family, "closed form", n))
            value = form.evaluate(n)
            residual = abs(value - round(value.real)) / max(1, abs(round(value.real)))
            if residual >= 1e-6:
                failures.append((family, "residual", n, residual))
    _report("criterion 4 (generating functions and root form, n <= 40)", failures)


def test_criterion_05_cycle_orders_and_seed_erratum():
    failures = []
    orders = order_sequence("cycle", 16)
    for n in range(3, 17):
        if total_count(make_family("cycle", n)) != orders[n - 1]:
            failures.append((n, "order"))
    # the stated corollary seed 5 for C_3 must be reported as an erratum
    from domgraph import verify_suite

    records = {r.check: r for r in verify_suite("cycles", max_n=6)}
    seed = records.get("cycle/order-seed-erratum")
    if seed is None or seed.status != "erratum":
        failures.append(("erratum record missing",))
    elif seed.expected != [[3, 5]] or seed.observed != [[3, 7]]:
        failures.append(("erratum values", seed.expected, seed.observed))
    _report("criterion 5 (cycle orders, seed erratum reported)", failures)


def test_criterion_06a_gamma_and_upper_gamma_formulas():
    failures = []
    for n in range(1, 21):
        g = make_family("path", n)
        if domination_number(g) != math.ceil(n / 3):
            failures.append(("gamma P", n))
        if upper_domination_number(g) != math.ceil(n / 2):
            failures.append(("Gamma P", n))
    for n in range(3, 21):
        if upper_domination_number(make_family("cycle", n)) != n // 2:
            failures.append(("Gamma C", n))
    _report("criterion 6a (gamma and Gamma formulas)", failures)


def _closed_neighbourhoods(g) -> list[int]:
    """N[v] as bitmasks, rebuilt from the edge list alone."""
    nbhd = [1 << v for v in range(g.n)]
    for u, v in g.edges:
        nbhd[u] |= 1 << v
        nbhd[v] |= 1 << u
    return nbhd


def _is_minimal_dominating_by_definition(g, subset: int) -> bool:
    """Every vertex has a neighbour in subset, and no single deletion keeps that."""
    nbhd = _closed_neighbourhoods(g)

    def dominates(s: int) -> bool:
        return all(mask & s for mask in nbhd)

    return dominates(subset) and not any(
        dominates(subset & ~(1 << v)) for v in range(g.n) if subset >> v & 1
    )


def _gamma_sets_by_definition(g) -> tuple[int, int]:
    """(Gamma(g), number of Gamma-sets), counted over all 2^n subsets in pure
    Python, independently of domgraph.domination."""
    nbhd = _closed_neighbourhoods(g)
    full = (1 << g.n) - 1
    cover = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        cover[s] = cover[s ^ low] | nbhd[low.bit_length() - 1]
    dominating = [c == full for c in cover]
    best, count = 0, 0
    for s in range(1 << g.n):
        if not dominating[s] or any(
            dominating[s & ~(1 << v)] for v in range(g.n) if s >> v & 1
        ):
            continue
        size = s.bit_count()
        if size > best:
            best, count = size, 1
        elif size == best:
            count += 1
    return best, count


def _stated_gamma_sets(family: str, n: int) -> set[int]:
    """The Gamma-sets the stated counts name, as 0-based bitmasks: the two
    alternating sets for even n, the alternating set for odd P_n, and the n
    rotations of the alternating pattern for odd C_n."""
    evens = sum(1 << v for v in range(0, n, 2))
    if n % 2 == 0:
        return {evens, evens << 1}
    if family == "path":
        return {evens}
    base = sum(1 << v for v in range(0, n - 1, 2))
    return {((base << r) | (base >> (n - r))) & ((1 << n) - 1) for r in range(n)}


# Where enumeration refutes the stated count, and the verify record that
# reports the gap.
GAMMA_SET_COUNT_REFUTED = (
    {("path", n) for n in range(6, 21, 2)}
    | {("cycle", n) for n in range(7, 21, 2)}
    | {("cycle", n) for n in range(8, 21, 4)}
)
GAMMA_SET_COUNT_RECORD = {
    ("path", 1): "path/upper-gamma-set-count/odd",
    ("path", 0): "path/upper-gamma-set-count/even",
    ("cycle", 1): "cycle/upper-gamma-set-count/odd",
    ("cycle", 0): "cycle/upper-gamma-set-count/even",
}
# Refuted counts for n > 14, where _gamma_sets_by_definition would add
# seconds to the suite; it gives these same values when run that far.
GAMMA_SET_COUNT_BEYOND_14 = {
    ("path", 16): 25, ("path", 18): 30, ("path", 20): 36,
    ("cycle", 15): 60, ("cycle", 16): 6, ("cycle", 17): 68,
    ("cycle", 19): 95, ("cycle", 20): 6,
}


def test_criterion_06b_gamma_set_counts_as_stated():
    # Stated counts of Gamma-sets (maximum-cardinality minimal dominating
    # sets): P_n -> 1 (odd), 2 (even >= 6); C_n -> n (odd), 2 (even >= 6).
    # Each claim names its sets (_stated_gamma_sets).  Where enumeration
    # confirms a count it is asserted as stated.  Where it refutes one
    # (even P_n from 6, odd C_n from 7, C_n with n = 0 mod 4) the claim must
    # undercount, naming true Gamma-sets only, and `domgraph verify` must
    # report the gap as an erratum with the stated and the enumerated value;
    # see the README.  Counts for n <= 14 are checked against a pure-Python
    # count from the definitions.
    from domgraph import verify_suite

    failures = []
    records = {
        r.check: r
        for suite in ("paths", "cycles")
        for r in verify_suite(suite, max_n=20)
    }
    refuted = set()
    for family, lo in (("path", 1), ("cycle", 3)):
        for n in range(lo, 21):
            if n % 2 == 0 and n < 6:
                continue  # no count is stated for P_2, P_4 and C_4
            g = make_family(family, n)
            label = f"{family[0].upper()}_{n}"
            named = _stated_gamma_sets(family, n)
            claimed = len(named)
            observed = count_maximal_minimal_sets(g)
            upper = upper_domination_number(g)
            if n <= 14:
                independent = _gamma_sets_by_definition(g)
                if independent != (upper, observed):
                    failures.append((label, "independent count", independent, (upper, observed)))
            elif GAMMA_SET_COUNT_BEYOND_14.get((family, n), claimed) != observed:
                failures.append((label, "count moved", observed))
            for s in named:
                if s.bit_count() != upper or not _is_minimal_dominating_by_definition(g, s):
                    failures.append((label, "named set is no Gamma-set", bin(s)))
            if observed != claimed:
                refuted.add((family, n))
            record = records.get(GAMMA_SET_COUNT_RECORD[family, n % 2])
            if record is None:
                failures.append((label, "verify record missing"))
                continue
            if (
                dict(record.expected).get(n) != claimed
                or dict(record.observed).get(n) != observed
            ):
                failures.append((label, "record values", record.check, claimed, observed))
            if observed != claimed and record.status != "erratum":
                failures.append((label, "not reported as erratum", record.check, record.status))
    if refuted != GAMMA_SET_COUNT_REFUTED:
        failures.append(("refuted n", sorted(refuted ^ GAMMA_SET_COUNT_REFUTED)))
    _report("criterion 6b (Gamma-set counts as stated, refutations reported as errata)", failures)


def test_criterion_07_reconfiguration_structure():
    failures = []
    built = []
    for family, lo in (("path", 1), ("cycle", 3)):
        for n in range(lo, 15):
            r = build(make_family(family, n))
            built.append((family, n, r))
            if connected_components(r)[0] != 1:
                failures.append((family, n, "components"))
            lo_deg, hi_deg = degree_extremes(r)
            gamma_upper = math.ceil(n / 2) if family == "path" else n // 2
            if lo_deg != n - gamma_upper:
                failures.append((family, n, "min degree", lo_deg))
            if n >= 2 and hi_deg != n:
                failures.append((family, n, "max degree", hi_deg))
    for n in range(1, 13):
        built.append(("complete", n, build(make_family("complete", n))))
    for family, n, r in built:
        if parity_violations(r) != 0:
            failures.append((family, n, "bipartite"))
        if n >= 2 and is_regular(r):
            failures.append((family, n, "regular"))
    # parity theorem: exhaustively for n <= 7, then 200 random connected
    for n in range(1, 8):
        connected, counts = labeled_graph_sweep(n)
        if int((counts[connected] % 2 == 0).sum()) != 0:
            failures.append(("parity exhaustive", n))
    import random

    rng = random.Random(0)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 16))
        if total_count(g) % 2 == 0:
            failures.append(("parity random", g.n))
    _report("criterion 7 (reconfiguration structure and parity)", failures)


def test_criterion_08_distance_two_law():
    t0 = time.monotonic()
    failures = []
    pairs = 0
    for n in range(2, 11):
        r = build(make_family("path", n))
        for a in range(r.order):
            sa = r.nodes.sets[a]
            for b in range(a + 1, r.order):
                sb = r.nodes.sets[b]
                if sa.card != sb.card:
                    continue
                pairs += 1
                want = (sa.bits & sb.bits).bit_count() == sa.card - 1
                if (distance(r, a, b) == 2) != want:
                    failures.append((n, str(sa), str(sb)))
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    print(f"[acceptance]   (criterion 8 checked {pairs} same-cardinality pairs)")
    _report("criterion 8 (distance-2 law, n <= 10)", failures, elapsed, 60)


def test_criterion_09_product_orders():
    failures = []
    pool = family_pool(19)
    totals = {name: total_count(g) for name, g in pool}
    for i, (name_g, g) in enumerate(pool):
        for name_h, h in pool[i:]:
            if g.n + h.n > 20:
                continue
            if join_order(g.n, h.n, totals[name_g], totals[name_h]) != total_count(join(g, h)):
                failures.append(("join", name_g, name_h))
    for name_g, g in pool:
        for name_h, h in pool:
            if g.n * (1 + h.n) > 20:
                continue
            if corona_order(g.n, h.n, totals[name_h]) != total_count(corona(g, h)):
                failures.append(("corona", name_g, name_h))
    orders = ladder_order(10)
    for n in range(1, 11):
        if orders[n - 1] != total_count(ladder(n)):
            failures.append(("ladder", n))
    _report("criterion 9 (join, corona, ladder orders)", failures)


def test_criterion_10_hamiltonian_and_eulerian():
    failures = []
    small = [("complete", n) for n in range(1, 5)]
    small += [("path", n) for n in range(1, 6)]
    small += [("cycle", n) for n in (3, 4)]
    for family, n in small:
        r = build(make_family(family, n))
        assert r.order <= 20
        if is_hamiltonian(r):
            failures.append((family, n, "hamiltonian"))
    for n in range(3, 11):
        if euler_status(build(make_family("complete", n))) != "neither":
            failures.append(("euler", n))
    _report("criterion 10 (non-Hamiltonicity, Eulerian status)", failures)
