from fractions import Fraction

import pytest

from domgraph import (
    FormulaViolationError,
    InvalidSeriesError,
    PrecisionError,
    RationalGF,
    closed_d,
    closed_form_order,
    corona_order,
    count_by_cardinality,
    cubic_closed_form,
    cycle_triangle,
    expand_gf,
    join_order,
    ladder,
    ladder_order,
    make_family,
    order_sequence,
    path_triangle,
    total_count,
)
from domgraph.counting import (
    CYCLE_ORDER_GF,
    PATH_FORMULAS,
    PATH_ORDER_GF,
    _exact_div,
    closed_d_target,
    sequence_csv,
    triangle_csv,
)
from domgraph import corona, join


def test_path_triangle_matches_enumeration():
    table = path_triangle(12)
    for n in range(1, 13):
        assert table.row(n) == count_by_cardinality(make_family("path", n))


def test_path_triangle_known_entries():
    table = path_triangle(8)
    assert table.row(5)[3] == 8
    assert table.row(4)[3] == 4
    assert table.row(6)[5] == 6
    assert table.row(6) == (0, 0, 1, 10, 13, 6, 1)


def test_cycle_triangle_matches_enumeration():
    table = cycle_triangle(12)
    for n in range(3, 13):
        assert table.row(n) == count_by_cardinality(make_family("cycle", n))


def test_cycle_triangle_base_rows():
    table = cycle_triangle(6)
    assert table.row(3) == (0, 3, 3, 1)
    assert table.row(4) == (0, 0, 6, 4, 1)
    assert table.row(5) == (0, 0, 5, 10, 5, 1)
    assert table.row_sum(4) == 11
    assert table.row(4)[1] == 0


def test_order_sequences():
    assert order_sequence("path", 6) == [1, 3, 5, 9, 17, 31]
    assert order_sequence("cycle", 6) == [1, 3, 7, 11, 21, 39]
    assert order_sequence("path", 4)[-1] == 9
    with pytest.raises(ValueError):
        order_sequence("tree", 5)


def test_order_sequence_rejects_n_max_below_1():
    for family in ("path", "cycle"):
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max must be >= 1"):
                order_sequence(family, n_max)


def test_order_sequence_seeds_are_the_base_row_sums():
    assert order_sequence("path", 3) == [path_triangle(3).row_sum(n) for n in (1, 2, 3)]
    cycles = order_sequence("cycle", 5)
    assert cycles[2:] == [cycle_triangle(5).row_sum(n) for n in (3, 4, 5)]
    for family in ("path", "cycle"):
        full = order_sequence(family, 6)
        assert [order_sequence(family, n) for n in range(1, 7)] == [full[:n] for n in range(1, 7)]


def test_row_sums_satisfy_tribonacci():
    table = path_triangle(15)
    sums = table.row_sums
    for n in range(4, 16):
        assert sums[n] == sums[n - 1] + sums[n - 2] + sums[n - 3]
    ctable = cycle_triangle(15)
    csums = ctable.row_sums
    for n in range(6, 16):
        assert csums[n] == csums[n - 1] + csums[n - 2] + csums[n - 3]


def test_expand_gf_paths_and_cycles():
    assert expand_gf(PATH_ORDER_GF, 10) == [1, 3, 5, 9, 17, 31, 57, 105, 193, 355]
    assert expand_gf(CYCLE_ORDER_GF, 10) == [1, 3, 7, 11, 21, 39, 71, 131, 241, 443]


def test_expand_gf_geometric_and_errors():
    assert expand_gf(RationalGF((1,), (1, -1)), 6) == [1, 1, 1, 1, 1, 1]
    with pytest.raises(InvalidSeriesError):
        expand_gf(RationalGF((1,), (0, 1)), 4)


def test_expand_gf_non_integral_series_uses_fractions():
    coeffs = expand_gf(RationalGF((1,), (2, -1)), 3)
    assert coeffs == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_gf_offset_matches_order_sequence():
    for family, gf in (("path", PATH_ORDER_GF), ("cycle", CYCLE_ORDER_GF)):
        seq = order_sequence(family, 40)
        coeffs = expand_gf(gf, 40)
        for n in range(1, 41):
            assert coeffs[n - gf.offset] == seq[n - 1]


def test_closed_form_order_matches_recurrence():
    for family in ("path", "cycle"):
        seq = order_sequence(family, 40)
        for n in range(1, 41):
            assert closed_form_order(family, n) == seq[n - 1]


def test_closed_form_order_is_exact_or_raises():
    # float64 rounding is exact below 2^48; the first value it rounds wrongly is at n = 56
    for family in ("path", "cycle"):
        seq = order_sequence(family, 120)
        for n in range(1, 121):
            try:
                assert closed_form_order(family, n) == seq[n - 1]
            except PrecisionError:
                assert seq[n - 1] >= 2**47
        with pytest.raises(PrecisionError):
            closed_form_order(family, 56)


def test_closed_form_order_overflow_is_a_precision_error():
    # from n = 1165 the float powers overflow before the 2^48 check runs
    for family in ("path", "cycle"):
        for n in (1165, 2000):
            with pytest.raises(PrecisionError):
                closed_form_order(family, n)


def test_cubic_roots_residuals():
    for family in ("path", "cycle"):
        form = cubic_closed_form(family)
        assert len(form.roots) == 3
        for t in form.roots:
            assert abs(t**3 + t**2 + t - 1) < 1e-12


def test_closed_d_examples():
    assert closed_d("d(P3n+2,n+2)", 1) == 8  # d(P_5, 3)
    assert closed_d("d(P3n+1,n+2)", 1) == 4  # d(P_4, 3)
    assert closed_d("d(P3n+2,n+1)", 3) == 5
    assert closed_d("d(P3n,n)", 9) == 1
    assert closed_d("d(Pn,n-1)", 6) == 6
    assert closed_d("s_n", 4) == 9


def test_closed_d_matches_triangle():
    table = path_triangle(3 * 12 + 2)
    for case, formula in PATH_FORMULAS.items():
        for n in range(formula.min_n, 13):
            length, card = closed_d_target(case, n)
            oracle = table.row_sum(length) if card is None else table.row(length)[card]
            assert closed_d(case, n) == oracle, (case, n)


def test_closed_d_validation():
    with pytest.raises(ValueError):
        closed_d("nope", 3)
    with pytest.raises(ValueError):
        closed_d("d(Pn,n-1)", 1)


def test_exact_div_guards_formulas():
    assert _exact_div(10, 2) == 5
    with pytest.raises(FormulaViolationError):
        _exact_div(10, 3)


def test_join_order_examples():
    assert join_order(1, 1, 1, 1) == 3
    assert join_order(2, 2, 3, 3) == 15
    assert join_order(1, 2, 1, 1) == 5


def test_join_order_against_enumeration():
    cases = [("complete", 2, "path", 3), ("empty", 2, "empty", 3), ("cycle", 3, "complete", 1)]
    for fam_g, p, fam_h, q in cases:
        g, h = make_family(fam_g, p), make_family(fam_h, q)
        assert join_order(p, q, total_count(g), total_count(h)) == total_count(join(g, h))


def test_corona_order_examples():
    assert corona_order(1, 1, 1) == 3
    assert corona_order(2, 1, 1) == 9
    assert corona_order(1, 2, 3) == 7


def test_corona_order_against_enumeration():
    cases = [("path", 3, "complete", 1), ("complete", 2, "path", 2), ("cycle", 3, "empty", 1)]
    for fam_g, p, fam_h, q in cases:
        g, h = make_family(fam_g, p), make_family(fam_h, q)
        assert corona_order(p, q, total_count(h)) == total_count(corona(g, h))


def test_ladder_order_seeds_and_recurrence():
    orders = ladder_order(10)
    assert orders[:6] == [3, 11, 41, 149, 547, 2007]
    for n in range(1, 9):
        assert orders[n - 1] == total_count(ladder(n))


def test_csv_formats():
    csv = triangle_csv(path_triangle(3))
    assert csv.splitlines()[0] == "family,n,j,count"
    assert "path,3,2,3" in csv
    assert all(int(line.rsplit(",", 1)[1]) > 0 for line in csv.splitlines()[1:])
    seq = sequence_csv("cycle", order_sequence("cycle", 3))
    assert seq == "family,n,order\ncycle,1,1\ncycle,2,3\ncycle,3,7\n"
