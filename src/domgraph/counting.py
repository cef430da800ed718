"""Exact-integer recurrences, closed forms, generating functions, and
product-graph order formulas for dominating-set counts.

The recurrences are algebraic.  Their initial values are read from the
prune route of domination.enumerate_dominating once per process, on first
use, and the verify suite judges the rolled values with the subset table.
All values are arbitrary-precision integers, the closed forms included.

Conventions:

* d(P_n, j) and d(C_n, j) denote the number of dominating sets of the
  path / cycle on n vertices with cardinality exactly j; d(., 0) = 0.
* Triangle rows satisfy d(G_n, j) = d(G_{n-1}, j-1) + d(G_{n-2}, j-1)
  + d(G_{n-3}, j-1) once past the base rows P_1..P_3 and C_3..C_5.
* Row sums follow the tribonacci recurrence.  Its seeds are the sums of
  the base rows: (1, 3, 5) for P_1..P_3, and 7, 11, 21 for C_3..C_5, run
  back to n = 1 (21 - 11 - 7 = 3, 11 - 7 - 3 = 1).  The cycle values for
  n = 1, 2 are sequence seeds only; C_1 and C_2 are not simple graphs.
"""

from __future__ import annotations

import decimal
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator

import numpy as np

from . import domination
from .errors import FormulaViolationError, InvalidSeriesError
from .graphs import ladder, make_family


@cache
def _base_rows(family: str) -> dict[int, tuple[int, ...]]:
    """d(G_n, j) for j = 0..n of the family's first three graphs, P_1..P_3 or
    C_3..C_5, as the prune route counts them."""
    first = _by_family(family, 1, 3)
    return {n: domination.enumerate_dominating(make_family(family, n), method="prune").by_card
            for n in range(first, first + 3)}


@cache
def _ladder_seeds() -> tuple[int, ...]:
    """Dominating-set totals of the ladders L_1..L_5 from the prune route; the
    published five-term recurrence comes without initial values."""
    return tuple(len(domination.enumerate_dominating(ladder(n), method="prune"))
                 for n in range(1, 6))


@dataclass(frozen=True)
class CountTable:
    """Triangle of exact counts d(family_n, j) for a range of n."""

    rows: dict[int, tuple[int, ...]]

    def row(self, n: int) -> tuple[int, ...]:
        return self.rows[n]

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n])


def _roll_triangle(base_rows: dict[int, tuple[int, ...]], n_max: int) -> Iterator:
    """(n, row) for each n up to n_max: the base rows, then rows rolled from
    the three before them, which are the only rows kept."""
    base = sorted(base_rows.items())
    yield from ((n, row) for n, row in base if n <= n_max)
    a, b, c = (row for _, row in base)
    # d(G_n, j) = d(G_{n-1}, j-1) + d(G_{n-2}, j-1) + d(G_{n-3}, j-1); row n has
    # n + 1 entries, so the two shorter rows are padded with zeros
    for n in range(base[-1][0] + 1, n_max + 1):
        a, b, c = b, c, (0, *map(operator.add, map(operator.add, c, (*b, 0)), (*a, 0, 0)))
        yield n, c


def triangle_rows(family: str, n_max: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(n, d(G_n, .)) for each n of the family's triangle up to n_max, made one
    row at a time; the arguments are checked at the call."""
    n_max = operator.index(n_max)
    base_rows = _base_rows(family)
    if n_max < min(base_rows):
        raise ValueError(_by_family(family, "n_max must be >= 1", "n_max must be >= 3 for cycles"))
    return _roll_triangle(base_rows, n_max)


def path_triangle(n_max: int) -> CountTable:
    """d(P_n, j) for 1 <= n <= n_max via the three-term recurrence."""
    return CountTable(dict(triangle_rows("path", n_max)))


def cycle_triangle(n_max: int) -> CountTable:
    """d(C_n, j) for 3 <= n <= n_max; base rows are the enumerated C_3..C_5."""
    return CountTable(dict(triangle_rows("cycle", n_max)))


def _by_family(family: str, path, cycle):
    if family == "path":
        return path
    if family == "cycle":
        return cycle
    raise ValueError(f"unknown family {family!r}, expected 'path' or 'cycle'")


def _order_terms(family: str, n_max: int, add=operator.add) -> Iterator:
    """Orders of D_n(G_n) for n = 1..n_max, tribonacci seeded by the base-row
    sums and summed by add; the arguments are checked at the call."""
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base_rows = _base_rows(family)
    seeds = [sum(base_rows[n]) for n in sorted(base_rows)]
    for _ in range(min(base_rows) - 1):  # run the recurrence back to n = 1
        seeds.insert(0, seeds[2] - seeds[1] - seeds[0])

    def terms():
        yield from seeds[:n_max]
        a, b, c = seeds[-3:]
        for _ in range(n_max - len(seeds)):
            a, b, c = b, c, add(add(a, b), c)
            yield c

    return terms()


def order_sequence(family: str, n_max: int) -> list[int]:
    """Orders of D_n(G_n) for n = 1..n_max: tribonacci seeded by the base-row sums."""
    return list(_order_terms(family, n_max))


# Decimal arithmetic that raises rather than rounds: the orders are exact at
# any length, and libmpdec prints them in time linear in the digits, where
# CPython's int-to-str is quadratic
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                        traps=[decimal.Inexact, decimal.Rounded])


def order_texts(family: str, n_max: int) -> Iterator[str]:
    """The decimal text of each of order_sequence(family, n_max), made one at
    a time in exact decimal arithmetic; the arguments are checked at the call."""
    return map(str, _order_terms(family, n_max, _EXACT.add))


# ---------------------------------------------------------------------------
# Rational generating functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalGF:
    """numerator(x) / denominator(x) as ascending coefficient lists; the
    coefficient of x^(n - 1) is the value at n."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        # Python ints, so NumPy coefficients cannot wrap in the long division
        object.__setattr__(self, "numerator", tuple(map(operator.index, self.numerator)))
        object.__setattr__(self, "denominator", tuple(map(operator.index, self.denominator)))


# 1 - x - x^2 - x^3, ascending: the denominator of both order generating
# functions, with a unit constant term so the long division stays in
# integers, and the cubic whose roots the closed forms sum over
TRIBONACCI = (1, -1, -1, -1)
PATH_ORDER_GF = RationalGF((1, 2, 1), TRIBONACCI)
CYCLE_ORDER_GF = RationalGF((1, 2, 3), TRIBONACCI)


def expand_gf(gf: RationalGF, terms: int):
    """First `terms` power-series coefficients by long division.

    Exact rational arithmetic throughout; coefficients come back as ints
    whenever the series is integral (it is for both order GFs).
    """
    if not gf.denominator or gf.denominator[0] == 0:
        raise InvalidSeriesError("denominator constant term must be nonzero")
    num, den = gf.numerator, gf.denominator
    coeffs: list[Fraction] = []
    for k in range(terms):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * coeffs[k - i]
        coeffs.append(acc / den[0])
    return [int(c) if c.denominator == 1 else c for c in coeffs]


# ---------------------------------------------------------------------------
# Closed forms from the cubic x^3 + x^2 + x - 1
# ---------------------------------------------------------------------------

def _mul_mod(a, b) -> tuple[int, int, int]:
    """a * b in Z[t]/(TRIBONACCI) as 3 ascending coefficients."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    while len(prod) > 3:  # the t^3 coefficient is -1, so t^3 = 1 - t - t^2
        top = prod.pop()
        for i in range(3):
            prod[len(prod) - 3 + i] += top * TRIBONACCI[i]
    return tuple(prod + [0] * (3 - len(prod)))


@dataclass(frozen=True)
class CubicClosedForm:
    """Partial-fraction form of an order sequence, evaluated exactly.

    The value at n is sum_i N(tau_i) tau_i^(-n) / prod_{j != i} (tau_j - tau_i)
    over the three roots tau_i of p(x) = x^3 + x^2 + x - 1 (so 1/tau are the
    tribonacci characteristic roots), with N the generating-function
    numerator.  The product is p'(tau_i), so by Euler's lemma the sum is the
    tau^2 coefficient of N(tau) tau^(-n) reduced mod p, and tau^(-1) =
    tau^2 + tau + 1: evaluate needs only integers.  p is TRIBONACCI reversed.
    """

    numerator: tuple[int, ...]

    def __post_init__(self):
        # Python ints, so NumPy coefficients cannot wrap in the powers
        object.__setattr__(self, "numerator", tuple(map(operator.index, self.numerator)))

    @property
    def roots(self) -> tuple[complex, ...]:
        """The sorted numeric roots, for display; found on each read, not at
        import, where LAPACK's first call adds about 1.4 MB to every process."""
        return tuple(complex(z) for z in np.sort_complex(np.roots(TRIBONACCI[::-1])))

    def evaluate(self, n: int) -> int:
        # 1 = t + t^2 + t^3 at a root, so 1/t = 1 + t + t^2: TRIBONACCI[1:] negated
        base = tuple(-d for d in TRIBONACCI[1:]) if n >= 0 else (0, 1)
        value, e = _mul_mod(self.numerator, (1,)), abs(n)
        while e:
            if e & 1:
                value = _mul_mod(value, base)
            base = _mul_mod(base, base)
            e >>= 1
        return value[2]


def cubic_closed_form(family: str) -> CubicClosedForm:
    """The partial-fraction form of the family's order generating function."""
    return CubicClosedForm(_by_family(family, PATH_ORDER_GF, CYCLE_ORDER_GF).numerator)


def closed_form_order(family: str, n: int) -> int:
    """Order of D_n(G_n) from the root formula, evaluated exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return cubic_closed_form(family).evaluate(n)


# ---------------------------------------------------------------------------
# Polynomial formulas for path counts
# ---------------------------------------------------------------------------

def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise FormulaViolationError(f"{num} is not divisible by {den}")
    return q


@dataclass(frozen=True)
class PathFormula:
    """A closed form for one triangle entry (or row sum) of the path table.

    target(n) gives (path length, cardinality); cardinality None means the
    row sum.  value(n) is the exact integer the formula predicts.
    """

    case: str
    description: str
    min_n: int
    target: Callable[[int], tuple[int, int | None]]
    value: Callable[[int], int]


# The two quartic/quintic formulas count the (gamma+1)-sets of P_{3n+2}
# and P_{3n+1} respectively; the inductive identities
#   d(P_{3n+2}, n+2) = d(P_{3n+1}, n+1) + d(P_{3n}, n+1) + d(P_{3n-1}, n+1)
#   d(P_{3n+1}, n+2) = d(P_{3n}, n+1) + d(P_{3n-1}, n+1) + d(P_{3n-2}, n+1)
# pin that binding (statements titling them the other way around are a
# known transposition; see the verify suite).
PATH_FORMULAS: dict[str, PathFormula] = {
    f.case: f
    for f in (
        PathFormula(
            "d(P3n,n)",
            "unique gamma-set of P_{3n}",
            1,
            lambda n: (3 * n, n),
            lambda n: 1,
        ),
        PathFormula(
            "d(P3n+2,n+1)",
            "gamma-sets of P_{3n+2}: n + 2",
            1,
            lambda n: (3 * n + 2, n + 1),
            lambda n: n + 2,
        ),
        PathFormula(
            "d(P3n+1,n+1)",
            "gamma-sets of P_{3n+1}: (n+2)(n+3)/2 - 2",
            1,
            lambda n: (3 * n + 1, n + 1),
            lambda n: _exact_div((n + 2) * (n + 3), 2) - 2,
        ),
        PathFormula(
            "d(P3n,n+1)",
            "(gamma+1)-sets of P_{3n}: n(n+1)(n+8)/6",
            1,
            lambda n: (3 * n, n + 1),
            lambda n: _exact_div(n * (n + 1) * (n + 8), 6),
        ),
        PathFormula(
            "s_n",
            "row sum: tribonacci with seeds 1, 3, 5",
            1,
            lambda n: (n, None),
            lambda n: order_sequence("path", n)[-1],
        ),
        PathFormula(
            "d(Pn,n-1)",
            "co-singletons: d(P_n, n-1) = n (needs n >= 2; the empty set "
            "never dominates, so d(P_1, 0) = 0)",
            2,
            lambda n: (n, n - 1),
            lambda n: n,
        ),
        PathFormula(
            "d(P3n+2,n+2)",
            "(gamma+1)-sets of P_{3n+2}: (n^4+18n^3+71n^2+78n+24)/24",
            1,
            lambda n: (3 * n + 2, n + 2),
            lambda n: _exact_div(n**4 + 18 * n**3 + 71 * n**2 + 78 * n + 24, 24),
        ),
        PathFormula(
            "d(P3n+1,n+2)",
            "(gamma+1)-sets of P_{3n+1}: n(n+1)(n^3+24n^2+121n+94)/120",
            1,
            lambda n: (3 * n + 1, n + 2),
            lambda n: _exact_div(n * (n + 1) * (n**3 + 24 * n**2 + 121 * n + 94), 120),
        ),
    )
}


def closed_d(case: str, n: int) -> int:
    """Evaluate one of the registered path count formulas exactly."""
    formula = PATH_FORMULAS.get(case)
    if formula is None:
        raise ValueError(f"unknown case {case!r}; known: {sorted(PATH_FORMULAS)}")
    n = operator.index(n)
    if n < formula.min_n:
        raise ValueError(f"case {case} needs n >= {formula.min_n}")
    return formula.value(n)


# ---------------------------------------------------------------------------
# Product-graph orders
# ---------------------------------------------------------------------------

def join_order(p: int, q: int, d_g: int, d_h: int) -> int:
    """Dominating-set count of a join from the factor counts.

    Any set meeting both sides dominates via the cross edges; a one-sided
    set must dominate its own factor.
    """
    p, q, d_g, d_h = map(operator.index, (p, q, d_g, d_h))
    return (2**p - 1) * (2**q - 1) + d_g + d_h


def corona_order(p: int, q: int, d_h: int) -> int:
    """Dominating-set count of a corona from the inner-factor count.

    Each of the p units contributes independently: 2^q sets containing its
    hub plus d_h hub-free sets dominating its copy of H.
    """
    p, q, d_h = map(operator.index, (p, q, d_h))
    return (2**q + d_h) ** p


def ladder_order(n_max: int) -> list[int]:
    """Orders of D_{2n}(L_n) for n = 1..n_max via the five-term recurrence

        a_n = 3 a_{n-1} + 2 a_{n-2} + 2 a_{n-3} - a_{n-4} - a_{n-5}

    rolled forward from the totals of L_1..L_5 that the prune route lists.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    vals = list(_ladder_seeds()[:n_max])
    while len(vals) < n_max:
        vals.append(
            3 * vals[-1] + 2 * vals[-2] + 2 * vals[-3] - vals[-4] - vals[-5]
        )
    return vals
