"""Exact-integer recurrences, closed forms, generating functions, and
product-graph order formulas for dominating-set counts.

Everything here is computed algebraically, independent of graph
enumeration, so the two sides can cross-validate each other.  All values
are arbitrary-precision integers except closed_form_order, which evaluates
the cubic-root formula in floating point and must round cleanly.

Conventions:

* d(P_n, j) and d(C_n, j) denote the number of dominating sets of the
  path / cycle on n vertices with cardinality exactly j; d(., 0) = 0.
* Triangle rows satisfy d(G_n, j) = d(G_{n-1}, j-1) + d(G_{n-2}, j-1)
  + d(G_{n-3}, j-1) once past the hardcoded base rows.
* Row sums follow the tribonacci recurrence.  Its seeds are the sums of
  the base rows: (1, 3, 5) for P_1..P_3, and 7, 11, 21 for C_3..C_5, run
  back to n = 1 (21 - 11 - 7 = 3, 11 - 7 - 3 = 1).  The cycle values for
  n = 1, 2 are sequence seeds only; C_1 and C_2 are not simple graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import FormulaViolationError, InvalidSeriesError, PrecisionError

# Base triangle rows (index j = 0..n), frozen from direct enumeration.
PATH_BASE_ROWS = {1: (0, 1), 2: (0, 2, 1), 3: (0, 1, 3, 1)}
CYCLE_BASE_ROWS = {3: (0, 3, 3, 1), 4: (0, 0, 6, 4, 1), 5: (0, 0, 5, 10, 5, 1)}

# Dominating-set totals of the ladders L_1..L_5, frozen from brute force;
# the published five-term recurrence comes without initial values.
LADDER_SEEDS = (3, 11, 41, 149, 547)


@dataclass(frozen=True)
class CountTable:
    """Triangle of exact counts d(family_n, j) for a range of n."""

    family: str
    rows: dict[int, tuple[int, ...]]

    def row(self, n: int) -> tuple[int, ...]:
        return self.rows[n]

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n])

    @property
    def row_sums(self) -> dict[int, int]:
        return {n: sum(row) for n, row in self.rows.items()}


def _roll_triangle(base_rows: dict[int, tuple[int, ...]], n_max: int) -> dict:
    rows = {n: row for n, row in base_rows.items() if n <= n_max}
    first = max(base_rows) + 1

    def entry(n, j):
        if j < 0 or j > n:
            return 0
        return rows[n][j]

    for n in range(first, n_max + 1):
        rows[n] = tuple(
            entry(n - 1, j - 1) + entry(n - 2, j - 1) + entry(n - 3, j - 1)
            for j in range(n + 1)
        )
    return rows


def path_triangle(n_max: int) -> CountTable:
    """d(P_n, j) for 1 <= n <= n_max via the three-term recurrence."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return CountTable("path", _roll_triangle(PATH_BASE_ROWS, n_max))


def cycle_triangle(n_max: int) -> CountTable:
    """d(C_n, j) for 3 <= n <= n_max; base rows are the enumerated C_3..C_5."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3 for cycles")
    return CountTable("cycle", _roll_triangle(CYCLE_BASE_ROWS, n_max))


def _by_family(family: str, path, cycle):
    if family == "path":
        return path
    if family == "cycle":
        return cycle
    raise ValueError(f"unknown family {family!r}, expected 'path' or 'cycle'")


def order_sequence(family: str, n_max: int) -> list[int]:
    """Orders of D_n(G_n) for n = 1..n_max: tribonacci seeded by the base-row sums."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base_rows = _by_family(family, PATH_BASE_ROWS, CYCLE_BASE_ROWS)
    vals = [sum(base_rows[n]) for n in sorted(base_rows)]
    for _ in range(min(base_rows) - 1):  # run the recurrence back to n = 1
        vals.insert(0, vals[2] - vals[1] - vals[0])
    del vals[n_max:]
    while len(vals) < n_max:
        vals.append(vals[-1] + vals[-2] + vals[-3])
    return vals


# ---------------------------------------------------------------------------
# Rational generating functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalGF:
    """numerator(x) / denominator(x) as ascending coefficient lists.

    offset maps coefficient position to sequence index: the coefficient of
    x^(n - offset) is the value at n.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    offset: int = 1


# Both order generating functions normalized to a unit constant term in the
# denominator so the long division stays in integers:
#   paths:  (1 + 2x + x^2) / (1 - x - x^2 - x^3)
#   cycles: (1 + 2x + 3x^2) / (1 - x - x^2 - x^3)
PATH_ORDER_GF = RationalGF((1, 2, 1), (1, -1, -1, -1))
CYCLE_ORDER_GF = RationalGF((1, 2, 3), (1, -1, -1, -1))


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

ROOT_RESIDUAL_TOL = 1e-12
ROUNDING_REL_TOL = 1e-6


@dataclass(frozen=True)
class CubicClosedForm:
    """Partial-fraction data for an order sequence.

    roots are the three roots tau of x^3 + x^2 + x - 1 (so 1/tau are the
    tribonacci characteristic roots), and coeffs[i] is
    N(tau_i) / prod_{j != i} (tau_j - tau_i) with N the generating-function
    numerator.  The sequence value at n is sum_i coeffs[i] * tau_i^(-n).
    """

    family: str
    roots: tuple[complex, complex, complex]
    coeffs: tuple[complex, complex, complex]

    def evaluate(self, n: int) -> complex:
        return sum(c * t ** (-n) for c, t in zip(self.coeffs, self.roots))


def _poly(coeffs: tuple[int, ...], t: complex) -> complex:
    """Value at t of the polynomial with ascending coefficients."""
    return sum(c * t**i for i, c in enumerate(coeffs))


@lru_cache(maxsize=None)
def cubic_closed_form(family: str, numerator: tuple[int, ...] | None = None) -> CubicClosedForm:
    """Solve the cubic numerically and assemble the partial-fraction form.

    The roots are those of the order GF's denominator, and the numerator
    is the GF's unless one is given (verify passes the printed variant's).
    Note the numerators: the variant with (tau - 1)^2 in place of
    (tau + 1)^2 together with an alternating sign evaluates to
    (-1)^n * s_{n-3} because (tau - 1)^2 = (tau + 1)^2 * tau^4 at the
    roots; the verify suite records that discrepancy.  The forms used here
    reproduce the order sequences exactly.
    """
    gf = _by_family(family, PATH_ORDER_GF, CYCLE_ORDER_GF)
    roots = sorted(
        np.roots(gf.denominator[::-1]), key=lambda z: (round(z.real, 12), round(z.imag, 12))
    )
    roots = tuple(complex(z) for z in roots)
    for t in roots:
        if abs(_poly(gf.denominator, t)) >= ROOT_RESIDUAL_TOL:
            raise PrecisionError(f"cubic root residual too large at {t}")
    coeffs = []
    for i, ti in enumerate(roots):
        den = 1.0 + 0j
        for j, tj in enumerate(roots):
            if j != i:
                den *= tj - ti
        coeffs.append(_poly(numerator or gf.numerator, ti) / den)
    return CubicClosedForm(family=family, roots=roots, coeffs=tuple(coeffs))


def closed_form_order(family: str, n: int) -> int:
    """Order of D_n(G_n) from the root formula, rounded and validated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        value = cubic_closed_form(family).evaluate(n)
    except OverflowError as exc:  # t ** (-n) leaves the float range from n = 1165
        raise PrecisionError(f"{family} closed form at n={n} overflows float64") from exc
    nearest = round(value.real)
    if abs(nearest) >= 2**48:  # float64 error reaches a unit; rounding may be off
        raise PrecisionError(f"{family} closed form at n={n} is past 2^48, the exact float range")
    residual = abs(value - nearest) / max(1, abs(nearest))
    if residual >= ROUNDING_REL_TOL:
        raise PrecisionError(
            f"closed form for {family} at n={n}: residual {residual:.3e} "
            f"exceeds {ROUNDING_REL_TOL}"
        )
    return int(nearest)


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


def _tribonacci_path(n: int) -> int:
    return order_sequence("path", n)[-1]


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
            _tribonacci_path,
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


def _path_formula(case: str) -> PathFormula:
    formula = PATH_FORMULAS.get(case)
    if formula is None:
        raise ValueError(f"unknown case {case!r}; known: {sorted(PATH_FORMULAS)}")
    return formula


def closed_d(case: str, n: int) -> int:
    """Evaluate one of the registered path count formulas exactly."""
    formula = _path_formula(case)
    if n < formula.min_n:
        raise ValueError(f"case {case} needs n >= {formula.min_n}")
    return formula.value(n)


def closed_d_target(case: str, n: int) -> tuple[int, int | None]:
    """(path length, cardinality) the case predicts; None means row sum."""
    return _path_formula(case).target(n)


# ---------------------------------------------------------------------------
# Product-graph orders
# ---------------------------------------------------------------------------

def join_order(p: int, q: int, d_g: int, d_h: int) -> int:
    """Dominating-set count of a join from the factor counts.

    Any set meeting both sides dominates via the cross edges; a one-sided
    set must dominate its own factor.
    """
    return (2**p - 1) * (2**q - 1) + d_g + d_h


def corona_order(p: int, q: int, d_h: int) -> int:
    """Dominating-set count of a corona from the inner-factor count.

    Each of the p units contributes independently: 2^q sets containing its
    hub plus d_h hub-free sets dominating its copy of H.
    """
    return (2**q + d_h) ** p


def ladder_order(n_max: int) -> list[int]:
    """Orders of D_{2n}(L_n) for n = 1..n_max via the five-term recurrence

        a_n = 3 a_{n-1} + 2 a_{n-2} + 2 a_{n-3} - a_{n-4} - a_{n-5}

    rolled forward from the brute-forced seeds for L_1..L_5.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    vals = list(LADDER_SEEDS[:n_max])
    while len(vals) < n_max:
        vals.append(
            3 * vals[-1] + 2 * vals[-2] + 2 * vals[-3] - vals[-4] - vals[-5]
        )
    return vals


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def triangle_csv(table: CountTable) -> str:
    """CSV block `family,n,j,count`, one row per nonzero entry."""
    lines = ["family,n,j,count"]
    for n in sorted(table.rows):
        for j, c in enumerate(table.rows[n]):
            if c:
                lines.append(f"{table.family},{n},{j},{c}")
    return "\n".join(lines) + "\n"


def sequence_csv(family: str, values: list[int]) -> str:
    """CSV block `family,n,order` for n = 1..len(values)."""
    lines = ["family,n,order"]
    lines += [f"{family},{n},{v}" for n, v in enumerate(values, start=1)]
    return "\n".join(lines) + "\n"


def triangle_json(table: CountTable) -> str:
    return json.dumps(
        {"family": table.family, "rows": {str(n): list(r) for n, r in sorted(table.rows.items())}}
    )
