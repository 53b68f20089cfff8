"""Monomial bases for graded/bigraded pieces, polynomial arithmetic, and the
evaluation-of-partials rows of fat-point conditions.

The monomial order is graded lexicographic with x1 > x2 > x3 > x4 (and
x0 > x1 > y0 > y1 in the bigraded ring), fixed once and used for every basis,
so matrices and serialized reports are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm

import numpy as np


class GradingMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Grading:
    """'total' in nvars variables, or 'bi' for the (1,1)+(1,1)-graded ring."""

    kind: str
    nvars: int

    def __post_init__(self):
        if self.kind not in ("total", "bi"):
            raise ValueError(f"unknown grading kind {self.kind!r}")
        if self.kind == "bi" and self.nvars != 4:
            raise ValueError("bigraded ring has exactly 4 variables")


TOTAL4 = Grading("total", 4)
TOTAL3 = Grading("total", 3)
BIGRADED = Grading("bi", 4)


def dim_total(nvars: int, t: int) -> int:
    """dim of the degree-t piece of a polynomial ring; 0 for t < 0."""
    if t < 0:
        return 0
    return comb(t + nvars - 1, nvars - 1)


def dim_bigraded(u: int, v: int) -> int:
    if u < 0 or v < 0:
        return 0
    return (u + 1) * (v + 1)


def basis_size(grading: Grading, degree) -> int:
    if grading.kind == "total":
        return dim_total(grading.nvars, degree)
    return dim_bigraded(*degree)


@lru_cache(maxsize=256)
def graded_basis(grading: Grading, degree) -> tuple:
    """Ordered tuple of exponent tuples for one graded piece."""
    if grading.kind == "total":
        t = degree
        if t < 0:
            return ()
        return tuple(_total_exponents(grading.nvars, t))
    u, v = degree
    if u < 0 or v < 0:
        return ()
    return tuple(
        (u - i, i, v - j, j) for i in range(u + 1) for j in range(v + 1)
    )


def _total_exponents(nvars: int, t: int):
    if nvars == 1:
        yield (t,)
        return
    for e in range(t, -1, -1):
        for rest in _total_exponents(nvars - 1, t - e):
            yield (e,) + rest


@lru_cache(maxsize=256)
def basis_index(grading: Grading, degree) -> dict:
    return {mono: i for i, mono in enumerate(graded_basis(grading, degree))}


@dataclass
class PolyVector:
    """A homogeneous polynomial as coefficients over the ordered basis."""

    grading: Grading
    degree: object  # int, or (u, v) for the bigraded ring
    coeffs: np.ndarray
    field: object

    def __post_init__(self):
        expected = basis_size(self.grading, self.degree)
        if len(self.coeffs) != expected:
            raise ValueError(
                f"coefficient length {len(self.coeffs)} != basis size {expected}"
            )


def zero_poly(grading: Grading, degree, field) -> PolyVector:
    return PolyVector(grading, degree, field.zeros(basis_size(grading, degree)), field)


def poly_from_terms(grading: Grading, degree, terms, field) -> PolyVector:
    p = zero_poly(grading, degree, field)
    idx = basis_index(grading, degree)
    for mono, c in terms.items() if isinstance(terms, dict) else terms:
        p.coeffs[idx[tuple(mono)]] = field.add(p.coeffs[idx[tuple(mono)]], field.normalize(c))
    return p


def linear_form(coeffs, field, grading: Grading = TOTAL4) -> PolyVector:
    if grading.kind != "total" or len(coeffs) != grading.nvars:
        raise GradingMismatchError("linear_form expects one coefficient per variable")
    vec = field.array([field.normalize(c) for c in coeffs])
    if not any(v != 0 for v in vec):
        raise ValueError("zero linear form")
    return PolyVector(grading, 1, vec, field)


def _shift_degree(src_deg: int, t: int):
    """Degree of the shift monomials taking degree src_deg to t in a total
    grading; None when that degree is negative."""
    return t - src_deg if t >= src_deg else None


@lru_cache(maxsize=256)
def _shift_column_map(grading: Grading, src_deg, t) -> np.ndarray:
    """Column indices of monomial * basis(src_deg) inside basis(t), one row
    per shift monomial of degree t - src_deg."""
    shifts = np.array(graded_basis(grading, _shift_degree(src_deg, t)))
    src_basis = np.array(graded_basis(grading, src_deg))
    target = np.array(graded_basis(grading, t))
    # exponent vectors as base-`radix` integers: no exponent of a product
    # reaches radix, so the key of a product is the sum of the keys
    radix = int(target.max()) + 1
    weights = radix ** np.arange(grading.nvars)
    target_keys = target @ weights
    order = np.argsort(target_keys)
    keys = (shifts @ weights)[:, None] + src_basis @ weights
    return order[np.searchsorted(target_keys, keys, sorter=order)]


def poly_mul(f: PolyVector, g: PolyVector) -> PolyVector:
    """Product; degree adds, coefficients are the convolution: the outer
    product of the coefficients scattered into the target basis. Both factors
    are in the same total grading: no caller multiplies bidegrees."""
    if f.grading != g.grading or f.grading.kind != "total":
        raise GradingMismatchError("poly_mul: factors need one total grading")
    field = f.field
    deg = f.degree + g.degree
    out = zero_poly(f.grading, deg, field)
    dtype = object if field.rational else np.int64
    prods = np.multiply.outer(np.asarray(f.coeffs, dtype), np.asarray(g.coeffs, dtype))
    if not field.rational:
        # each product is below p^2 < 2^62; a sum of n residues is below
        # n * 2^31 < 2^63
        prods %= field.p
    np.add.at(out.coeffs, _shift_column_map(f.grading, g.degree, deg), prods)
    if not field.rational:
        out.coeffs %= field.p
    return out


def check_power(d: int):
    """The power d of the linear forms is at least 1."""
    if d < 1:
        raise ValueError("power d must be >= 1")


def linear_power(coeffs, d: int, field, grading: Grading = TOTAL4) -> PolyVector:
    """Multinomial expansion of (sum_i coeffs_i x_i)^d: the coefficient of
    x^e is prod_i C(d - e_1 - ... - e_(i-1), e_i) c_i^(e_i), gathered from a
    binomial table reduced in the field and a table of powers. No e! is
    inverted, so this holds over F_p for p <= d too."""
    check_power(d)
    vals = field.array([field.normalize(c) for c in coeffs])
    if not vals.any():
        raise ValueError("zero linear form")
    n = len(vals)
    exps = np.array(graded_basis(grading, d))
    binom = field.array([[field.normalize(comb(r, e)) for e in range(d + 1)] for r in range(d + 1)])
    # powers[i, e] = c_i^e
    powers = field.zeros((n, d + 1))
    powers[:, 0] = field.one
    for e in range(1, d + 1):
        powers[:, e] = field.mul(powers[:, e - 1], vals)
    # factors[j, i] = C(d - e_1 - ... - e_(i-1), e_i) c_i^(e_i) for e = exps[j]
    factors = field.mul(binom[d - np.cumsum(exps, axis=1) + exps, exps], powers[np.arange(n), exps])
    out = factors[:, 0]
    for i in range(1, n):
        out = field.mul(out, factors[:, i])
    return PolyVector(grading, d, out, field)


def _falling_table(field, nrows: int, ncols: int) -> np.ndarray:
    """fall[b, e] = falling(e, b) = e (e-1) ... (e-b+1), zero when b > e,
    reduced in the field, for b < nrows and e < ncols."""
    return field.array([[field.normalize(perm(e, b)) for e in range(ncols)] for b in range(nrows)])


def condition_multiindices(nvars_active: int, m: int) -> tuple:
    """Multi-indices of order < m over the active (chart) coordinates,
    ordered by total order then graded lex."""
    out = []
    for order in range(m):
        out.extend(_total_exponents(nvars_active, order))
    return tuple(out)


@lru_cache(maxsize=256)
def _chart_partials(grading: Grading, degree, m: int, field):
    """The point-independent part of the evaluation-of-partials rows in the
    chart of the first variable (x_1, or x0 and y0 in the bigraded ring):
    (exps, betas, fall) with exps[i, j] the exponent of x_i in the j-th
    monomial of the piece, betas[i, r] that of the r-th chart partial of
    order < m (0 on the dropped coordinates), and fall the falling-factorial
    table with m rows.
    """
    nv = grading.nvars
    exps = np.array(graded_basis(grading, degree), dtype=np.int64).reshape(-1, nv)
    if grading.kind == "total":
        orders = condition_multiindices(nv - 1, m)
        betas = np.zeros((len(orders), nv), dtype=np.int64)
        betas[:, 1:] = orders
    else:
        betas = np.array([(0, i, 0, s - i) for s in range(m) for i in range(s + 1)])
    emax = int(exps.max(initial=0))
    fall = _falling_table(field, m, emax + 1)
    # the smallest unsigned type that holds every exponent keeps the cache small
    index = np.min_scalar_type(max(emax, m))
    return np.ascontiguousarray(exps.T, index), np.ascontiguousarray(betas.T, index), fall


def vanishing_rows(grading: Grading, degree, points, m: int, field) -> np.ndarray:
    """Evaluation-of-partials rows for all the points, point-major, then
    partial: row (P, beta) applied to a coefficient vector gives the
    order-beta partial of the polynomial at P, in the affine chart of the
    first variable.

    For total gradings that chart drops x_1, which every grid point (1, v, u,
    uv) has nonzero; a point with x_1 = 0 is refused. A bigraded point is a
    parameter pair (u, v) for ((1:u),(1:v)), and its chart drops x0 and y0.
    The entry at x^e is the structural part prod_i falling(e_i, beta_i) times
    P^(e - beta), which is the product over i of falling(e_i, beta_i) *
    P_i^(e_i - beta_i), read from one table for all the points.
    """
    if grading.kind == "total":
        pts = [[field.normalize(c) for c in pt] for pt in points]
        if any(pt[0] == 0 for pt in pts):
            raise ValueError("a point with x_1 = 0 is outside the chart x_1 = 1")
    else:
        pts = [[field.one, field.normalize(u), field.one, field.normalize(v)] for u, v in points]
    exps, betas, fall = _chart_partials(grading, degree, m, field)
    coords = field.array(pts)
    # table[k, i, b, e] = falling(e, b) * P_ki^(e - b), zero when b > e
    table = field.zeros(coords.shape + fall.shape)
    powers = table[:, :, 0]
    powers[:, :, 0] = field.one
    for e in range(1, fall.shape[1]):
        powers[:, :, e] = field.mul(powers[:, :, e - 1], coords)
    for b in range(1, min(fall.shape)):
        table[:, :, b, b:] = field.mul(fall[b, b:], powers[:, :, :-b])
    rows = table[:, 0, betas[0, :, None], exps[0]]
    for i in range(1, grading.nvars):
        rows = field.mul(rows, table[:, i, betas[i, :, None], exps[i]])
    npts, nbetas, n = rows.shape
    return rows.reshape(npts * nbetas, n)
