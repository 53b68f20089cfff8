"""Graded pieces of the ideals under study: spans of shifted powers of linear
forms, fat-point vanishing conditions (P^3 and bigraded), powers of a plane
complete intersection, perp ideals of a form, Hilbert tables, socle dimensions.

Symbolic powers are always computed via vanishing conditions (kernel of an
evaluation-of-partials matrix), never via ideal powers plus saturation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .geometry import GridConfig
from .linalg import (
    SubspaceBasis,
    _check_cap,
    _matmul,
    kernel_basis,
    rank,
    rref,
    subspace_from_rows,
)
from .polyspace import (
    BIGRADED,
    TOTAL3,
    TOTAL4,
    PolyVector,
    basis_index,
    basis_size,
    check_power,
    dim_total,
    graded_basis,
    linear_power,
    poly_mul,
    vanishing_rows,
    _falling,
    _shift_column_map,
    _shift_degree,
)


class DegenerateSequenceError(ValueError):
    pass


@dataclass(frozen=True)
class PowersIdealSpec:
    """The ideal generated by the d-th powers of the grid's dual forms."""

    grid: GridConfig
    d: int

    def __post_init__(self):
        check_power(self.d)


@dataclass(frozen=True)
class FatPointsSpec:
    """Points with a uniform multiplicity; bigraded=True means the points are
    (u, v) parameter pairs on P^1 x P^1."""

    points: tuple
    multiplicity: int
    bigraded: bool = False

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")


@dataclass(frozen=True)
class PerpSpec:
    """The ideal of operators annihilating a fixed form F."""

    form: PolyVector


def grid_fat_spec(grid: GridConfig, m: int) -> FatPointsSpec:
    return FatPointsSpec(points=tuple(grid.points()), multiplicity=m)


def grid_bigraded_spec(grid: GridConfig, m: int) -> FatPointsSpec:
    return FatPointsSpec(points=tuple(grid.param_pairs()), multiplicity=m, bigraded=True)


# ---------------------------------------------------------------------------
# spans of shifted products


@lru_cache(maxsize=256)
def _below_mask(grading, degree, e: int) -> np.ndarray:
    """Which monomials of one graded piece have every exponent < e: the
    monomial basis of that piece of R/(x_1^e, ..., x_n^e)."""
    return np.asarray(graded_basis(grading, degree)).max(axis=1) < e


def shifted_products_matrix(polys, t, field, below=None) -> np.ndarray:
    """Rows spanning { m * f : f in polys, m a monomial of degree t - deg f }
    inside the degree-t piece. Row order: poly-major, then shift monomial.

    With below=e the span is taken in the quotient by (x_1^e, ..., x_n^e):
    only shifts and columns whose exponents are all < e are kept, since every
    other product lies in that monomial ideal.
    """
    if not polys:
        raise ValueError("no polynomials given")
    grading = polys[0].grading
    if below is None:
        n_t = basis_size(grading, t)
    else:
        keep = _below_mask(grading, t, below)
        n_t = int(keep.sum())
        new_col = np.where(keep, np.cumsum(keep) - 1, -1)
    blocks = []
    for f in polys:
        if f.grading != grading:
            raise ValueError("mixed gradings")
        shift_deg = _shift_degree(grading, f.degree, t)
        if shift_deg is None:
            continue
        colmap = _shift_column_map(grading, f.degree, t)
        if below is not None:
            colmap = new_col[colmap[_below_mask(grading, shift_deg, below)]]
        rows, cols = np.nonzero(colmap >= 0)
        block = field.zeros((colmap.shape[0], n_t))
        block[rows, colmap[rows, cols]] = np.asarray(f.coeffs)[cols]
        blocks.append(block)
    if not blocks:
        return field.zeros((0, n_t))
    return np.vstack(blocks)


def power_generators(grid: GridConfig, d: int) -> list:
    """The ab generators: d-th powers of the dual forms, point-major order."""
    f = grid.field
    return [
        linear_power(grid.dual_form_coeffs(i, j), d, f)
        for i in range(grid.a)
        for j in range(grid.b)
    ]


def _normalised_generators(grid: GridConfig, d: int) -> list:
    """The generators other than the four corner ones, after the coordinate
    change A (x) B with A, B the Mobius maps (1, x) -> (x - x_2, x - x_1) on
    the u and v parameters.

    The change sends u_1, v_1 to 0 and u_2, v_2 to infinity, so the grid point
    kron((1, u), (1, v)) of the corners (i, j < 2) becomes a multiple of a
    coordinate point and their powers generate (x_1^d, ..., x_4^d). The
    substitution is linear and invertible, so dim[I]_t does not change.
    """
    f = grid.field

    def mobius(params):
        return [(f.sub(x, params[1]), f.sub(x, params[0])) for x in params]

    return [
        linear_power((f.mul(a0, b0), f.mul(a0, b1), f.mul(a1, b0), f.mul(a1, b1)), d, f)
        for i, (a0, a1) in enumerate(mobius(grid.u))
        for j, (b0, b1) in enumerate(mobius(grid.v))
        if i >= 2 or j >= 2
    ]


# Degree t is descended once 4 a_(t-1) <= |B_t|: from there the descent
# system, with 4 a_(t-1) columns and at most 4 |B_(t-1)| rows, is narrower
# than the primal matrix, whose ab - 4 row blocks keep growing with t.
_DUAL_SWITCH = 4


@lru_cache(maxsize=64)
def _descent_index(d: int, t: int):
    """Index tables of the descent from B^vee_(t-1) to B^vee_t, t > d.

    A functional F on B_t is parametrised by its contractions x_i o F, which
    are functionals on B_(t-1) with coordinates (x_i o F)_c = F_(c + e_i);
    F_a is read from the contraction by x_i(a) at a - e_i(a), with i(a) the
    first nonzero index of a. Returns (first, src, rows, lead, lead_col):
    i(a) and the index of a - e_i(a) in B_(t-1), for every a in B_t, and one
    constraint per row of `rows` = (i, c): (x_i o F)_c equals F_(c + e_i),
    read from block lead at lead_col, or equals 0 where lead is -1 (c_i =
    d - 1, so c + e_i is not in B_t). The rows with c_j = 0 for all j < i and
    c_i < d - 1 hold by construction and are left out.
    """
    prev = np.array(graded_basis(TOTAL4, t - 1))[_below_mask(TOTAL4, t - 1, d)]
    top = np.array(graded_basis(TOTAL4, t))[_below_mask(TOTAL4, t, d)]
    # every exponent is below d, so base-d keys are distinct
    weights = d ** np.arange(4)
    keys = prev @ weights
    order = np.argsort(keys)

    def index(exps):
        return order[np.searchsorted(keys, exps @ weights, sorter=order)]

    unit = np.eye(4, dtype=np.int64)
    first = np.argmax(top > 0, axis=1)
    src = index(top - unit[first])
    rows, lead, lead_col = [], [], []
    for i in range(4):
        c = prev[(prev[:, :i] > 0).any(axis=1) | (prev[:, i] == d - 1)]
        inside = np.flatnonzero(c[:, i] < d - 1)
        # there c has a nonzero exponent before i, and the first one is i(a)
        # for a = c + e_i
        j = np.full(len(c), -1)
        j[inside] = np.argmax(c[inside] > 0, axis=1)
        col = np.zeros(len(c), dtype=np.int64)
        col[inside] = index(c[inside] + unit[i] - unit[j[inside]])
        rows.append(np.stack([np.full(len(c), i), index(c)], axis=1))
        lead.append(j)
        lead_col.append(col)
    return first, src, np.concatenate(rows), np.concatenate(lead), np.concatenate(lead_col)


def _descend(basis: np.ndarray, d: int, t: int, field) -> np.ndarray:
    """A basis of J^perp_t from a basis (rows) of J^perp_(t-1), for t > d.

    J is generated in degree d, so F lies in J^perp_t exactly when every
    contraction x_i o F lies in J^perp_(t-1), i.e. x_i o F = basis^T lam_i.
    The constraints on lam = (lam_1, ..., lam_4) are gathered from the
    columns of `basis`; their kernel, mapped back to F, is the new basis.
    """
    first, src, rows, lead, lead_col = _descent_index(d, t)
    w = basis.shape[0]
    cols = basis.T
    system = field.zeros((rows.shape[0], 4, w))
    system[np.arange(rows.shape[0]), rows[:, 0]] = cols[rows[:, 1]]
    inside = np.flatnonzero(lead >= 0)
    system[inside, lead[inside]] = field.neg(cols[lead_col[inside]])
    lam = kernel_basis(system.reshape(rows.shape[0], 4 * w), field)
    lam = lam.reshape(lam.shape[0], 4, w)
    out = field.zeros((lam.shape[0], first.size))
    for i in range(4):
        at = np.flatnonzero(first == i)
        out[:, at] = _matmul(lam[:, i], basis[:, src[at]], field)
    return out


class PowersHilbertTable:
    """The Hilbert function a_t = dim A_t of A = R/I, I the powers ideal of
    one grid and power d, computed degree by degree in the monomial-CI
    quotient B = R/(x_1^d, ..., x_4^d): A = B/J, J generated by the other
    normalised generators, and a_t = dim J^perp_t.

    A degree t is ranked in the primal (a_t = |B_t| - rank of the
    shifted-products matrix) unless a_(t-1) is known and
    _DUAL_SWITCH * a_(t-1) <= |B_t|; then it is descended in the dual from a
    basis of J^perp_(t-1), taken from the primal kernel at the switch. The
    table keeps a_t of every degree it computed, only the dual basis the next
    degree needs, and computes nothing past its first zero.
    """

    def __init__(self, grid: GridConfig, d: int):
        check_power(d)
        self.grid, self.d = grid, d
        self.dims = {}  # t -> a_t, for t >= d
        self.switch = None  # the first descended degree
        self._gens = None
        self._dual = None  # (t, basis of J^perp_t) for the last descended t
        self._zero_from = None

    def quotient_dim(self, t: int) -> int:
        """a_t for t >= d, after the column-cap guard on R_t."""
        _check_cap(dim_total(4, t))
        if self._zero_from is not None and t >= self._zero_from:
            return 0
        if t not in self.dims:
            prev = self.dims.get(t - 1)
            size = int(_below_mask(TOTAL4, t, self.d).sum())
            if prev is not None and _DUAL_SWITCH * prev <= size:
                self.dims[t] = self._descend_to(t)
            else:
                self.dims[t] = size - rank(self._primal(t), self.grid.field)
            if self.dims[t] == 0:
                # every monomial of B_t' for t' > t is a multiple of one in
                # B_t, so J_t = B_t gives J_t' = B_t'
                self._zero_from, self._dual = t, None
        return self.dims[t]

    def _primal(self, t: int) -> np.ndarray:
        if self._gens is None:
            self._gens = _normalised_generators(self.grid, self.d)
        if self._gens:
            return shifted_products_matrix(self._gens, t, self.grid.field, below=self.d)
        return self.grid.field.zeros((0, int(_below_mask(TOTAL4, t, self.d).sum())))

    def _descend_to(self, t: int) -> int:
        field = self.grid.field
        if self._dual is not None and self._dual[0] == t - 1:
            basis = self._dual[1]
        else:
            basis = kernel_basis(self._primal(t - 1), field)
            if self.switch is None:
                self.switch = t
        self._dual = (t, _descend(basis, self.d, t, field))
        return self._dual[1].shape[0]


@lru_cache(maxsize=64)
def _powers_table(grid: GridConfig, d: int) -> PowersHilbertTable:
    """The Hilbert table of one (grid, d). The frozen GridConfig is part of
    the key: it compares by value, its field included, so a Q grid and an F_p
    grid with equal parameters differ."""
    return PowersHilbertTable(grid, d)


def powers_ideal_dim(grid: GridConfig, d: int, t: int) -> int:
    """dim of the degree-t piece of the powers ideal, read from the table of
    (grid, d)."""
    table = _powers_table(grid, d)
    if t < d:
        return 0
    return dim_total(4, t) - table.quotient_dim(t)


def powers_ideal_piece(spec: PowersIdealSpec, t: int) -> SubspaceBasis:
    grid, d = spec.grid, spec.d
    ambient = (TOTAL4, t)
    if t < d:
        return SubspaceBasis(ambient, grid.field.zeros((0, basis_size(TOTAL4, t))), 0)
    mat = shifted_products_matrix(power_generators(grid, d), t, grid.field)
    return subspace_from_rows(mat, ambient, grid.field)


# ---------------------------------------------------------------------------
# fat points


def _fat_grading(spec: FatPointsSpec):
    if spec.bigraded:
        return BIGRADED
    return TOTAL4 if len(spec.points[0]) == 4 else TOTAL3


def fat_points_matrix(spec: FatPointsSpec, degree, field) -> np.ndarray:
    grading = _fat_grading(spec)
    _check_cap(basis_size(grading, degree))
    return vanishing_rows(grading, degree, spec.points, spec.multiplicity, field)


def fat_points_piece(spec: FatPointsSpec, degree, field) -> SubspaceBasis:
    """Kernel of the evaluation-of-partials matrix on the graded piece."""
    mat = fat_points_matrix(spec, degree, field)
    ker = kernel_basis(mat, field)
    return SubspaceBasis((_fat_grading(spec), degree), ker, ker.shape[0])


def fat_points_dim(spec: FatPointsSpec, degree, field) -> int:
    mat = fat_points_matrix(spec, degree, field)
    return mat.shape[1] - rank(mat, field)


def fat_points_hf(spec: FatPointsSpec, degree, field) -> int:
    """Hilbert function of the fat-point scheme: conditions actually imposed."""
    return rank(fat_points_matrix(spec, degree, field), field)


# ---------------------------------------------------------------------------
# powers of a plane complete intersection


def _dim_s(e: int) -> int:
    return dim_total(3, e) if e >= 0 else 0


def ci_power_dim_formula(a: int, b: int, m: int, t: int) -> int:
    """Dimension of [(f,g)^m]_t for a regular sequence of degrees (a, b),
    from the resolution of the m-th power; negative dimensions clamp to 0."""
    if a < 1 or b < 1 or m < 1:
        raise ValueError("a, b, m must be >= 1")
    gens = sum(_dim_s(t - a * (m - i) - b * i) for i in range(m + 1))
    syz = sum(
        _dim_s(t - (a + b) - a * (m - 1 - i) - b * i) for i in range(m)
    )
    return gens - syz


def check_regular_sequence(f: PolyVector, g: PolyVector, field):
    """Koszul dimension check in degrees <= a+b; cheap and sufficient here."""
    a, b = f.degree, g.degree
    for t in range(min(a, b), a + b + 1):
        mat = shifted_products_matrix([f, g], t, field)
        expected = _dim_s(t - a) + _dim_s(t - b) - _dim_s(t - a - b)
        if rank(mat, field) != expected:
            raise DegenerateSequenceError(
                f"(f,g) is not a regular sequence: degree {t} dimension mismatch"
            )


def ci_power_piece(f: PolyVector, g: PolyVector, m: int, t: int, check=True) -> SubspaceBasis:
    """Span of { f^(m-i) g^i * monomials } in degree t, for plane forms f, g."""
    field = f.field
    if f.grading != TOTAL3 or g.grading != TOTAL3:
        raise ValueError("ci_power_piece expects 3-variable forms")
    if m < 1:
        raise ValueError("m must be >= 1")
    if check:
        check_regular_sequence(f, g, field)
    powers_f = _power_chain(f, m)
    powers_g = _power_chain(g, m)
    prods = []
    for i in range(m + 1):
        if i == 0:
            prods.append(powers_f[m])
        elif i == m:
            prods.append(powers_g[m])
        else:
            prods.append(poly_mul(powers_f[m - i], powers_g[i]))
    mat = shifted_products_matrix(prods, t, field)
    return subspace_from_rows(mat, (TOTAL3, t), field)


def _power_chain(f: PolyVector, m: int) -> dict:
    out = {1: f}
    for i in range(2, m + 1):
        out[i] = poly_mul(out[i - 1], f)
    return out


# ---------------------------------------------------------------------------
# perp ideals


def contraction_matrix(f: PolyVector, s: int) -> np.ndarray:
    """Matrix of G |-> dF/dG from degree s to degree deg F - s."""
    field = f.field
    degf = f.degree
    if f.grading.kind != "total":
        raise ValueError("contraction_matrix expects a total grading")
    src = graded_basis(f.grading, s)
    dst = graded_basis(f.grading, degf - s)
    dst_idx = basis_index(f.grading, degf - s)
    coeffs = np.asarray(f.coeffs)
    f_idx = basis_index(f.grading, degf)
    mat = field.zeros((len(dst), len(src)))
    for c, beta in enumerate(src):
        for alpha_p in dst:
            alpha = tuple(x + y for x, y in zip(alpha_p, beta))
            fa = coeffs[f_idx[alpha]]
            if fa != 0:
                scal = 1
                for x, y in zip(alpha, beta):
                    scal *= _falling(x, y)
                mat[dst_idx[alpha_p], c] = field.mul(fa, field.normalize(scal))
    return mat


def perp_piece(f: PolyVector, s: int) -> SubspaceBasis:
    """Degree-s piece of F-perp: kernel of the contraction map R_s -> R_(degF-s);
    the full space once s exceeds deg F."""
    field = f.field
    if s < 0:
        raise ValueError("degree must be >= 0")
    n_s = basis_size(f.grading, s)
    if s > f.degree:
        from .linalg import _identity

        return SubspaceBasis((f.grading, s), _identity(n_s, field), n_s)
    ker = kernel_basis(contraction_matrix(f, s), field)
    return SubspaceBasis((f.grading, s), ker, ker.shape[0])


def perp_quotient_hf(f: PolyVector, s: int) -> int:
    """h of R/F-perp in degree s = rank of the contraction map."""
    if s < 0:
        return 0
    if s > f.degree:
        return 0
    return rank(contraction_matrix(f, s), f.field)


# ---------------------------------------------------------------------------
# Hilbert tables, socle, duality


@dataclass
class HilbertTable:
    """Map degree -> dimension, tagged with what is stored (quotient or ideal)."""

    kind: str  # "quotient" or "ideal"
    dims: dict = dc_field(default_factory=dict)

    def delta(self) -> dict:
        if not all(isinstance(t, int) for t in self.dims):
            return {}  # first differences only make sense for a single grading
        out = {}
        for t in sorted(self.dims):
            prev = self.dims.get(t - 1, 0)
            out[t] = self.dims[t] - prev
        return out

    def as_list(self) -> list:
        if not self.dims:
            return []
        return [self.dims.get(t, 0) for t in range(0, max(self.dims) + 1)]

    def to_csv(self) -> str:
        delta = self.delta()
        lines = ["t,dim,delta"]
        for t in sorted(self.dims):
            lines.append(f"{t},{self.dims[t]},{delta[t]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        delta = self.delta()
        return json.dumps(
            {
                "kind": self.kind,
                "rows": [
                    {"t": t, "dim": self.dims[t], "delta": delta[t]}
                    for t in sorted(self.dims)
                ],
            }
        )


def quotient_socle_cap(d: int) -> int:
    # the ideal contains d-th powers of 4 independent linear forms, so the
    # socle degree is at most that of the monomial complete intersection
    return 4 * (d - 1)


def hilbert_table(spec, t_range=None, field=None) -> HilbertTable:
    """Hilbert table for a quotient by a powers ideal, a fat-points ideal, or
    a quotient by a perp ideal."""
    if isinstance(spec, PowersIdealSpec):
        grid, d = spec.grid, spec.d
        if t_range is None:
            t_range = range(0, quotient_socle_cap(d) + 1)
        table = HilbertTable(kind="quotient")
        for t in t_range:
            n_t = dim_total(4, t)
            table.dims[t] = n_t - powers_ideal_dim(grid, d, t)
            if table.dims[t] == 0 and t > d:
                break
        return table
    if isinstance(spec, FatPointsSpec):
        if t_range is None:
            raise ValueError("fat-points table needs an explicit degree range")
        table = HilbertTable(kind="ideal")
        for t in t_range:
            table.dims[t] = fat_points_dim(spec, t, field)
        return table
    if isinstance(spec, PerpSpec):
        f = spec.form
        if t_range is None:
            t_range = range(0, f.degree + 2)
        table = HilbertTable(kind="quotient")
        for t in t_range:
            table.dims[t] = perp_quotient_hf(f, t)
        return table
    raise TypeError(f"unsupported spec {type(spec).__name__}")


def _shift_matrix(grading, t: int, var: int, field) -> np.ndarray:
    """Multiplication by x_var from degree t to t+1 on monomial bases."""
    src = graded_basis(grading, t)
    idx = basis_index(grading, t + 1)
    mat = field.zeros((basis_size(grading, t + 1), len(src)))
    for c, mono in enumerate(src):
        target = list(mono)
        target[var] += 1
        mat[idx[tuple(target)], c] = field.one
    return mat


def socle_dims(spec: PowersIdealSpec, t_range) -> dict:
    """Dimension of ker(A_t -> A_{t+1}^4) under multiplication by each
    variable, for A the quotient by the powers ideal."""
    grid, d = spec.grid, spec.d
    field = grid.field
    out = {}
    for t in t_range:
        basis_t1 = powers_ideal_piece(spec, t + 1)
        lam_t = powers_ideal_dim(grid, d, t)
        n_t1 = basis_size(TOTAL4, t + 1)
        if basis_t1.dim == n_t1:
            # everything multiplies into the ideal
            out[t] = dim_total(4, t) - lam_t
            continue
        stacked = []
        red, piv = basis_t1.rref, _pivots_of_rref(basis_t1.rref)
        for var in range(4):
            shift = _shift_matrix(TOTAL4, t, var, field)
            stacked.append(_reduce_columns_against(shift, red, piv, field))
        big = np.vstack(stacked)
        w = big.shape[1] - rank(big, field)
        out[t] = w - lam_t
    return out


def _pivots_of_rref(r: np.ndarray) -> list:
    # first nonzero column of each row; `!= 0` is boolean on object arrays too
    return np.argmax(r != 0, axis=1).tolist()


def _reduce_columns_against(mat: np.ndarray, rref_rows: np.ndarray, piv: list, field) -> np.ndarray:
    """Reduce every column of mat modulo the row space of rref_rows."""
    if rref_rows.shape[0] == 0:
        return mat
    return field.sub(mat, _matmul(rref_rows.T, mat[piv, :], field))


def macaulay_dual_check(grid: GridConfig, d: int, t: int):
    """Both sides of the duality dim[R/powers]_t = dim[fat points]_t, computed
    by independent routes (product span rank vs vanishing-condition kernel)."""
    if t < d:
        raise ValueError("duality check needs t >= d")
    field = grid.field
    lhs = dim_total(4, t) - powers_ideal_dim(grid, d, t)
    m = t - d + 1
    rhs = fat_points_dim(grid_fat_spec(grid, m), t, field)
    return lhs, rhs, lhs == rhs
