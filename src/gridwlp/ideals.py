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
    _identity,
    _matmul,
    kernel_basis,
    rank,
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
    linear_form,
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


def _shift_columns(grading, src_deg, t, below=None) -> np.ndarray:
    """_shift_column_map, or with below=e its restriction to the quotient by
    (x_1^e, ..., x_n^e): one row per shift whose exponents are all < e, and
    the column of each product in that quotient's piece of degree t, -1 where
    the product lies in the monomial ideal."""
    colmap = _shift_column_map(grading, src_deg, t)
    if below is None:
        return colmap
    keep = _below_mask(grading, t, below)
    new_col = np.where(keep, np.cumsum(keep) - 1, -1)
    return new_col[colmap[_below_mask(grading, _shift_degree(grading, src_deg, t), below)]]


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
    n_t = basis_size(grading, t) if below is None else int(_below_mask(grading, t, below).sum())
    blocks = []
    for f in polys:
        if f.grading != grading:
            raise ValueError("mixed gradings")
        if _shift_degree(grading, f.degree, t) is None:
            continue
        colmap = _shift_columns(grading, f.degree, t, below)
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


def _b_coordinates(grid: GridConfig, coeffs) -> tuple:
    """The linear form sum_i c_i x_i in B's coordinates: (M_u (x) M_v) c,
    with M_x = [[-x_2, 1], [-x_1, 1]] the Mobius map (1, x) -> (x - x_2,
    x - x_1) of a ruling's first two parameters, which sends the dual forms
    kron((1, u), (1, v)) of the four corner points to coordinate forms. The
    substitution is invertible: it carries R/I to R/I', and x ell to x ell'."""
    f = grid.field
    c = [f.normalize(x) for x in coeffs]
    # C[p][q] = c_(2p+q) goes to M_u C M_v^T; row r of M_x is (-x_(2-r), 1)
    cm = [[f.sub(c[2 * p + 1], f.mul(y, c[2 * p])) for p in range(2)] for y in grid.v[1::-1]]
    return tuple(f.sub(cm[s][1], f.mul(x, cm[s][0])) for x in grid.u[1::-1] for s in range(2))


def _normalised_generators(grid: GridConfig, d: int) -> list:
    """The d-th powers of the dual forms other than the four corner ones, in
    B's coordinates (see _b_coordinates). The corner powers generate
    (x_1^d, ..., x_4^d), and dim[I]_t does not change."""
    return [
        linear_power(_b_coordinates(grid, grid.dual_form_coeffs(i, j)), d, grid.field)
        for i in range(grid.a)
        for j in range(grid.b)
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

    `basis(t)` is a basis of J^perp_t: the identity below d, descended in the
    dual from the basis at t - 1 once a_(t-1) is known and
    _DUAL_SWITCH * a_(t-1) <= |B_t|, else the kernel of the primal
    shifted-products matrix. The table keeps a_t of every degree t >= d it
    computed and computes nothing past its first zero. The last basis serves
    the next degree and repeated requests, and only it is kept: of all the
    tables, one keeps a basis at a time.
    """

    # the one table that keeps a basis: up to 64 tables are cached, and a
    # basis in each would pin them all in memory
    _holder = None

    def __init__(self, grid: GridConfig, d: int):
        check_power(d)
        self.grid, self.d = grid, d
        self.dims = {}  # t -> a_t, for t >= d
        self.switch = None  # the first descended degree
        self._gens = None
        self._kept = None  # (t, basis of J^perp_t) for the last basis computed
        self._zero_from = None

    def quotient_dim(self, t: int) -> int:
        """a_t for every t: 0 past the table's first zero, which needs no
        matrix; any other degree from d on is read from `basis`, after its
        column-cap guard."""
        if t < self.d:
            return dim_total(4, t)  # 0 for t < 0
        if self._is_zero(t):
            return 0
        if t not in self.dims:
            self.basis(t)
        return self.dims[t]

    def basis(self, t: int) -> np.ndarray:
        """A basis (rows) of J^perp_t, t >= 0, in the monomial basis of B_t,
        after the column-cap guard on R_t: even an empty basis has |B_t|
        columns, and the maps build matrices on R_t. Asked for again, the
        last basis is returned as it is; walking up by degree computes each
        basis once."""
        _check_cap(dim_total(4, t))
        if self._kept is not None and self._kept[0] == t:
            return self._kept[1]
        field = self.grid.field
        if self._is_zero(t):
            return field.zeros((0, self._size(t)))
        descend = self._descends(t)
        prev = self.basis(t - 1) if descend else None
        # from here on no kept basis, in any table, is needed but prev
        holder = PowersHilbertTable._holder
        if holder is not None:
            holder._kept = None
        if t < self.d:
            basis = _identity(dim_total(4, t), field)
        elif descend:
            basis = _descend(prev, self.d, t, field)
            if self.switch is None:
                self.switch = t
        else:
            basis = kernel_basis(self._primal(t), field)
        if t >= self.d:
            self.dims[t] = basis.shape[0]
            if basis.shape[0] == 0:
                self._zero_from = t
        PowersHilbertTable._holder = self
        self._kept = (t, basis)
        return basis

    def sweep(self):
        """The degrees t >= 1 with a_t > 0, in order. From d on, each basis
        is computed once, and is the one kept while its degree is yielded."""
        yield from range(1, self.d)
        t = self.d
        while self.basis(t).shape[0] > 0:
            yield t
            t += 1

    def _is_zero(self, t: int) -> bool:
        # every monomial of B_t' for t' > t is a multiple of one in B_t, so
        # J_t = B_t gives J_t' = B_t'
        return self._zero_from is not None and t >= self._zero_from

    def _descends(self, t: int) -> bool:
        prev = self.dims.get(t - 1)
        return t > self.d and prev is not None and _DUAL_SWITCH * prev <= self._size(t)

    def _size(self, t: int) -> int:
        return int(_below_mask(TOTAL4, t, self.d).sum())

    def _primal(self, t: int) -> np.ndarray:
        if self._gens is None:
            self._gens = _normalised_generators(self.grid, self.d)
        if self._gens:
            return shifted_products_matrix(self._gens, t, self.grid.field, below=self.d)
        return self.grid.field.zeros((0, self._size(t)))


@lru_cache(maxsize=64)
def _powers_table(grid: GridConfig, d: int) -> PowersHilbertTable:
    """The Hilbert table of one (grid, d). The frozen GridConfig is part of
    the key: it compares by value, its field included, so a Q grid and an F_p
    grid with equal parameters differ."""
    return PowersHilbertTable(grid, d)


def powers_ideal_dim(grid: GridConfig, d: int, t: int) -> int:
    """dim of the degree-t piece of the powers ideal, read from the table of
    (grid, d)."""
    return dim_total(4, t) - _powers_table(grid, d).quotient_dim(t)


def _contraction(table: PowersHilbertTable, form: PolyVector, t: int) -> np.ndarray:
    """Rows (form o F)_c = sum_m form_m F_(c + m), c in B_(t-k), k = deg
    form, for the rows F of the table's basis of J^perp_t; F_(c + m) is 0
    where c + m is not in B. Contraction is the transpose of multiplication,
    and B_(t-k) maps onto A_(t-k): the rank is that of x form on A_(t-k)."""
    basis, field, k = table.basis(t), table.grid.field, form.degree
    if t < k:
        return field.zeros((basis.shape[0], 0))
    colmap = _shift_columns(TOTAL4, k, t, table.d)
    out = field.zeros((basis.shape[0], colmap.shape[0]))
    if basis.shape[0] == 0:
        return out
    coeffs = np.asarray(form.coeffs)
    for m in np.flatnonzero(coeffs != 0):
        col = colmap[:, m]
        # over F_p each product is below p^2 < 2^62, and a sum of n residues
        # below n * 2^31
        term = basis[:, np.maximum(col, 0)]
        term *= coeffs[m]
        if not field.rational:
            term %= field.p
        term[:, col < 0] = field.zero
        out += term
    if not field.rational:
        out %= field.p
    return out


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


def hilbert_table(spec: PowersIdealSpec, t_range=None) -> HilbertTable:
    """Hilbert table of the quotient by a powers ideal."""
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


def socle_dims(spec: PowersIdealSpec, t_range) -> dict:
    """Dimension of ker(A_t -> A_(t+1)^4), f |-> (x_i f)_i, for A the quotient
    by the powers ideal: a_t minus the rank of B_t -> A_(t+1)^4, whose
    transpose stacks the contractions x_i o J^perp_(t+1). The socle does not
    depend on coordinates, so B's variables serve."""
    field = spec.grid.field
    table = _powers_table(spec.grid, spec.d)
    variables = [linear_form([int(i == j) for j in range(4)], field) for i in range(4)]
    out = {}
    for t in t_range:
        image = np.vstack([_contraction(table, x, t + 1) for x in variables])
        out[t] = table.quotient_dim(t) - rank(image, field)
    return out


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
