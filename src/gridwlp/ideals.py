"""Graded pieces of the ideals under study: spans of shifted powers of linear
forms, fat-point vanishing conditions (P^3 and bigraded), powers of a plane
complete intersection, perp ideals of a form, Hilbert tables, socle dimensions.
The powers ideal of a grid and power d is read from its PowersHilbertTable,
which the caller builds and passes to every reader. A fat-point ideal is named
by the grid, the multiplicity m and the degree, an integer for the P^3 points
and a pair for the P^1 x P^1 parameter pairs. The Hilbert function of a
fat-point scheme in every degree up to T (or every (t, t) up to (T, T)) is
read from one echelon of the condition matrix at T: the matrix of a lower
degree is a prefix of its columns, in a fixed column order (see
fat_points_hfs). The caller holds the tuple, as it holds a table.

Symbolic powers are always computed via vanishing conditions (kernel of an
evaluation-of-partials matrix), never via ideal powers plus saturation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import GridConfig
from .linalg import (
    _check_cap,
    _identity,
    _matmul,
    block_kernel,
    kernel_basis,
    pivot_columns,
    rank,
    rref,
)
from .polyspace import (
    BIGRADED,
    TOTAL3,
    TOTAL4,
    GradingMismatchError,
    PolyVector,
    basis_size,
    check_power,
    dim_total,
    graded_basis,
    linear_form,
    linear_power,
    poly_mul,
    vanishing_rows,
    _falling_table,
    _shift_column_map,
    _shift_degree,
)


class DegenerateSequenceError(ValueError):
    pass


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
    return new_col[colmap[_below_mask(grading, _shift_degree(src_deg, t), below)]]


def shifted_products_matrix(polys, t, field, below=None) -> np.ndarray:
    """Rows spanning { m * f : f in polys, m a monomial of degree t - deg f }
    inside the degree-t piece: the blocks of `shifted_product_blocks`,
    stacked. Row order: poly-major, then shift monomial."""
    n_t, blocks = shifted_product_blocks(polys, t, field, below)
    blocks = list(blocks)
    return np.vstack(blocks) if blocks else field.zeros((0, n_t))


def shifted_product_blocks(polys, t, field, below=None):
    """(n_t, blocks): the dimension of the degree-t piece and an iterator
    over one row block per poly, its products with the monomials of degree
    t - deg f; a poly of degree above t has none. The polys share one
    total grading. A block is built only when it is reached.

    With below=e the span is taken in the quotient by (x_1^e, ..., x_n^e):
    only shifts and columns whose exponents are all < e are kept, since every
    other product lies in that monomial ideal. The column count is guarded
    before any block is built.
    """
    if not polys:
        raise ValueError("no polynomials given")
    grading = polys[0].grading
    if grading.kind != "total" or any(f.grading != grading for f in polys):
        raise GradingMismatchError("shifted products need one total grading")
    n_t = basis_size(grading, t) if below is None else int(_below_mask(grading, t, below).sum())
    _check_cap(n_t)

    def blocks():
        for f in polys:
            if _shift_degree(f.degree, t) is None:
                continue
            colmap = _shift_columns(grading, f.degree, t, below)
            rows, cols = np.nonzero(colmap >= 0)
            block = field.zeros((colmap.shape[0], n_t))
            block[rows, colmap[rows, cols]] = np.asarray(f.coeffs)[cols]
            yield block

    return n_t, blocks()


def power_generators(grid: GridConfig, d: int) -> list:
    """The ab generators: d-th powers of the dual forms, point-major order."""
    f = grid.field
    return [
        linear_power(grid.point(i, j), d, f)
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
        linear_power(_b_coordinates(grid, grid.point(i, j)), d, grid.field)
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
    d - 1, so c + e_i is not in B_t). The rows with i(c + e_i) = i hold by
    construction and are left out.
    """
    # target[c, i] is the index of c + e_i in B_t, -1 outside B
    target = _shift_columns(TOTAL4, 1, t, d)
    top = np.array(graded_basis(TOTAL4, t))[_below_mask(TOTAL4, t, d)]
    first = np.argmax(top > 0, axis=1)
    # lead[c, i] = i(c + e_i), and -1 where target is -1: that index reads
    # the appended -1
    lead = np.append(first, -1)[target]
    own = lead == np.arange(4)
    src = np.empty(first.size, dtype=np.int64)
    src[target[own]] = np.nonzero(own)[0]
    # every other pair is a constraint, i-major as the blocks of lam
    i, c = np.nonzero(~own.T)
    return first, src, np.stack([i, c], axis=1), lead[c, i], np.append(src, 0)[target[c, i]]


# Rows of the descent system built at a time.
_DESCENT_ROWS = 128


def _descend(basis: np.ndarray, d: int, t: int, field) -> np.ndarray:
    """A basis of J^perp_t from a basis (rows) of J^perp_(t-1), for t > d.

    J is generated in degree d, so F lies in J^perp_t exactly when every
    contraction x_i o F lies in J^perp_(t-1), i.e. x_i o F = basis^T lam_i.
    The constraints on lam = (lam_1, ..., lam_4) are gathered from the
    columns of `basis`, _DESCENT_ROWS of them at a time, and fed to the
    kernel as they are built; their kernel, mapped back to F, is the new
    basis.
    """
    first, src, rows, lead, lead_col = _descent_index(d, t)
    w = basis.shape[0]
    cols = basis.T

    def blocks():
        for start in range(0, rows.shape[0], _DESCENT_ROWS):
            at = slice(start, start + _DESCENT_ROWS)
            i, c, k = rows[at, 0], rows[at, 1], lead[at]
            block = field.zeros((i.size, 4, w))
            block[np.arange(i.size), i] = cols[c]
            inside = np.flatnonzero(k >= 0)
            block[inside, k[inside]] = field.neg(cols[lead_col[at][inside]])
            yield block.reshape(i.size, 4 * w)

    lam = block_kernel(blocks(), 4 * w, field)
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
    the next degree and repeated requests, and only it is kept.
    """

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
        self._kept = None  # only prev is needed from here on
        if t < self.d:
            basis = _identity(dim_total(4, t), field)
        elif descend:
            basis = _descend(prev, self.d, t, field)
            if self.switch is None:
                self.switch = t
        else:
            n_t, blocks = self._primal(t)
            basis = block_kernel(blocks, n_t, field)
        if t >= self.d:
            self.dims[t] = basis.shape[0]
            if basis.shape[0] == 0:
                self._zero_from = t
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

    def _primal(self, t: int):
        """(n_t, blocks): the column count of the primal matrix at t and
        its row blocks, one per normalised generator; no blocks for a grid
        with no other generators than the corner ones."""
        if self._gens is None:
            self._gens = _normalised_generators(self.grid, self.d)
        if not self._gens:
            return self._size(t), iter(())
        return shifted_product_blocks(self._gens, t, self.grid.field, below=self.d)


def powers_ideal_dim(table: PowersHilbertTable, t: int) -> int:
    """dim of the degree-t piece of the powers ideal, read from its table."""
    return dim_total(4, t) - table.quotient_dim(t)


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


# ---------------------------------------------------------------------------
# fat points


def _grid_points(grid: GridConfig, degree):
    """The grid in the grading of `degree`: its points in P^3 for an integer
    degree, its parameter pairs on P^1 x P^1 for a bidegree."""
    if isinstance(degree, tuple):
        return BIGRADED, grid.param_pairs()
    return TOTAL4, grid.points()


def fat_points_matrix(grid: GridConfig, m: int, degree) -> np.ndarray:
    """Order-m vanishing conditions at every point of the grid on the
    degree piece, after the column-cap guard."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    grading, points = _grid_points(grid, degree)
    _check_cap(basis_size(grading, degree))
    return vanishing_rows(grading, degree, points, m, grid.field)


def fat_points_piece(grid: GridConfig, m: int, degree) -> np.ndarray:
    """A basis (rows) of the degree piece of the fat-point ideal: the kernel
    of the evaluation-of-partials matrix."""
    return kernel_basis(fat_points_matrix(grid, m, degree), grid.field)


def fat_points_dim(grid: GridConfig, m: int, degree) -> int:
    mat = fat_points_matrix(grid, m, degree)
    return mat.shape[1] - rank(mat, grid.field)


def fat_points_hf(grid: GridConfig, m: int, degree) -> int:
    """Hilbert function of the fat-point scheme: conditions actually imposed."""
    return rank(fat_points_matrix(grid, m, degree), grid.field)


def fat_points_hfs(grid: GridConfig, m: int, top) -> tuple:
    """(h(0), ..., h(top)) of the order-m fat-point scheme, from one echelon
    of the condition matrix at `top`: an integer degree, or a bidegree
    (top, top) for h at every (t, t). Empty for a negative top.

    In the chart of vanishing_rows (x_1 = 1, or x0 = y0 = 1) the entry of a
    column depends only on the exponents of the other variables. The
    monomials of degree top are listed by descending e_1, so the matrix of
    degree t is the first C(t + 3, 3) columns of the matrix at top. Sorted
    stably by max(e(x1), e(y1)), the columns of bidegree (top, top) start
    with those of (t, t), in another order. A prefix of columns has the
    rank of the pivots inside it.
    """
    if isinstance(top, tuple) and top[0] != top[1]:
        raise ValueError("a bigraded sweep runs along the diagonal (t, t)")
    mat = fat_points_matrix(grid, m, top)
    if isinstance(top, tuple):
        exps = np.array(graded_basis(BIGRADED, top), dtype=np.int64).reshape(-1, 4)
        mat = mat[:, np.argsort(np.maximum(exps[:, 1], exps[:, 3]), kind="stable")]
        sizes = [(t + 1) ** 2 for t in range(top[0] + 1)]
    else:
        sizes = [dim_total(4, t) for t in range(top + 1)]
    piv = pivot_columns(mat, grid.field)
    return tuple(np.searchsorted(piv, sizes).tolist())


# ---------------------------------------------------------------------------
# powers of a plane complete intersection


def check_regular_sequence(f: PolyVector, g: PolyVector, field):
    """Koszul dimension check in degrees <= a+b; cheap and sufficient here."""
    a, b = f.degree, g.degree
    for t in range(min(a, b), a + b + 1):
        mat = shifted_products_matrix([f, g], t, field)
        expected = dim_total(3, t - a) + dim_total(3, t - b) - dim_total(3, t - a - b)
        if rank(mat, field) != expected:
            raise DegenerateSequenceError(
                f"(f,g) is not a regular sequence: degree {t} dimension mismatch"
            )


def ci_power_piece(f: PolyVector, g: PolyVector, m: int, t: int, check=True) -> np.ndarray:
    """RREF rows spanning { f^(m-i) g^i * monomials } in degree t, for plane
    forms f, g."""
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
    return rref(shifted_products_matrix(prods, t, field), field)[0]


def _power_chain(f: PolyVector, m: int) -> dict:
    out = {1: f}
    for i in range(2, m + 1):
        out[i] = poly_mul(out[i - 1], f)
    return out


# ---------------------------------------------------------------------------
# perp ideals


def contraction_matrix(f: PolyVector, s: int) -> np.ndarray:
    """Matrix of G |-> dF/dG from degree s to degree deg F - s: the entry at
    (alpha', beta) is F_(alpha' + beta) prod_i falling(alpha'_i + beta_i,
    beta_i), gathered through the shift map of degree s into deg F, after
    the column-cap guard."""
    field = f.field
    grading = f.grading
    if grading.kind != "total":
        raise ValueError("contraction_matrix expects a total grading")
    _check_cap(basis_size(grading, s))
    if not 0 <= s <= f.degree:
        return field.zeros((basis_size(grading, f.degree - s), basis_size(grading, s)))
    colmap = _shift_column_map(grading, s, f.degree)
    alpha = np.array(graded_basis(grading, f.degree))[colmap]
    beta = np.array(graded_basis(grading, s))
    fall = _falling_table(field, s + 1, f.degree + 1)
    out = np.asarray(f.coeffs)[colmap]
    for i in range(grading.nvars):
        out = field.mul(out, fall[beta[:, i], alpha[:, :, i]])
    return out


def perp_piece(f: PolyVector, s: int) -> np.ndarray:
    """A basis (rows) of the degree-s piece of F-perp: the kernel of the
    contraction map R_s -> R_(degF-s); the identity once s exceeds deg F."""
    field = f.field
    if s < 0:
        raise ValueError("degree must be >= 0")
    n_s = basis_size(f.grading, s)
    _check_cap(n_s)
    if s > f.degree:
        return _identity(n_s, field)
    return kernel_basis(contraction_matrix(f, s), field)


def perp_quotient_hf(f: PolyVector, s: int) -> int:
    """h of R/F-perp in degree s = rank of the contraction map."""
    if s < 0:
        return 0
    if s > f.degree:
        return 0
    return rank(contraction_matrix(f, s), f.field)


# ---------------------------------------------------------------------------
# socle


def socle_dims(table: PowersHilbertTable, t_range) -> dict:
    """Dimension of ker(A_t -> A_(t+1)^4), f |-> (x_i f)_i, for A the quotient
    by the powers ideal: a_t minus the rank of B_t -> A_(t+1)^4, whose
    transpose stacks the contractions x_i o J^perp_(t+1). The socle does not
    depend on coordinates, so B's variables serve."""
    field = table.grid.field
    variables = [linear_form([int(i == j) for j in range(4)], field) for i in range(4)]
    out = {}
    for t in t_range:
        image = np.vstack([_contraction(table, x, t + 1) for x in variables])
        out[t] = table.quotient_dim(t) - rank(image, field)
    return out
