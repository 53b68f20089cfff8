from fractions import Fraction
from math import comb, factorial, perm

import numpy as np
import pytest

from gridwlp import (
    BIGRADED,
    PrimeField,
    RationalField,
    SeedStream,
    TOTAL3,
    TOTAL4,
    PolyVector,
    graded_basis,
    linear_form,
    linear_power,
    make_grid,
    poly_mul,
)
from gridwlp import polyspace
from gridwlp.linalg import _matmul, rank
from gridwlp.polyspace import (
    GradingMismatchError,
    basis_index,
    basis_size,
    condition_multiindices,
    poly_from_terms,
    vanishing_rows,
    zero_poly,
)
from gridwlp.ideals import contraction_matrix


def _coeff(poly, mono):
    return poly.coeffs[basis_index(poly.grading, poly.degree)[mono]]


def _terms(poly):
    # (monomial, coefficient) for every nonzero coefficient, in basis order
    return [(m, c) for m, c in zip(graded_basis(poly.grading, poly.degree), poly.coeffs) if c != 0]


def test_basis_sizes():
    assert len(graded_basis(TOTAL4, 2)) == 10  # C(5,3)
    assert len(graded_basis(TOTAL3, 5)) == 21  # C(7,2)
    assert len(graded_basis(BIGRADED, (1, 1))) == 4
    assert basis_size(TOTAL4, 7) == comb(10, 3)


def test_basis_order_deterministic_and_graded_lex():
    basis = graded_basis(TOTAL4, 2)
    assert basis[0] == (2, 0, 0, 0)
    assert basis[1] == (1, 1, 0, 0)
    assert basis[-1] == (0, 0, 0, 2)
    assert basis == graded_basis(TOTAL4, 2)


def test_poly_mul_square_of_linear(fp):
    ell = linear_form((1, 1, 0, 0), fp)
    sq = poly_mul(ell, ell)
    assert _coeff(sq, (2, 0, 0, 0)) == 1
    assert _coeff(sq, (1, 1, 0, 0)) == 2
    assert _coeff(sq, (0, 2, 0, 0)) == 1
    assert _coeff(sq, (0, 0, 2, 0)) == 0


def test_poly_mul_identity_and_quadric(fp):
    one = poly_from_terms(TOTAL4, 0, {(0, 0, 0, 0): 1}, fp)
    f = poly_from_terms(TOTAL4, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): fp.neg(1)}, fp)
    assert list(poly_mul(f, one).coeffs) == list(f.coeffs)
    x1 = linear_form((1, 0, 0, 0), fp)
    prod = poly_mul(f, x1)
    assert _coeff(prod, (2, 0, 0, 1)) == 1
    assert _coeff(prod, (1, 1, 1, 0)) == fp.neg(1)


def test_poly_mul_grading_mismatch(fp):
    f = linear_form((1, 0, 0, 0), fp)
    g = linear_form((1, 0, 0), fp, TOTAL3)
    with pytest.raises(GradingMismatchError):
        poly_mul(f, g)


def test_poly_mul_refuses_bidegrees(fp):
    # the degree of a product adds, and two bidegrees would concatenate
    f = poly_from_terms(BIGRADED, (1, 1), {(1, 0, 1, 0): 1}, fp)
    with pytest.raises(GradingMismatchError):
        poly_mul(f, f)


def test_linear_power_examples(fp):
    cube = linear_power((1, 0, 0, 0), 3, fp)
    assert _coeff(cube, (3, 0, 0, 0)) == 1
    assert sum(1 for c in cube.coeffs if c != 0) == 1
    sq = linear_power((1, 1, 0, 0), 2, fp)
    assert _coeff(sq, (1, 1, 0, 0)) == 2


def test_linear_power_multinomial_coefficients(fp):
    s = SeedStream(2)
    alpha = tuple(s.scalar(fp) for _ in range(4))
    d = 4
    p = linear_power(alpha, d, fp)
    for mono, c in _terms(p):
        expected = factorial(d)
        for e in mono:
            expected //= factorial(e)
        for a, e in zip(alpha, mono):
            expected = expected * pow(a, e, fp.p)
        assert c == expected % fp.p


def test_linear_power_matches_iterated_mul(fp):
    s = SeedStream(3)
    coeffs = tuple(s.scalar(fp) for _ in range(4))
    ell = linear_form(coeffs, fp)
    prod = ell
    for _ in range(3):
        prod = poly_mul(prod, ell)
    assert list(prod.coeffs) == list(linear_power(coeffs, 4, fp).coeffs)


def _multinomial_expansion(coeffs, d, field, grading):
    # d! / prod_i e_i! as an integer, reduced once, times prod_i c_i^e_i: one
    # monomial at a time
    vals = [field.normalize(c) for c in coeffs]
    out = zero_poly(grading, d, field)
    for j, mono in enumerate(graded_basis(grading, d)):
        multinomial = factorial(d)
        for e in mono:
            multinomial //= factorial(e)
        term = field.normalize(multinomial)
        for c, e in zip(vals, mono):
            term = field.mul(term, c**e)
        out.coeffs[j] = term
    return out


@pytest.mark.parametrize(
    "field",
    [PrimeField(), PrimeField(5), PrimeField(7), RationalField()],
    ids=["p2^31-1", "p5", "p7", "QQ"],
)
@pytest.mark.parametrize("grading", [TOTAL4, TOTAL3], ids=["total4", "total3"])
def test_linear_power_matches_multinomial_expansion(field, grading):
    # over F_5 and F_7 the powers d >= p have multinomials divisible by p,
    # and e! has no inverse there
    s = SeedStream(43)
    n = grading.nvars
    forms = [tuple(s.scalar(field) for _ in range(n)) for _ in range(3)]
    forms.append((0,) * (n - 1) + (s.scalar(field),))
    forms.append((s.scalar(field), 0) + (-1,) * (n - 2))
    for coeffs in forms:
        ell = linear_form(coeffs, field, grading)
        power = ell
        for d in range(1, 13):
            got = linear_power(coeffs, d, field, grading)
            expect = _multinomial_expansion(coeffs, d, field, grading)
            assert (got.grading, got.degree) == (grading, d)
            assert list(got.coeffs) == list(expect.coeffs), (coeffs, d)
            assert list(got.coeffs) == list(power.coeffs), (coeffs, d)
            if field.rational:
                assert all(type(x) is Fraction for x in got.coeffs)
            else:
                assert got.coeffs.dtype == np.int64
            power = poly_mul(power, ell)


def _loop_contraction_matrix(f, s):
    # one (alpha', beta) entry at a time: F_(alpha' + beta) times
    # prod_i falling(alpha'_i + beta_i, beta_i), as the matrix was first built
    field = f.field
    src = graded_basis(f.grading, s)
    dst = graded_basis(f.grading, f.degree - s)
    f_idx = basis_index(f.grading, f.degree)
    mat = field.zeros((len(dst), len(src)))
    for c, beta in enumerate(src):
        for r, alpha_p in enumerate(dst):
            alpha = tuple(x + y for x, y in zip(alpha_p, beta))
            fa = f.coeffs[f_idx[alpha]]
            if fa != 0:
                scal = 1
                for x, y in zip(alpha, beta):
                    scal *= perm(x, y)
                mat[r, c] = field.mul(fa, field.normalize(scal))
    return mat


@pytest.mark.parametrize(
    "field", [PrimeField(), PrimeField(31), RationalField()], ids=["p2^31-1", "p31", "QQ"]
)
@pytest.mark.parametrize("grading", [TOTAL4, TOTAL3], ids=["total4", "total3"])
def test_contraction_matrix_matches_entry_loop(field, grading):
    draws = SeedStream(47)
    for deg in range(7):
        f = zero_poly(grading, deg, field)
        for i in range(len(f.coeffs)):
            # about a third of the coefficients stay zero
            if draws.below(3):
                f.coeffs[i] = draws.scalar(field)
        for s in range(deg + 1):
            got = contraction_matrix(f, s)
            expect = _loop_contraction_matrix(f, s)
            assert got.dtype == expect.dtype and got.shape == expect.shape, (deg, s)
            assert np.array_equal(got, expect), (deg, s)
            if field.rational:
                assert all(type(x) is Fraction for x in got.ravel())


def _diff(f, g):
    # g applied to f as a differential operator: the contraction matrix of f
    # in degree deg g, times the coefficients of g
    mat = contraction_matrix(f, g.degree)
    coeffs = _matmul(mat, np.asarray(g.coeffs).reshape(-1, 1), f.field)[:, 0]
    return PolyVector(f.grading, f.degree - g.degree, coeffs, f.field)


def test_diff_simple_derivative(fp):
    x1sq = poly_from_terms(TOTAL4, 2, {(2, 0, 0, 0): 1}, fp)
    x1 = linear_form((1, 0, 0, 0), fp)
    assert _coeff(_diff(x1sq, x1), (1, 0, 0, 0)) == 2


def test_diff_detects_points_on_quadric(fp, grid33):
    # applying the square of a dual form to the quadric gives 0 exactly for
    # points on the quadric; Q(1, 2, 3, 4) = 4 - 6 = -2
    q = grid33.quadric()
    on = grid33.point(0, 0)
    off = (1, 2, 3, 4)
    assert not _diff(q, linear_power(on, 2, fp)).coeffs.any()
    assert _diff(q, linear_power(off, 2, fp)).coeffs.any()


def test_diff_operators_compose(fp):
    s = SeedStream(17)
    f = zero_poly(TOTAL4, 3, fp)
    for i in range(len(f.coeffs)):
        f.coeffs[i] = s.scalar(fp)
    g = linear_form(tuple(s.scalar(fp) for _ in range(4)), fp)
    h = linear_form(tuple(s.scalar(fp) for _ in range(4)), fp)
    lhs = _diff(f, poly_mul(g, h))
    rhs = _diff(_diff(f, g), h)
    assert list(lhs.coeffs) == list(rhs.coeffs)


def _naive_partial(poly, point, beta, fp):
    # independent oracle: direct term-by-term differentiation
    total = 0
    for mono, c in _terms(poly):
        scal = int(c)
        ok = True
        for e, b in zip(mono, beta):
            if e < b:
                ok = False
                break
            for i in range(b):
                scal *= e - i
        if not ok:
            continue
        for x, e, b in zip(point, mono, beta):
            scal *= pow(int(x), e - b, fp.p)
        total += scal
    return total % fp.p


def _partials_at_point(f, point, m):
    # the vanishing rows of one point applied to f: its chart partials of
    # order < m at the point
    rows = vanishing_rows(f.grading, f.degree, [point], m, f.field)
    return _matmul(rows, np.asarray(f.coeffs).reshape(-1, 1), f.field)[:, 0].tolist()


def test_partials_at_point_against_naive_oracle(fp, grid33):
    q = grid33.quadric()
    # P = (1,0,0,0) lies on the quadric; order-2 chart partials are the value
    # plus the three affine gradient entries
    vals = _partials_at_point(q, (1, 0, 0, 0), 2)
    assert vals == [0, 0, 0, 1]
    betas = [(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    naive = [_naive_partial(q, (1, 0, 0, 0), b, fp) for b in betas]
    assert vals == naive


def test_partials_counts(fp, grid33):
    q = grid33.quadric()
    for m in (1, 2, 3):
        vals = _partials_at_point(q, (1, 2, 3, 4), m)
        assert len(vals) == comb(m + 2, 3)
    assert _partials_at_point(q, grid33.point(1, 2), 1) == [0]


def test_contraction_full_rank_for_quadric_powers(fp, grid33):
    # the pairing against Q^t is perfect in complementary degree t
    q = grid33.quadric()
    qt = q
    for t in (1, 2, 3):
        mat = contraction_matrix(qt, t)
        assert rank(mat, fp) == mat.shape[1]
        qt = poly_mul(qt, q)


def _fall_pow_column(value, exps, b, field):
    # falling(e, b) * value^(e - b) for each e, zero when b > e
    return field.array(
        [field.mul(field.normalize(perm(e, b)), value ** (e - b)) if b <= e else field.zero
         for e in exps.tolist()]
    )


def _pointwise_rows(grading, degree, point, m, field):
    # one point and one partial at a time, one coordinate after another, as
    # the rows were first built
    exps = np.array(graded_basis(grading, degree), dtype=np.int64).reshape(-1, grading.nvars)
    if grading.kind == "total":
        pt = [field.normalize(c) for c in point]
        piv = next(i for i, c in enumerate(pt) if c != 0)
        active = [i for i in range(grading.nvars) if i != piv]
        betas = []
        for beta in condition_multiindices(grading.nvars - 1, m):
            full = [0] * grading.nvars
            for k, i in enumerate(active):
                full[i] = beta[k]
            betas.append(full)
    else:
        pt = [field.one, field.normalize(point[0]), field.one, field.normalize(point[1])]
        betas = [(0, i, 0, s - i) for s in range(m) for i in range(s + 1)]
    rows = field.zeros((len(betas), len(exps)))
    for r, beta in enumerate(betas):
        row = None
        for i in range(grading.nvars):
            col = _fall_pow_column(pt[i], exps[:, i], beta[i], field)
            row = col if row is None else field.mul(row, col)
        rows[r] = row
    return rows


@pytest.mark.parametrize(
    "field", [PrimeField(), PrimeField(10007), RationalField()], ids=["p31", "p10007", "qq"]
)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_vanishing_rows_matches_pointwise_build(field, m):
    grid = make_grid(2, 3, field, seed=SeedStream(23))
    grid_points = list(grid.points())
    cases = [
        (TOTAL4, grid_points, [-1, 0, 1, 2, 5]),
        (TOTAL3, [(1, 2, 3), (4, -1, 9), (-3, 0, 1)], [0, 1, 3]),
        (BIGRADED, list(grid.param_pairs()), [(-1, 2), (0, 0), (1, 0), (2, 1), (3, 3), (256, 0)]),
    ]
    for grading, points, degrees in cases:
        for degree in degrees:
            expect = np.vstack([_pointwise_rows(grading, degree, pt, m, field) for pt in points])
            got = vanishing_rows(grading, degree, points, m, field)
            assert got.dtype == expect.dtype and np.array_equal(got, expect), (grading, degree)
            if field.rational:
                assert all(type(x) is type(y) for x, y in zip(got.ravel(), expect.ravel()))


@pytest.mark.parametrize(
    "field, grading, points",
    [
        (PrimeField(), TOTAL4, [(1, 2, 3, 6), (0, 0, 3, 5), (0, 7, -2, 1), (0, 0, 0, 4)]),
        (PrimeField(), TOTAL3, [(1, 2, 3), (0, 1, 6), (0, 0, 1), (4, -1, 9)]),
        (PrimeField(7), TOTAL4, [(1, 1, 1, 1), (7, 1, 2, 3)]),
        (RationalField(), TOTAL4, [(0, 1, 1, 1)]),
    ],
    ids=["total4", "total3", "zero-mod-7", "qq"],
)
def test_vanishing_rows_refuses_points_off_the_chart(field, grading, points, monkeypatch):
    # the rows are taken in the chart x_1 = 1, where every grid point (1, v,
    # u, uv) lies; a point with x_1 = 0 is refused before any table is built
    monkeypatch.setattr(polyspace, "_chart_partials", None)
    with pytest.raises(ValueError, match="x_1 = 0"):
        vanishing_rows(grading, 2, points, 2, field)


def _slow_poly_mul(f, g):
    # the term-by-term convolution, one field operation at a time
    field = f.field
    deg = f.degree + g.degree
    out = zero_poly(f.grading, deg, field)
    idx = basis_index(f.grading, deg)
    for mono_f, cf in _terms(f):
        for mono_g, cg in _terms(g):
            j = idx[tuple(a + b for a, b in zip(mono_f, mono_g))]
            out.coeffs[j] = field.add(out.coeffs[j], field.mul(cf, cg))
    return out


@pytest.mark.parametrize(
    "field", [PrimeField(), PrimeField(31), RationalField()], ids=["p2^31-1", "p31", "QQ"]
)
@pytest.mark.parametrize(
    "grading, deg_f, deg_g",
    [
        (TOTAL3, 0, 3), (TOTAL3, 3, 4), (TOTAL3, 6, 6),
        (TOTAL4, 1, 1), (TOTAL4, 2, 5), (TOTAL4, 4, 4),
    ],
)
def test_poly_mul_matches_term_loop(field, grading, deg_f, deg_g):
    s = SeedStream(41)
    f, g = zero_poly(grading, deg_f, field), zero_poly(grading, deg_g, field)
    for k, poly in enumerate((f, g)):
        draws = s.child(k)
        for i in range(len(poly.coeffs)):
            # about a third of the coefficients stay zero
            if draws.below(3):
                poly.coeffs[i] = draws.scalar(field)
    prod = poly_mul(f, g)
    slow = _slow_poly_mul(f, g)
    assert (prod.grading, prod.degree) == (slow.grading, slow.degree)
    assert list(prod.coeffs) == list(slow.coeffs)
    if not field.rational:
        assert prod.coeffs.dtype == np.int64
        assert prod.coeffs.min(initial=0) >= 0 and prod.coeffs.max(initial=0) < field.p
