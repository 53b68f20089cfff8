from fractions import Fraction

import numpy as np
import pytest

from gridwlp import (
    DimensionCapError,
    PrimeField,
    SeedStream,
    kernel_basis,
    kernel_dim,
    linear_power,
    rank,
    span_dim,
    union_dim,
)
from gridwlp.linalg import (
    _echelon_frac,
    _matmul_modp,
    _mod,
    intersection_dim,
    rref,
    subspace_from_rows,
)


def _rng(seed):
    return np.random.default_rng(seed)


def test_rank_identity_and_zero(fp):
    assert rank(np.eye(5, dtype=np.int64), fp) == 5
    assert rank(np.zeros((3, 7), dtype=np.int64), fp) == 0
    assert kernel_dim(np.eye(4, dtype=np.int64), fp) == 0
    assert kernel_dim(np.zeros((3, 7), dtype=np.int64), fp) == 7


def test_nine_squares_plus_duplicate(fp, grid33):
    # the 9 squares of the dual forms of a 3x3 grid span a 9-dimensional
    # space in the 10-dimensional degree-2 piece; a duplicate row adds nothing
    rows = [linear_power(grid33.dual_form_coeffs(i, j), 2, fp).coeffs
            for i in range(3) for j in range(3)]
    rows.append(rows[0].copy())
    mat = np.stack(rows)
    assert mat.shape == (10, 10)
    assert rank(mat, fp) == 9


def test_span_of_collinear_power_families(fp):
    # points (1, c, 0, 0): duals on one line; d-th powers span min(count, d+1)
    s = SeedStream(31)
    cs = s.distinct_scalars(fp, 5)
    cubes = [linear_power((1, c, 0, 0), 3, fp) for c in cs]
    assert span_dim(cubes) == 4
    assert span_dim(cubes[:3]) == 3
    assert span_dim(cubes[:1]) == 1


def test_span_invariance_under_scaling_and_shuffle(fp):
    rng = _rng(0)
    vecs = [fp.array(rng.integers(0, fp.p, 12)) for _ in range(5)]
    base = rank(np.stack(vecs), fp)
    scaled = [v * 7 % fp.p for v in vecs]
    shuffled = [scaled[i] for i in (3, 1, 4, 0, 2)]
    assert rank(np.stack(shuffled), fp) == base


def test_rank_equals_rank_of_transpose(fp):
    rng = _rng(7)
    for _ in range(10):
        m, n, r = rng.integers(2, 40, 3)
        r = min(r, m, n)
        a = rng.integers(0, fp.p, (m, r))
        b = rng.integers(0, fp.p, (r, n))
        mat = _matmul_modp(a.astype(np.int64), b.astype(np.int64), fp.p)
        assert rank(mat, fp) == rank(mat.T, fp)


PRIMES = (2**31 - 1, 2, 3, 10007)


def _oracle_rref(mat, p):
    """Gauss-Jordan over F_p in Python integers: (RREF rows, pivot columns)."""
    a = np.array(mat, dtype=np.int64).astype(object) % p
    m, n = a.shape
    piv = []
    for c in range(n):
        r = len(piv)
        sel = next((i for i in range(r, m) if a[i, c] != 0), None)
        if sel is None:
            continue
        a[[r, sel]] = a[[sel, r]]
        # row r is zero left of c
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        for i in range(m):
            if i != r and a[i, c] != 0:
                a[i, c:] = (a[i, c:] - a[i, c] * a[r, c:]) % p
        piv.append(c)
    return a[: len(piv)].astype(np.int64), piv


def _low_rank(rng, m, n, r, p):
    if r == 0:
        return np.zeros((m, n), dtype=np.int64)
    a = rng.integers(0, p, (m, r))
    b = rng.integers(0, p, (r, n))
    return _matmul_modp(a, b, p).astype(np.int64)


def _kernel_cases(rng, p):
    """The 25 random shapes, then shapes that reach each branch of the
    kernel: tall full rank (the early stop), tall rank-deficient, wide, and
    zero and duplicate rows interleaved with the others."""
    for _ in range(25):
        m = int(rng.integers(1, 220))
        n = int(rng.integers(1, 220))
        yield _low_rank(rng, m, n, int(rng.integers(0, min(m, n) + 1)), p)
    yield rng.integers(0, p, (300, 60))
    yield _low_rank(rng, 300, 80, 70, p)
    yield _low_rank(rng, 60, 250, 55, p)
    yield rng.integers(0, p, (70, 200))
    base = _low_rank(rng, 120, 90, 50, p)
    mixed = np.zeros((360, 90), dtype=np.int64)
    mixed[0::3] = base
    mixed[1::3] = base[::-1]
    yield mixed


def test_blocked_engine_matches_reference():
    # rank and rref against an independent Python-integer elimination
    rng = _rng(12)
    for p in PRIMES:
        field = PrimeField(p)
        for mat in _kernel_cases(rng, p):
            expect_rows, expect_piv = _oracle_rref(mat, p)
            assert rank(mat, field) == len(expect_piv)
            rows, piv = rref(mat, field)
            assert piv == expect_piv
            assert rows.dtype == np.int64 and np.array_equal(rows, expect_rows)


def test_matmul_modp_exact_at_largest_inner_dimension(fp):
    # every entry p - 1: the largest value each limb product can reach
    k = 2**20 - 1
    x = np.full((1, k), fp.p - 1, dtype=np.float64)
    out = _matmul_modp(x, x.T, fp.p)
    assert out.shape == (1, 1) and int(out[0, 0]) == k * (fp.p - 1) ** 2 % fp.p
    with pytest.raises(AssertionError):
        _matmul_modp(np.zeros((1, 2**20)), np.zeros((2**20, 1)), fp.p)


def test_floor_reduction_near_two_to_the_53():
    for p in PRIMES:
        top = 2**53 - p
        ints = [*range(top - 4096, top), *range(-p + 1, -p + 64), *range(-64, 64), *range(p - 64, p)]
        z = _mod(np.array(ints, dtype=np.float64), p)
        assert z.tolist() == [float(v % p) for v in ints]


def test_matmul_modp_matches_object_arithmetic(fp):
    rng = _rng(3)
    x = rng.integers(0, fp.p, (17, 23)).astype(np.int64)
    y = rng.integers(0, fp.p, (23, 11)).astype(np.int64)
    exact = (x.astype(object) @ y.astype(object)) % fp.p
    assert np.array_equal(_matmul_modp(x, y, fp.p), exact.astype(np.int64))


def test_prime_and_rational_ranks_agree(fp, qq):
    rng = _rng(5)
    for _ in range(5):
        mat = rng.integers(-9, 9, (12, 9))
        assert rank(fp.array(mat), fp) == rank(qq.array(mat), qq)
        # unreduced input: negative entries and entries of p or more
        assert rank(mat, fp) == rank(mat + 3 * fp.p, fp) == rank(qq.array(mat), qq)
    # entries far below zero, through the recursive route
    tall = rng.integers(-9, 9, (70, 4)) @ rng.integers(-9, 9, (4, 60)) - (fp.p << 20)
    assert rank(tall, fp) == rank(fp.array(tall), fp)


def _fraction_echelon(a, reduced):
    """Gauss-Jordan in Fractions, the rational elimination before the
    fraction-free one: (Fraction rows, pivot columns)."""
    rows = [list(map(Fraction, row)) for row in np.asarray(a, dtype=object)]
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols = []
    rr = 0
    for col in range(n):
        if rr == m:
            break
        sel = next((i for i in range(rr, m) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[rr], rows[sel] = rows[sel], rows[rr]
        inv = 1 / rows[rr][col]
        rows[rr] = [v * inv for v in rows[rr]]
        for i in range(m) if reduced else range(rr + 1, m):
            if i != rr and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rr])]
        piv_cols.append(col)
        rr += 1
    out = np.empty((rr, n), dtype=object)
    for i in range(rr):
        out[i, :] = rows[i]
    return out, piv_cols


def _rational_cases(rng):
    """Empty, zero and one-column matrices, then random rank-deficient ones
    with small fractional entries and interleaved zero and duplicate rows."""
    yield np.empty((0, 4), dtype=object)
    yield np.zeros((3, 5), dtype=np.int64).astype(object)
    yield np.array([[0], [Fraction(-2, 3)], [5]], dtype=object)
    yield np.array([[0], [0]], dtype=object)
    yield np.array([[Fraction(7, 4)]], dtype=object)
    for _ in range(150):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        left = rng.integers(-4, 5, (m, r)).astype(object)
        right = np.array(
            [[Fraction(int(u), int(w)) for u, w in zip(nums, dens)]
             for nums, dens in zip(rng.integers(-6, 7, (r, n)), rng.integers(1, 5, (r, n)))],
            dtype=object,
        ).reshape(r, n)
        mat = left @ right if r else np.zeros((m, n), dtype=np.int64).astype(object)
        if m > 2:
            mat[1] = 0
            mat[2] = mat[0]
        yield mat


def test_fraction_free_elimination_matches_fraction_oracle():
    rng = _rng(14)
    for mat in _rational_cases(rng):
        for reduced in (True, False):
            expect_rows, expect_piv = _fraction_echelon(mat, reduced)
            rows, piv = _echelon_frac(mat, reduced)
            assert piv == expect_piv
            assert rows.shape == expect_rows.shape
            assert all(type(v) is Fraction for v in rows.flat)
            assert rows.tolist() == expect_rows.tolist()


def test_kernel_basis_is_in_kernel(fp, qq):
    rng = _rng(8)
    mat = rng.integers(0, fp.p, (6, 10)).astype(np.int64)
    ker = kernel_basis(mat, fp)
    assert ker.shape[0] == 10 - rank(mat, fp)
    prod = _matmul_modp(mat, ker.T % fp.p, fp.p)
    assert not prod.any()
    small = rng.integers(-5, 5, (2, 4)) @ rng.integers(-5, 5, (4, 9))
    ker_q = kernel_basis(qq.array(small), qq)
    assert ker_q.shape[0] == 9 - rank(qq.array(small), qq)
    assert not (qq.array(small) @ ker_q.T).any()


def test_union_and_intersection(fp):
    ambient = ("demo", 10)
    rows_a = np.zeros((3, 10), dtype=np.int64)
    rows_a[0, 0] = rows_a[1, 1] = rows_a[2, 2] = 1
    rows_b = np.zeros((4, 10), dtype=np.int64)
    for i in range(4):
        rows_b[i, 3 + i] = 1
    a = subspace_from_rows(rows_a, ambient, fp)
    b = subspace_from_rows(rows_b, ambient, fp)
    assert union_dim(a, b, fp) == 7
    assert union_dim(a, a, fp) == 3
    assert intersection_dim(a, b, fp) == 0


def test_union_formula_cross_checked_by_kernel(fp):
    # dim(A cap B) two ways: rank arithmetic vs kernel of [A^T | -B^T]
    rng = _rng(21)
    for _ in range(8):
        a_rows = rng.integers(0, fp.p, (4, 8)).astype(np.int64)
        b_rows = np.vstack([a_rows[:2], rng.integers(0, fp.p, (3, 8)).astype(np.int64)])
        a = subspace_from_rows(a_rows, ("x", 8), fp)
        b = subspace_from_rows(b_rows, ("x", 8), fp)
        inter = intersection_dim(a, b, fp)
        stacked = np.hstack([a_rows.T, (-b_rows.T) % fp.p])
        k = kernel_dim(stacked, fp)
        ra, rb = rank(a_rows, fp), rank(b_rows, fp)
        assert inter == k - (a_rows.shape[0] - ra) - (b_rows.shape[0] - rb)


def test_ambient_mismatch_rejected(fp):
    a = subspace_from_rows(np.eye(3, dtype=np.int64), ("x", 3), fp)
    b = subspace_from_rows(np.eye(4, dtype=np.int64), ("y", 4), fp)
    with pytest.raises(ValueError):
        union_dim(a, b, fp)


def test_dimension_cap_guard(fp):
    with pytest.raises(DimensionCapError):
        rank(np.zeros((2, 20001), dtype=np.int64), fp)


def test_rref_pivots_are_unit_columns(fp):
    rng = _rng(4)
    mat = rng.integers(0, fp.p, (8, 12)).astype(np.int64)
    r, piv = rref(mat, fp)
    for i, pc in enumerate(piv):
        col = r[:, pc]
        assert col[i] == 1 and np.count_nonzero(col) == 1
