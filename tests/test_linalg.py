import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gridwlp import (
    DimensionCapError,
    PrimeField,
    RationalField,
    SeedStream,
    kernel_basis,
    linalg,
    linear_power,
    rank,
)
from gridwlp.linalg import (
    _echelon,
    _echelon_blocks,
    _echelon_frac,
    _matmul_modp,
    _mod,
    _residues,
    block_kernel,
    pivot_columns,
    rref,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "gridwlp"


def _rng(seed):
    return np.random.default_rng(seed)


def test_rank_identity_and_zero(fp):
    assert rank(np.eye(5, dtype=np.int64), fp) == 5
    assert rank(np.zeros((3, 7), dtype=np.int64), fp) == 0
    assert kernel_basis(np.eye(4, dtype=np.int64), fp).shape == (0, 4)
    assert np.array_equal(kernel_basis(np.zeros((3, 7), dtype=np.int64), fp), np.eye(7))


def test_nine_squares_plus_duplicate(fp, grid33):
    # the 9 squares of the dual forms of a 3x3 grid span a 9-dimensional
    # space in the 10-dimensional degree-2 piece; a duplicate row adds nothing
    rows = [linear_power(grid33.point(i, j), 2, fp).coeffs
            for i in range(3) for j in range(3)]
    rows.append(rows[0].copy())
    mat = np.stack(rows)
    assert mat.shape == (10, 10)
    assert rank(mat, fp) == 9


def test_span_of_collinear_power_families(fp):
    # points (1, c, 0, 0): duals on one line; d-th powers span min(count, d+1)
    s = SeedStream(31)
    cs = s.distinct_scalars(fp, 5)
    cubes = np.stack([linear_power((1, c, 0, 0), 3, fp).coeffs for c in cs])
    assert rank(cubes, fp) == 4
    assert rank(cubes[:3], fp) == 3
    assert rank(cubes[:1], fp) == 1


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


def _oracle_rref(mat, p, dtype=np.int64):
    """Gauss-Jordan over F_p: (RREF rows, pivot columns). In int64 it is
    exact for p < 2^31: each product of residues is below 2^62, and each
    difference above -2^62. dtype=object runs it on Python integers."""
    a = np.array(mat, dtype=np.int64).astype(dtype) % p
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
    # rank and rref against an independent Gauss-Jordan elimination, on
    # Python integers for the largest prime, where int64 products come
    # closest to overflow, and in int64 for the others
    rng = _rng(12)
    for p in PRIMES:
        field = PrimeField(p)
        for mat in _kernel_cases(rng, p):
            expect_rows, expect_piv = _oracle_rref(mat, p, object if p == PRIMES[0] else np.int64)
            assert rank(mat, field) == len(expect_piv)
            rows, piv = rref(mat, field)
            assert piv == expect_piv
            assert rows.dtype == np.int64 and np.array_equal(rows, expect_rows)


def _panel_cases(rng, p):
    """Tall matrices that the row panels (max(n, 96) rows each) split:
    several panels of deficient rank, a second panel that reduces to zero,
    full column rank in the first panel, and zero rows, whole panels of
    them included."""
    yield _low_rank(rng, 700, 90, 60, p)
    head = _low_rank(rng, 96, 70, 40, p)
    echo = _matmul_modp(rng.integers(0, p, (96, 96)), head, p).astype(np.int64)
    yield np.vstack([head, echo, _low_rank(rng, 150, 70, 65, p)])
    yield rng.integers(0, p, (2020, 4))
    yield _low_rank(rng, 500, 120, 120, p)
    yield np.zeros((300, 60), dtype=np.int64)
    zeros = np.zeros((600, 50), dtype=np.int64)
    zeros[250:400:3] = _low_rank(rng, 50, 50, 30, p)
    yield zeros


@pytest.mark.parametrize("p", PRIMES)
def test_row_panels_match_one_whole_matrix_echelon(p):
    # RREF rows and pivots are unique, so feeding the rows in panels leaves
    # every output byte-identical to the echelon of the whole matrix
    field = PrimeField(p)
    for mat in _panel_cases(_rng(17), p):
        whole = _residues(mat, p)
        rows, piv = _echelon(whole, p, True)
        got_rows, got_piv = rref(mat, field)
        assert got_rows.tobytes() == rows.astype(np.int64).tobytes()
        assert got_piv == piv.tolist()
        unreduced = _echelon(whole, p, False)[1]
        assert pivot_columns(mat, field).tobytes() == unreduced.tobytes()
        assert rank(mat, field) == unreduced.size


@pytest.mark.parametrize("p", PRIMES)
def test_rank_of_a_wide_matrix_matches_its_transposed_echelon(p):
    # 600 x 150 after the transpose: four panels of 150 rows
    field = PrimeField(p)
    rng = _rng(18)
    for r in (0, 1, 120, 150):
        mat = _low_rank(rng, 150, 600, r, p)
        transposed = _echelon(_residues(mat.T, p), p, False)[1].size
        assert rank(mat, field) == transposed == _echelon(_residues(mat, p), p, False)[1].size


def test_row_panels_stop_at_full_column_rank(fp, monkeypatch):
    # the 2020 x 4 systems of the d = 10 sweep: rank 4 in the first panel,
    # so no other panel becomes residues
    seen = []

    def counted(matrix, p):
        seen.append(matrix.shape)
        return _residues(matrix, p)

    monkeypatch.setattr(linalg, "_residues", counted)
    mat = _rng(19).integers(0, fp.p, (2020, 4))
    for entry in (rank, rref, kernel_basis):
        seen.clear()
        entry(mat, fp)
        assert seen == [(96, 4)], entry.__name__


def _split(mat, sizes):
    """The rows of `mat` as blocks of the given sizes, zero-row blocks
    included; the last block takes the rows that are left."""
    cuts = np.cumsum(sizes)
    return [mat[a:b] for a, b in zip(np.concatenate([[0], cuts]), np.append(cuts, len(mat)))]


def _block_cases(rng, p):
    """(matrix, block sizes): blocks that straddle the panels of max(n, 96)
    rows, zero-row blocks among them, blocks longer than a panel, a first
    block shorter than a panel, so that a panel is stacked from pieces, and
    narrow matrices (n <= 48)."""
    yield _low_rank(rng, 400, 150, 120, p), [35] * 11
    yield _low_rank(rng, 735, 120, 100, p), [0, 35, 0, 0, 200, 1, 96, 0]
    yield rng.integers(0, p, (300, 70)), [95, 2, 0, 96, 50]
    yield _low_rank(rng, 500, 32, 31, p), [40] * 12
    yield _low_rank(rng, 260, 4, 3, p), [96, 0, 96]
    yield np.zeros((200, 60), dtype=np.int64), [50, 50, 50]
    yield _low_rank(rng, 90, 200, 60, p), [30, 30]


@pytest.mark.parametrize("p", PRIMES)
def test_block_fed_echelon_matches_one_whole_matrix_echelon(p):
    # RREF rows and pivots are unique, so any split into blocks gives the
    # bytes of the echelon of the stacked matrix, and so does the kernel
    field = PrimeField(p)
    for mat, sizes in _block_cases(_rng(21), p):
        n = mat.shape[1]
        rows, piv = _echelon(_residues(mat, p), p, True)
        got_rows, got_piv = _echelon_blocks(iter(_split(mat, sizes)), n, p)
        assert got_rows.tobytes() == rows.tobytes() and got_piv.tobytes() == piv.tobytes()
        unreduced = _echelon_blocks(iter(_split(mat, sizes)), n, p, False)[1]
        assert unreduced.tobytes() == _echelon(_residues(mat, p), p, False)[1].tobytes()
        kernel = block_kernel(iter(_split(mat, sizes)), n, field)
        assert kernel.dtype == np.int64
        assert kernel.tobytes() == kernel_basis(mat, field).tobytes()


def test_block_fed_echelon_of_no_rows(fp, qq):
    # an empty iterator, or only zero-row blocks: rank 0, and the kernel is
    # the identity in both fields
    for blocks in ((), [np.zeros((0, 7), dtype=np.int64)] * 3):
        rows, piv = _echelon_blocks(iter(blocks), 7, fp.p)
        assert rows.shape == (0, 7) and piv.size == 0
        for field in (fp, qq):
            kernel = block_kernel(iter(blocks), 7, field)
            assert np.array_equal(kernel, linalg._identity(7, field))


def test_block_fed_kernel_over_the_rationals(qq):
    # over Q the blocks are stacked for the fraction-free elimination
    rng = _rng(22)
    mat = rng.integers(-5, 6, (9, 6)).astype(object)
    mat[:, 2] = mat[:, 0] - 2 * mat[:, 1]
    want = kernel_basis(mat, qq)
    got = block_kernel(iter(_split(mat, [4, 0, 3])), 6, qq)
    assert got.shape == (1, 6) and np.array_equal(got, want)


def test_blocks_are_not_pulled_once_the_rank_is_n(fp, monkeypatch):
    # full-rank blocks: the first panel (96 rows) reaches rank n. With
    # 40-row blocks it ends inside the third block, and neither a fourth
    # block nor the residues of the rest of the third are taken. With
    # 48-row blocks it ends on the end of the second, and the third is
    # pulled only to know that the panel is not the last
    seen = []

    def counted(matrix, p):
        seen.append(matrix.shape[0])
        return _residues(matrix, p)

    monkeypatch.setattr(linalg, "_residues", counted)
    rng = _rng(23)
    for n in (4, 60):
        for size, residues in ((40, [40, 40, 16]), (48, [48, 48])):
            pulled = []
            seen.clear()

            def blocks():
                for k in range(10):
                    pulled.append(k)
                    yield rng.integers(0, fp.p, (size, n))

            rows, piv = _echelon_blocks(blocks(), n, fp.p)
            assert piv.tolist() == list(range(n)), (n, size)
            assert pulled == [0, 1, 2] and seen == residues, (n, size)


def test_block_fed_kernel_checks_the_cap_before_the_first_block(fp, monkeypatch):
    def no_blocks():
        raise AssertionError("block pulled before the cap guard")
        yield

    monkeypatch.setattr(linalg, "COLUMN_CAP", 30)
    with pytest.raises(DimensionCapError):
        block_kernel(no_blocks(), 31, fp)


def test_transient_memory_stays_below_the_input(fp):
    # whatever the row count, an elimination holds O(max(n, 96) * n) floats
    # besides its input; a whole-matrix float64 copy alone is the input's size
    mat = _low_rank(_rng(20), 3000, 200, 150, fp.p)
    for entry in (rank, rref, kernel_basis):
        tracemalloc.start()
        try:
            entry(mat, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mat.nbytes, (entry.__name__, peak)


def test_transient_memory_of_a_wide_matrix_follows_its_rows(fp):
    # a matrix fed as one block sizes the panel by its rows: 10 x 5000 must
    # not reserve a panel of max(n, 96) = 5000 rows, which is 200 MB. The
    # pivot loop's row copies are a few times the input (5.2x measured)
    mat = _rng(24).integers(0, fp.p, (10, 5000))
    for entry in (rank, rref, pivot_columns):
        tracemalloc.start()
        try:
            entry(mat, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * mat.nbytes, (entry.__name__, peak)


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


_LOAD_PROBE = """
import ctypes, json, os, sys
{pre}
environ = dict(os.environ)

def threads():
    # the pool size of the OpenBLAS in this process, or None where none is
    # found; the library is looked up in the memory map (Linux)
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({{ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1]}})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None

before = threads() if "numpy" in sys.modules else None
import gridwlp
print(json.dumps([before, threads(), dict(os.environ) == environ]))
"""


def _import_probe(pre="", **env):
    """[count before, count after `import gridwlp`, environment unchanged]
    in a fresh interpreter; the count before is read only when `pre` loads
    numpy."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=str(SRC.parent))
    code = _LOAD_PROBE.format(pre=pre)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_loads_with_one_blas_thread_under_the_package():
    before, after, kept = _import_probe()
    if after is None:
        pytest.skip("OpenBLAS not found")
    # numpy not loaded yet: its pool starts with one thread, and the
    # variable is gone again
    assert [before, after, kept] == [None, 1, True]
    # numpy loaded first: its count is left alone
    before, after, kept = _import_probe("import numpy")
    assert before == after and kept
    # a count the caller chose is respected
    if len(os.sched_getaffinity(0)) >= 2:
        assert _import_probe(OPENBLAS_NUM_THREADS="2") == [None, 2, True]


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


def _with_repeats(mat):
    """The matrix with a zero column and a repeated one, so that pivots skip."""
    mat = mat.copy()
    mat[:, 1] = 0
    mat[:, -1] = mat[:, 0]
    return mat


@pytest.mark.parametrize("p", [2**31 - 1, 10007, None], ids=["p31", "p10007", "qq"])
def test_pivots_below_c_are_the_rank_of_the_first_c_columns(p):
    # rank of a prefix transposes it once it is wide: another elimination
    rng = _rng(16)
    if p is None:
        field = RationalField()
        mats = [rng.integers(-4, 5, (m, r)) @ rng.integers(-4, 5, (r, n)) for m, n, r in
                ((9, 12, 4), (6, 5, 3), (4, 10, 4))]
        mats = [field.array(mat) for mat in mats]
    else:
        field = PrimeField(p)
        mats = [_low_rank(rng, m, n, r, p) for m, n, r in
                ((20, 30, 7), (120, 90, 50), (60, 200, 55), (200, 70, 40), (90, 160, 90))]
    for mat in map(_with_repeats, mats):
        piv = pivot_columns(mat, field)
        assert np.all(np.diff(piv) > 0) and piv.size == rank(mat, field) < mat.shape[1]
        for c in range(mat.shape[1] + 1):
            assert np.searchsorted(piv, c) == rank(mat[:, :c], field), c
    assert pivot_columns(np.zeros((0, 5), dtype=np.int64), field).size == 0
    assert pivot_columns(np.zeros((3, 0), dtype=np.int64), field).size == 0


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


def test_dimension_cap_guard(fp, monkeypatch):
    with pytest.raises(DimensionCapError):
        rank(np.zeros((2, 20001), dtype=np.int64), fp)
    # the kernel of a zero matrix is an n x n identity: refused before it is built
    monkeypatch.setattr(linalg, "COLUMN_CAP", 30)
    for shape in ((1, 31), (0, 31)):
        with pytest.raises(DimensionCapError):
            kernel_basis(np.zeros(shape, dtype=np.int64), fp)
    assert kernel_basis(np.zeros((1, 30), dtype=np.int64), fp).shape == (30, 30)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()], ids=["fp", "qq"])
def test_every_reader_checks_its_input_first(field, monkeypatch):
    # rank, pivot_columns, rref and kernel_basis run one check before any
    # work: a 2-D matrix, with no more columns than the cap, even with no rows
    monkeypatch.setattr(linalg, "COLUMN_CAP", 30)
    for reader in (rank, pivot_columns, rref, kernel_basis):
        for vector in (np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64)):
            with pytest.raises(ValueError, match=f"{reader.__name__} expects a 2-D matrix"):
                reader(vector, field)
        for shape in ((0, 31), (2, 31)):
            with pytest.raises(DimensionCapError):
                reader(field.zeros(shape), field)
        reader(field.zeros((2, 30)), field)


def test_rank_checks_the_cap_on_the_columns_it_is_given(fp, monkeypatch):
    # a wide matrix is transposed before its echelon, whose own guard then
    # reads the rows: rank guards the columns of the matrix as given
    monkeypatch.setattr(linalg, "COLUMN_CAP", 60)
    with pytest.raises(DimensionCapError):
        rank(np.zeros((49, 61), dtype=np.int64), fp)
    assert rank(np.zeros((49, 60), dtype=np.int64), fp) == 0


def test_rref_pivots_are_unit_columns(fp):
    rng = _rng(4)
    mat = rng.integers(0, fp.p, (8, 12)).astype(np.int64)
    r, piv = rref(mat, fp)
    for i, pc in enumerate(piv):
        col = r[:, pc]
        assert col[i] == 1 and np.count_nonzero(col) == 1
