"""Dense exact linear algebra: rank, kernels, row-reduced spans.

Over F_p one kernel, ``_echelon``, computes the reduced row echelon form of
every matrix. Residues are stored as float64 so that BLAS does the products.
The kernel splits the rows in halves and echelonises the top half. It stops
there if the top half already has full column rank. Otherwise it reduces the
bottom half against the top with one modular matmul, on the non-pivot
columns only, drops the rows that became zero, recurses on the rest, and
merges the two bases. Blocks of at most ``_BASE`` rows or columns run a
pivot loop in int64 instead. Each row reaches that loop only after it has
been reduced against every pivot found before it, so the loop runs about
once per unit of rank. The products split each factor into 16-bit limbs,
so every partial sum is an integer below 2^53 and exact (see
``_matmul_modp``).

Over the rationals, a fraction-free elimination on primitive integer rows
handles the small cross-check instances and is the oracle for the F_p
kernel.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

# Guards against accidental runaway degrees: exceeding the cap is an explicit
# error, never an OOM.
COLUMN_CAP = 20000

# Every modular product in this module has an inner dimension of at most the
# column count, and _matmul_modp is exact only below 2^20.
assert COLUMN_CAP < 2**20

# Blocks with at most this many rows or columns go to the pivot loop.
_BASE = 48


class DimensionCapError(RuntimeError):
    pass


class AmbientMismatchError(ValueError):
    pass


def _check_cap(ncols: int):
    if ncols > COLUMN_CAP:
        raise DimensionCapError(
            f"ambient dimension {ncols} exceeds cap {COLUMN_CAP}"
        )


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    numpy has no call for this, so the library is looked up in this
    process's memory map (Linux) under the symbol names of OpenBLAS builds:
    plain, with the ``64_`` suffix of 64-bit-integer builds, and with the
    ``scipy_`` prefix of the builds in numpy's wheels.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas{}64_", "openblas{}64_", "openblas{}"):
            get = getattr(lib, name.format("_get_num_threads"), None)
            put = getattr(lib, name.format("_set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def single_blas_thread():
    """Run the block with one thread per BLAS call, in this process and in
    every process forked inside it; the count is restored on exit.

    OpenBLAS workers spin after each call, so two processes that each run
    multithreaded BLAS on the same cores take CPU from each other's main
    thread. Where OpenBLAS is not found this does nothing.
    """
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _mod(z: np.ndarray, p: int) -> np.ndarray:
    """Reduce a float64 array of integers with |z| < 2^53 - p mod p, in place.

    floor(z * (1/p)) is within one of floor(z / p), and q * p stays an exact
    integer, so one correction each way gives the residue in [0, p).
    """
    q = z * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    z -= q
    np.add(z, p, out=z, where=z < 0)
    np.subtract(z, p, out=z, where=z >= p)
    return z


def _matmul_modp(x, y, p: int) -> np.ndarray:
    """Exact (x @ y) mod p of two residue matrices, as float64 residues.

    Each factor is split into 16-bit limbs, x = 2^16 x1 + x0 with x1 < 2^15
    (p < 2^31), and the four limb products are float64 BLAS matmuls.
    Horner's rule in 2^16 keeps every value below 2^47 + k * 2^32 < 2^53 for
    an inner dimension k < 2^20, so every sum BLAS forms is exact.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    assert x.shape[1] < 2**20, "limb products would reach 2^53"
    # each limb is made just before its first product and freed after its
    # last: the products of a top-level merge set the memory peak of an RREF
    x1 = np.floor(x * 2.0**-16)
    y1 = np.floor(y * 2.0**-16)
    z = _mod(x1 @ y1, p)
    z *= 2.0**16
    y0 = y - y1 * 2.0**16
    z += x1 @ y0
    x0 = x - x1 * 2.0**16
    del x1
    z += x0 @ y1
    del y1
    _mod(z, p)
    z *= 2.0**16
    z += x0 @ y0
    return _mod(z, p)


def _matmul(x, y, field) -> np.ndarray:
    """x @ y over the field: int64 residues over F_p, Fractions over Q."""
    if field.rational:
        return x @ y
    return _matmul_modp(x, y, field.p).astype(np.int64)


def _residues(matrix, p: int) -> np.ndarray:
    """Canonical residues of an integer matrix, as a C-ordered float64 copy."""
    a = np.asarray(matrix, dtype=np.int64)
    # negative entries read as >= 2^63 when viewed unsigned
    if a.size and a.view(np.uint64).max() >= p:
        a = a % p
    return a.astype(np.float64, order="C")


def _echelon(a: np.ndarray, p: int, reduced: bool = True):
    """Row echelon basis of the row space of a float64 residue matrix.

    Returns (rows, pivots): float64 rows with leading ones in the sorted
    pivot columns (an int64 array). The rows are the unique RREF when
    `reduced`; otherwise, which is enough for the rank, the pivot loop only
    clears below its pivots. `a` is not modified.
    """
    m, n = a.shape
    if min(m, n) <= _BASE:
        b = a.astype(np.int64)
        piv = []
        rr = 0
        for col in b.any(axis=0).nonzero()[0].tolist():
            nz = b[rr:, col].nonzero()[0]
            if nz.size == 0:
                continue
            i = rr + int(nz[0])
            if i != rr:
                b[[rr, i]] = b[[i, rr]]
            b[rr] = b[rr] * pow(int(b[rr, col]), -1, p) % p
            if reduced:
                others = b[:, col].nonzero()[0]
                others = others[others != rr]
            else:
                # the rows below rr that are nonzero in col: the swap only
                # moved row rr, which is zero there, down to row i
                others = nz[1:] + rr
            if others.size:
                sub = b[others]
                b[others] = (sub - sub[:, col, None] * b[rr]) % p
            piv.append(col)
            rr += 1
            if rr == m:
                break
        return b[:rr].astype(np.float64), np.array(piv, dtype=np.int64)
    h = m // 2
    top, tp = _echelon(a[:h], p)
    if tp.size == n:
        return top, tp
    free = np.setdiff1d(np.arange(n), tp)
    rest = a[h:, free]
    if tp.size:
        # top[:, tp] is the identity, so this clears rest[:, tp]
        rest = _mod(rest - _matmul_modp(a[h:, tp], top[:, free], p), p)
    rest = rest[rest.any(axis=1)]
    if rest.shape[0] == 0:
        return top, tp
    bot, bp = _echelon(rest, p, reduced)
    del rest  # not needed by the merge, which is the peak of a reduced echelon
    bp = free[bp]
    if reduced:
        top[:, free] = _mod(top[:, free] - _matmul_modp(top[:, bp], bot, p), p)
    rows = np.zeros((tp.size + bp.size, n))
    rows[: tp.size] = top
    rows[tp.size :, free] = bot
    piv = np.concatenate([tp, bp])
    order = np.argsort(piv)
    return rows[order], piv[order]


def _echelon_frac(a: np.ndarray, reduced: bool):
    """Row echelon basis of a rational matrix: (Fraction rows, pivot columns).

    Fraction-free: each row is scaled to coprime integers, and a step sets
    row_i = (p * row_i - f * pivot_row) / c, where p is the pivot, f the
    entry of row_i in the pivot column (p and f first divided by their gcd)
    and c the gcd of the new row. Rows with f = 0 are not touched, so sparse
    rows stay small, and every row stays a primitive integer vector.
    Rows are divided by their pivots only at the end. With `reduced` the
    rows are the RREF; otherwise only the rows below each pivot are cleared,
    as for the rank.
    """
    rows = []
    for row in np.asarray(a, dtype=object):
        row = [Fraction(v) for v in row]
        den = lcm(*(v.denominator for v in row))
        rows.append(_primitive([v.numerator * (den // v.denominator) for v in row]))
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols = []
    rr = 0
    for col in range(n):
        if rr == m:
            break
        sel = next((i for i in range(rr, m) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rr], rows[sel] = rows[sel], rows[rr]
        top = rows[rr]
        for i in range(0 if reduced else rr + 1, m):
            f = rows[i][col]
            if f and i != rr:
                g = gcd(top[col], f)
                p, f = top[col] // g, f // g
                rows[i] = _primitive([p * v - f * w for v, w in zip(rows[i], top)])
        piv_cols.append(col)
        rr += 1
    out = np.empty((rr, n), dtype=object)
    for i, col in enumerate(piv_cols):
        p = rows[i][col]
        out[i, :] = [Fraction(v, p) for v in rows[i]]
    return out, piv_cols


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    c = gcd(*row)
    return [v // c for v in row] if c > 1 else row


def rank(matrix, field) -> int:
    """Row rank over the active field; deterministic."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("rank expects a 2-D matrix")
    _check_cap(a.shape[1])
    if a.size == 0:
        return 0
    if field.rational:
        return _echelon_frac(a, reduced=False)[0].shape[0]
    m, n = a.shape
    if n > m > _BASE:
        # long side as rows, so that the kernel can stop at full column rank
        a = a.T
    return _echelon(_residues(a, field.p), field.p, reduced=False)[1].size


def kernel_dim(matrix, field) -> int:
    a = np.asarray(matrix)
    if a.size == 0:
        return a.shape[1] if a.ndim == 2 else 0
    return a.shape[1] - rank(a, field)


def rref(matrix, field):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    a = np.asarray(matrix)
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), []
    _check_cap(a.shape[1])
    if field.rational:
        return _echelon_frac(a, reduced=True)
    rows, piv = _echelon(_residues(a, field.p), field.p)
    return rows.astype(np.int64), piv.tolist()


def kernel_basis(matrix, field) -> np.ndarray:
    """RREF basis of the right kernel (rows are kernel vectors)."""
    a = np.asarray(matrix)
    n = a.shape[1]
    if a.size == 0 or not np.any(a != 0):
        return _identity(n, field)
    r, piv = rref(a, field)
    free = np.setdiff1d(np.arange(n), piv)
    out = field.zeros((free.size, n))
    out[np.arange(free.size), free] = field.one
    out[:, piv] = field.neg(r[:, free]).T
    return out


def _identity(n, field):
    out = field.zeros((n, n))
    for i in range(n):
        out[i, i] = field.one
    return out


@dataclass
class SubspaceBasis:
    """Row-reduced spanning set of a subspace of a graded piece."""

    ambient: tuple
    rref: np.ndarray
    dim: int


def subspace_from_rows(rows, ambient, field) -> SubspaceBasis:
    a = np.asarray(rows)
    if a.ndim != 2:
        a = a.reshape(0, 0)
    r, _ = rref(a, field) if a.size else (a.reshape(0, a.shape[1] if a.ndim == 2 else 0), [])
    return SubspaceBasis(ambient=ambient, rref=r, dim=r.shape[0])


def span_dim(polys, field=None) -> int:
    """Dimension of the linear span of a family of coefficient vectors."""
    if not polys:
        return 0
    first = polys[0]
    if hasattr(first, "coeffs"):
        fld = first.field
        key = (first.grading, first.degree)
        for q in polys:
            if (q.grading, q.degree) != key:
                raise AmbientMismatchError("span_dim: mixed gradings or degrees")
        mat = np.stack([np.asarray(q.coeffs) for q in polys])
        return rank(mat, fld)
    mat = np.stack([np.asarray(v) for v in polys])
    return rank(mat, field)


def union_dim(a: SubspaceBasis, b: SubspaceBasis, field) -> int:
    """dim(A + B) for two subspaces of the same ambient graded piece."""
    if a.ambient != b.ambient:
        raise AmbientMismatchError(f"ambient mismatch: {a.ambient} vs {b.ambient}")
    if a.dim == 0:
        return b.dim
    if b.dim == 0:
        return a.dim
    return rank(np.vstack([a.rref, b.rref]), field)


def intersection_dim(a: SubspaceBasis, b: SubspaceBasis, field) -> int:
    return a.dim + b.dim - union_dim(a, b, field)
