"""Dense exact linear algebra: rank, kernels, row-reduced spans.

Over F_p one kernel, ``_echelon``, computes the reduced row echelon form of
every matrix. Residues are stored as float64 so that BLAS does the products.
The kernel splits the rows in halves and echelonises the top half. Then it
reduces the bottom half against the top with one modular matmul, on the
non-pivot columns only, drops the rows that became zero, recurses on the
rest, and merges the two bases. Blocks of at most ``_BASE`` rows or columns
run a pivot loop in int64 instead. Each row reaches that loop only after it
has been reduced against every pivot found before it, so the loop runs
about once per unit of rank. The products split each factor into 16-bit
limbs, so every partial sum is an integer below 2^53 and exact (see
``_matmul_modp``).

Every F_p elimination reaches the kernel through one driver,
``_echelon_blocks``, which takes an iterable of integer row blocks and the
column count n: a tiled elimination in the manner of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 2008). It is one loop over pieces: each piece is
the residues of as many rows of the current block as a panel of
max(n, 2 * ``_BASE``) rows has room for, and then the loop moves on to the
rest of the block or pulls the next one. When the panel is full, or no
block is left, its pieces are stacked (one piece is the panel as it is),
reduced against the running RREF with one modular product, and the rest
of it is echelonised and merged in. Nothing is preallocated, so a panel
holds only the rows that arrived. No block is pulled once the rank is n.
``rank``, ``rref`` and ``pivot_columns`` hand it a matrix as one block, and
``kernel_basis`` is ``block_kernel`` of one block. The Hilbert table hands
``block_kernel`` its primal systems one generator block at a time and its
descent systems in row panels, so no whole system is built. Besides its
blocks, an elimination of m rows so holds O(min(m, max(n, 96)) * n)
floats: the panel, the running RREF and the copies of a merge, whose
modular products take the rows of their left factor in chunks of
``_CHUNK``. That is at most a function of n alone. The RREF and its pivots
are unique, so every output is byte-identical to the echelon of the whole
matrix.

Over the rationals, a fraction-free elimination on primitive integer rows
handles the small cross-check instances and is the oracle for the F_p
kernel.
"""

from __future__ import annotations

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

# Rows of the left factor that one limb product of _matmul_modp takes.
_CHUNK = 128


class DimensionCapError(RuntimeError):
    pass


def _check_cap(ncols: int):
    if ncols > COLUMN_CAP:
        raise DimensionCapError(
            f"ambient dimension {ncols} exceeds cap {COLUMN_CAP}"
        )


def _checked(matrix, reader: str) -> np.ndarray:
    """`matrix` as an array, after the checks every reader runs first: it is
    2-D, and its column count is within COLUMN_CAP."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"{reader} expects a 2-D matrix")
    _check_cap(a.shape[1])
    return a


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


def _matmul_modp(x, y, p: int, acc=None) -> np.ndarray:
    """Exact (x @ y) mod p of two residue matrices, as float64 residues;
    with `acc`, (acc - x @ y) mod p, written into acc.

    Each factor is split into 16-bit limbs, x = 2^16 x1 + x0 with x1 < 2^15
    (p < 2^31), and the four limb products are float64 BLAS matmuls.
    Horner's rule in 2^16 keeps every value below 2^47 + k * 2^32 < 2^53 for
    an inner dimension k < 2^20, so every sum BLAS forms is exact. The rows
    of x go through in chunks of ``_CHUNK``, each written to its rows of the
    output, so that the limbs of x and the products are never held whole.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    assert x.shape[1] < 2**20, "limb products would reach 2^53"
    out = np.empty((x.shape[0], y.shape[1])) if acc is None else acc
    y1, y0 = _limbs(y)
    for start in range(0, x.shape[0], _CHUNK):
        rows = slice(start, start + _CHUNK)
        x1, x0 = _limbs(x[rows])
        z = np.matmul(x1, y1, out=None if acc is not None else out[rows])
        _mod(z, p)
        z *= 2.0**16
        z += x1 @ y0
        z += x0 @ y1
        _mod(z, p)
        z *= 2.0**16
        z += x0 @ y0
        _mod(z, p)
        if acc is not None:
            a = acc[rows]
            a -= z
            np.add(a, p, out=a, where=a < 0)
    return out


def _limbs(x: np.ndarray):
    """(x1, x0) with x = 2^16 x1 + x0 and 0 <= x0 < 2^16, built in place."""
    x1 = x * 2.0**-16
    np.floor(x1, out=x1)
    x0 = x1 * -(2.0**16)
    x0 += x
    return x1, x0


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


def _complement(n: int, cols) -> np.ndarray:
    """The sorted columns of range(n) that are not in `cols`."""
    keep = np.ones(n, dtype=bool)
    keep[cols] = False
    return np.flatnonzero(keep)


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
    return _extend(top, tp, a[h:], p, reduced)


def _extend(top, tp, new, p: int, reduced: bool):
    """Echelon basis of the row space of an RREF (top, tp) and the float64
    residue rows `new`, as `_echelon` returns it.

    `new` is reduced against `top` with one modular product on the non-pivot
    columns, the rows that stay nonzero go through `_echelon`, and with
    `reduced` the rows of `top` are reduced against theirs in place. Each
    row is then written straight to its sorted place. `new` is not modified.
    """
    n = new.shape[1]
    free = _complement(n, tp)
    rest = new[:, free]
    if tp.size:
        # top[:, tp] is the identity, so this clears new[:, tp]
        _matmul_modp(new[:, tp], top[:, free], p, acc=rest)
    rest = rest[rest.any(axis=1)]
    if rest.shape[0] == 0:
        return top, tp
    bot, bp = _echelon(rest, p, reduced)
    del rest  # not needed by the merge, which is the peak of a reduced echelon
    bp = free[bp]
    if reduced:
        top[:, free] = _matmul_modp(top[:, bp], bot, p, acc=top[:, free])
    # tp and bp are sorted and disjoint: a row's place is its index plus the
    # number of pivots of the other side to its left
    rows = np.zeros((tp.size + bp.size, n))
    rows[np.arange(tp.size) + np.searchsorted(bp, tp)] = top
    rows[(np.arange(bp.size) + np.searchsorted(tp, bp))[:, None], free] = bot
    return rows, np.sort(np.concatenate([tp, bp]))


def _echelon_blocks(blocks, n: int, p: int, reduced: bool = True):
    """`_echelon` of the residues of the rows of integer row blocks with n
    columns, fed in row panels; the whole matrix is never built.

    Each step takes the residues of as many rows of the current block as
    the panel of max(n, 2 * _BASE) rows has room for, as one piece, and
    moves on to the rest of the block or pulls the next one. A full panel,
    or the last, is its pieces stacked (a single piece is not copied), and
    it is merged into the running RREF by `_extend`. No block is pulled
    once the rank is n. Every panel but the last is merged reduced, so that
    the next one can be reduced against it; when a panel ends on the end of
    a block, the next block is pulled to know whether the panel is the
    last, and its residues are taken only when it is reached. The RREF,
    and the pivots of any row echelon form, are unique, so they are those
    of `_echelon` on the residues of the stacked blocks.
    """
    step = max(n, 2 * _BASE)
    rows, piv = np.zeros((0, n)), np.zeros(0, dtype=np.int64)
    blocks = iter(blocks)
    block, pieces, fill = next(blocks, None), [], 0
    while block is not None and piv.size < n:
        take = step - fill
        pieces.append(_residues(block[:take], p))
        fill += pieces[-1].shape[0]
        block = block[take:] if block.shape[0] > take else next(blocks, None)
        if fill == step or block is None:
            panel = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            pieces, fill = [], 0
            # only the last panel may be merged unreduced
            red = reduced or block is not None
            if piv.size == 0:
                rows, piv = _echelon(panel, p, red)
            else:
                rows, piv = _extend(rows, piv, panel, p, red)
    return rows, piv


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


def pivot_columns(matrix, field) -> np.ndarray:
    """The sorted pivot columns of a row echelon form of `matrix`, after the
    column-cap guard. They are the first independent columns from the left,
    so the rank of the first c columns is the number of pivots below c."""
    a = _checked(matrix, "pivot_columns")
    if a.size == 0:
        return np.zeros(0, dtype=np.int64)
    if field.rational:
        return np.array(_echelon_frac(a, reduced=False)[1], dtype=np.int64)
    return _echelon_blocks([a], a.shape[1], field.p, reduced=False)[1]


def rank(matrix, field) -> int:
    """Row rank over the active field; deterministic."""
    # the columns as given: after a transpose, pivot_columns guards the rows
    a = _checked(matrix, "rank")
    m, n = a.shape
    if not field.rational and n > m > _BASE:
        # long side as rows, so that the driver can stop at full column rank
        a = a.T
    return pivot_columns(a, field).size


def rref(matrix, field):
    """Reduced row echelon form, after the column-cap guard; returns
    (nonzero rows, pivot columns)."""
    a = _checked(matrix, "rref")
    if a.size == 0:
        return a.reshape(0, a.shape[1]), []
    if field.rational:
        return _echelon_frac(a, reduced=True)
    rows, piv = _echelon_blocks([a], a.shape[1], field.p)
    return rows.astype(np.int64), piv.tolist()


def kernel_basis(matrix, field) -> np.ndarray:
    """RREF basis of the right kernel (rows are kernel vectors), after the
    column-cap guard: the kernel of a zero matrix is an n x n identity."""
    a = _checked(matrix, "kernel_basis")
    return block_kernel([a], a.shape[1], field)


def block_kernel(blocks, n: int, field) -> np.ndarray:
    """`kernel_basis` of the matrix that stacks integer row blocks with n
    columns each, after the column-cap guard. Over F_p the blocks are fed to
    `_echelon_blocks` one at a time, so the matrix is never built; over Q
    they are stacked for `_echelon_frac`."""
    _check_cap(n)
    if field.rational:
        blocks = list(blocks)
        a = np.concatenate(blocks) if blocks else field.zeros((0, n))
        rows, piv = rref(a, field)
    else:
        rows, piv = _echelon_blocks(blocks, n, field.p)
    free = _complement(n, piv)
    out = field.zeros((free.size, n))
    out[np.arange(free.size), free] = field.one
    rest = rows[:, free]
    if not field.rational:
        # the float RREF holds residues: only these columns become int64
        rest = rest.astype(np.int64)
    out[:, piv] = field.neg(rest).T
    return out


def _identity(n, field):
    out = field.zeros((n, n))
    np.fill_diagonal(out, field.one)
    return out
