"""Closed-form predictions: cokernel dimensions, Hilbert-function deltas,
Weak Lefschetz verdicts, compressed Gorenstein Hilbert functions.

Every binomial goes through ext_binom, which clamps to 0 whenever the top
drops below the bottom; that is the only consistent reading of the sums
whose tops go negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


def ext_binom(n: int, k: int) -> int:
    """C(n, k) for n >= k >= 0, else 0 (including negative n)."""
    if k < 0:
        raise ValueError("ext_binom needs k >= 0")
    if n < k:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class SquareGridParams:
    """d = (a-1) q + r with 0 <= r < a-1."""

    a: int
    d: int

    def __post_init__(self):
        if self.a < 3:
            raise ValueError("square-grid analysis assumes a >= 3")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def q(self) -> int:
        return self.d // (self.a - 1)

    @property
    def r(self) -> int:
        return self.d % (self.a - 1)


@dataclass(frozen=True)
class NonSquareParams:
    """d = (a-1) q' + r' with q' >= 1, 1 <= r' <= a-1, plus the decomposition
    d = (b-1) q + r with 0 <= r < b-1."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        if not (self.b > self.a >= 2):
            raise ValueError("nonsquare analysis needs b > a >= 2")
        if self.d < self.a:
            raise ValueError("nonsquare analysis needs d >= a")

    @property
    def qprime(self) -> int:
        return (self.d - 1) // (self.a - 1)

    @property
    def rprime(self) -> int:
        return self.d - (self.a - 1) * self.qprime

    @property
    def q(self) -> int:
        return self.d // (self.b - 1)

    @property
    def r(self) -> int:
        return self.d % (self.b - 1)


def coker_formula_geproci(a: int, b: int, d: int, t: int):
    """Predicted coker dimension of x ell : A_(d+t-1) -> A_(d+t) for the
    powers ideal of an (a,b)-grid; None when the no-syzygy window condition
    a(t+1)+b > d+t does not hold."""
    if a * (t + 1) + b <= d + t:
        return None
    return sum(
        ext_binom(d + t + 2 - a * (t + 1) - (b - a) * i, 2) for i in range(t + 2)
    )


def square_coker_and_delta(p: SquareGridParams):
    """(coker, delta-h at the critical degree, delta-h one below for r = 0).

    coker is for x ell : A_(d+q-2) -> A_(d+q-1); the critical delta is
    Delta h_A(d+q-1) = (2aqr + aq + r^2 + r - a^2 q) / 2; when r = 0 the
    value of Delta h_A(d+q-2) is q*C(a,2).
    """
    a, d = p.a, p.d
    if d < a - 1:
        raise ValueError("needs d >= a-1 so that q >= 1")
    q, r = p.q, p.r
    coker = (q + 1) * ext_binom(r + 1, 2)
    num = 2 * a * q * r + a * q + r * r + r - a * a * q
    assert num % 2 == 0
    delta_crit = num // 2
    delta_below = q * comb(a, 2) if r == 0 else None
    return coker, delta_crit, delta_below


def nonsquare_coker(p: NonSquareParams) -> int:
    """Predicted coker of x ell : A_(d+q'-2) -> A_(d+q'-1) for b > a."""
    return sum(
        ext_binom(p.rprime + 1 - (p.b - p.a) * i, 2) for i in range(p.qprime + 1)
    )


def wlp_verdict_theorem_a(a: int, d: int) -> bool:
    """WLP for the a x a grid powers ideal: d <= a-1 or (a-1) | d."""
    if a < 3:
        raise ValueError("the square-grid dichotomy assumes a >= 3")
    if d < 1:
        raise ValueError("d must be >= 1")
    return d <= a - 1 or d % (a - 1) == 0


def low_degree_ideal_dim(a: int, b: int, d: int, t: int):
    """ab * C(t-d+3, 3) inside the no-new-syzygy window d <= t <= d+q-1,
    where d = (b-1) q + r; None outside the window."""
    if d < b - 1:
        raise ValueError("needs d >= b-1 so that q >= 1")
    q = d // (b - 1)
    if not (d <= t <= d + q - 1):
        return None
    return a * b * ext_binom(t - d + 3, 3)


def compressed_gorenstein_hf(t: int) -> dict:
    """{s: h_s} for s = 0..2t+1, the Hilbert function of the compressed
    Gorenstein quotient with socle degree 2t in four variables: h_s =
    min(dim R_s, dim R_(2t-s)), and 0 past 2t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return {
        s: min(comb(s + 3, 3), ext_binom(2 * t - s + 3, 3))
        for s in range(0, 2 * t + 2)
    }
