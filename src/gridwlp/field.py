"""Exact arithmetic substrate: prime fields, exact rationals, seeded randomness.

All linear algebra in this package runs over one of two coefficient fields:
a prime field F_p with p fitting in a machine word (fast path, numpy int64),
or the rationals via ``fractions.Fraction`` (slow cross-check path).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Mersenne prime 2^31 - 1: products of two canonical residues fit in int64.
DEFAULT_PRIME = 2147483647

# Rational mode draws integers in [1, RATIONAL_DRAW_MAX] so exact arithmetic
# stays bounded; it exists only as a cross-check on small instances.
RATIONAL_DRAW_MAX = 10**6


class FieldError(ArithmeticError):
    pass


class FieldDivisionError(FieldError):
    """Division by zero in a field operation (never a silent wrap)."""


class NotPrimeError(ValueError):
    pass


class PrimeTooSmallError(ValueError):
    """The modulus is too small for the requested grid to stay nondegenerate."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, 5 and 7. It is exact
    below 3215031751 = 151 * 751 * 28351, the least strong pseudoprime to
    all four (Pomerance, Selfridge and Wagstaff, Math. Comp. 1980), so for
    every p up to 2^31 - 1 that PrimeField accepts."""
    if n >= 3215031751:
        raise ValueError("is_prime is exact only below 3215031751")
    if n < 11:
        return n in (2, 3, 5, 7)
    s, q = 0, n - 1
    while q % 2 == 0:
        s, q = s + 1, q // 2
    for b in (2, 3, 5, 7):
        x = pow(b, q, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with canonical residues in [0, p)."""

    rational = False

    def __init__(self, p: int = DEFAULT_PRIME):
        if p > 2**31 - 1:
            raise NotPrimeError(f"p={p} too large: needs headroom for int64 products")
        if not is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def normalize(self, x) -> int:
        return int(x) % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        x = x % self.p
        if x == 0:
            raise FieldDivisionError("division by zero in F_p")
        return pow(x, -1, self.p)

    def div(self, x, y):
        return (x * self.inv(y)) % self.p

    def neg(self, x):
        return (-x) % self.p

    def array(self, data) -> np.ndarray:
        return np.asarray(data, dtype=np.int64) % self.p

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)


class RationalField:
    """Exact rationals; every value is a Fraction in lowest terms."""

    rational = True
    p = None

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def normalize(self, x) -> Fraction:
        return Fraction(x)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def div(self, x, y):
        if y == 0:
            raise FieldDivisionError("division by zero")
        return Fraction(x) / y

    def neg(self, x):
        return -x

    def array(self, data) -> np.ndarray:
        arr = np.empty_like(np.asarray(data, dtype=object), dtype=object)
        flat_src = np.asarray(data, dtype=object).ravel()
        flat = arr.ravel()
        for i, v in enumerate(flat_src):
            flat[i] = Fraction(v)
        return arr

    def zeros(self, shape) -> np.ndarray:
        arr = np.empty(shape, dtype=object)
        arr[...] = Fraction(0)
        return arr


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _fold_label(seed: int, label) -> int:
    # FNV-1a over the label bytes, folded into the seed.
    h = 0xCBF29CE484222325
    for b in repr(label).encode():
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return (seed ^ h) & _MASK64


class SeedStream:
    """splitmix64 stream; identical seed + labels -> identical draws anywhere.

    Child streams are derived from the root seed and a label path, never from
    the current position, so adding draws in one place does not perturb any
    other stream.
    """

    def __init__(self, seed: int, _labels: tuple = ()):
        self.seed = seed & _MASK64
        self.labels = _labels
        s = seed & _MASK64
        for lab in _labels:
            s = _fold_label(s, lab)
        self._state = _mix64(s ^ _GOLDEN)

    @classmethod
    def of(cls, seed) -> "SeedStream":
        """`seed` itself if it is a stream, else the root stream of that seed."""
        return seed if isinstance(seed, SeedStream) else cls(seed)

    def child(self, *labels) -> "SeedStream":
        return SeedStream(self.seed, self.labels + tuple(labels))

    def u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        # rejection sampling keeps the draw uniform
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.u64()
            if x < lim:
                return x % n

    def scalar(self, field):
        """Uniform nonzero field scalar (rational mode: integer in [1, 10^6])."""
        if field.rational:
            return Fraction(1 + self.below(RATIONAL_DRAW_MAX))
        return 1 + self.below(field.p - 1)

    def distinct_scalars(self, field, count: int):
        seen = []
        while len(seen) < count:
            x = self.scalar(field)
            if x not in seen:
                seen.append(x)
        return seen
