from bisect import bisect_right
from fractions import Fraction
from math import isqrt

import pytest

from gridwlp import (
    FieldDivisionError,
    NotPrimeError,
    PrimeField,
    RationalField,
    SeedStream,
)
from gridwlp.field import RATIONAL_DRAW_MAX, is_prime


def test_mod7_examples():
    f = PrimeField(7)
    assert f.div(1, 2) == 4  # 2*4 = 1 mod 7
    assert f.add(3, 5) == 1
    assert f.mul(3, 5) == 1
    assert f.sub(3, 5) == 5


def test_rational_division_exact():
    f = RationalField()
    assert f.div(f.one, f.normalize(3)) == Fraction(1, 3)


def test_division_by_zero_is_explicit():
    f = PrimeField(7)
    with pytest.raises(FieldDivisionError):
        f.div(1, 0)
    with pytest.raises(FieldDivisionError):
        RationalField().div(1, 0)


def test_inverse_property_random():
    f = PrimeField()
    s = SeedStream(42)
    for _ in range(50):
        x = s.scalar(f)
        assert f.mul(x, f.inv(x)) == 1


def test_prime_validation():
    with pytest.raises(NotPrimeError):
        PrimeField(91)  # 7 * 13
    with pytest.raises(NotPrimeError):
        PrimeField(2**31 + 11)
    assert is_prime(2147483647)
    assert not is_prime(1)


def _primes_by_trial_division(top):
    # each n is divided by the primes up to its square root found so far
    primes = []
    for n in range(2, top + 1):
        if all(n % f for f in primes[: bisect_right(primes, isqrt(n))]):
            primes.append(n)
    return primes


def test_is_prime_matches_trial_division():
    assert [n for n in range(100_001) if is_prime(n)] == _primes_by_trial_division(100_000)
    assert is_prime(2**31 - 1)
    # the least strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5
    assert 2047 == 23 * 89 and 1373653 == 829 * 1657 and 25326001 == 2251 * 11251
    for n in (2047, 1373653, 25326001):
        assert not is_prime(n)
    with pytest.raises(ValueError):
        is_prime(3215031751)


def test_same_seed_same_sequence():
    a = SeedStream(123).child("x")
    b = SeedStream(123).child("x")
    f = PrimeField()
    assert [a.scalar(f) for _ in range(8)] == [b.scalar(f) for _ in range(8)]


def test_distinct_seeds_differ_early():
    f = PrimeField()
    a = SeedStream(1)
    b = SeedStream(2)
    assert [a.scalar(f) for _ in range(4)] != [b.scalar(f) for _ in range(4)]


def test_child_streams_independent_of_draw_order():
    root = SeedStream(7)
    before = root.child("sub").u64()
    root2 = SeedStream(7)
    root2.u64()  # extra draw on the parent must not shift the child
    after = root2.child("sub").u64()
    assert before == after


def test_rational_draws_bounded():
    f = RationalField()
    s = SeedStream(9)
    for _ in range(20):
        x = s.scalar(f)
        assert 1 <= x <= RATIONAL_DRAW_MAX
        assert x.denominator == 1


def test_scalar_never_zero():
    f = PrimeField(5)
    s = SeedStream(3)
    assert all(s.scalar(f) != 0 for _ in range(200))
