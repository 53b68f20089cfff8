from math import comb

import pytest

from gridwlp import (
    NonSquareParams,
    SquareGridParams,
    coker_formula_geproci,
    compressed_gorenstein_hf,
    ext_binom,
    low_degree_ideal_dim,
    nonsquare_coker,
    square_coker_and_delta,
    wlp_verdict_theorem_a,
)


def test_ext_binom_clamps():
    assert ext_binom(4, 2) == 6
    assert ext_binom(-1, 2) == 0
    assert ext_binom(1, 2) == 0
    assert ext_binom(0, 0) == 1
    with pytest.raises(ValueError):
        ext_binom(3, -1)


def test_coker_formula_examples():
    assert coker_formula_geproci(3, 3, 3, 0) == 2
    assert coker_formula_geproci(3, 3, 4, 1) == 0
    assert coker_formula_geproci(3, 6, 5, 1) == 1
    # window violated -> not applicable
    assert coker_formula_geproci(3, 3, 6, 0) is None


def test_square_coker_and_delta_examples():
    coker, delta, below = square_coker_and_delta(SquareGridParams(3, 3))
    assert (coker, delta, below) == (2, 1, None)
    coker, delta, below = square_coker_and_delta(SquareGridParams(3, 4))
    assert (coker, delta, below) == (0, -6, 6)
    coker, delta, below = square_coker_and_delta(SquareGridParams(4, 6))
    assert (coker, delta, below) == (0, -12, 12)


def test_square_params_decomposition():
    p = SquareGridParams(5, 11)
    assert p.q == 2 and p.r == 3 and (5 - 1) * p.q + p.r == 11


def test_nonsquare_params_and_coker():
    p = NonSquareParams(3, 6, 5)
    assert p.qprime == 2 and p.rprime == 1
    assert p.q == 1 and p.r == 0 and p.q <= p.qprime
    assert nonsquare_coker(p) == 1
    p = NonSquareParams(2, 3, 2)
    assert p.qprime == 1 and p.rprime == 1
    assert nonsquare_coker(p) == 1
    # wide gap: only the i=0 term survives
    p = NonSquareParams(3, 9, 4)
    assert nonsquare_coker(p) == ext_binom(p.rprime + 1, 2)


def test_wlp_verdict_theorem_a():
    assert wlp_verdict_theorem_a(3, 4)
    assert not wlp_verdict_theorem_a(3, 3)
    assert wlp_verdict_theorem_a(5, 4)
    assert wlp_verdict_theorem_a(4, 6)
    assert not wlp_verdict_theorem_a(4, 7)
    with pytest.raises(ValueError):
        wlp_verdict_theorem_a(2, 3)


def test_low_degree_ideal_dim():
    assert low_degree_ideal_dim(3, 3, 4, 5) == 36
    assert low_degree_ideal_dim(3, 3, 4, 4) == 9
    assert low_degree_ideal_dim(3, 6, 5, 5) == 18
    assert low_degree_ideal_dim(3, 6, 5, 6) is None  # q = 1: window is t = 5


def test_compressed_gorenstein_tables():
    assert list(compressed_gorenstein_hf(1).values()) == [1, 4, 1, 0]
    assert list(compressed_gorenstein_hf(2).values()) == [1, 4, 10, 4, 1, 0]
    assert list(compressed_gorenstein_hf(3).values()) == [1, 4, 10, 20, 10, 4, 1, 0]


def test_square_coker_agrees_with_geproci_formula():
    for a in range(3, 7):
        for d in range(a - 1, 3 * (a - 1) + 1):
            p = SquareGridParams(a, d)
            if p.q < 1:
                continue
            expected = coker_formula_geproci(a, a, d, p.q - 1)
            assert expected is not None
            assert square_coker_and_delta(p)[0] == expected


def test_failure_inequality_for_positive_remainder():
    for a in range(3, 9):
        for d in range(a - 1, 4 * (a - 1) + 1):
            p = SquareGridParams(a, d)
            coker, delta, below = square_coker_and_delta(p)
            if p.r > 0:
                assert delta < coker
            else:
                assert coker == 0
                assert delta == -p.q * comb(a, 2) < 0
                assert below == p.q * comb(a, 2)
