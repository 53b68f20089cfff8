from math import comb

import pytest

from gridwlp import (
    PowersHilbertTable,
    SeedStream,
    best_maps,
    ci_power_dim_formula,
    coker_formula_geproci,
    compressed_gorenstein_hf,
    ext_binom,
    low_degree_ideal_dim,
    make_grid,
    mult_map_analysis,
    nonsquare_coker,
    square_coker_and_delta,
    wlp_verdict_theorem_a,
)
from gridwlp.lefschetz import draw_forms


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
    coker, delta, below = square_coker_and_delta(3, 3)
    assert (coker, delta, below) == (2, 1, None)
    coker, delta, below = square_coker_and_delta(3, 4)
    assert (coker, delta, below) == (0, -6, 6)
    coker, delta, below = square_coker_and_delta(4, 6)
    assert (coker, delta, below) == (0, -12, 12)
    for a, d in ((2, 3), (3, 0), (4, 2)):
        with pytest.raises(ValueError):
            square_coker_and_delta(a, d)


def test_square_params_decomposition():
    # d = 11 = (5 - 1) * 2 + 3: q = 2, r = 3
    q, r = divmod(11, 5 - 1)
    assert (q, r) == (2, 3)
    assert square_coker_and_delta(5, 11) == ((q + 1) * ext_binom(r + 1, 2), 16, None)


def test_nonsquare_params_and_coker():
    # (3, 6, 5): d = 5 = (3 - 1) * 2 + 1, so q' = 2 and r' = 1
    assert nonsquare_coker(3, 6, 5) == 1
    # (2, 3, 2): q' = 1 and r' = 1
    assert nonsquare_coker(2, 3, 2) == 1
    # wide gap: only the i=0 term survives; (3, 9, 4) has r' = 2
    assert nonsquare_coker(3, 9, 4) == ext_binom(2 + 1, 2)
    for a, b, d in ((3, 3, 4), (1, 3, 4), (3, 6, 2)):
        with pytest.raises(ValueError):
            nonsquare_coker(a, b, d)


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
            q = d // (a - 1)
            expected = coker_formula_geproci(a, a, d, q - 1)
            assert expected is not None
            assert square_coker_and_delta(a, d)[0] == expected


def test_failure_inequality_for_positive_remainder():
    for a in range(3, 9):
        for d in range(a - 1, 4 * (a - 1) + 1):
            q, r = divmod(d, a - 1)
            coker, delta, below = square_coker_and_delta(a, d)
            if r > 0:
                assert delta < coker
            else:
                assert coker == 0
                assert delta == -q * comb(a, 2) < 0
                assert below == q * comb(a, 2)


@pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4)])
def test_generic_cokernel_closed_form_matches_measurement(fp, a, b):
    # a general projection of a grid is a complete intersection of type
    # (a, b), so by apolarity the generic cokernel of x ell at t >= d is
    # dim [(f, g)^(t-d+1)]_t; wlp_test stops its trials there
    grid = make_grid(a, b, fp, seed=SeedStream(70 + 7 * a + b))
    for d in range(1, 7):
        table = PowersHilbertTable(grid, d)
        forms = draw_forms(grid, "generic", SeedStream(71).child(d), 2)
        for t in table.sweep():
            if t >= d:
                best = min(mult_map_analysis(table, ell, t).coker_dim for ell in forms)
                assert best == ci_power_dim_formula(a, b, t - d + 1, t), (d, t)


def test_geproci_coker_formula_is_the_ci_power_dimension():
    # check 4's formula for the map into degree d + t is the same closed
    # form, with multiplicity t + 1, across its window
    cases = 0
    for a in range(2, 7):
        for b in range(a, 9):
            for d in range(1, 13):
                for t in range(0, 13):
                    pred = coker_formula_geproci(a, b, d, t)
                    if pred is not None:
                        assert pred == ci_power_dim_formula(a, b, t + 1, d + t), (a, b, d, t)
                        cases += 1
    assert cases > 300


def _measured(field, a, b, d, t):
    """(best-of-3 generic cokernel of x ell into degree t, the Hilbert
    table it was read from) for the d-th powers ideal of a seeded a x b
    grid."""
    grid = make_grid(a, b, field, seed=SeedStream(28).child(a, b))
    table = PowersHilbertTable(grid, d)
    (rep,) = best_maps(table, "generic", SeedStream(29).child(a, b, d), 3, degrees=[t])
    return rep.coker_dim, table


def test_square_theorem_matches_measurement(fp):
    # the square-grid theorem's cokernel and delta-h at t = d + q - 1, and
    # delta-h at t - 1 when r = 0, against the engine: evidence for
    # a = 3..5 and d = a-1..3(a-1), not a proof
    cases = 0
    for a in range(3, 6):
        for d in range(a - 1, 3 * (a - 1) + 1):
            q, r = divmod(d, a - 1)
            t = d + q - 1
            coker, table = _measured(fp, a, a, d, t)
            delta = table.quotient_dim(t) - table.quotient_dim(t - 1)
            want_coker, want_delta, want_below = square_coker_and_delta(a, d)
            assert (coker, delta) == (want_coker, want_delta), (a, d)
            if r == 0:
                below = table.quotient_dim(t - 1) - table.quotient_dim(t - 2)
                assert below == want_below, (a, d)
            cases += 1
    assert cases == 21


def test_nonsquare_conjecture_matches_measurement(fp):
    # the conjectured cokernel for b > a at t = d + q' - 1 against the
    # engine: evidence for a = 2..4, b = a+1..6 and d = a..10, not a proof
    cases = 0
    for a in range(2, 5):
        for b in range(a + 1, 7):
            for d in range(a, 11):
                t = d + (d - 1) // (a - 1) - 1
                assert _measured(fp, a, b, d, t)[0] == nonsquare_coker(a, b, d), (a, b, d)
                cases += 1
    assert cases == 74
