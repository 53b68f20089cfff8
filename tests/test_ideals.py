import gc
import json
import weakref
from math import comb

import numpy as np
import pytest

from gridwlp import (
    DimensionCapError,
    PrimeField,
    RationalField,
    SeedStream,
    ci_power_dim_formula,
    ci_power_piece,
    fat_points_dim,
    fat_points_hf,
    macaulay_dual_check,
    make_grid,
    mult_map_analysis,
    perp_piece,
    powers_ideal_dim,
    powers_ideal_piece,
    sample_form,
    slp_probe,
    socle_dims,
    subgrid,
)
from gridwlp import ideals, linalg
from gridwlp.cli import main
from gridwlp.ideals import (
    DegenerateSequenceError,
    perp_quotient_hf,
    power_generators,
    shifted_products_matrix,
)
from gridwlp.linalg import rank, rref
from gridwlp.polyspace import (
    BIGRADED,
    TOTAL3,
    TOTAL4,
    basis_index,
    dim_total,
    graded_basis,
    linear_power,
    poly_mul,
    zero_poly,
)


def _random_form(deg, field, stream, grading=TOTAL3):
    poly = zero_poly(grading, deg, field)
    for i in range(len(poly.coeffs)):
        poly.coeffs[i] = stream.scalar(field)
    return poly


def test_powers_ideal_examples(fp, grid33):
    assert powers_ideal_dim(grid33, 2, 2) == 9
    assert powers_ideal_dim(grid33, 4, 5) == 36
    assert powers_ideal_dim(grid33, 3, 2) == 0
    piece = powers_ideal_piece(grid33, 2, 2)
    assert piece.dim == 9 and piece.rref.shape == (9, 10)


def _full_ring_dim(grid, d, t):
    if t < d:
        return 0
    return rank(shifted_products_matrix(power_generators(grid, d), t, grid.field), grid.field)


@pytest.mark.parametrize(
    "field, shapes, d_max",
    [
        (PrimeField(), [(2, 2), (2, 5), (3, 3), (3, 5)], 4),
        (PrimeField(10007), [(2, 2), (2, 5), (3, 3), (3, 5)], 3),
        (RationalField(), [(2, 2)], 2),
    ],
    ids=["p31", "p10007", "QQ"],
)
def test_powers_ideal_dim_matches_full_ring(field, shapes, d_max):
    # the monomial-CI quotient route against the span in the full ring, in
    # every degree up to one past the socle cap of (x_1^d, ..., x_4^d)
    grids = [make_grid(a, b, field, seed=SeedStream(60 + 7 * a + b)) for a, b in shapes]
    grids.append(make_grid(2, 3, field, u=[1, 2], v=[-1, 3, 5]))
    for grid in grids:
        for d in range(1, d_max + 1):
            for t in range(0, 4 * (d - 1) + 3):
                assert powers_ideal_dim(grid, d, t) == _full_ring_dim(grid, d, t), (grid, d, t)


def test_powers_ideal_dim_cache_keys_on_grid_value(fp, qq):
    # equal parameters over the same field share one Hilbert table; the field
    # is part of the key, so Q and F_p grids with equal parameters do not
    u, v = [1, 2], [3, 5, 7]
    g1, g2 = make_grid(2, 3, fp, u=u, v=v), make_grid(2, 3, fp, u=u, v=v)
    others = (make_grid(2, 3, qq, u=u, v=v), make_grid(2, 3, PrimeField(10007), u=u, v=v))
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    assert all(g1 != g for g in others)
    powers_ideal_dim(g1, 2, 3)
    before = ideals._powers_table.cache_info()
    powers_ideal_dim(g2, 2, 3)
    after = ideals._powers_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    table = ideals._powers_table(g2, 2)
    assert 3 in table.dims
    assert all(ideals._powers_table(g, 2) is not table for g in others)


def _primal_matrix(grid, d, t):
    return shifted_products_matrix(ideals._normalised_generators(grid, d), t, grid.field, below=d)


def _primal_kernel(grid, d, t):
    # a basis of J^perp_t
    return linalg.kernel_basis(_primal_matrix(grid, d, t), grid.field)


@pytest.mark.parametrize(
    "field, d_values",
    [
        (PrimeField(), (2, 3, 4)),
        (PrimeField(10007), (2, 3, 4)),
        (PrimeField(101), (2, 3, 4)),
        (PrimeField(31), (2, 3, 4)),
        (RationalField(), (2, 3)),
    ],
    ids=["p2^31-1", "p10007", "p101", "p31", "QQ"],
)
def test_descent_step_matches_primal_kernel(field, d_values):
    # one descent step from the primal kernel at every t - 1 >= d: each
    # degree is a possible switch point of the table
    for k, (a, b) in enumerate([(2, 3), (3, 3), (3, 4), (4, 4), (3, 6)]):
        grid = make_grid(a, b, field, seed=SeedStream(80 + k))
        for d in d_values:
            for t in range(d + 1, 4 * (d - 1) + 2):
                down = ideals._descend(_primal_kernel(grid, d, t - 1), d, t, field)
                expect = _primal_kernel(grid, d, t)
                got_rref, want_rref = rref(down, field)[0], rref(expect, field)[0]
                assert got_rref.shape == want_rref.shape, (a, b, d, t)
                assert np.array_equal(got_rref, want_rref), (a, b, d, t)


def test_hilbert_table_sweep_matches_primal_rank(fp):
    # a fresh table over a full 5x5, d=8 sweep: primal degrees, the switch
    # and the descended tail against the primal rank in every degree
    grid = make_grid(5, 5, fp, seed=SeedStream(90))
    d = 8
    table = ideals.PowersHilbertTable(grid, d)
    for t in range(d, 4 * (d - 1) + 2):
        mat = _primal_matrix(grid, d, t)
        assert table.quotient_dim(t) == mat.shape[1] - rank(mat, fp), t
    switch = table.switch
    assert d < switch < 4 * (d - 1)
    assert table.dims[switch - 1] * ideals._DUAL_SWITCH <= _primal_matrix(grid, d, switch).shape[1]


def test_degrees_past_the_first_zero_need_no_cap_check(fp, grid33):
    # 3x3, d = 2: the table is zero from t = 3, and dim R_48 = 20825 is
    # above the cap; only a table that has not reached its zero refuses t = 48
    table = ideals.PowersHilbertTable(grid33, 2)
    assert list(table.sweep()) == [1, 2]
    assert table.quotient_dim(48) == 0
    with pytest.raises(DimensionCapError):
        ideals.PowersHilbertTable(grid33, 2).quotient_dim(48)


def test_hilbert_table_rejects_power_zero(fp, grid33):
    for d in (0, -1):
        with pytest.raises(ValueError, match="power d must be >= 1"):
            ideals.PowersHilbertTable(grid33, d)
        with pytest.raises(ValueError, match="power d must be >= 1"):
            powers_ideal_dim(grid33, d, 2)


def _same_span(x, y, field):
    return np.array_equal(rref(x, field)[0], rref(y, field)[0])


def test_table_basis_spans_the_inverse_system(fp):
    # below d the identity, then the primal kernel, then descended bases;
    # every basis spans J^perp_t and records a_t
    grid = make_grid(4, 4, fp, seed=SeedStream(91))
    d = 6
    table = ideals.PowersHilbertTable(grid, d)
    for t in range(0, 4 * (d - 1) + 2):
        basis = table.basis(t)
        if t < d:
            assert np.array_equal(basis, linalg._identity(dim_total(4, t), fp))
            continue
        assert table.quotient_dim(t) == basis.shape[0]
        if basis.shape[0]:
            assert _same_span(basis, _primal_kernel(grid, d, t), fp), t
        else:
            assert _primal_kernel(grid, d, t).shape[0] == 0
    assert d < table.switch < 4 * (d - 1)
    # asked for again, the kept basis comes back as it is
    t = table.switch
    assert table.basis(t) is table.basis(t)


def test_table_sweep_computes_each_basis_once(fp, monkeypatch):
    # one primal matrix per primal degree: the switch reuses the kernel of
    # the degree before it, and each later degree descends once
    grid = make_grid(5, 5, fp, seed=SeedStream(92))
    d = 6
    table = ideals.PowersHilbertTable(grid, d)
    built, descended = [], []
    primal, descend = table._primal, ideals._descend
    monkeypatch.setattr(table, "_primal", lambda t: built.append(t) or primal(t))
    monkeypatch.setattr(ideals, "_descend", lambda b, d, t, f: descended.append(t) or descend(b, d, t, f))
    degrees = list(table.sweep())
    assert degrees == list(range(1, max(degrees) + 1))
    assert built == list(range(d, table.switch))
    assert descended == list(range(table.switch, max(degrees) + 2))
    # the degrees already walked are read from the table
    assert all(table.quotient_dim(t) > 0 for t in range(d, max(degrees) + 1))
    assert built == list(range(d, table.switch))


def test_one_table_keeps_a_basis_at_a_time(fp):
    # one table is cached, and a table keeps only its last basis: asking for
    # a second (grid, d) lets the first table, and its basis, go
    g1 = make_grid(3, 3, fp, seed=SeedStream(93))
    g2 = make_grid(3, 4, fp, seed=SeedStream(94))
    powers_ideal_dim(g1, 3, 4)
    first = weakref.ref(ideals._powers_table(g1, 3))
    assert first()._kept[0] == 4
    powers_ideal_dim(g2, 3, 4)
    assert ideals._powers_table.cache_info().currsize == 1
    gc.collect()
    assert first() is None
    table = ideals._powers_table(g2, 3)
    assert table._kept[0] == 4 and table.basis(4) is table.basis(4)


def test_b_coordinates_send_the_corners_to_coordinate_points(fp, qq):
    for field in (fp, qq):
        grid = make_grid(3, 4, field, u=[2, 5, 7], v=[1, 3, 4, 9])
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            image = ideals._b_coordinates(grid, grid.dual_form_coeffs(i, j))
            assert [k for k, c in enumerate(image) if c != 0] == [2 * i + j]
        # the same map as the generators': a power of the image of a
        # non-corner dual form is a normalised generator
        gens = ideals._normalised_generators(grid, 2)
        image = ideals._b_coordinates(grid, grid.dual_form_coeffs(2, 3))
        assert np.array_equal(gens[-1].coeffs, linear_power(image, 2, field).coeffs)


def test_powers_ideal_dim_cap_guard_before_assembly(fp, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("matrix assembled before the cap guard")

    grid = make_grid(2, 3, fp, seed=SeedStream(71))
    ell = sample_form(grid, "generic", SeedStream(72))
    monkeypatch.setattr(linalg, "COLUMN_CAP", 30)
    monkeypatch.setattr(ideals, "shifted_products_matrix", no_assembly)
    monkeypatch.setattr(ideals, "_normalised_generators", no_assembly)
    with pytest.raises(DimensionCapError):
        powers_ideal_dim(grid, 2, 4)  # 35 monomials of degree 4
    # the map routes check degree t before they build anything at t - 1
    with pytest.raises(DimensionCapError):
        mult_map_analysis(grid, 2, ell, 4)
    with pytest.raises(DimensionCapError):
        socle_dims(grid, 2, range(3, 4))
    # below d = 4 nothing is assembled; degree 4 is refused
    with pytest.raises(DimensionCapError):
        slp_probe(grid, 4, 2, trials=1, seed=73)


def test_fat_points_cap_guard_before_assembly(fp, grid33, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("vanishing rows built before the cap guard")

    monkeypatch.setattr(linalg, "COLUMN_CAP", 30)
    monkeypatch.setattr(ideals, "vanishing_rows", no_assembly)
    with pytest.raises(DimensionCapError):
        fat_points_dim(grid33, 2, 4)  # 35 monomials of degree 4
    with pytest.raises(DimensionCapError):
        fat_points_hf(grid33, 1, (5, 5))  # 36 of bidegree (5, 5)


@pytest.mark.parametrize(
    "grading, src_deg, t",
    [
        (TOTAL3, 0, 0), (TOTAL3, 1, 4), (TOTAL3, 10, 31),
        (TOTAL4, 3, 3), (TOTAL4, 2, 9), (TOTAL4, 10, 20),
        (BIGRADED, (0, 0), (2, 3)), (BIGRADED, (1, 2), (3, 2)), (BIGRADED, (2, 2), (5, 4)),
    ],
)
def test_shift_column_map_matches_dict_build(grading, src_deg, t):
    # one basis_index lookup per (shift, monomial), as the map was first built
    shift_deg = ideals._shift_degree(grading, src_deg, t)
    idx_t = basis_index(grading, t)
    expect = np.array(
        [
            [idx_t[tuple(a + g for a, g in zip(alpha, gamma))] for alpha in graded_basis(grading, src_deg)]
            for gamma in graded_basis(grading, shift_deg)
        ],
        dtype=np.int64,
    )
    got = ideals._shift_column_map(grading, src_deg, t)
    assert got.dtype == np.int64 and np.array_equal(got, expect)


def test_fat_points_examples(fp, grid33, grid36):
    assert fat_points_dim(grid36, 1, 4) == 20
    assert fat_points_dim(grid36, 1, 5) == 38
    assert fat_points_dim(grid33, 2, 5) == 20
    assert fat_points_hf(grid33, 2, 5) == 36


@pytest.mark.parametrize("field", [PrimeField(), RationalField()], ids=["p31", "qq"])
def test_fat_points_of_an_empty_piece(field):
    # a negative degree is an empty graded piece: a (rows x 0) matrix, dim 0
    grid = make_grid(3, 3, field, seed=SeedStream(5))
    cases = [(1, -1, 9), (2, -3, 36), (2, (-1, 2), 27), (1, (3, -1), 9)]
    for m, degree, nrows in cases:
        assert ideals.fat_points_matrix(grid, m, degree).shape == (nrows, 0)
        assert fat_points_dim(grid, m, degree) == 0
        assert fat_points_hf(grid, m, degree) == 0
    # nine points on the quadric: no linear form through them, one quadric
    dims = {t: fat_points_dim(grid, 1, t) for t in range(-1, 3)}
    assert dims == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_bigraded_fat_points_examples(fp, grid36):
    assert fat_points_dim(grid36, 2, (6, 6)) == 10
    assert fat_points_dim(grid36, 1, (0, 0)) == 0
    # high-bidegree conditions are independent: ab * C(m+1, 2) of them
    for m in (1, 2):
        deg = 6 * m - 1
        assert fat_points_hf(grid36, m, (deg, deg)) == 18 * comb(m + 1, 2)


def test_fat_points_multiplicity_must_be_positive(fp, grid33, monkeypatch):
    monkeypatch.setattr(ideals, "vanishing_rows", None)  # refused before assembly
    for m, degree in ((0, 3), (-1, (2, 2))):
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            fat_points_dim(grid33, m, degree)


def test_ci_power_oracle_equivalence(fp):
    s = SeedStream(31)
    f = _random_form(3, fp, s.child("f"))
    g = _random_form(3, fp, s.child("g"))
    assert ci_power_piece(f, g, 1, 5).dim == 12 == ci_power_dim_formula(3, 3, 1, 5)
    assert ci_power_piece(f, g, 2, 7).dim == 9 == ci_power_dim_formula(3, 3, 2, 7)
    assert ci_power_piece(f, g, 1, 2).dim == 0 == ci_power_dim_formula(3, 3, 1, 2)


def test_ci_power_rejects_degenerate_pairs(fp):
    s = SeedStream(32)
    h = _random_form(1, fp, s.child("h"))
    f = poly_mul(h, _random_form(2, fp, s.child("f")))
    g = poly_mul(h, _random_form(2, fp, s.child("g")))
    with pytest.raises(DegenerateSequenceError):
        ci_power_piece(f, g, 1, 4)


def test_perp_piece_examples(fp, grid33):
    q = grid33.quadric()
    q2 = poly_mul(q, q)
    assert perp_piece(q2, 2).dim == 0
    assert perp_piece(q2, 3).dim == 16
    assert perp_piece(q, 2).dim == 9
    # beyond the degree of the form the perp ideal is everything
    assert perp_piece(q, 3).dim == dim_total(4, 3)


def test_perp_piece_cap_guard_past_the_degree(fp, grid33, monkeypatch):
    # past deg F the piece is the identity on R_s, which is refused like any
    # other matrix with more than COLUMN_CAP columns
    q = grid33.quadric()
    monkeypatch.setattr(linalg, "COLUMN_CAP", 30)
    assert perp_piece(q, 3).dim == 20
    with pytest.raises(DimensionCapError):
        perp_piece(q, 4)  # 35 monomials of degree 4


def test_perp_quotient_tables(fp, grid33):
    q = grid33.quadric()
    assert [perp_quotient_hf(q, s) for s in range(4)] == [1, 4, 1, 0]
    q2 = poly_mul(q, q)
    assert [perp_quotient_hf(q2, s) for s in range(6)] == [1, 4, 10, 4, 1, 0]


def test_quotient_hilbert_table_and_delta(fp, grid36):
    table = ideals.PowersHilbertTable(grid36, 5)
    assert table.quotient_dim(5) == 38 and table.quotient_dim(6) == 27
    assert table.quotient_dim(6) - table.quotient_dim(5) == -11


def test_socle_examples(fp, grid33):
    soc = socle_dims(grid33, 4, range(0, 5))
    assert soc == {t: 0 for t in range(0, 5)}
    soc2 = socle_dims(grid33, 2, range(0, 3))
    assert soc2 == {0: 0, 1: 0, 2: 1}


def _shift_matrix(t, var, field):
    # multiplication by x_var from R_t to R_(t+1) on monomial bases
    src = graded_basis(TOTAL4, t)
    idx = basis_index(TOTAL4, t + 1)
    mat = field.zeros((dim_total(4, t + 1), len(src)))
    for c, mono in enumerate(src):
        target = list(mono)
        target[var] += 1
        mat[idx[tuple(target)], c] = field.one
    return mat


def _full_ring_socle(grid, d, t):
    # the full-ring route in the original coordinates: f in R_t is in the
    # socle preimage when every x_i f lies in [I]_(t+1); reduce each x_i * R_t
    # modulo the RREF of [I]_(t+1) and take the common kernel
    field = grid.field
    ideal_t = powers_ideal_piece(grid, d, t).dim
    piece = powers_ideal_piece(grid, d, t + 1)
    red = piece.rref
    piv = np.argmax(red != 0, axis=1)
    stacked = []
    for var in range(4):
        shift = _shift_matrix(t, var, field)
        if red.shape[0]:
            shift = field.sub(shift, linalg._matmul(red.T, shift[piv, :], field))
        stacked.append(shift)
    big = np.vstack(stacked)
    return big.shape[1] - rank(big, field) - ideal_t


@pytest.mark.parametrize(
    "field, cases",
    [
        (PrimeField(), [(3, 3, 2, 5), (2, 3, 2, 5), (3, 4, 3, 9), (4, 4, 4, 13), (2, 2, 3, 9)]),
        (PrimeField(31), [(3, 3, 2, 5), (3, 4, 3, 9)]),
        (RationalField(), [(3, 3, 2, 3), (2, 3, 2, 3)]),
    ],
    ids=["p2^31-1", "p31", "QQ"],
)
def test_socle_dims_match_full_ring_oracle(field, cases):
    # each case has a nonzero socle; over F_p every degree to one past the
    # socle cap 4(d - 1) is compared
    for a, b, d, tmax in cases:
        grid = make_grid(a, b, field, seed=SeedStream(50 + a + b))
        got = socle_dims(grid, d, range(0, tmax + 1))
        assert got == {t: _full_ring_socle(grid, d, t) for t in range(0, tmax + 1)}, (a, b, d)
        assert any(got.values())


def test_macaulay_dual_check_examples(fp, grid33, grid36):
    assert macaulay_dual_check(grid33, 4, 5) == (20, 20, True)
    lhs, rhs, ok = macaulay_dual_check(grid36, 5, 6)
    assert (lhs, rhs, ok) == (27, 27, True)
    # t = d reduces to points against forms of degree d
    lhs, rhs, ok = macaulay_dual_check(grid33, 3, 3)
    assert ok and lhs == dim_total(4, 3) - powers_ideal_dim(grid33, 3, 3)
    with pytest.raises(ValueError):
        macaulay_dual_check(grid33, 4, 3)


def test_duality_property_sweep_small(fp):
    grid = make_grid(2, 3, fp, seed=SeedStream(33))
    for d in (1, 2, 3):
        for t in range(d, d + 3):
            assert macaulay_dual_check(grid, d, t)[2]


def test_subgrid_generation_invariant(fp):
    grid = make_grid(3, 5, fp, seed=SeedStream(34))
    small = subgrid(grid, 3, 4)
    for t in range(0, 7):
        assert powers_ideal_dim(grid, 3, t) == powers_ideal_dim(small, 3, t)
    smaller = subgrid(grid, 3, 3)
    for t in range(0, 6):
        assert powers_ideal_dim(grid, 2, t) == powers_ideal_dim(smaller, 2, t)


def test_perp_equals_power_span_for_matching_grid(fp):
    # the degree-(t+1) power span of a (t+2)x(t+2) grid cuts the same ideal
    # as the perp of Q^t, in every degree up to the socle
    for t in (1, 2):
        grid = make_grid(t + 2, t + 2, fp, seed=SeedStream(35 + t))
        q = grid.quadric()
        qt = q
        for _ in range(t - 1):
            qt = poly_mul(qt, q)
        for s in range(0, 2 * t + 2):
            assert powers_ideal_dim(grid, t + 1, s) == dim_total(4, s) - perp_quotient_hf(qt, s)


def test_recursion_identity_where_conditions_independent(fp, grid33, grid36):
    # the x-the-quadric splitting holds whenever the smaller fat scheme
    # imposes independent conditions two degrees down
    cases = [
        (grid33, 2, 4),
        (grid33, 2, 5),
        (grid33, 2, 6),
        (grid36, 2, 7),
        (grid33, 3, 7),
    ]
    for grid, alpha, t in cases:
        deg = len(grid.points()) * comb(alpha + 1, 3)
        assert fat_points_hf(grid, alpha - 1, t - 2) == deg  # independence hypothesis
        lhs = fat_points_dim(grid, alpha, t)
        mid = fat_points_dim(grid, alpha - 1, t - 2)
        z = fat_points_dim(grid, alpha, (t, t))
        assert lhs == mid + z


def test_recursion_gap_at_low_degree(fp, grid33, grid36):
    # in low degrees the bigraded term overcounts: the restriction map is not
    # surjective there, and the inequality goes one way only
    lhs = fat_points_dim(grid33, 2, 3)
    mid = fat_points_dim(grid33, 1, 1)
    z = fat_points_dim(grid33, 2, (3, 3))
    assert (lhs, mid, z) == (0, 0, 1)
    # the worked 3x6 cell: 27 = 20 + (image of dimension 7), not 20 + 10
    lhs = fat_points_dim(grid36, 2, 6)
    mid = fat_points_dim(grid36, 1, 4)
    z = fat_points_dim(grid36, 2, (6, 6))
    assert (lhs, mid, z) == (27, 20, 10)
    assert lhs <= mid + z


def test_hilbert_table_serialization(capsys):
    # the hf command writes the table's rows as JSON
    argv = ["hf", "--a", "3", "--b", "3", "--d", "2", "--params", "u=1,2,3;v=1,2,3"]
    assert main([*argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "quotient"
    assert data["rows"][0] == {"t": 0, "dim": 1, "delta": 1}
