import json

import pytest

from gridwlp import (
    PrimeField,
    RationalField,
    SeedStream,
    bx_sequence,
    make_grid,
    mult_map_analysis,
    non_lefschetz_probe,
    powers_ideal_piece,
    sample_form,
    slp_probe,
    union_dim,
    wlp_test,
)
from gridwlp import ideals
from gridwlp.ideals import shifted_products_matrix
from gridwlp.lefschetz import (
    LefschetzError,
    MultMapReport,
    best_map,
    draw_forms,
    slp_power_map_report,
)
from gridwlp.linalg import subspace_from_rows
from gridwlp.polyspace import TOTAL4, dim_total, linear_power


def _generic(grid, seed):
    return sample_form(grid, "generic", SeedStream(seed).child("f"))


def test_mult_map_3x3_d3_critical(fp, grid33):
    rep = mult_map_analysis(grid33, 3, _generic(grid33, 1), 3)
    assert (rep.dim_from, rep.dim_to) == (10, 11)
    assert rep.coker_dim == 2 and rep.kernel_dim == 1
    assert not rep.maximal


def test_mult_map_3x3_d4_surjective(fp, grid33):
    rep = mult_map_analysis(grid33, 4, _generic(grid33, 2), 5)
    assert rep.coker_dim == 0 and rep.maximal


def test_mult_map_3x6_d5(fp, grid36):
    rep = mult_map_analysis(grid36, 5, _generic(grid36, 3), 6)
    assert rep.dim_to - rep.dim_from == -11
    assert rep.coker_dim == 1
    assert not rep.maximal


def _union_coker(grid, d, ell, k, t):
    # the full-ring oracle in the original coordinates:
    # dim R_t - dim([I]_t + ell^k * R_(t-k))
    field = grid.field
    piece = powers_ideal_piece(grid, d, t)
    if t < k:
        return dim_total(4, t) - piece.dim
    rows = shifted_products_matrix([linear_power(ell, k, field)], t, field)
    return dim_total(4, t) - union_dim(piece, subspace_from_rows(rows, (TOTAL4, t), field), field)


def test_coker_agrees_with_union_dim_route(fp, grid33):
    # the measurement in B equals ambient minus the union of the ideal piece
    # with ell * R_(t-1)
    ell = _generic(grid33, 4)
    for d, t in ((3, 3), (4, 5), (2, 2)):
        rep = mult_map_analysis(grid33, d, ell, t)
        assert rep.coker_dim == _union_coker(grid33, d, ell, 1, t)


LOCI = [
    "generic",
    ("plane", 0, 0),
    ("chord", (0, 1), (1, 0)),
    ("ruling", "lambda", 0),
    ("ruling", "mu", 1),
]


@pytest.mark.parametrize(
    "field, a, b, d_values",
    [
        (PrimeField(), 3, 3, (2, 3, 4)),
        (PrimeField(31), 3, 3, (2, 3)),
        (PrimeField(31), 2, 3, (2, 3)),
        (RationalField(), 2, 3, (2,)),
        (RationalField(), 3, 3, (2,)),
    ],
    ids=["p2^31-1-3x3", "p31-3x3", "p31-2x3", "QQ-2x3", "QQ-3x3"],
)
def test_power_maps_agree_with_full_ring_union(field, a, b, d_values):
    # every sweep degree, every locus, k = 1, 2, 3
    grid = make_grid(a, b, field, seed=SeedStream(40 + a + b))
    for d in d_values:
        for locus in LOCI:
            (ell,) = draw_forms(grid, locus, SeedStream(41).child(d, str(locus)), 1)
            for t in ideals._powers_table(grid, d).sweep():
                rep = mult_map_analysis(grid, d, ell, t)
                assert rep.coker_dim == _union_coker(grid, d, ell, 1, t), (d, locus, t)
                for k in (2, 3):
                    rep = slp_power_map_report(grid, d, ell, k, t)
                    assert rep.coker_dim == _union_coker(grid, d, ell, k, t), (d, locus, t, k)


def test_power_maps_past_the_switch_agree_with_full_ring_union(fp):
    # 4x4, d=6: the table descends from t=9 on; walk it first, so that the
    # degrees past the switch are read from descended bases
    grid = make_grid(4, 4, fp, seed=SeedStream(48))
    d = 6
    table = ideals._powers_table(grid, d)
    degrees = list(table.sweep())
    assert table.switch is not None and table.switch <= max(degrees)
    ell = _generic(grid, 49)
    for t in degrees:
        rep = mult_map_analysis(grid, d, ell, t)
        assert rep.coker_dim == _union_coker(grid, d, ell, 1, t), t
        if t >= table.switch - 1:
            rep = slp_power_map_report(grid, d, ell, 2, t)
            assert rep.coker_dim == _union_coker(grid, d, ell, 2, t), t


def test_map_rejects_zero_and_grid_point_forms(fp, grid33):
    with pytest.raises(LefschetzError, match="ell must be nonzero"):
        mult_map_analysis(grid33, 3, (0, 0, 0, 0), 3)
    point = [fp.mul(7, c) for c in grid33.point(1, 2)]
    with pytest.raises(LefschetzError, match="ell is dual to a grid point"):
        mult_map_analysis(grid33, 3, point, 3)
    with pytest.raises(LefschetzError, match="ell is dual to a grid point"):
        slp_power_map_report(grid33, 3, grid33.point(0, 0), 2, 3)


def test_wlp_verdicts_small(fp, grid33):
    rep = wlp_test(grid33, 3, trials=3, seed=7)
    assert not rep.verdict and rep.failing == [3]
    rep = wlp_test(grid33, 4, trials=3, seed=7)
    assert rep.verdict and rep.failing == []
    grid44 = make_grid(4, 4, fp, seed=SeedStream(8))
    rep = wlp_test(grid44, 2, trials=3, seed=7)
    assert rep.verdict


def test_wlp_3x6_d5_failing_degrees(fp, grid36):
    # maximal rank fails at both degrees 5 and 6: the eighteen fifth powers
    # are independent, so A_4 -> A_5 already has a kernel
    rep = wlp_test(grid36, 5, trials=3, seed=7)
    assert not rep.verdict
    assert rep.failing == [5, 6]


def test_wlp_report_invariants_and_json(fp, grid33):
    rep = wlp_test(grid33, 3, trials=2, seed=9)
    rep.validate()
    for r in rep.degrees:
        assert r.rank == r.dim_from - r.kernel_dim == r.dim_to - r.coker_dim
    data = json.loads(rep.to_json())
    assert list(data.keys()) == ["grid", "d", "prime", "trials", "degrees", "verdict", "failing"]
    assert data["failing"] == [3]
    assert data["degrees"][2]["maximal"] is False


def test_wlp_deterministic_given_seed(fp, grid33):
    a = wlp_test(grid33, 3, trials=2, seed=11).to_json()
    b = wlp_test(grid33, 3, trials=2, seed=11).to_json()
    assert a == b


def test_wlp_seed_stability(fp, grid33):
    for d in (2, 3, 4):
        r1 = wlp_test(grid33, d, trials=3, seed=101)
        r2 = wlp_test(grid33, d, trials=3, seed=202)
        assert r1.verdict == r2.verdict and r1.failing == r2.failing


def test_injectivity_downset_for_multiple_of_a_minus_1(fp, grid33):
    # square grid with d = q(a-1): below the first surjective degree every
    # map is injective, so injective degrees form a down-set
    rep = wlp_test(grid33, 4, trials=3, seed=13)
    kernels = [r.kernel_dim for r in rep.degrees]
    first_surj = next(i for i, r in enumerate(rep.degrees) if r.coker_dim == 0)
    assert all(k == 0 for k in kernels[:first_surj])


def test_sweep_covers_socle(fp, grid33):
    table = ideals._powers_table(grid33, 4)
    assert list(table.sweep()) == [1, 2, 3, 4, 5, 6]
    assert table.quotient_dim(6) > 0
    assert table.quotient_dim(7) == 0


def test_probe_plane_passes_chord_and_ruling_fail(fp, grid33):
    rep = non_lefschetz_probe(grid33, 4, ("plane", 0, 0), trials=2, seed=15)
    assert not rep.member_of_locus
    assert [e.t for e in rep.entries] == [4, 5]
    rep = non_lefschetz_probe(grid33, 4, ("chord", (0, 1), (1, 0)), trials=2, seed=15)
    assert rep.member_of_locus
    by_t = {e.t: e for e in rep.entries}
    assert by_t[5].specialized.coker_dim == 1  # measured; the five-line quintic
    rep = non_lefschetz_probe(grid33, 4, ("ruling", "lambda", 0), trials=2, seed=15)
    assert rep.member_of_locus


def test_probe_empty_locus_for_small_powers(fp, grid33):
    for locus in ("generic", ("plane", 0, 0), ("chord", (0, 1), (1, 0))):
        rep = non_lefschetz_probe(grid33, 2, locus, trials=2, seed=16)
        assert not rep.member_of_locus


def test_probe_plane_fails_for_higher_multiple(fp, grid33):
    rep = non_lefschetz_probe(grid33, 6, ("plane", 0, 0), trials=2, seed=17)
    by_t = {e.t: e for e in rep.entries}
    assert not by_t[8].achieves_generic
    assert rep.member_of_locus


def test_probe_rejects_wrong_powers(fp, grid33):
    with pytest.raises(LefschetzError):
        non_lefschetz_probe(grid33, 3, ("plane", 0, 0), trials=1, seed=18)


def test_slp_k1_reduces_to_wlp(fp, grid33):
    rep = slp_probe(grid33, 3, 1, trials=2, seed=19)
    assert rep.failing == [3]


def test_slp_2x2_maximal_everywhere(fp):
    grid = make_grid(2, 2, fp, seed=SeedStream(20))
    for d in (2, 3, 4):
        for k in (2, 3):
            reports = slp_probe(grid, d, k, trials=2, seed=21)
            assert all(r.maximal for r in reports)


def test_slp_exploratory_output_shape(fp, grid33):
    reports = slp_probe(grid33, 4, 2, trials=2, seed=22)
    assert [r.t for r in reports] == list(range(2, 7))
    for r in reports:
        r.validate()


def test_bx_sequences(fp, grid33):
    seq = bx_sequence(grid33, 6, trials=2, seed=23)
    assert seq.bitstring() == "110101"
    assert seq.conjectural == []
    grid22 = make_grid(2, 2, fp, seed=SeedStream(24))
    assert bx_sequence(grid22, 5, trials=2, seed=25).bitstring() == "11111"


def test_bx_nonsquare_flags_conjectural_region(fp):
    grid = make_grid(3, 4, fp, seed=SeedStream(26))
    seq = bx_sequence(grid, 4, trials=2, seed=27)
    assert seq.bitstring() == "1100"
    assert seq.conjectural == [3, 4]
    data = json.loads(seq.to_json())
    assert data["conjectural_d"] == [3, 4]


def _map(coker):
    # x ell : A_2 -> A_3 with dims 10 -> 12; maximal means coker 2
    return MultMapReport.from_coker(3, 10, 12, coker)


def _pulled_up_to(items, log):
    for rep in items:
        log.append(rep)
        yield rep
    raise AssertionError("pulled past the last report")


def test_best_map_stops_lazily_at_a_maximal_report():
    for items in ([_map(2)], [_map(5), _map(3), _map(2)]):
        log = []
        assert best_map(_pulled_up_to(items, log)) is items[-1]
        assert log == items and items[-1].maximal


def test_best_map_keeps_the_first_of_equal_ranks():
    first, second, higher = _map(4), _map(4), _map(3)
    assert best_map([first, second]) is first
    assert best_map([_map(5), first, higher, second, _map(3)]) is higher


def test_best_map_stop_coker_is_tested_on_the_best_so_far():
    items = [_map(5), _map(4), _map(3)]
    log = []
    assert best_map(_pulled_up_to(items, log), stop_coker=4) is items[1]
    assert log == items[:2]
    # a later report with the target cokernel but a lower rank does not stop
    items = [_map(3), _map(4), _map(5)]
    assert best_map(items, stop_coker=4) is items[0]


def test_best_map_rejects_no_reports():
    with pytest.raises(LefschetzError):
        best_map([])
    with pytest.raises(LefschetzError):
        best_map(iter(()))


def test_report_from_coker_validates():
    rep = MultMapReport.from_coker(5, 20, 14, 1)
    assert (rep.rank, rep.kernel_dim, rep.coker_dim) == (13, 7, 1)
    assert not rep.maximal
    with pytest.raises(AssertionError):
        MultMapReport.from_coker(5, 4, 14, 1)  # rank 13 > dim_from


@pytest.mark.parametrize(
    "locus", ["generic", ("plane", 0, 0), ("chord", (0, 1), (1, 0))], ids=str
)
def test_draw_forms_matches_labelled_draws(grid33, locus):
    stream = SeedStream(0xC0FFEE)
    forms = draw_forms(grid33, locus, stream.child("form"), 4)
    assert forms == [sample_form(grid33, locus, stream.child("form", k)) for k in range(4)]
    assert len(set(forms)) == 4


def test_zero_trials_rejected_everywhere(fp, grid33):
    with pytest.raises(LefschetzError, match="trials must be >= 1"):
        draw_forms(grid33, "generic", SeedStream(1), 0)
    for call in (
        lambda: wlp_test(grid33, 3, trials=0),
        lambda: non_lefschetz_probe(grid33, 4, ("plane", 0, 0), trials=0),
        lambda: slp_probe(grid33, 4, 2, trials=0),
        lambda: bx_sequence(grid33, 2, trials=0),
    ):
        with pytest.raises(LefschetzError, match="trials must be >= 1"):
            call()
