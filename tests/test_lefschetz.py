import json

import numpy as np
import pytest

from gridwlp import (
    PowersHilbertTable,
    PrimeField,
    RationalField,
    SeedStream,
    bx_sequence,
    ci_power_dim_formula,
    make_grid,
    mult_map_analysis,
    non_lefschetz_probe,
    rank,
    sample_form,
    slp_probe,
    wlp_test,
    wlp_verdict,
)
from gridwlp import lefschetz
from gridwlp.geometry import InvalidLocusError
from gridwlp.ideals import power_generators, shifted_products_matrix
from gridwlp.lefschetz import (
    LefschetzError,
    MultMapReport,
    _power_in_b,
    _power_map,
    best_map,
    best_maps,
    draw_forms,
)
from gridwlp.polyspace import dim_total, linear_power


def _generic(grid, seed):
    return sample_form(grid, "generic", SeedStream(seed).child("f"))


def test_mult_map_3x3_d3_critical(fp, grid33):
    rep = mult_map_analysis(PowersHilbertTable(grid33, 3), _generic(grid33, 1), 3)
    assert (rep.dim_from, rep.dim_to) == (10, 11)
    assert rep.coker_dim == 2 and rep.kernel_dim == 1
    assert not rep.maximal


def test_mult_map_3x3_d4_surjective(fp, grid33):
    rep = mult_map_analysis(PowersHilbertTable(grid33, 4), _generic(grid33, 2), 5)
    assert rep.coker_dim == 0 and rep.maximal


def test_mult_map_3x6_d5(fp, grid36):
    rep = mult_map_analysis(PowersHilbertTable(grid36, 5), _generic(grid36, 3), 6)
    assert rep.dim_to - rep.dim_from == -11
    assert rep.coker_dim == 1
    assert not rep.maximal


def _union_coker(grid, d, ell, k, t):
    # the full-ring oracle in the original coordinates:
    # dim R_t - dim([I]_t + ell^k * R_(t-k))
    field = grid.field
    rows = shifted_products_matrix(power_generators(grid, d), t, field)
    if t >= k:
        rows = np.vstack([rows, shifted_products_matrix([linear_power(ell, k, field)], t, field)])
    return dim_total(4, t) - rank(rows, field)


def _power_k_map(table, ell, t, k):
    # x ell^k : A_(t-k) -> A_t
    return _power_map(table, _power_in_b(table.grid, ell, k), t)


def test_coker_agrees_with_union_dim_route(fp, grid33):
    # the measurement in B equals ambient minus the union of the ideal piece
    # with ell * R_(t-1)
    ell = _generic(grid33, 4)
    for d, t in ((3, 3), (4, 5), (2, 2)):
        rep = mult_map_analysis(PowersHilbertTable(grid33, d), ell, t)
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
            table = PowersHilbertTable(grid, d)
            for t in table.sweep():
                rep = mult_map_analysis(table, ell, t)
                assert rep.coker_dim == _union_coker(grid, d, ell, 1, t), (d, locus, t)
                for k in (2, 3):
                    rep = _power_k_map(table, ell, t, k)
                    assert rep.coker_dim == _union_coker(grid, d, ell, k, t), (d, locus, t, k)


def test_power_maps_past_the_switch_agree_with_full_ring_union(fp):
    # 4x4, d=6: the table descends from t=9 on; walk it first, so that the
    # degrees past the switch are read from descended bases
    grid = make_grid(4, 4, fp, seed=SeedStream(48))
    d = 6
    table = PowersHilbertTable(grid, d)
    degrees = list(table.sweep())
    assert table.switch is not None and table.switch <= max(degrees)
    ell = _generic(grid, 49)
    for t in degrees:
        rep = mult_map_analysis(table, ell, t)
        assert rep.coker_dim == _union_coker(grid, d, ell, 1, t), t
        if t >= table.switch - 1:
            rep = _power_k_map(table, ell, t, 2)
            assert rep.coker_dim == _union_coker(grid, d, ell, 2, t), t


def test_map_rejects_zero_and_grid_point_forms(fp, grid33):
    table = PowersHilbertTable(grid33, 3)
    with pytest.raises(LefschetzError, match="ell must be nonzero"):
        mult_map_analysis(table, (0, 0, 0, 0), 3)
    point = [fp.mul(7, c) for c in grid33.point(1, 2)]
    with pytest.raises(LefschetzError, match="ell is dual to a grid point"):
        mult_map_analysis(table, point, 3)
    with pytest.raises(LefschetzError, match="ell is dual to a grid point"):
        _power_k_map(table, grid33.point(0, 0), 3, 2)


def test_wlp_verdicts_small(fp, grid33):
    rep = wlp_test(PowersHilbertTable(grid33, 3), trials=3, seed=7)
    assert not rep.verdict and rep.failing == [3]
    rep = wlp_test(PowersHilbertTable(grid33, 4), trials=3, seed=7)
    assert rep.verdict and rep.failing == []
    grid44 = make_grid(4, 4, fp, seed=SeedStream(8))
    rep = wlp_test(PowersHilbertTable(grid44, 2), trials=3, seed=7)
    assert rep.verdict


def test_wlp_3x6_d5_failing_degrees(fp, grid36):
    # maximal rank fails at both degrees 5 and 6: the eighteen fifth powers
    # are independent, so A_4 -> A_5 already has a kernel
    rep = wlp_test(PowersHilbertTable(grid36, 5), trials=3, seed=7)
    assert not rep.verdict
    assert rep.failing == [5, 6]


def test_wlp_report_invariants_and_json(fp, grid33):
    rep = wlp_test(PowersHilbertTable(grid33, 3), trials=2, seed=9)
    for r in rep.degrees:
        assert r.rank == r.dim_from - r.kernel_dim == r.dim_to - r.coker_dim
    data = json.loads(rep.to_json())
    assert list(data.keys()) == ["grid", "d", "prime", "trials", "degrees", "verdict", "failing"]
    assert data["failing"] == [3]
    assert data["degrees"][2]["maximal"] is False


def test_wlp_deterministic_given_seed(fp, grid33):
    a = wlp_test(PowersHilbertTable(grid33, 3), trials=2, seed=11).to_json()
    b = wlp_test(PowersHilbertTable(grid33, 3), trials=2, seed=11).to_json()
    assert a == b


def test_wlp_seed_stability(fp, grid33):
    for d in (2, 3, 4):
        r1 = wlp_test(PowersHilbertTable(grid33, d), trials=3, seed=101)
        r2 = wlp_test(PowersHilbertTable(grid33, d), trials=3, seed=202)
        assert r1.verdict == r2.verdict and r1.failing == r2.failing


def test_injectivity_downset_for_multiple_of_a_minus_1(fp, grid33):
    # square grid with d = q(a-1): below the first surjective degree every
    # map is injective, so injective degrees form a down-set
    rep = wlp_test(PowersHilbertTable(grid33, 4), trials=3, seed=13)
    kernels = [r.kernel_dim for r in rep.degrees]
    first_surj = next(i for i, r in enumerate(rep.degrees) if r.coker_dim == 0)
    assert all(k == 0 for k in kernels[:first_surj])


def test_sweep_covers_socle(fp, grid33):
    table = PowersHilbertTable(grid33, 4)
    assert list(table.sweep()) == [1, 2, 3, 4, 5, 6]
    assert table.quotient_dim(6) > 0
    assert table.quotient_dim(7) == 0


def test_probe_plane_passes_chord_and_ruling_fail(fp, grid33):
    table = PowersHilbertTable(grid33, 4)
    rep = non_lefschetz_probe(table, ("plane", 0, 0), trials=2, seed=15)
    assert not rep.member_of_locus
    assert [e.t for e in rep.entries] == [4, 5]
    rep = non_lefschetz_probe(table, ("chord", (0, 1), (1, 0)), trials=2, seed=15)
    assert rep.member_of_locus
    by_t = {e.t: e for e in rep.entries}
    assert by_t[5].specialized.coker_dim == 1  # measured; the five-line quintic
    rep = non_lefschetz_probe(table, ("ruling", "lambda", 0), trials=2, seed=15)
    assert rep.member_of_locus


def test_probe_empty_locus_for_small_powers(fp, grid33):
    for locus in ("generic", ("plane", 0, 0), ("chord", (0, 1), (1, 0))):
        rep = non_lefschetz_probe(PowersHilbertTable(grid33, 2), locus, trials=2, seed=16)
        assert not rep.member_of_locus


def test_probe_plane_fails_for_higher_multiple(fp, grid33):
    rep = non_lefschetz_probe(PowersHilbertTable(grid33, 6), ("plane", 0, 0), trials=2, seed=17)
    by_t = {e.t: e for e in rep.entries}
    assert not by_t[8].achieves_generic
    assert rep.member_of_locus


def test_probe_checks_the_locus_where_no_degree_is_probed(fp, grid33):
    # d = 1: A_1 = 0, so the sweep is empty
    assert list(PowersHilbertTable(grid33, 1).sweep()) == []
    with pytest.raises(InvalidLocusError, match="out of range"):
        non_lefschetz_probe(PowersHilbertTable(grid33, 1), ("plane", 8, 8), trials=2, seed=18)


def test_probe_rejects_wrong_powers(fp, grid33):
    with pytest.raises(LefschetzError):
        non_lefschetz_probe(PowersHilbertTable(grid33, 3), ("plane", 0, 0), trials=1, seed=18)


def test_slp_k1_reduces_to_wlp(fp, grid33):
    table = PowersHilbertTable(grid33, 3)
    reports = slp_probe(table, 1, trials=2, seed=19)
    assert [r.t for r in reports if not r.maximal] == [3]
    assert reports == wlp_test(table, trials=2, seed=19).degrees


def test_slp_2x2_maximal_everywhere(fp):
    grid = make_grid(2, 2, fp, seed=SeedStream(20))
    for d in (2, 3, 4):
        for k in (2, 3):
            reports = slp_probe(PowersHilbertTable(grid, d), k, trials=2, seed=21)
            assert all(r.maximal for r in reports)


def test_slp_exploratory_output_shape(fp, grid33):
    reports = slp_probe(PowersHilbertTable(grid33, 4), 2, trials=2, seed=22)
    assert [r.t for r in reports] == list(range(2, 7))


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


def _trial_reports(table, trials, stream, locus="generic", degrees=None):
    """Every trial's report in every degree (default: of the sweep), none
    skipped: {t: [report of trial 0, trial 1, ...]}, for the forms of
    `locus` drawn from `stream`."""
    forms = draw_forms(table.grid, locus, stream, trials)
    powers = [_power_in_b(table.grid, ell, 1) for ell in forms]
    degrees = table.sweep() if degrees is None else degrees
    return {t: [_power_map(table, p, t) for p in powers] for t in degrees}


def _oracle_degrees(table, trials, stream, locus="generic", degrees=None):
    # the first report of highest rank in each degree; max keeps the first
    # of equal keys
    return [
        max(reps, key=lambda r: r.rank).as_dict()
        for reps in _trial_reports(table, trials, stream, locus, degrees).values()
    ]


def _oracle_verdict(degrees):
    return all(rep["maximal"] for rep in degrees)


def _wlp_against_oracle(grid, d_max, trials, seed):
    for d in range(1, d_max + 1):
        oracle = _oracle_degrees(PowersHilbertTable(grid, d), trials, seed.child(d, "form"))
        rep = wlp_test(PowersHilbertTable(grid, d), trials, seed.child(d))
        assert [r.as_dict() for r in rep.degrees] == oracle, d
        verdict = wlp_verdict(PowersHilbertTable(grid, d), trials, seed.child(d))
        assert verdict == rep.verdict == _oracle_verdict(oracle), d


SHAPES = [(a, b) for a in (2, 3, 4) for b in range(a, 7)]


@pytest.mark.parametrize("p", [2**31 - 1, 10007])
@pytest.mark.parametrize("a, b", SHAPES, ids=[f"{a}x{b}" for a, b in SHAPES])
def test_wlp_test_and_verdict_match_the_all_trials_oracle(p, a, b):
    # d = 1..6; every degree of every trial is ranked by the oracle, while
    # wlp_test stops at the generic cokernel and fixes the degrees past the
    # first surjective one
    grid = make_grid(a, b, PrimeField(p), seed=SeedStream(60 + 7 * a + b))
    _wlp_against_oracle(grid, 6, 3, SeedStream(61))


@pytest.mark.parametrize("a, b", [(2, 3), (3, 3)])
def test_wlp_test_and_verdict_match_the_oracle_over_q(qq, a, b):
    grid = make_grid(a, b, qq, seed=SeedStream(62 + a + b))
    _wlp_against_oracle(grid, 3, 2, SeedStream(63))


def test_bx_bits_match_the_oracle(fp, grid36):
    stream = SeedStream(64)
    seq = bx_sequence(grid36, 8, trials=3, seed=stream)
    oracles = [
        _oracle_degrees(PowersHilbertTable(grid36, d), 3, stream.child("bx", d, "form"))
        for d in range(1, 9)
    ]
    bits = [int(_oracle_verdict(oracle)) for oracle in oracles]
    assert seq.bits == bits


@pytest.mark.parametrize("d", [1, 2, 4, 6])
@pytest.mark.parametrize("locus", LOCI, ids=str)
def test_probe_matches_the_all_trials_oracle(fp, grid33, locus, d):
    # d <= a-1 probes the sweep, d = 4, 6 the critical degrees; the probe
    # stops at the generic cokernel and fixes the degrees past the first
    # surjective one, the oracle ranks every trial in every degree
    stream = SeedStream(65).child(d)
    table = PowersHilbertTable(grid33, d)
    degrees = lefschetz.critical_degrees(3, d)
    generic = _oracle_degrees(table, 3, stream.child("form"), "generic", degrees)
    special = _oracle_degrees(table, 3, stream.child("locus-form"), locus, degrees)
    rep = non_lefschetz_probe(PowersHilbertTable(grid33, d), locus, 3, stream)
    assert [e.t for e in rep.entries] == list(degrees or table.sweep())
    assert [(e.generic.as_dict(), e.specialized.as_dict()) for e in rep.entries] == list(
        zip(generic, special)
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_best_maps_match_the_all_trials_oracle_for_powers(fp, grid33, k):
    # x ell^k in every sweep degree t >= k, every trial ranked
    table = PowersHilbertTable(grid33, 4)
    stream = SeedStream(66)
    forms = draw_forms(grid33, "generic", stream, 3)
    powers = [_power_in_b(grid33, ell, k) for ell in forms]
    oracle = [
        max((_power_map(table, p, t) for p in powers), key=lambda r: r.rank)
        for t in table.sweep()
        if t >= k
    ]
    assert list(best_maps(PowersHilbertTable(grid33, 4), "generic", stream, 3, k=k)) == oracle


def test_best_maps_reject_degrees_below_the_power(fp, grid33):
    table = PowersHilbertTable(grid33, 3)
    with pytest.raises(LefschetzError, match="degree t must be >= 1"):
        next(best_maps(table, "generic", SeedStream(67), 2, [0]))
    with pytest.raises(LefschetzError, match="degree t must be >= 2"):
        next(best_maps(table, "generic", SeedStream(67), 2, [1, 2], k=2))


@pytest.mark.parametrize("a, b", [(2, 3), (3, 4), (3, 5), (4, 4)])
def test_generic_draws_on_a_grid_point_are_redrawn(a, b):
    # over F_7 a first draw of SeedStream(8) is dual to a grid point of each
    # of these grids: that form is drawn again from the same stream
    grid = make_grid(a, b, PrimeField(7), seed=SeedStream(8))
    firsts = [SeedStream(8).child("form", k) for k in range(3)]
    assert any(grid.is_grid_point([s.scalar(grid.field) for _ in range(4)]) for s in firsts)
    assert wlp_test(PowersHilbertTable(grid, 1), 3, SeedStream(8)).verdict


def test_chord_draw_on_a_grid_point_is_redrawn():
    # the grid of `nll --a 3 --b 3 --prime 7 --seed 3`: the chord (0,0)-(1,0)
    # lies on a ruling line, and the first draw of trial 0 lands on a grid point
    grid = make_grid(3, 3, PrimeField(7), seed=SeedStream(3))
    p, q = grid.point(0, 0), grid.point(1, 0)
    first = SeedStream(3).child("locus-form", 0).scalar(grid.field)
    assert grid.is_grid_point([x + first * y for x, y in zip(p, q)])
    locus = ("chord", (0, 0), (1, 0))
    rep = non_lefschetz_probe(PowersHilbertTable(grid, 2), locus, 3, SeedStream(3))
    assert [e.t for e in rep.entries] == [1, 2]


def test_verdict_reads_no_degree_past_the_deciding_one(fp, grid36, monkeypatch):
    # 3x6, d=8: maximal at 8, not at 9, so 9 decides the verdict
    table = PowersHilbertTable(grid36, 8)
    asked = []
    basis = table.basis

    def recorded(t):
        asked.append(t)
        return basis(t)

    monkeypatch.setattr(table, "basis", recorded)
    assert wlp_verdict(table, 3, 7) is False
    assert max(asked) == 9
    assert wlp_test(PowersHilbertTable(grid36, 8), 3, 7).failing[0] == 9


@pytest.mark.parametrize("d", [3, 5, 8])
def test_trials_stop_at_the_generic_cokernel(fp, grid36, monkeypatch, d):
    # a degree pulls trials up to the first that is maximal or reaches
    # the generic cokernel, and no degree past the first surjective one
    # from d on pulls any
    trials = _trial_reports(PowersHilbertTable(grid36, d), 3, SeedStream(7).child("form"))
    pulled = []  # the degree of every map measured
    measure = lefschetz._power_map

    def recorded(table, power, t):
        pulled.append(t)
        return measure(table, power, t)

    monkeypatch.setattr(lefschetz, "_power_map", recorded)
    wlp_test(PowersHilbertTable(grid36, d), 3, 7)
    onto = min(t for t, reps in trials.items() if t >= d and min(r.coker_dim for r in reps) == 0)
    for t, reps in trials.items():
        if t < d:
            expected = 1  # injective below d
        elif t > onto:
            expected = 0
        else:
            target = ci_power_dim_formula(3, 6, t - d + 1, t)
            assert min(r.coker_dim for r in reps) >= target
            hits = [k for k, r in enumerate(reps) if r.maximal or r.coker_dim == target]
            expected = hits[0] + 1 if hits else len(reps)
        assert pulled.count(t) == expected, t
    # every degree of this grid has a first trial at the generic cokernel
    assert all(pulled.count(t) <= 1 for t in trials)


def _map(coker):
    # x ell : A_2 -> A_3 with dims 10 -> 12; maximal means coker 2
    return MultMapReport(3, 10, 12, coker)


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


def test_report_validates_on_construction():
    rep = MultMapReport(5, 20, 14, 1)
    assert (rep.rank, rep.kernel_dim, rep.coker_dim) == (13, 7, 1)
    assert not rep.maximal
    with pytest.raises(AssertionError):
        MultMapReport(5, 4, 14, 1)  # rank 13 > dim_from


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
        lambda: wlp_test(PowersHilbertTable(grid33, 3), trials=0),
        lambda: non_lefschetz_probe(PowersHilbertTable(grid33, 4), ("plane", 0, 0), trials=0),
        lambda: slp_probe(PowersHilbertTable(grid33, 4), 2, trials=0),
        lambda: bx_sequence(grid33, 2, trials=0),
    ):
        with pytest.raises(LefschetzError, match="trials must be >= 1"):
            call()
