import numpy as np
import pytest

from gridwlp import (
    PrimeField,
    RationalField,
    SeedStream,
    geometry,
    make_grid,
    sample_form,
)
from gridwlp.field import PrimeTooSmallError
from gridwlp.geometry import GridError, InvalidLocusError
from gridwlp.linalg import rank
from gridwlp.polyspace import TOTAL4, vanishing_rows


def test_grid_construction_invariants(fp):
    grid = make_grid(3, 6, fp, seed=SeedStream(1))
    assert grid.a == 3 and grid.b == 6
    assert len(grid.points()) == 18
    q = grid.quadric()
    # order-1 rows are evaluations at the points; q has two coefficients, so
    # the int64 sums stay below 2^63
    values = vanishing_rows(TOTAL4, 2, grid.points(), 1, fp) @ q.coeffs
    assert not (values % fp.p).any()


def test_grid_normalizes_orientation(fp):
    grid = make_grid(6, 3, fp, seed=SeedStream(2))
    assert (grid.a, grid.b) == (3, 6)


def test_explicit_params_and_duplicates(fp):
    grid = make_grid(3, 3, fp, u=[1, 2, 3], v=[4, 5, 6])
    assert grid.u == (1, 2, 3)
    with pytest.raises(GridError):
        make_grid(3, 3, fp, u=[1, 1, 3], v=[4, 5, 6])
    with pytest.raises(GridError):
        make_grid(1, 3, fp, u=[1], v=[4, 5, 6])


def test_grids_compare_by_value_field_included(fp, qq):
    # equal parameters over the same field give equal, hash-equal grids; Q
    # and F_p grids with equal parameters differ
    u, v = [1, 2], [3, 5, 7]
    g1, g2 = make_grid(2, 3, fp, u=u, v=v), make_grid(2, 3, fp, u=u, v=v)
    others = (make_grid(2, 3, qq, u=u, v=v), make_grid(2, 3, PrimeField(10007), u=u, v=v))
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    assert all(g1 != g for g in others)


def test_prime_too_small_for_explicit_params():
    small = PrimeField(101)
    with pytest.raises(PrimeTooSmallError):
        make_grid(3, 6, small, u=[1, 2, 3], v=[1, 2, 3, 4, 5, 6])


def test_prime_too_small_for_random_params(monkeypatch):
    # a random ruling of b lines needs b distinct nonzero residues, p > b
    def no_draws(*args, **kwargs):
        raise AssertionError("parameters drawn before the prime guard")

    monkeypatch.setattr(SeedStream, "distinct_scalars", no_draws)
    with pytest.raises(PrimeTooSmallError):
        make_grid(3, 4, PrimeField(3), seed=1)
    with pytest.raises(PrimeTooSmallError):
        make_grid(4, 3, PrimeField(3), seed=1)
    monkeypatch.undo()
    grid = make_grid(3, 4, PrimeField(5), seed=1)
    assert sorted(grid.v) == [1, 2, 3, 4]


def _rank_on_line(x, p, q, field):
    # x lies on the line through p and q exactly when [x; p; q] has rank <= 2
    return rank(field.array([[field.normalize(c) for c in x], list(p), list(q)]), field) <= 2


def _on_lambda(grid, i, x):
    return _rank_on_line(x, grid.point(i, 0), grid.point(i, 1), grid.field)


def _on_mu(grid, j, x):
    return _rank_on_line(x, grid.point(0, j), grid.point(1, j), grid.field)


def _on_tangent_plane(grid, i, j, point):
    # the tangent plane at point (i, j): u_i v_j x1 - u_i x2 - v_j x3 + x4 = 0
    f = grid.field
    coeffs = (f.mul(grid.u[i], grid.v[j]), f.neg(grid.u[i]), f.neg(grid.v[j]), f.one)
    acc = f.zero
    for c, x in zip(coeffs, point):
        acc = f.add(acc, f.mul(c, f.normalize(x)))
    return acc == f.zero


def test_tangent_plane_contains_exactly_its_two_rulings(fp, grid33):
    for i in range(3):
        for j in range(3):
            members = [
                (k, l)
                for k in range(3)
                for l in range(3)
                if _on_tangent_plane(grid33, i, j, grid33.point(k, l))
            ]
            assert len(members) == 5  # a + b - 1
            assert all(k == i or l == j for k, l in members)


def test_sample_plane_point_on_plane_off_lines(fp, grid33):
    pt = sample_form(grid33, ("plane", 1, 1), SeedStream(3).child("p"))
    assert _on_tangent_plane(grid33, 1, 1, pt)
    assert not any(_on_lambda(grid33, i, pt) for i in range(3))
    assert not any(_on_mu(grid33, j, pt) for j in range(3))


def test_sample_chord_lies_on_exactly_two_tangent_planes(fp, grid33):
    pt = sample_form(grid33, ("chord", (0, 1), (1, 0)), SeedStream(4).child("c"))
    planes = [
        (i, j)
        for i in range(3)
        for j in range(3)
        if _on_tangent_plane(grid33, i, j, pt)
    ]
    assert sorted(planes) == [(0, 0), (1, 1)]


def test_sample_ruling_point_lies_on_a_planes(fp, grid33):
    pt = sample_form(grid33, ("ruling", "lambda", 0), SeedStream(5).child("r"))
    assert _on_lambda(grid33, 0, pt)
    planes = [
        (i, j)
        for i in range(3)
        for j in range(3)
        if _on_tangent_plane(grid33, i, j, pt)
    ]
    assert planes == [(0, 0), (0, 1), (0, 2)]
    pt = sample_form(grid33, ("ruling", "mu", 2), SeedStream(5).child("r2"))
    assert _on_mu(grid33, 2, pt)
    planes = [
        (i, j)
        for i in range(3)
        for j in range(3)
        if _on_tangent_plane(grid33, i, j, pt)
    ]
    assert planes == [(0, 2), (1, 2), (2, 2)]


def test_invalid_locus_rejected(fp, grid33):
    s = SeedStream(6)
    with pytest.raises(InvalidLocusError):
        sample_form(grid33, ("plane", 5, 0), s)
    with pytest.raises(InvalidLocusError):
        sample_form(grid33, ("chord", (0, 0), (0, 0)), s)
    with pytest.raises(InvalidLocusError):
        sample_form(grid33, ("moon",), s)


def test_is_grid_point_matches_proportionality():
    # over F_7 every vector of 4 residues below, zeros included; the oracle
    # is rank <= 1 of the vector stacked on a grid point
    field = PrimeField(7)
    grid = make_grid(3, 4, field, seed=SeedStream(10))
    stream = SeedStream(11)
    vectors = [[stream.below(7) for _ in range(4)] for _ in range(400)]
    vectors += [[field.mul(c, x) for x in p] for p in grid.points() for c in range(1, 7)]
    hits = 0
    for x in vectors:
        oracle = any(rank(np.array([x, p], dtype=np.int64), field) <= 1 for p in grid.points())
        assert grid.is_grid_point(x) == (oracle and any(x)), x
        hits += oracle and any(x)
    assert hits > 72

def test_generic_draw_gives_up_after_64_grid_points(fp, grid33, monkeypatch):
    # the bound of the plane draw: every draw lands on a grid point here
    monkeypatch.setattr(geometry.GridConfig, "is_grid_point", lambda self, point: True)
    with pytest.raises(InvalidLocusError, match="off the grid points"):
        sample_form(grid33, "generic", SeedStream(9))


def _collinear_pairs(grid, p):
    # the projection from p identifies two grid points exactly when p lies on
    # the line through them
    idx = [(i, j) for i in range(grid.a) for j in range(grid.b)]
    pts = grid.points()
    return [
        (idx[s], idx[t])
        for s in range(len(pts))
        for t in range(s + 1, len(pts))
        if _rank_on_line(p, pts[s], pts[t], grid.field)
    ]


@pytest.mark.parametrize(
    "field", [PrimeField(7), PrimeField(2**31 - 1), RationalField()], ids=str
)
def test_on_line_matches_rank(field):
    # every pair of grid points of a 3x4 grid, against random points and
    # points alpha p + beta q of their line
    grid = make_grid(3, 4, field, seed=SeedStream(12))
    stream = SeedStream(13)
    pts = grid.points()
    hits = 0
    for s, p in enumerate(pts):
        for q in pts[s + 1 :]:
            xs = [[stream.scalar(field) for _ in range(4)] for _ in range(3)]
            for _ in range(3):
                alpha, beta = stream.scalar(field), stream.scalar(field)
                xs.append([field.add(field.mul(alpha, x), field.mul(beta, y)) for x, y in zip(p, q)])
            for x in xs:
                on = geometry._on_line(x, p, q, field)
                assert on == _rank_on_line(x, p, q, field), (p, q, x)
                hits += on
    assert hits >= 3 * 66


def test_generic_projection_injective(fp, grid33):
    p = sample_form(grid33, "generic", SeedStream(7).child("pt"))
    assert _collinear_pairs(grid33, p) == []


def test_chord_projection_collapses_exactly_one_pair(fp, grid33):
    p = sample_form(grid33, ("chord", (0, 1), (1, 0)), SeedStream(8).child("pt"))
    assert _collinear_pairs(grid33, p) == [((0, 1), (1, 0))]


def test_ruling_projection_collapses_the_line(fp, grid33):
    p = sample_form(grid33, ("ruling", "lambda", 0), SeedStream(9).child("pt"))
    assert _collinear_pairs(grid33, p) == [((0, 0), (0, 1)), ((0, 0), (0, 2)), ((0, 1), (0, 2))]
