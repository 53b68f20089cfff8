"""Grids on the Segre quadric x1*x4 - x2*x3: points, dual forms, ruling lines,
and sampling of linear forms on special loci (tangent planes, rulings, chords).

Coordinates are normalized so the grid point with parameters (u_i, v_j) is
(1, v_j, u_i, u_i*v_j); every smooth quadric with an a x b grid is projectively
equivalent to this, and it makes ruling lines and tangent planes closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeTooSmallError, SeedStream
from .linalg import rank
from .polyspace import TOTAL4, PolyVector, poly_from_terms


class GridError(ValueError):
    pass


class InvalidLocusError(ValueError):
    pass


@dataclass(frozen=True)
class GridConfig:
    """An a x b grid on the quadric, a <= b, with distinct P^1 parameters."""

    a: int
    b: int
    u: tuple
    v: tuple
    field: object

    def __post_init__(self):
        if self.a < 2 or self.b < 2:
            raise GridError("grid needs a, b >= 2")
        if self.a > self.b:
            raise GridError("grid stores a <= b; use make_grid to normalize")
        if len(set(self.u)) != self.a or len(set(self.v)) != self.b:
            raise GridError("grid parameters must be distinct")

    def point(self, i: int, j: int) -> tuple:
        # also the coefficients of the linear form dual to the point
        f = self.field
        return (f.one, self.v[j], self.u[i], f.mul(self.u[i], self.v[j]))

    def points(self) -> list:
        return [self.point(i, j) for i in range(self.a) for j in range(self.b)]

    def quadric(self) -> PolyVector:
        f = self.field
        return poly_from_terms(
            TOTAL4, 2, {(1, 0, 0, 1): f.one, (0, 1, 1, 0): f.neg(f.one)}, f
        )

    def on_lambda(self, i: int, point) -> bool:
        """The ruling line with u fixed at u_i: x3 = u_i x1 and x4 = u_i x2."""
        f = self.field
        x1, x2, x3, x4 = [f.normalize(c) for c in point]
        return x3 == f.mul(self.u[i], x1) and x4 == f.mul(self.u[i], x2)

    def on_mu(self, j: int, point) -> bool:
        """The ruling line with v fixed at v_j: x2 = v_j x1 and x4 = v_j x3."""
        f = self.field
        x1, x2, x3, x4 = [f.normalize(c) for c in point]
        return x2 == f.mul(self.v[j], x1) and x4 == f.mul(self.v[j], x3)

    def is_grid_point(self, point) -> bool:
        """Whether `point` is proportional to a grid point (1, v_j, u_i, u_i v_j):
        its x1 is nonzero, and x3/x1 = u_i, x2/x1 = v_j and x4/x1 = u_i v_j."""
        f = self.field
        x1, x2, x3, x4 = [f.normalize(c) for c in point]
        if x1 == 0:
            return False
        u, v = f.div(x3, x1), f.div(x2, x1)
        return u in self.u and v in self.v and f.div(x4, x1) == f.mul(u, v)

    def param_pairs(self) -> list:
        """The (u_i, v_j) parameter pairs: the grid as points of P^1 x P^1."""
        return [(self.u[i], self.v[j]) for i in range(self.a) for j in range(self.b)]


def make_grid(a: int, b: int, field, seed=None, u=None, v=None) -> GridConfig:
    """Build a grid from a seed (random distinct parameters) or explicit ones.

    Explicit integer parameters are checked against the modulus: distinct
    small grids must stay distinct mod p, which needs p > 2 * max(param)^4.
    Random parameters are distinct nonzero residues, which needs p > b.
    """
    if (u is None) != (v is None):
        raise GridError("give both u and v, or neither")
    if a > b:
        a, b = b, a
        if u is not None:
            u, v = v, u
    if u is not None:
        # small published-table parameters must stay nondegenerate mod p
        ints = [x for x in list(u) + list(v) if isinstance(x, int) and abs(x) <= 10**6]
        p = getattr(field, "p", None)
        if p is not None and ints:
            bound = 2 * max(abs(x) for x in ints) ** 4
            if p <= bound:
                raise PrimeTooSmallError(
                    f"prime {p} too small for explicit parameters (needs > {bound})"
                )
        uu = tuple(field.normalize(x) for x in u)
        vv = tuple(field.normalize(x) for x in v)
    else:
        if seed is None:
            raise GridError("need a seed or explicit parameters")
        # a ruling of b lines needs b distinct nonzero residues
        if not field.rational and field.p - 1 < b:
            raise PrimeTooSmallError(
                f"prime {field.p} too small for a random {a}x{b} grid (needs > {b})"
            )
        gs = SeedStream.of(seed).child("grid")
        uu = tuple(gs.child("u").distinct_scalars(field, a))
        vv = tuple(gs.child("v").distinct_scalars(field, b))
    if len(uu) != a or len(vv) != b:
        raise GridError("parameter count does not match grid dimensions")
    return GridConfig(a=a, b=b, u=uu, v=vv, field=field)


def sample_form(grid: GridConfig, locus, stream: SeedStream) -> tuple:
    """Linear form dual to a random point of the requested locus.

    locus: "generic" | ("plane", i, j) | ("ruling", "lambda", i) |
           ("ruling", "mu", j) | ("chord", (i1, j1), (i2, j2))
    """
    f = grid.field
    if locus == "generic" or locus == ("generic",):
        for _ in range(64):
            pt = tuple(stream.scalar(f) for _ in range(4))
            if not grid.is_grid_point(pt):
                return pt
        raise InvalidLocusError("could not sample a generic form off the grid points")
    if not isinstance(locus, tuple) or not locus:
        raise InvalidLocusError(f"bad locus {locus!r}")
    kind = locus[0]
    if kind == "plane":
        _, i, j = locus
        _check_indices(grid, i, j)
        for _ in range(64):
            # random point of Lambda_ij: x4 = u_i x2 + v_j x3 - u_i v_j x1
            x1, x2, x3 = (stream.scalar(f) for _ in range(3))
            x4 = f.sub(
                f.add(f.mul(grid.u[i], x2), f.mul(grid.v[j], x3)),
                f.mul(f.mul(grid.u[i], grid.v[j]), x1),
            )
            pt = (x1, x2, x3, x4)
            if _off_configuration_lines(grid, pt):
                return pt
        raise InvalidLocusError("could not sample a plane point off the lines")
    if kind == "ruling":
        _, which, i = locus
        if which == "lambda":
            if not 0 <= i < grid.a:
                raise InvalidLocusError("lambda index out of range")
            for _ in range(64):
                t = stream.scalar(f)
                if t not in grid.v:
                    return (f.one, t, grid.u[i], f.mul(grid.u[i], t))
        elif which == "mu":
            if not 0 <= i < grid.b:
                raise InvalidLocusError("mu index out of range")
            for _ in range(64):
                t = stream.scalar(f)
                if t not in grid.u:
                    return (f.one, grid.v[i], t, f.mul(t, grid.v[i]))
        raise InvalidLocusError(f"bad ruling locus {locus!r}")
    if kind == "chord":
        _, pij, pkl = locus
        if pij == pkl:
            raise InvalidLocusError("chord endpoints must be distinct grid points")
        _check_indices(grid, *pij)
        _check_indices(grid, *pkl)
        p1 = grid.point(*pij)
        p2 = grid.point(*pkl)
        c = stream.scalar(f)
        return tuple(f.add(x, f.mul(c, y)) for x, y in zip(p1, p2))
    raise InvalidLocusError(f"bad locus {locus!r}")


def _check_indices(grid, i, j):
    if not (0 <= i < grid.a and 0 <= j < grid.b):
        raise InvalidLocusError(f"grid index ({i},{j}) out of range")


def _off_configuration_lines(grid: GridConfig, pt) -> bool:
    if grid.is_grid_point(pt):
        return False
    for i in range(grid.a):
        if grid.on_lambda(i, pt):
            return False
    for j in range(grid.b):
        if grid.on_mu(j, pt):
            return False
    pts = grid.points()
    f = grid.field
    for s in range(len(pts)):
        for t in range(s + 1, len(pts)):
            if _on_line(pt, pts[s], pts[t], f):
                return False
    return True


def _on_line(x, p, q, field) -> bool:
    mat = np.array(
        [[field.normalize(c) for c in x], list(p), list(q)], dtype=object
    )
    if not field.rational:
        mat = mat.astype(np.int64)
    return rank(mat, field) <= 2
