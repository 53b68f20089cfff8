"""Grids on the Segre quadric x1*x4 - x2*x3: points, dual forms, ruling lines,
and sampling of linear forms on special loci (tangent planes, rulings, chords).

Coordinates are normalized so the grid point with parameters (u_i, v_j) is
(1, v_j, u_i, u_i*v_j); every smooth quadric with an a x b grid is projectively
equivalent to this, and it makes ruling lines and tangent planes closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import PrimeTooSmallError, SeedStream
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

    Every locus is drawn by one rule: draw a point of it, and draw again while
    the point is special, at most 64 times. A plane point is special on a line
    through two grid points (which holds every grid point and ruling line);
    any other point is special on a grid point.
    """
    draw, special = _locus_rule(grid, locus)
    for _ in range(64):
        pt = draw(stream)
        if not special(pt):
            return pt
    raise InvalidLocusError(
        f"could not sample {locus!r} off the grid points (for a plane, off the lines through two)"
    )


def _locus_rule(grid: GridConfig, locus) -> tuple:
    """(draw, special) for a checked locus: draw(stream) is a point of it."""
    f, u, v = grid.field, grid.u, grid.v
    if locus == "generic":
        return (lambda s: tuple(s.scalar(f) for _ in range(4))), grid.is_grid_point
    kind = locus[0] if isinstance(locus, tuple) and len(locus) == 3 else None
    if kind == "plane":
        _, i, j = locus
        _check_indices(grid, i, j)

        def draw(s):
            # a point of Lambda_ij: x4 = u_i x2 + v_j x3 - u_i v_j x1
            x1, x2, x3 = (s.scalar(f) for _ in range(3))
            x4 = f.sub(f.add(f.mul(u[i], x2), f.mul(v[j], x3)), f.mul(f.mul(u[i], v[j]), x1))
            return (x1, x2, x3, x4)

        pts = grid.points()
        return draw, lambda pt: any(
            _on_line(pt, p, q, f) for s, p in enumerate(pts) for q in pts[s + 1 :]
        )
    if kind == "ruling" and locus[1] == "lambda":
        i = locus[2]
        if not 0 <= i < grid.a:
            raise InvalidLocusError("lambda index out of range")
        return (lambda s: _ruling_point(f, u[i], s.scalar(f))), grid.is_grid_point
    if kind == "ruling" and locus[1] == "mu":
        j = locus[2]
        if not 0 <= j < grid.b:
            raise InvalidLocusError("mu index out of range")
        return (lambda s: _ruling_point(f, s.scalar(f), v[j])), grid.is_grid_point
    if kind == "chord":
        _, pij, pkl = locus
        if pij == pkl:
            raise InvalidLocusError("chord endpoints must be distinct grid points")
        _check_indices(grid, *pij)
        _check_indices(grid, *pkl)
        p1, p2 = grid.point(*pij), grid.point(*pkl)

        def draw(s):
            c = s.scalar(f)
            return tuple(f.add(x, f.mul(c, y)) for x, y in zip(p1, p2))

        return draw, grid.is_grid_point
    raise InvalidLocusError(f"bad {'ruling ' if kind == 'ruling' else ''}locus {locus!r}")


def _ruling_point(f, s, t) -> tuple:
    # the point of P^1 x P^1 with parameters (s, t)
    return (f.one, t, s, f.mul(s, t))


def _check_indices(grid, i, j):
    if not (0 <= i < grid.a and 0 <= j < grid.b):
        raise InvalidLocusError(f"grid index ({i},{j}) out of range")


def _on_line(x, p, q, field) -> bool:
    """Whether x lies on the line through p and q, distinct points with first
    coordinate 1: whether x - x1 p is a multiple of q - p, that is, whether
    the 2x2 minors of those two vectors on coordinates 2-4 vanish."""
    f = field
    x = [f.normalize(c) for c in x]
    y = [f.sub(x[k], f.mul(x[0], p[k])) for k in (1, 2, 3)]
    w = [f.sub(q[k], p[k]) for k in (1, 2, 3)]
    return all(
        f.mul(y[m], w[n]) == f.mul(y[n], w[m]) for m, n in ((0, 1), (0, 2), (1, 2))
    )
