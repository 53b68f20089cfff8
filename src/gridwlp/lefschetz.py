"""Multiplication-map analysis for quotients by powers ideals: per-degree
rank/kernel/cokernel reports, WLP verdicts with a genericity protocol,
non-Lefschetz locus probes, strong-Lefschetz probes, and B_X bit sequences.

Every map x ell^k : A_(t-k) -> A_t is measured in the ring B of the Hilbert
table (ideals.PowersHilbertTable) the caller passes in: ell goes into B's
coordinates, and the rank is that of the contraction ell^k o J^perp_t, read
from the table's basis of the inverse system J^perp_t. The test suite checks
it against the full-ring count dim R_t - dim([I]_t + ell^k R_(t-k)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .field import SeedStream
from .formulas import ci_power_dim_formula
from .geometry import GridConfig, sample_form
from .ideals import PowersHilbertTable, _b_coordinates, _contraction
from .linalg import rank
from .polyspace import PolyVector, linear_power


class LefschetzError(ValueError):
    pass


@dataclass
class MultMapReport:
    """Rank data for x ell^k : A_(t-k) -> A_t, from its measured cokernel;
    rank and kernel follow by rank counting, and none may be negative."""

    t: int
    dim_from: int
    dim_to: int
    coker_dim: int

    def __post_init__(self):
        assert min(self.rank, self.kernel_dim, self.coker_dim) >= 0

    @property
    def rank(self) -> int:
        return self.dim_to - self.coker_dim

    @property
    def kernel_dim(self) -> int:
        return self.dim_from - self.rank

    @property
    def maximal(self) -> bool:
        # injective, or surjective when dim_from > dim_to
        return self.kernel_dim == max(0, self.dim_from - self.dim_to)

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "dimFrom": self.dim_from,
            "dimTo": self.dim_to,
            "rank": self.rank,
            "ker": self.kernel_dim,
            "coker": self.coker_dim,
            "maximal": self.maximal,
        }


@dataclass
class WlpReport:
    """The best report per degree of a WLP sweep; the verdict and the failing
    degrees are read from them."""

    grid: GridConfig
    d: int
    trials: int
    degrees: list

    @property
    def failing(self) -> list:
        return [rep.t for rep in self.degrees if not rep.maximal]

    @property
    def verdict(self) -> bool:
        return not self.failing

    def to_json(self) -> str:
        p = getattr(self.grid.field, "p", None)
        return json.dumps(
            {
                "grid": {
                    "a": self.grid.a,
                    "b": self.grid.b,
                    "u": [int(x) if p else str(x) for x in self.grid.u],
                    "v": [int(x) if p else str(x) for x in self.grid.v],
                },
                "d": self.d,
                "prime": p,
                "trials": self.trials,
                "degrees": [rep.as_dict() for rep in self.degrees],
                "verdict": self.verdict,
                "failing": self.failing,
            }
        )


def _power_in_b(grid: GridConfig, ell, k: int) -> PolyVector:
    """ell^k in B's coordinates, for ell not dual to a grid point."""
    field = grid.field
    ell = [field.normalize(c) for c in ell]
    if all(c == 0 for c in ell):
        raise LefschetzError("ell must be nonzero")
    if grid.is_grid_point(ell):
        raise LefschetzError("ell is dual to a grid point")
    return linear_power(_b_coordinates(grid, ell), k, field)


def _power_map(table, power: PolyVector, t: int) -> MultMapReport:
    """x ell^k : A_(t-k) -> A_t for power = ell^k in B's coordinates: the
    rank of the contraction ell^k o J^perp_t."""
    if t < table.d:
        # I is zero below degree d, and x ell^k is injective on R
        coker = table.quotient_dim(t) - table.quotient_dim(t - power.degree)
    else:
        image = _contraction(table, power, t)
        coker = image.shape[0] - rank(image, table.grid.field)
    return MultMapReport(t, table.quotient_dim(t - power.degree), table.quotient_dim(t), coker)


def mult_map_analysis(table: PowersHilbertTable, ell, t: int) -> MultMapReport:
    """Measure x ell : A_(t-1) -> A_t by exact rank computations."""
    if t < 1:
        raise LefschetzError("degree t must be >= 1")
    return _power_map(table, _power_in_b(table.grid, ell, 1), t)


def draw_forms(grid: GridConfig, locus, stream: SeedStream, trials: int) -> list:
    """The forms of one best-of-trials run: trial k samples `locus` from
    stream.child(k)."""
    if trials < 1:
        raise LefschetzError("trials must be >= 1")
    return [sample_form(grid, locus, stream.child(k)) for k in range(trials)]


def best_map(reports, stop_coker=None) -> MultMapReport:
    """The first report of highest rank. `reports` is consumed lazily: no
    trial beats a maximal report, so pulling stops there, and also once the
    best cokernel equals `stop_coker`."""
    reports = iter(reports)
    best = next(reports, None)
    if best is None:
        raise LefschetzError("best_map needs at least one report")
    while not (best.maximal or best.coker_dim == stop_coker):
        rep = next(reports, None)
        if rep is None:
            break
        if rep.rank > best.rank:
            best = rep
    return best


def best_maps(
    table: PowersHilbertTable, locus, stream: SeedStream, trials: int, degrees=None, k: int = 1
):
    """The first report of highest rank of x ell^k into each degree of
    `degrees`, ascending (default: every t >= k of table.sweep()), lazily;
    `trials` forms of `locus` are drawn from `stream` once and reused in
    every degree.

    Only ranks that can differ from what is known are measured, and both
    rules hold for every form, not only a generic one. For k = 1 and t >= d
    no form's cokernel is below the characteristic-0 generic one: over Q by
    semicontinuity, and over F_p because the form and grid lift to integers
    and a rank can only drop mod p. A grid is geproci: a general projection
    of it is a complete intersection of type (a, b), so by apolarity that
    cokernel is ci_power_dim_formula(a, b, t - d + 1, t), and the first
    trial that reaches it is the first of highest rank. A is generated in
    degree 1, so once x ell^k is onto at some t >= d it is onto in every
    later degree: those reports are fixed by a_(t-k) and a_t and need no
    rank.
    """
    grid, d = table.grid, table.d
    powers = [_power_in_b(grid, ell, k) for ell in draw_forms(grid, locus, stream, trials)]
    if degrees is None:
        degrees = (t for t in table.sweep() if t >= k)
    onto = False
    for t in degrees:
        if t < k:
            raise LefschetzError(f"degree t must be >= {k}")
        if onto:
            rep = MultMapReport(t, table.quotient_dim(t - k), table.quotient_dim(t), 0)
        else:
            closed_form = k == 1 and t >= d
            target = ci_power_dim_formula(grid.a, grid.b, t - d + 1, t) if closed_form else None
            rep = best_map((_power_map(table, p, t) for p in powers), stop_coker=target)
            onto = t >= d and rep.coker_dim == 0
        yield rep


def wlp_test(table: PowersHilbertTable, trials: int = 3, seed=0xC0FFEE) -> WlpReport:
    """Sweep every degree to the socle; per degree keep the best rank over
    `trials` independent generic forms, drawn once and reused in every
    degree. Maximal rank certified by any single trial; failure requires all
    trials to agree."""
    reports = list(best_maps(table, "generic", SeedStream.of(seed).child("form"), trials))
    return WlpReport(grid=table.grid, d=table.d, trials=trials, degrees=reports)


def wlp_verdict(table: PowersHilbertTable, trials: int = 3, seed=0xC0FFEE) -> bool:
    """wlp_test(table, trials, seed).verdict, read up to the degree that
    decides it: the first non-maximal degree (False), or the first
    surjective one from d on (True), past which every map is onto. A degree
    t >= d whose closed-form cokernel c_t exceeds the maximal one, max(0,
    a_t - a_(t-1)), fails for every form (no cokernel is below c_t, see
    best_maps), so it returns False there before any form is ranked."""
    grid, d = table.grid, table.d
    proven = []

    def degrees():
        for t in table.sweep():
            delta = table.quotient_dim(t) - table.quotient_dim(t - 1)
            if t >= d and ci_power_dim_formula(grid.a, grid.b, t - d + 1, t) > max(0, delta):
                proven.append(t)
                return
            yield t

    for rep in best_maps(table, "generic", SeedStream.of(seed).child("form"), trials, degrees()):
        if not rep.maximal:
            return False
        if rep.t >= d and rep.coker_dim == 0:
            return True
    return not proven


@dataclass
class ProbeEntry:
    t: int
    generic: MultMapReport
    specialized: MultMapReport

    @property
    def achieves_generic(self) -> bool:
        return self.specialized.rank >= self.generic.rank

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "generic": self.generic.as_dict(),
            "specialized": self.specialized.as_dict(),
            "pass": self.achieves_generic,
        }


@dataclass
class NonLefschetzReport:
    grid: GridConfig
    d: int
    locus: object
    entries: list

    @property
    def member_of_locus(self) -> bool:
        return any(not e.achieves_generic for e in self.entries)

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "locus": str(self.locus),
                "entries": [e.as_dict() for e in self.entries],
                "member_of_locus": self.member_of_locus,
            }
        )


def critical_degrees(a: int, d: int) -> list:
    """Degrees probed for the WLP cases: the full sweep range for d <= a-1,
    else the critical pair (aq-2, aq-1) for d = q(a-1)."""
    if d <= a - 1:
        return None  # caller sweeps everything
    if d % (a - 1) != 0:
        raise LefschetzError("probe degrees are defined for d <= a-1 or (a-1) | d")
    q = d // (a - 1)
    return [a * q - 2, a * q - 1]


def non_lefschetz_probe(
    table: PowersHilbertTable, locus, trials: int = 3, seed=0xC0FFEE
) -> NonLefschetzReport:
    """Compare ranks of x ell for ell sampled from a special locus against the
    generic ranks, at the degrees that decide the WLP."""
    stream = SeedStream.of(seed)
    grid, d = table.grid, table.d
    degs = critical_degrees(grid.a, d)
    if degs is not None:
        degs = [t for t in degs if table.quotient_dim(t) > 0]
    # the two walks advance in step: the table keeps only its last basis.
    # The special one goes first, so that its draw checks the locus even
    # where no degree is probed
    entries = [
        ProbeEntry(t=spe.t, generic=gen, specialized=spe)
        for spe, gen in zip(
            best_maps(table, locus, stream.child("locus-form"), trials, degs),
            best_maps(table, "generic", stream.child("form"), trials, degs),
        )
    ]
    return NonLefschetzReport(grid=grid, d=d, locus=locus, entries=entries)


def slp_probe(table: PowersHilbertTable, k: int, trials: int = 3, seed=0xC0FFEE):
    """Maximal-rank reports for multiplication by the k-th power of a generic
    form, one per degree t >= k; purely exploratory output. For k = 1 these
    are the degrees of wlp_test."""
    if k < 1:
        raise LefschetzError("k must be >= 1")
    if k == 1:
        return wlp_test(table, trials, seed).degrees
    return list(best_maps(table, "generic", SeedStream.of(seed).child("slp-form"), trials, k=k))


@dataclass
class BxSequence:
    """WLP bits b_d for d = 1..dmax; for a < b the bits with d >= a live in
    the conjectural region (computed verdicts, no theorem)."""

    a: int
    b: int
    dmax: int
    bits: list

    @property
    def conjectural(self) -> list:
        return list(range(self.a, self.dmax + 1)) if self.a < self.b else []

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": self.a,
                "b": self.b,
                "dmax": self.dmax,
                "bits": self.bitstring(),
                "conjectural_d": self.conjectural,
            }
        )


def bx_sequence(grid: GridConfig, dmax: int, trials: int = 3, seed=0xC0FFEE) -> BxSequence:
    if dmax < 1:
        raise LefschetzError("dmax must be >= 1")
    stream = SeedStream.of(seed)
    bits = []
    for d in range(1, dmax + 1):
        verdict = wlp_verdict(PowersHilbertTable(grid, d), trials, stream.child("bx", d))
        bits.append(1 if verdict else 0)
    return BxSequence(a=grid.a, b=grid.b, dmax=dmax, bits=bits)
