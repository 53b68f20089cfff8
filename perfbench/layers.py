"""Per-layer metrics computed from the spans of one traced job.

A span is ``[name, start, end, parent, info]`` as ``tracer`` records it; a
span's nearest traced ancestor is its parent. Self time is a span's duration
minus the time its children cover; the self times of all spans add up to the
duration of the root span (``cli.main``).

``linalg.rank`` calls fall into one size class each, by the route the input
shape selects: rational field first, then min(m, n) <= 48 (the unblocked
route, "small"), then m*n >= 1M cells ("large"), else "mid". Cells, ops
(m*n*r) and bytes are computed from array shapes, not measured.
"""

from __future__ import annotations

from tracer import LAYERS

SMALL_MIN_DIM = 48
LARGE_CELLS = 1_000_000
N_CHECKS = 11

# metrics computed from array shapes rather than measured
COMPUTED = {
    "linalg.rank.cells",
    "linalg.rank.ops",
    "linalg.rank.max_cells",
    "ideals.shifted_products_matrix.bytes",
    "ideals.shifted_products_matrix.max_bytes",
}

FAT_POINTS = {
    "ideals.fat_points_dim",
    "ideals.fat_points_hf",
    "ideals.fat_points_piece",
    "ideals.bigraded_fat_points_piece",
    "ideals.fat_points_matrix",
}
PERP = {"ideals.perp_piece", "ideals.perp_quotient_hf", "ideals.contraction_matrix"}
CI_POWER = {"ideals.ci_power_piece", "ideals.check_regular_sequence", "ideals.ci_power_dim_formula"}
SOCLE = {"ideals.socle_dims", "ideals.quotient_socle_cap"}


def _ratio(num, den):
    return num / den if den else 0.0


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.self_s = list(self.dur)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.self_s[s[3]] -= self.dur[i]

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def outermost(self, names):
        """Spans in `names` with no ancestor in `names`."""
        inside = [False] * len(self.spans)
        out = []
        for i, s in enumerate(self.spans):
            p = s[3]
            inside[i] = p >= 0 and (inside[p] or self.spans[p][0] in names)
            if s[0] in names and not inside[i]:
                out.append(i)
        return out

    def total(self, idx):
        return sum((self.dur[i] for i in idx), 0.0)

    def group_s(self, names):
        return self.total(self.outermost(set(names)))


def _rank_metrics(sp: _Spans, gflops: float) -> dict:
    calls = sp.named("linalg.rank")
    cls = {"rational": [], "small": [], "large": [], "mid": []}
    cells = ops = max_cells = 0
    full, tall = [], []
    for i in calls:
        m, n, r, rational = sp.spans[i][4]
        if rational:
            cls["rational"].append(i)
        elif min(m, n) <= SMALL_MIN_DIM:
            cls["small"].append(i)
        elif m * n >= LARGE_CELLS:
            cls["large"].append(i)
        else:
            cls["mid"].append(i)
        cells += m * n
        ops += m * n * r
        max_cells = max(max_cells, m * n)
        if r == min(m, n):
            full.append(i)
        if max(m, n) > 2 * min(m, n):
            tall.append(i)
    rank_s = sp.total(calls)
    floor_s = 4 * ops / (gflops * 1e9) if gflops else 0.0
    return {
        "linalg.rank.calls": len(calls),
        "linalg.rank.s": rank_s,
        "linalg.rank.large_s": sp.total(cls["large"]),
        "linalg.rank.large_calls": len(cls["large"]),
        "linalg.rank.mid_s": sp.total(cls["mid"]),
        "linalg.rank.small_s": sp.total(cls["small"]),
        "linalg.rank.small_calls": len(cls["small"]),
        "linalg.rank.rational_s": sp.total(cls["rational"]),
        "linalg.rank.cells": cells,
        "linalg.rank.ops": ops,
        "linalg.rank.max_cells": max_cells,
        "linalg.rank.full_share": _ratio(len(full), len(calls)),
        "linalg.rank.full_s": sp.total(full),
        "linalg.rank.tall_share_s": _ratio(sp.total(tall), rank_s),
        "linalg.dgemm_gflops": gflops,
        "linalg.rank.floor_ratio": _ratio(rank_s, floor_s),
    }


def _ideals_metrics(sp: _Spans) -> dict:
    pid = sp.named("ideals.powers_ideal_dim")
    pid_set = set(pid)
    missed = set()
    for i in sp.named("linalg.rank"):
        p = sp.spans[i][3]
        while p >= 0:
            if p in pid_set:
                missed.add(p)
            p = sp.spans[p][3]
    spm = sp.named("ideals.shifted_products_matrix")
    spm_bytes = [sp.spans[i][4][2] for i in spm]
    gens = sp.named("ideals.power_generators")
    return {
        "ideals.powers_ideal_dim.calls": len(pid),
        "ideals.powers_ideal_dim.misses": len(missed),
        "ideals.powers_ideal_dim.hit_ratio": _ratio(len(pid) - len(missed), len(pid)),
        "ideals.hf4.s": sp.group_s({"ideals.powers_ideal_dim"}),
        "ideals.shifted_products_matrix.calls": len(spm),
        "ideals.shifted_products_matrix.s": sp.total(spm),
        "ideals.shifted_products_matrix.bytes": sum(spm_bytes),
        "ideals.shifted_products_matrix.max_bytes": max(spm_bytes, default=0),
        "ideals.power_generators.calls": len(gens),
        "ideals.power_generators.s": sp.total(gens),
        "ideals.fat_points.s": sp.group_s(FAT_POINTS),
        "ideals.fat_points_matrix.s": sp.group_s({"ideals.fat_points_matrix"}),
        "ideals.perp.s": sp.group_s(PERP),
        "ideals.ci_power.s": sp.group_s(CI_POWER),
        "ideals.socle.s": sp.group_s(SOCLE),
    }


def _polyspace_metrics(sp: _Spans) -> dict:
    out = {}
    for fn in ("linear_power", "vanishing_rows"):
        idx = sp.named(f"polyspace.{fn}")
        out[f"polyspace.{fn}.calls"] = len(idx)
        out[f"polyspace.{fn}.s"] = sp.total(idx)
    return out


def _lefschetz_metrics(sp: _Spans) -> dict:
    def under_lefschetz(name):
        return [
            i for i in sp.named(name)
            if sp.spans[i][3] >= 0 and sp.spans[sp.spans[i][3]][0].startswith("lefschetz.")
        ]

    map_ranks = under_lefschetz("linalg.rank")
    wlp = sp.named("lefschetz.wlp_test")
    degrees = sum(sp.spans[i][4] for i in wlp)
    return {
        "lefschetz.wlp_test.calls": len(wlp),
        "lefschetz.wlp_test.s": sp.group_s({"lefschetz.wlp_test"}),
        "lefschetz.map3.rank_calls": len(map_ranks),
        "lefschetz.map3.rank_s": sp.total(map_ranks),
        "lefschetz.map3.assembly_s": sp.total(under_lefschetz("ideals.shifted_products_matrix")),
        "lefschetz.trial_draws": len(sp.named("geometry.sample_form")),
        "lefschetz.degrees": degrees,
        "lefschetz.maps_per_degree": _ratio(len(map_ranks), degrees),
    }


def _verify_metrics(sp: _Spans) -> dict:
    checks = {n for n in {s[0] for s in sp.spans} if n.startswith("verify.check_")}
    per_check = [0.0] * (N_CHECKS + 1)
    for i in sp.outermost(checks):
        per_check[sp.spans[i][4]] += sp.dur[i]
    out = {f"verify.check{k:02d}_s": per_check[k] for k in range(1, N_CHECKS + 1)}
    out["verify.mode_agreement.s"] = sp.group_s({"verify.mode_agreement_dims"})
    return out


def layer_metrics(spans, gflops: float) -> dict:
    """Every per-layer metric except trace.overhead_s, which needs an
    untraced job to compare with."""
    sp = _Spans(spans)
    out = {}
    out.update(_rank_metrics(sp, gflops))
    for name in ("rref", "kernel_basis"):
        idx = sp.named(f"linalg.{name}")
        out[f"linalg.{name}.calls"] = len(idx)
        out[f"linalg.{name}.s"] = sp.total(idx)
    out.update(_ideals_metrics(sp))
    out.update(_polyspace_metrics(sp))
    out.update(_lefschetz_metrics(sp))
    out.update(_verify_metrics(sp))
    out["geometry.make_grid.s"] = sp.group_s({"geometry.make_grid"})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (sp.self_s[i] for i, s in enumerate(sp.spans) if s[0].startswith(layer + ".")), 0.0
        )
    return out
