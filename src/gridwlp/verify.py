"""The built-in verification suite: every closed-form prediction the package
encodes is checked against independent brute-force linear algebra.

Each check returns a CheckResult with one line per sub-assertion; the CLI
`verify-paper` command and the acceptance test module both run these.
Check 11 reruns checks 1-10 under a second seed. `run_suite` starts that
rerun in a forked child before the first pass, so the two passes run
concurrently; the child sends back only the outcome signatures.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field as dc_field
from math import comb

from .field import PrimeField, RationalField, SeedStream
from .formulas import (
    coker_formula_geproci,
    compressed_gorenstein_hf,
    low_degree_ideal_dim,
    wlp_verdict_theorem_a,
)
from .geometry import make_grid
from .ideals import (
    ci_power_dim_formula,
    ci_power_piece,
    fat_points_dim,
    fat_points_hf,
    macaulay_dual_check,
    perp_quotient_hf,
    powers_ideal_dim,
    socle_dims,
)
from .lefschetz import best_map, draw_forms, mult_map_analysis, non_lefschetz_probe, wlp_test
from .polyspace import TOTAL3, dim_total, poly_mul, zero_poly


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    details: list = dc_field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.index:2d}] {self.name:<40s} {status}  ({self.seconds:6.1f}s)"

    def signature(self):
        return (self.index, self.passed, tuple(self.details))


class _Check:
    def __init__(self, index, name):
        self.result = CheckResult(index=index, name=name, passed=True)
        self._t0 = time.perf_counter()

    def expect(self, label, computed, expected):
        ok = computed == expected
        if not ok:
            self.result.passed = False
        tag = "ok" if ok else "MISMATCH"
        self.result.details.append(
            f"{label}: computed={computed} expected={expected} [{tag}]"
        )
        return ok

    def expect_true(self, label, flag):
        if not flag:
            self.result.passed = False
        self.result.details.append(f"{label}: {'ok' if flag else 'FAILED'}")
        return flag

    def done(self):
        self.result.seconds = time.perf_counter() - self._t0
        return self.result


def _grid(a, b, field, stream, tag):
    return make_grid(a, b, field, seed=stream.child("grid", tag, a, b))


def check_theorem_a_sweep(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(1, "square-grid WLP dichotomy sweep")
    for a in (3, 4, 5):
        if a > a_max:
            continue
        grid = _grid(a, a, field, stream, "thmA")
        for d in range(1, 3 * (a - 1) + 1):
            rep = wlp_test(grid, d, trials=trials, seed=stream.child("thmA", a, d))
            c.expect(f"a={a} d={d} verdict", rep.verdict, wlp_verdict_theorem_a(a, d))
    return c.done()


def check_worked_example(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(2, "worked 3x6 example, d=5")
    grid = _grid(3, 6, field, stream, "ex36")
    c.expect("dim[I_X]_4", fat_points_dim(grid, 1, 4), 17)
    c.expect("dim[I_X]_5", fat_points_dim(grid, 1, 5), 38)
    c.expect("dim[I_Z^(2)]_(6,6)", fat_points_dim(grid, 2, (6, 6)), 10)
    h5 = dim_total(4, 5) - powers_ideal_dim(grid, 5, 5)
    h6 = dim_total(4, 6) - powers_ideal_dim(grid, 5, 6)
    c.expect("delta h_A(6)", h6 - h5, -11)
    rep = wlp_test(grid, 5, trials=trials, seed=stream.child("ex36-wlp"))
    by_t = {r.t: r for r in rep.degrees}
    c.expect("generic coker at t=6", by_t[6].coker_dim, 1)
    c.expect_true("WLP fails at degree 6", 6 in rep.failing and not rep.verdict)
    return c.done()


def check_gorenstein_apolarity(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(3, "Gorenstein quotients and apolarity")
    for t in (1, 2, 3):
        grid = _grid(t + 2, t + 2, field, stream, "gor")
        q = grid.quadric()
        qt = q
        for _ in range(t - 1):
            qt = poly_mul(qt, q)
        expected = compressed_gorenstein_hf(t)
        computed = {s: perp_quotient_hf(qt, s) for s in range(0, 2 * t + 2)}
        c.expect(f"HF of the quotient by (Q^{t})-perp", computed, expected)
        for s in range(0, 2 * t + 2):
            lam = powers_ideal_dim(grid, t + 1, s)
            perp_dim = dim_total(4, s) - computed[s]
            c.expect(f"t={t} s={s} power span = perp piece", lam, perp_dim)
    return c.done()


def check_coker_formula(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(4, "geproci cokernel formula vs measurement")
    for a in (3, 4):
        grid = _grid(a, a, field, stream, "coker")
        for d in range(a - 1, 3 * (a - 1) + 1):
            q = d // (a - 1)
            for t in range(0, q + 1):
                pred = coker_formula_geproci(a, a, d, t)
                if pred is None:
                    continue
                forms = draw_forms(grid, "generic", stream.child("ck", a, d, t), trials)
                best = best_map(
                    (mult_map_analysis(grid, d, ell, d + t) for ell in forms), stop_coker=pred
                )
                c.expect(f"a={a} d={d} t={t} coker", best.coker_dim, pred)
    return c.done()


def check_macaulay_duality(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(5, "duality of power spans and fat points")
    for (a, b) in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        grid = _grid(a, b, field, stream, "dual")
        for d in range(1, 7):
            for t in range(d, d + 4):
                lhs, rhs, ok = macaulay_dual_check(grid, d, t)
                c.expect(f"{a}x{b} d={d} t={t}", lhs, rhs)
    return c.done()


def check_independent_conditions(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(6, "independent conditions at degree bd-1")
    for (a, b) in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        grid = _grid(a, b, field, stream, "indep")
        for d in range(1, 4):
            deg = b * d - 1
            c.expect(
                f"{a}x{b} h of the order-{d} scheme at {deg}",
                fat_points_hf(grid, d, deg),
                a * b * comb(d + 2, 3),
            )
            c.expect(
                f"{a}x{b} bigraded h at ({deg},{deg})",
                fat_points_hf(grid, d, (deg, deg)),
                a * b * comb(d + 1, 2),
            )
    return c.done()


def check_no_syzygy_socle(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(7, "no-syzygy window and socle vanishing")
    grid = _grid(3, 3, field, stream, "syz")
    for t in (4, 5):
        c.expect(f"dim[I]_{t}", powers_ideal_dim(grid, 4, t), low_degree_ideal_dim(3, 3, 4, t))
    soc = socle_dims(grid, 4, range(0, 5))
    for t, dim in soc.items():
        c.expect(f"socle dim in degree {t}", dim, 0)
    return c.done()


def check_non_lefschetz_probes(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(8, "non-Lefschetz locus probes, a=3")
    grid = _grid(3, 3, field, stream, "nll")
    for d in (1, 2):
        for locus in (
            "generic",
            ("plane", 0, 0),
            ("chord", (0, 1), (1, 0)),
            ("ruling", "lambda", 0),
        ):
            rep = non_lefschetz_probe(grid, d, locus, trials, stream.child("nll", d, str(locus)))
            c.expect_true(f"d={d} {locus} maximal everywhere", not rep.member_of_locus)
    rep = non_lefschetz_probe(grid, 4, ("plane", 0, 0), trials, stream.child("nll4p"))
    c.expect_true("d=4 plane probe passes both critical degrees", not rep.member_of_locus)
    rep = non_lefschetz_probe(grid, 4, ("chord", (0, 1), (1, 0)), trials, stream.child("nll4c"))
    by_t = {e.t: e for e in rep.entries}
    c.expect_true("d=4 chord fails surjectivity at t=5", by_t[5].specialized.coker_dim > 0)
    c.expect("d=4 chord specialized coker at t=5", by_t[5].specialized.coker_dim, 9)
    rep = non_lefschetz_probe(grid, 4, ("ruling", "lambda", 0), trials, stream.child("nll4r"))
    c.expect_true("d=4 ruling probe fails", rep.member_of_locus)
    rep = non_lefschetz_probe(grid, 6, ("plane", 0, 0), trials, stream.child("nll6p"))
    by_t = {e.t: e for e in rep.entries}
    c.expect_true("d=6 plane probe fails at t=8", not by_t[8].achieves_generic)
    return c.done()


def check_ci_power_oracle(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(9, "plane CI power span vs resolution formula")
    for (a, b) in ((3, 3), (3, 4)):
        fs = stream.child("ci", a, b)
        f = _random_plane_form(a, field, fs.child("f"))
        g = _random_plane_form(b, field, fs.child("g"))
        for m in range(1, 4):
            for t in range(0, 13):
                dim = ci_power_piece(f, g, m, t, check=(m == 1 and t == 0)).dim
                c.expect(f"({a},{b}) m={m} t={t}", dim, ci_power_dim_formula(a, b, m, t))
    return c.done()


def _random_plane_form(deg, field, stream):
    poly = zero_poly(TOTAL3, deg, field)
    for i in range(len(poly.coeffs)):
        poly.coeffs[i] = stream.scalar(field)
    return poly


def check_recursion_identity(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(10, "fat-point recursion across the quadric")
    for (a, b) in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (3, 6)):
        grid = _grid(a, b, field, stream, "rec")
        lhs_at = {}  # (alpha, t) -> dim[I_X^(alpha)]_t, the middle term at alpha + 1
        for alpha in (1, 2, 3):
            for t in range(0, 9):
                lhs = lhs_at[alpha, t] = fat_points_dim(grid, alpha, t)
                if alpha == 1:
                    mid = dim_total(4, t - 2)
                else:
                    mid = lhs_at[alpha - 1, t - 2] if t >= 2 else 0
                zpart = fat_points_dim(grid, alpha, (t, t))
                c.expect(f"{a}x{b} alpha={alpha} t={t}", lhs, mid + zpart)
    return c.done()


_NUMBERED_CHECKS = [
    check_theorem_a_sweep,
    check_worked_example,
    check_gorenstein_apolarity,
    check_coker_formula,
    check_macaulay_duality,
    check_independent_conditions,
    check_no_syzygy_socle,
    check_non_lefschetz_probes,
    check_ci_power_oracle,
    check_recursion_identity,
]


def mode_agreement_dims(field) -> dict:
    """A fixed list of a=3 dimension computations, identical in either mode."""
    out = {}
    grid = make_grid(3, 6, field, u=[1, 2, 3], v=[1, 2, 3, 4, 5, 6])
    out["3x6 dim[I_X]_4"] = fat_points_dim(grid, 1, 4)
    out["3x6 dim[I_X]_5"] = fat_points_dim(grid, 1, 5)
    out["3x6 dim[I_Z^(2)]_(6,6)"] = fat_points_dim(grid, 2, (6, 6))
    out["3x6 dim[ideal_5]_6"] = powers_ideal_dim(grid, 5, 6)
    grid3 = make_grid(3, 3, field, u=[1, 2, 3], v=[1, 2, 3])
    out["3x3 dim[ideal_4]_5"] = powers_ideal_dim(grid3, 4, 5)
    q = grid3.quadric()
    out["quadric perp h"] = tuple(perp_quotient_hf(q, s) for s in range(4))
    q2 = poly_mul(q, q)
    out["quadric^2 perp h"] = tuple(perp_quotient_hf(q2, s) for s in range(6))
    return out


_SEED2 = 0xD15EA5E


def _run_checks(field, stream, trials, a_max, progress=None):
    results = []
    for fn in _NUMBERED_CHECKS:
        results.append(fn(field, stream, trials=trials, a_max=a_max))
        if progress:
            progress(results[-1])
    return results


def _rerun_signatures(field, trials, a_max, seed2=_SEED2):
    return [r.signature() for r in _run_checks(field, SeedStream(seed2), trials, a_max)]


class _ForkedRerun:
    """The second-seed pass of checks 1-10 in a forked child process.

    The child writes the pickled list of signatures, or the pickled
    exception it raised, to a pipe and leaves with os._exit: it flushes no
    inherited stdio buffer and runs no atexit handler. The pid and the read
    end are cleared as soon as they are consumed, so that `close` kills and
    reaps only a child that has not been reaped.
    """

    def __init__(self, field, trials, a_max):
        fd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(fd)
            os.close(wfd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(fd)
                try:
                    payload = _rerun_signatures(field, trials, a_max)
                except Exception as exc:  # re-raised by the parent
                    payload = exc
                data = pickle.dumps(payload)
                with os.fdopen(wfd, "wb") as fh:
                    fh.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        self.pid, self.fd = pid, fd

    def signatures(self):
        """Wait for the child; return its signatures or raise its exception."""
        fh = os.fdopen(self.fd, "rb")
        self.fd = None
        with fh:
            # to EOF before waitpid: a child blocked on a full pipe never exits
            data = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not data:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"the second-seed pass ended without a result (exit status {code})")
        out = pickle.loads(data)  # written by the child forked above
        if isinstance(out, BaseException):
            raise out
        return out

    def close(self):
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def check_determinism_and_modes(
    field, first_run, trials=3, a_max=5, seed2=_SEED2, rerun=None
) -> CheckResult:
    """Criterion: rerunning every check under a different seed yields byte-
    identical outcomes, and prime vs rational dimensions agree on the a=3
    subset. `rerun` is a `_ForkedRerun` started under `seed2`; without one,
    the second pass runs here."""
    c = _Check(11, "determinism and mode agreement")
    if rerun is None:
        redo = _rerun_signatures(field, trials, a_max, seed2)
    else:
        redo = rerun.signatures()
    for prior, sig in zip(first_run, redo):
        same = sig[1:] == prior.signature()[1:]
        c.expect_true(f"check {prior.index} outcome stable across seeds", same)
    prime_dims = mode_agreement_dims(field)
    rational_dims = mode_agreement_dims(RationalField())
    for label, value in prime_dims.items():
        c.expect(f"rational vs prime: {label}", rational_dims[label], value)
    return c.done()


def run_suite(prime=None, seed=0xC0FFEE, trials=3, a_max=5, rational=False, progress=None):
    """Run the full verification suite; returns the list of CheckResults.

    The second-seed pass of check 11 runs in a forked child, concurrently
    with the first pass, where os.fork exists; no child outlives the call.
    """
    if rational:
        return run_rational_subset(progress=progress)
    field = PrimeField(prime) if prime else PrimeField()
    rerun = _ForkedRerun(field, trials, a_max) if hasattr(os, "fork") else None
    try:
        results = _run_checks(field, SeedStream(seed), trials, a_max, progress)
        results.append(
            check_determinism_and_modes(field, results, trials=trials, a_max=a_max, rerun=rerun)
        )
    finally:
        if rerun is not None:
            rerun.close()
    if progress:
        progress(results[-1])
    return results


def run_rational_subset(progress=None):
    """Exact-arithmetic cross-check: the a=3 dimension subset in both modes."""
    c = _Check(11, "rational-mode agreement subset")
    prime_dims = mode_agreement_dims(PrimeField())
    rational_dims = mode_agreement_dims(RationalField())
    for label, value in prime_dims.items():
        c.expect(f"rational vs prime: {label}", rational_dims[label], value)
    results = [c.done()]
    if progress:
        progress(results[-1])
    return results
