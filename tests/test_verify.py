"""Check 11's second-seed pass in a forked child: the same outcomes as the
in-process rerun, its exceptions reach the parent, and no child outlives
`run_suite` on any path, and the mode agreement runs while the child
works. Also: each check reads one Hilbert table per (grid, d), checks 5
and 10 one fat-point matrix per sweep, and rational mode compares the
suite's prime with Q."""

import os
import signal
import time

import pytest

from gridwlp import PowersHilbertTable, PrimeField, SeedStream, bx_sequence, ideals, verify
from gridwlp.cli import main
from gridwlp.linalg import DimensionCapError
from gridwlp.verify import (
    CheckResult,
    _Check,
    _ForkedRerun,
    _rerun_signatures,
    check_determinism_and_modes,
    run_suite,
)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stable_check(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(1, "stable fake")
    c.expect("constant", 1, 1)
    return c.done()


def _seed_dependent_check(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(2, "seed-dependent fake")
    c.expect_true("draw", stream.child("fake").below(1000) < 500)
    return c.done()


def _in_child(parent_pid):
    return os.getpid() != parent_pid


@needs_fork
def test_forked_signatures_equal_in_process_rerun():
    field = PrimeField()
    rerun = _ForkedRerun(field, trials=3, a_max=3)
    try:
        here = _rerun_signatures(field, trials=3, a_max=3)
        assert rerun.signatures() == here
    finally:
        rerun.close()
    assert [s[0] for s in here] == list(range(1, 11))
    _assert_no_child_left()


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
def test_seed_dependent_check_fails_check_11(fork, monkeypatch):
    if not fork:
        monkeypatch.delattr(os, "fork", raising=False)
    elif not hasattr(os, "fork"):
        pytest.skip("os.fork is missing")
    started = []
    monkeypatch.setattr(
        verify, "_ForkedRerun", lambda *a: started.append(1) or _ForkedRerun(*a)
    )
    monkeypatch.setattr(verify, "_NUMBERED_CHECKS", [_stable_check, _seed_dependent_check])
    results = run_suite(seed=1, a_max=3)
    assert started == ([1] if fork else [])
    check11 = results[-1]
    assert check11.index == 11 and not check11.passed
    assert check11.details[:2] == [
        "check 1 outcome stable across seeds: ok",
        "check 2 outcome stable across seeds: FAILED",
    ]
    assert all(d.endswith("[ok]") for d in check11.details[2:])
    _assert_no_child_left()


@needs_fork
def test_child_error_reaches_the_parent_and_cli_exits_3(monkeypatch, capsys):
    parent = os.getpid()

    def capped_in_child(field, stream, trials=3, a_max=5):
        if _in_child(parent):
            raise DimensionCapError("ambient dimension 99999 exceeds cap 20000")
        return _stable_check(field, stream)

    monkeypatch.setattr(verify, "_NUMBERED_CHECKS", [capped_in_child])
    with pytest.raises(DimensionCapError, match="exceeds cap 20000"):
        run_suite(a_max=3)
    _assert_no_child_left()
    assert main(["verify-paper", "--a-max", "3"]) == 3
    assert "error: ambient dimension 99999 exceeds cap 20000" in capsys.readouterr().err
    _assert_no_child_left()


@needs_fork
def test_child_without_result_raises(monkeypatch):
    parent = os.getpid()

    def dies_in_child(field, stream, trials=3, a_max=5):
        if _in_child(parent):
            os._exit(5)
        return _stable_check(field, stream)

    monkeypatch.setattr(verify, "_NUMBERED_CHECKS", [dies_in_child])
    with pytest.raises(RuntimeError, match="without a result"):
        run_suite(a_max=3)
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_parent_error_kills_and_reaps_the_child(error, monkeypatch):
    parent = os.getpid()

    def fails_in_parent(field, stream, trials=3, a_max=5):
        if _in_child(parent):
            time.sleep(60)
        else:
            raise error("pass 1 failed")
        return _stable_check(field, stream)

    monkeypatch.setattr(verify, "_NUMBERED_CHECKS", [fails_in_parent])
    t0 = time.perf_counter()
    with pytest.raises(error, match="pass 1 failed"):
        run_suite(a_max=3)
    assert time.perf_counter() - t0 < 30
    _assert_no_child_left()


def _wordy_check(field, stream, trials=3, a_max=5) -> CheckResult:
    c = _Check(1, "wordy fake")
    for i in range(5000):
        c.expect(f"line {i}", i, i)
    return c.done()


def _raise_timeout(signum, frame):
    raise TimeoutError("run_suite hung")


@needs_fork
def test_normal_return_leaves_no_child(monkeypatch):
    # the child's payload is larger than a pipe buffer: the parent must read
    # it to EOF before it waits, or both block
    monkeypatch.setattr(verify, "_NUMBERED_CHECKS", [_wordy_check])
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(60)
    try:
        results = run_suite(a_max=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [r.index for r in results] == [1, 11] and all(r.passed for r in results)
    _assert_no_child_left()


def test_mode_agreement_runs_before_the_wait_for_the_rerun(monkeypatch):
    calls = []
    dims = verify.mode_agreement_dims
    monkeypatch.setattr(
        verify, "mode_agreement_dims", lambda f: calls.append("modes") or dims(f)
    )
    first = [_stable_check(PrimeField(), SeedStream(1))]

    class StubRerun:
        def signatures(self):
            calls.append("rerun")
            return [r.signature() for r in first]

    result = check_determinism_and_modes(PrimeField(), first, a_max=3, rerun=StubRerun())
    assert calls == ["modes", "modes", "rerun"]
    # the lines keep their order: the rerun's first, then the modes'
    assert result.passed
    assert result.details[0] == "check 1 outcome stable across seeds: ok"
    assert all(d.startswith("rational vs prime: ") for d in result.details[1:])
    assert len(result.details) == 1 + len(dims(PrimeField()))


def _tables_built(monkeypatch):
    built = []
    init = PowersHilbertTable.__init__

    def counting(self, grid, d):
        built.append((grid, d))
        init(self, grid, d)

    monkeypatch.setattr(PowersHilbertTable, "__init__", counting)
    return built


@pytest.mark.parametrize(
    "check, tables",
    [
        (verify.check_worked_example, 1),
        (verify.check_gorenstein_apolarity, 3),
        (verify.check_coker_formula, 12),
        (verify.check_macaulay_duality, 36),
        (verify.check_no_syzygy_socle, 1),
        (verify.check_non_lefschetz_probes, 4),
    ],
    ids=["check02", "check03", "check04", "check05", "check07", "check08"],
)
def test_each_check_builds_one_table_per_grid_and_power(check, tables, monkeypatch):
    # every reader of one (grid, d) shares the table its check built
    built = _tables_built(monkeypatch)
    check(PrimeField(), SeedStream(0xC0FFEE), trials=3, a_max=3)
    assert len(built) == tables and len(set(built)) == tables


@pytest.mark.parametrize(
    "check, matrices, tops",
    [
        (verify.check_macaulay_duality, 24, {6, 7, 8, 9}),
        (verify.check_recursion_identity, 54, {8, (8, 8)}),
    ],
    ids=["check05", "check10"],
)
def test_fat_point_checks_build_one_matrix_per_sweep(check, matrices, tops, monkeypatch):
    # check 5: one sweep per (grid, m), m = 1..4, up to m + 5; check 10: one
    # per (grid, alpha) in each grading, up to 8
    built = []
    rows = ideals.vanishing_rows
    monkeypatch.setattr(
        ideals, "vanishing_rows", lambda *args: built.append(args[1]) or rows(*args)
    )
    check(PrimeField(), SeedStream(0xC0FFEE), trials=3, a_max=3)
    assert len(built) == matrices and set(built) == tops


def test_bx_sequence_builds_one_table_per_power(fp, grid33, monkeypatch):
    built = _tables_built(monkeypatch)
    bx_sequence(grid33, 8, trials=1, seed=24)
    assert built == [(grid33, d) for d in range(1, 9)]


def test_rational_mode_compares_the_given_prime(monkeypatch):
    fields = []
    dims = verify.mode_agreement_dims
    monkeypatch.setattr(verify, "mode_agreement_dims", lambda f: fields.append(f) or dims(f))
    (result,) = run_suite(prime=10007, rational=True)
    assert result.passed
    assert [getattr(f, "p", None) for f in fields] == [10007, None]
