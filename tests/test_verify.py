"""Check 11's second-seed pass in a forked child: the same outcomes as the
in-process rerun, its exceptions reach the parent, and no child outlives
`run_suite` on any path."""

import os
import signal
import time

import numpy as np
import pytest

from gridwlp import PrimeField
from gridwlp import verify
from gridwlp.cli import main
from gridwlp.linalg import DimensionCapError, _openblas_threads
from gridwlp.verify import CheckResult, _Check, _ForkedRerun, _rerun_signatures, run_suite

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


def test_openblas_thread_control_is_found():
    # numpy built on OpenBLAS: without the control both passes would run
    # multithreaded BLAS on the same cores
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"numpy uses {blas}")
    assert _openblas_threads() is not None


@needs_fork
def test_both_passes_run_one_blas_thread(monkeypatch):
    control = _openblas_threads()
    if control is None:
        pytest.skip("OpenBLAS not found")
    get, put = control

    def counts_threads(field, stream, trials=3, a_max=5):
        c = _Check(1, "BLAS threads")
        c.expect("threads", get(), 1)
        return c.done()

    monkeypatch.setattr(verify, "_NUMBERED_CHECKS", [counts_threads])
    before = get()
    put(2)
    try:
        results = run_suite(a_max=3)
        assert get() == 2
    finally:
        put(before)
    assert [r.passed for r in results] == [True, True]
    assert results[1].details[0] == "check 1 outcome stable across seeds: ok"
    _assert_no_child_left()
