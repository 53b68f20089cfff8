from contextlib import contextmanager

import pytest

from gridwlp import PrimeField, RationalField, SeedStream, linalg, make_grid


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Fail a test that leaves the OpenBLAS thread count changed: every
    product restores its caller's count."""
    control = linalg._openblas_threads()
    if control is None:
        yield
        return
    get = control[0]
    before = get()
    yield
    assert get() == before, "the test left the OpenBLAS thread count changed"


@pytest.fixture(scope="session")
def fp():
    return PrimeField()


@pytest.fixture(scope="session")
def qq():
    return RationalField()


@pytest.fixture(scope="session")
def grid33(fp):
    return make_grid(3, 3, fp, seed=SeedStream(5))


@pytest.fixture(scope="session")
def grid36(fp):
    return make_grid(3, 6, fp, seed=SeedStream(11))


@pytest.fixture
def product_threads(monkeypatch):
    """The caller runs 2 BLAS threads; yields (get, seen), where `seen`
    collects the thread count inside every product."""
    control = linalg._openblas_threads()
    if control is None:
        pytest.skip("OpenBLAS not found")
    get, put = control
    seen = []
    scope = linalg.single_blas_thread

    @contextmanager
    def recording():
        with scope():
            seen.append(get())
            yield

    monkeypatch.setattr(linalg, "single_blas_thread", recording)
    before = get()
    put(2)
    try:
        yield get, seen
    finally:
        put(before)
