import pytest

from gridwlp import PrimeField, RationalField, SeedStream, make_grid


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

