import pytest

from latticesec.numfields import build_lattice


@pytest.fixture(scope="session")
def lambda1():
    return build_lattice("lambda1")


@pytest.fixture(scope="session")
def lambda2():
    return build_lattice("lambda2")


@pytest.fixture(scope="session")
def lambda3():
    return build_lattice("lambda3")
