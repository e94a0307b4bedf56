import pytest

from latticesec.numfields import build_lambda1, build_lambda2, build_lambda3


@pytest.fixture(scope="session")
def lambda1():
    return build_lambda1()


@pytest.fixture(scope="session")
def lambda2():
    return build_lambda2()


@pytest.fixture(scope="session")
def lambda3():
    return build_lambda3()
