import shutil
from pathlib import Path

import pytest

import latticesec
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


@pytest.fixture
def shipped(tmp_path):
    """copy(name): the shipped data file of lattice name, copied into
    tmp_path; returns the copy's path."""
    data = Path(latticesec.__file__).parent / "data"

    def copy(name):
        return Path(shutil.copy(data / f"{name}.json", tmp_path))

    return copy
