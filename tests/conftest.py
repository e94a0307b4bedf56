import contextlib

import pytest

from latticesec import constellation
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


class InProcessPool:
    """A stand-in process pool whose map runs every task in this process
    and records the tasks it was given."""

    def __init__(self):
        self.tasks = []

    def map(self, fn, tasks):
        self.tasks += tasks
        return map(fn, tasks)


@pytest.fixture
def in_process_pool():
    return InProcessPool()


@pytest.fixture
def opened_pools(monkeypatch):
    """Make constellation._pool open an InProcessPool for jobs > 1; the
    list returned holds the jobs of every call."""
    opened = []

    def pool(jobs):
        opened.append(jobs)
        return contextlib.nullcontext(InProcessPool() if jobs > 1 else None)

    monkeypatch.setattr(constellation, "_pool", pool)
    return opened
