"""Fixtures shared by the test modules."""

import pytest

from gnsenum import trees


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in for the engine's process pool that records each pool's
    size and maps in this process, so no worker process starts.  Returns
    the list of sizes."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(trees, "ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.fixture
def sums_oracle():
    """The member sums of semigroup._member_sums by a plain loop with no
    memo: the bit row[j] of the addition row of n for each j not in the
    mask."""
    def sums(U, n, gaps):
        return sum(1 << k for j, k in U.row(n).items() if not gaps >> j & 1)
    return sums
