from __future__ import annotations

import pytest

from pdakit import core, graphs
from pdakit.core import PdaArray

# The 4x4 worked example: stars on the checkerboard, colors 1..4.
EXAMPLE1_ROWS = [
    [None, 1, None, 3],
    [1, None, 3, None],
    [None, 2, None, 4],
    [2, None, 4, None],
]

# The 2x4 strip whose self-combination reproduces the 4x4 example.
STRIP_ROWS = [
    [None, 1, None, 2],
    [1, None, 2, None],
]


@pytest.fixture
def example1() -> PdaArray:
    return PdaArray(EXAMPLE1_ROWS)


@pytest.fixture
def strip() -> PdaArray:
    return PdaArray(STRIP_ROWS)


@pytest.fixture
def scans(monkeypatch):
    """Every object the grid scan or a strength scan visits, in call order.

    The list holds the objects themselves, so no two of them share an id.
    """
    seen = []
    for module, name in (
        (core, "_grid_violations"),
        (graphs, "_strong_violations_bipartite"),
        (graphs, "_strong_violations_general"),
    ):
        real = getattr(module, name)

        def counting(obj, real=real):
            seen.append(obj)
            return real(obj)

        monkeypatch.setattr(module, name, counting)
    return seen
