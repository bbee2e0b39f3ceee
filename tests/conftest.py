from __future__ import annotations

import random

import pytest

from pdakit import core, graphs
from pdakit.combinators import cycle_product, star_product
from pdakit.core import PdaArray
from pdakit.families import (
    disjoint_union_coloring,
    intersection_t_coloring,
    restricted_combined_family,
    star_pda,
    trivial_pda,
)
from pdakit.graphs import coloring_to_pda, pda_to_coloring

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


def _roundtrip_catalog() -> list[tuple[PdaArray, int]]:
    """Generated arrays with a library size each, for the round-trip sweeps."""
    return [
        (trivial_pda(), 3),
        (coloring_to_pda(disjoint_union_coloring(4, 1, 2)), 2),
        (coloring_to_pda(intersection_t_coloring(4, 2, 2, 1)), 3),
        (coloring_to_pda(pda_to_coloring(star_pda(3))), 4),
        (coloring_to_pda(star_product([pda_to_coloring(trivial_pda())] * 2)), 3),
        (restricted_combined_family(4, 1, 2, 1), 2),
        (coloring_to_pda(cycle_product(pda_to_coloring(trivial_pda()), 6)), 3),
    ]


def _walked_classes(p: PdaArray) -> dict[int, list[tuple[int, int]]]:
    """Map color -> 0-based (row, column) cells in row-major order, from a walk of every grid cell."""
    classes: dict[int, list[tuple[int, int]]] = {}
    for j, row in enumerate(p.grid):
        for k, e in enumerate(row):
            if e is not None:
                classes.setdefault(e, []).append((j, k))
    return classes


def _star_to_color(p: PdaArray, rng: random.Random) -> PdaArray:
    """p with one seeded star replaced by an existing color: usually breaks A, B or C."""
    stars = [(j, k) for j, row in enumerate(p.grid) for k, e in enumerate(row) if e is None]
    j, k = rng.choice(stars)
    rows = [list(row) for row in p.grid]
    rows[j][k] = rng.randint(1, p.S)
    return PdaArray(rows)


def _one_fault_classes() -> dict[str, PdaArray]:
    """Color 1 on a diagonal, clean but for the one fault each name states.

    The colored corner is color 2, a class of one cell, as is the only class of "one cell".
    """

    def diagonal(F: int, K: int) -> list[list[int | None]]:
        return [[1 if j == k else None for k in range(K)] for j in range(F)]

    row, column, corner = diagonal(4, 5), diagonal(5, 4), diagonal(4, 4)
    row[0][4] = 1
    column[4][0] = 1
    corner[0][1] = 2
    return {
        "repeated row": PdaArray(row),
        "repeated column": PdaArray(column),
        "colored corner": PdaArray(corner),
        "one cell": PdaArray([[None, 1]]),
    }


@pytest.fixture(scope="session")
def star_1024() -> tuple[PdaArray, PdaArray]:
    """The 1024 x 1024 star product of ten trivial arrays (one color of 1,024 cells),
    and a copy with one star recolored."""
    star = coloring_to_pda(star_product([pda_to_coloring(trivial_pda())] * 10))
    return star, _star_to_color(star, random.Random(1024))


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
    ):
        real = getattr(module, name)

        def counting(obj, real=real):
            seen.append(obj)
            return real(obj)

        monkeypatch.setattr(module, name, counting)
    return seen
