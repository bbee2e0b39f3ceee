"""Base colorings and arrays built from subsets of {1..n}, plus trivial blocks.

Subsets enumerate in lexicographic order of their sorted element tuples, which
fixes row and column order of every derived array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import PdaArray
from .graphs import ColoredBipartiteGraph, coloring_to_pda

SubsetLabel = tuple[int, ...]


class FamilyParameterError(ValueError):
    """Family parameters outside their legal range."""


def subsets(n: int, k: int) -> tuple[SubsetLabel, ...]:
    """All k-subsets of {1..n} as sorted tuples, lexicographic."""
    return tuple(combinations(range(1, n + 1), k))


def disjoint_union_coloring(n: int, a: int, b: int) -> ColoredBipartiteGraph:
    """Rows a-subsets, columns b-subsets, edge iff disjoint, color = union."""
    if a < 1 or b < 1 or a + b > n:
        raise FamilyParameterError(f"need a, b >= 1 and a + b <= n, got n={n} a={a} b={b}")
    left = subsets(n, a)
    right = subsets(n, b)
    triples = frozenset(
        (A, B, tuple(sorted(A + B)))
        for A in left
        for B in right
        if not set(A) & set(B)
    )
    return ColoredBipartiteGraph(left, right, triples)


def intersection_t_coloring(n: int, a: int, b: int, t: int) -> ColoredBipartiteGraph:
    """Rows a-subsets, columns b-subsets, edge iff the intersection has size t.

    The color of an edge (A, B) is the pair (symmetric difference, A intersect B),
    so every column vertex has degree C(b, t) * C(n - b, a - t).
    """
    if not (0 < a < n and 0 < b < n):
        raise FamilyParameterError(f"need 0 < a, b < n, got n={n} a={a} b={b}")
    if not (0 <= t <= min(a, b) and a + b - t <= n):
        raise FamilyParameterError(f"need 0 <= t <= min(a, b) and a + b - t <= n, got t={t}")
    left = subsets(n, a)
    right = subsets(n, b)
    triples = []
    for A in left:
        sa = set(A)
        for B in right:
            inter = sa & set(B)
            if len(inter) == t:
                diff = tuple(sorted(sa.symmetric_difference(B)))
                triples.append((A, B, (diff, tuple(sorted(inter)))))
    return ColoredBipartiteGraph(left, right, frozenset(triples))


def restricted_combined_family(n: int, a: int, b: int, t: int) -> PdaArray:
    """Combine two disjoint-union colorings sharing their union colors, then
    restrict the new column side to the nested pairs (A, A') with A' a subset
    of A, which makes the column degree constant and yields an array with

        K = C(n, a+t) * C(a+t, a)      F = C(n, b-t)
        Z = F - C(n-a-t, b-t)          S = C(n, a+b) * C(a+b, b)

    Built directly from the rule the two steps reduce to (checked against them
    by test_restricted_combined_equals_combine_then_restrict): row Y meets
    column (A, A') iff Y and A are disjoint, colored (U, U minus A'), U = A u Y.
    """
    if a < 1 or b < 1 or a + b > n:
        raise FamilyParameterError(f"need a, b >= 1 and a + b <= n, got n={n} a={a} b={b}")
    if not (0 <= t < b):
        raise FamilyParameterError(f"need 0 <= t < b, got t={t} b={b}")
    rows = subsets(n, b - t)
    cols = tuple((A, A2) for A in subsets(n, a + t) for A2 in combinations(A, a))
    triples = []
    for A in subsets(n, a + t):
        for Y in combinations([x for x in range(1, n + 1) if x not in A], b - t):
            U = tuple(sorted(A + Y))
            triples.extend((Y, (A, A2), (U, tuple(x for x in U if x not in A2)))
                           for A2 in combinations(A, a))
    return coloring_to_pda(ColoredBipartiteGraph(rows, cols, frozenset(triples)))


def trivial_pda() -> PdaArray:
    """The 2 x 2 array with stars on the diagonal and one color off it."""
    return PdaArray.from_rows([[None, 1], [1, None]])


def star_graph_coloring(m: int) -> ColoredBipartiteGraph:
    """K_{1,m} with every edge its own color (any strong coloring must do this)."""
    if m < 1:
        raise FamilyParameterError(f"need m >= 1, got m={m}")
    left: tuple = (1,)
    right = tuple(f"{i}'" for i in range(1, m + 1))
    triples = frozenset((1, right[i], i + 1) for i in range(m))
    return ColoredBipartiteGraph(left, right, triples)


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus its parameters, as collected from the command line."""

    family: str
    n: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    t: Optional[int] = None
    m: Optional[int] = None

    _NEEDED = {
        "disjoint-union": ("n", "a", "b"),
        "intersection-t": ("n", "a", "b", "t"),
        "restricted-combined": ("n", "a", "b", "t"),
        "trivial": (),
        "star": ("m",),
    }

    def check(self) -> None:
        if self.family not in self._NEEDED:
            raise FamilyParameterError(f"unknown family {self.family!r}")
        for name in self._NEEDED[self.family]:
            if getattr(self, name) is None:
                raise FamilyParameterError(f"family {self.family!r} requires --{name}")

    def build_pda(self) -> PdaArray:
        """Construct the family and convert to an array where needed."""
        self.check()
        if self.family == "trivial":
            return trivial_pda()
        if self.family == "star":
            return coloring_to_pda(star_graph_coloring(self.m))
        if self.family == "disjoint-union":
            return coloring_to_pda(disjoint_union_coloring(self.n, self.a, self.b))
        if self.family == "intersection-t":
            return coloring_to_pda(intersection_t_coloring(self.n, self.a, self.b, self.t))
        return restricted_combined_family(self.n, self.a, self.b, self.t)
