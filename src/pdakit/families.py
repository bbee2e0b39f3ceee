"""Base colorings and arrays built from subsets of {1..n}, plus trivial blocks.

Subsets enumerate in lexicographic order of their sorted element tuples, which
fixes row and column order of every derived array.
"""

from __future__ import annotations

from itertools import combinations

from .analytics import ParameterError, check_disjoint_union, check_intersection_t, check_restricted
from .core import PdaArray
from .graphs import ColoredBipartiteGraph, coloring_to_pda

SubsetLabel = tuple[int, ...]


def subsets(n: int, k: int) -> tuple[SubsetLabel, ...]:
    """All k-subsets of {1..n} as sorted tuples, lexicographic."""
    return tuple(combinations(range(1, n + 1), k))


def disjoint_union_coloring(n: int, a: int, b: int) -> ColoredBipartiteGraph:
    """Rows a-subsets, columns b-subsets, edge iff disjoint, color = union.

    Built per edge: the columns meeting A are the b-subsets of A's complement
    (checked against the per-cell scan by
    test_disjoint_union_per_edge_build_equals_the_per_cell_scan).
    """
    check_disjoint_union(n, a, b)
    left = subsets(n, a)
    triples = []
    for A in left:
        rest = [x for x in range(1, n + 1) if x not in A]
        triples.extend((A, B, tuple(sorted(A + B))) for B in combinations(rest, b))
    return ColoredBipartiteGraph(left, subsets(n, b), frozenset(triples))


def intersection_t_coloring(n: int, a: int, b: int, t: int) -> ColoredBipartiteGraph:
    """Rows a-subsets, columns b-subsets, edge iff the intersection has size t.

    The color of an edge (A, B) is the pair (symmetric difference, A intersect B),
    so every column vertex has degree C(b, t) * C(n - b, a - t).  Built per
    edge: each B meeting A in t elements is a t-subset T of A joined with a
    (b - t)-subset W of A's complement, and then the symmetric difference is
    (A minus T) u W (checked against the per-cell scan by
    test_intersection_t_per_edge_build_equals_the_per_cell_scan).
    """
    check_intersection_t(n, a, b, t)
    left = subsets(n, a)
    triples = []
    for A in left:
        rest = [x for x in range(1, n + 1) if x not in A]
        for T in combinations(A, t):
            only_a = tuple(x for x in A if x not in T)
            for W in combinations(rest, b - t):
                triples.append((A, tuple(sorted(T + W)), (tuple(sorted(only_a + W)), T)))
    return ColoredBipartiteGraph(left, subsets(n, b), frozenset(triples))


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
    check_restricted(n, a, b, t)
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
    return PdaArray([[None, 1], [1, None]])


def star_graph_coloring(m: int) -> ColoredBipartiteGraph:
    """K_{1,m} with every edge its own color (any strong coloring must do this)."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got m={m}")
    left: tuple = (1,)
    right = tuple(f"{i}'" for i in range(1, m + 1))
    triples = frozenset((1, right[i], i + 1) for i in range(m))
    return ColoredBipartiteGraph(left, right, triples)
