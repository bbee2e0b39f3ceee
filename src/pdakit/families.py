"""Base colorings and arrays built from subsets of {1..n}, plus trivial blocks.

Subsets enumerate in lexicographic order of their sorted element tuples, which
fixes row and column order of every derived array.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .analytics import ParameterError, check_disjoint_union, check_intersection_t, check_restricted
from .core import InvalidPdaError, PdaArray, validate
from .graphs import ColoredBipartiteGraph

SubsetLabel = tuple[int, ...]


def subsets(n: int, k: int) -> tuple[SubsetLabel, ...]:
    """All k-subsets of {1..n} as sorted tuples, lexicographic."""
    return tuple(combinations(range(1, n + 1), k))


def _mask(s: SubsetLabel) -> int:
    return sum(map((1).__lshift__, s))  # element x at bit x


def _intersection_edges(n: int, a: int, b: int, t: int):
    """(A, B, symmetric difference, A intersect B) for each a-subset A and each b-subset B
    meeting it in t elements: B is a t-subset T of A joined with a (b - t)-subset W of A's
    complement, so the symmetric difference is (A minus T) u W (references:
    test_*_per_edge_build_equals_the_per_cell_scan)."""
    for A in subsets(n, a):
        rest = [x for x in range(1, n + 1) if x not in A]
        for T in combinations(A, t):
            only_a = tuple(x for x in A if x not in T)
            for W in combinations(rest, b - t):
                yield A, tuple(sorted(T + W)), tuple(sorted(only_a + W)), T


def disjoint_union_coloring(n: int, a: int, b: int) -> ColoredBipartiteGraph:
    """Rows a-subsets, columns b-subsets, edge iff disjoint, color = union: the
    intersection-size coloring at t = 0, each color (A u B, ()) named A u B."""
    check_disjoint_union(n, a, b)
    triples = ((A, B, union) for A, B, union, _ in _intersection_edges(n, a, b, 0))
    return ColoredBipartiteGraph(subsets(n, a), subsets(n, b), triples)


def intersection_t_coloring(n: int, a: int, b: int, t: int) -> ColoredBipartiteGraph:
    """Rows a-subsets, columns b-subsets, edge iff the intersection has size t, colored
    (symmetric difference, A intersect B); every column has degree C(b, t) C(n - b, a - t)."""
    check_intersection_t(n, a, b, t)
    triples = ((A, B, (diff, T)) for A, B, diff, T in _intersection_edges(n, a, b, t))
    return ColoredBipartiteGraph(subsets(n, a), subsets(n, b), triples)


def restricted_combined_family(n: int, a: int, b: int, t: int) -> PdaArray:
    """Combine two disjoint-union colorings sharing their union colors, then
    restrict the new column side to the nested pairs (A, A') with A' a subset
    of A, which makes the column degree constant and yields an array with

        K = C(n, a+t) * C(a+t, a)      F = C(n, b-t)
        Z = F - C(n-a-t, b-t)          S = C(n, a+b) * C(a+b, b)

    Built straight into its array, one colored cell at a time, from the rule the
    two steps reduce to: row Y meets column (A, A') iff Y and A are disjoint,
    colored (U, U minus A'), U = A u Y.  Colors are numbered as ``coloring_to_pda``
    numbers them, and the array checks itself with ``validate`` (the grid oracle).
    References: test_restricted_combined_equals_combine_then_restrict (the two
    steps), test_restricted_direct_build_equals_the_triple_build (label triples).
    """
    check_restricted(n, a, b, t)
    per_a, shift = comb(a + t, a), n + 1  # a color (U, U minus A') is keyed U << shift | A', as bitmasks
    blocks = {A: (k * per_a, _mask(A) << shift, [_mask(A2) for A2 in combinations(A, a)])
              for k, A in enumerate(subsets(n, a + t))}
    grid, number = [], {}
    for Y in subsets(n, b - t):
        y, row = _mask(Y) << shift, [None] * (len(blocks) * per_a)
        for A in combinations([x for x in range(1, n + 1) if x not in Y], a + t):  # in column order
            at, u, nested = blocks[A]
            row[at:at + per_a] = [number.setdefault(y | u | s, len(number) + 1) for s in nested]
        grid.append(tuple(row))  # the array keeps this tuple, so no list row outlives its fill
    name = {_mask(T): T for k in (b, a + b) for T in subsets(n, k)}
    p = PdaArray(grid, legend={s: (name[key >> shift], name[key >> shift & ~key]) for key, s in number.items()})
    if not (report := validate(p)).is_valid:
        raise InvalidPdaError(f"restricted family {(n, a, b, t)} is not a valid PDA:\n{report}")
    return p


def trivial_pda() -> PdaArray:
    """The 2 x 2 array with stars on the diagonal and one color off it."""
    return PdaArray([[None, 1], [1, None]])


def star_pda(m: int) -> PdaArray:
    """The 1 x m array with every cell its own color: K_{1,m}'s coloring."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got m={m}")
    return PdaArray([list(range(1, m + 1))])
