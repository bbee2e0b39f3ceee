from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from pdakit.analytics import ParameterError
from pdakit.combinators import combine_same_colors
from pdakit.core import EquivalenceResult, equivalent, params, validate
from pdakit.families import (
    disjoint_union_coloring,
    intersection_t_coloring,
    restricted_combined_family,
    star_graph_coloring,
    subsets,
    trivial_pda,
)
from pdakit.graphs import ColoredBipartiteGraph, coloring_to_pda, is_strong_coloring


def test_subsets_are_lexicographic():
    assert subsets(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_disjoint_union_n3_by_enumeration():
    g = disjoint_union_coloring(3, 1, 1)
    # independent oracle: enumerate all ordered disjoint singleton pairs
    expected = {
        (A, B, tuple(sorted(A + B)))
        for A in combinations(range(1, 4), 1)
        for B in combinations(range(1, 4), 1)
        if not set(A) & set(B)
    }
    assert g.triples == frozenset(expected)
    assert len(g.left) == 3 and len(g.right) == 3
    assert len(g.triples) == 6
    assert len(g.colors) == 3
    by_color = {}
    for _, _, s in g.triples:
        by_color[s] = by_color.get(s, 0) + 1
    assert set(by_color.values()) == {2}
    assert is_strong_coloring(g).is_valid


def test_disjoint_union_minimal_case():
    g = disjoint_union_coloring(2, 1, 1)
    assert g.triples == frozenset({((1,), (2,), (1, 2)), ((2,), (1,), (1, 2))})


def test_disjoint_union_412_matches_enumeration_oracle():
    """Brute-force expected grid, built without the family generator."""
    rows = list(combinations(range(1, 5), 1))
    cols = list(combinations(range(1, 5), 2))
    relabel = {}
    expected = []
    for A in rows:
        line = []
        for B in cols:
            if set(A) & set(B):
                line.append(None)
            else:
                union = tuple(sorted(A + B))
                if union not in relabel:
                    relabel[union] = len(relabel) + 1
                line.append(relabel[union])
        expected.append(line)

    p = coloring_to_pda(disjoint_union_coloring(4, 1, 2))
    assert [list(r) for r in p.grid] == expected
    pr = params(p)
    # measured from the enumeration: each 2-subset has exactly 2 disjoint singletons
    assert (pr.K, pr.F, pr.Z, pr.S) == (6, 4, 2, 4)


def test_disjoint_union_rejects_bad_ranges():
    with pytest.raises(ParameterError):
        disjoint_union_coloring(3, 2, 2)
    with pytest.raises(ParameterError):
        disjoint_union_coloring(3, 0, 1)


def test_intersection_t_4221_degree_and_params():
    g = intersection_t_coloring(4, 2, 2, 1)
    degrees = g.right_degrees()
    assert set(degrees.values()) == {comb(2, 1) * comb(2, 1)}
    pr = params(coloring_to_pda(g))
    assert (pr.K, pr.F, pr.Z) == (6, 6, 6 - 4)
    assert is_strong_coloring(g).is_valid


def test_intersection_t_zero_equals_disjoint_union_up_to_colors():
    a = coloring_to_pda(intersection_t_coloring(3, 1, 1, 0))
    b = coloring_to_pda(disjoint_union_coloring(3, 1, 1))
    assert equivalent(a, b) is EquivalenceResult.EQUIVALENT


def test_intersection_t_diagonal_case():
    g = intersection_t_coloring(4, 2, 2, 2)
    # edge iff A == B: a perfect matching colored by (empty difference, A)
    assert len(g.triples) == 6
    for A, B, (diff, inter) in g.triples:
        assert A == B == inter and diff == ()
    assert is_strong_coloring(g).is_valid
    pr = params(coloring_to_pda(g))
    assert (pr.K, pr.F, pr.Z, pr.S) == (6, 6, 5, 6)


def _per_cell_disjoint_union(n: int, a: int, b: int) -> ColoredBipartiteGraph:
    """Visit every (A, B) cell and keep the disjoint pairs."""
    left, right = subsets(n, a), subsets(n, b)
    triples = frozenset((A, B, tuple(sorted(A + B))) for A in left for B in right if not set(A) & set(B))
    return ColoredBipartiteGraph(left, right, triples)


def test_disjoint_union_per_edge_build_equals_the_per_cell_scan():
    legal = 0
    for n in range(2, 8):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                assert disjoint_union_coloring(n, a, b) == _per_cell_disjoint_union(n, a, b), (n, a, b)
                legal += 1
    assert legal == 56


def _per_cell_intersection_t(n: int, a: int, b: int, t: int) -> ColoredBipartiteGraph:
    """Visit every (A, B) cell and keep the pairs meeting in t elements."""
    left, right = subsets(n, a), subsets(n, b)
    triples = []
    for A in left:
        sa = set(A)
        for B in right:
            inter = sa & set(B)
            if len(inter) == t:
                diff = tuple(sorted(sa.symmetric_difference(B)))
                triples.append((A, B, (diff, tuple(sorted(inter)))))
    return ColoredBipartiteGraph(left, right, frozenset(triples))


def test_intersection_t_per_edge_build_equals_the_per_cell_scan():
    legal = 0
    for n in range(2, 8):
        for a in range(1, n):
            for b in range(1, n):
                for t in range(0, min(a, b) + 1):
                    if a + b - t > n:
                        continue
                    assert intersection_t_coloring(n, a, b, t) == _per_cell_intersection_t(n, a, b, t), (n, a, b, t)
                    legal += 1
    assert legal == 217


def test_intersection_t_rejects_bad_ranges():
    with pytest.raises(ParameterError):
        intersection_t_coloring(4, 4, 2, 1)
    with pytest.raises(ParameterError):
        intersection_t_coloring(4, 2, 2, 3)
    with pytest.raises(ParameterError):
        intersection_t_coloring(4, 3, 3, 1)


def test_restricted_combined_4121():
    p = restricted_combined_family(4, 1, 2, 1)
    pr = params(p)
    assert (pr.K, pr.F, pr.Z, pr.S) == (12, 4, 2, 12)


def test_restricted_combined_closed_forms_small_sweep():
    for n, a, b, t in [(4, 1, 2, 1), (5, 1, 2, 0), (5, 1, 2, 1), (5, 2, 2, 1), (6, 2, 3, 2)]:
        p = restricted_combined_family(n, a, b, t)
        pr = params(p)
        assert pr.K == comb(n, a + t) * comb(a + t, a)
        assert pr.F == comb(n, b - t)
        assert pr.Z == pr.F - comb(n - a - t, b - t)
        assert pr.S == comb(n, a + b) * comb(a + b, b)


def test_restricted_combined_10_1_5_1():
    p = restricted_combined_family(10, 1, 5, 1)
    pr = params(p)
    assert (pr.K, pr.F) == (90, 210)
    assert pr.rate == 6  # the closed form, not the published table's 5


def test_restricted_combined_degenerate_t0():
    p = restricted_combined_family(5, 1, 2, 0)
    assert validate(p).is_valid


def _combine_then_restrict(n, a, b, t):
    """The two-step construction: combine two disjoint-union colorings that
    share their union colors, then keep the nested column pairs (A, A')."""
    combined = combine_same_colors(
        disjoint_union_coloring(n, a + t, b - t), disjoint_union_coloring(n, a, b)
    )
    kept = tuple(pair for pair in combined.right if set(pair[1]) <= set(pair[0]))
    kept_set = set(kept)
    triples = frozenset(tr for tr in combined.triples if tr[1] in kept_set)
    return coloring_to_pda(ColoredBipartiteGraph(combined.left, kept, triples))


def test_restricted_combined_equals_combine_then_restrict():
    cases = [
        (n, a, b, t)
        for n in range(2, 8)
        for a in range(1, n)
        for b in range(1, n - a + 1)
        for t in range(b)
    ]
    assert len(cases) == 126
    for n, a, b, t in cases:
        direct = restricted_combined_family(n, a, b, t)
        reference = _combine_then_restrict(n, a, b, t)
        assert direct.grid == reference.grid, (n, a, b, t)
        assert direct.legend == reference.legend, (n, a, b, t)


def test_restricted_combined_rejects_bad_ranges():
    with pytest.raises(ParameterError):
        restricted_combined_family(4, 2, 3, 0)
    with pytest.raises(ParameterError):
        restricted_combined_family(4, 1, 2, 2)


def test_trivial_pda_params():
    pr = params(trivial_pda())
    assert (pr.K, pr.F, pr.Z, pr.S) == (2, 2, 1, 1)


def test_star_graph_single_edge():
    g = star_graph_coloring(1)
    assert len(g.triples) == 1 and len(g.colors) == 1


def test_star_graph_three_leaves():
    p = coloring_to_pda(star_graph_coloring(3))
    assert p.F == 1 and p.K == 3 and p.S == 3
    assert set(p.grid[0]) == {1, 2, 3}


def test_every_family_output_is_strong_and_valid_sweep():
    for n in range(2, 7):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                g = disjoint_union_coloring(n, a, b)
                assert is_strong_coloring(g).is_valid, (n, a, b)
                assert validate(coloring_to_pda(g)).is_valid, (n, a, b)
    for n in range(2, 6):
        for a in range(1, n):
            for b in range(1, n):
                for t in range(0, min(a, b) + 1):
                    if a + b - t > n:
                        continue
                    g = intersection_t_coloring(n, a, b, t)
                    assert is_strong_coloring(g).is_valid, (n, a, b, t)
                    deg = set(g.right_degrees().values())
                    assert deg == {comb(b, t) * comb(n - b, a - t)}, (n, a, b, t)
                    assert validate(coloring_to_pda(g)).is_valid, (n, a, b, t)


@pytest.mark.slow
def test_every_family_output_is_strong_and_valid_full_sweep():
    for n in range(2, 11):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                g = disjoint_union_coloring(n, a, b)
                assert is_strong_coloring(g).is_valid, (n, a, b)
                assert validate(coloring_to_pda(g)).is_valid, (n, a, b)
    for n in range(2, 11):
        for a in range(1, n):
            for b in range(1, n):
                for t in range(0, min(a, b) + 1):
                    if a + b - t > n:
                        continue
                    g = intersection_t_coloring(n, a, b, t)
                    assert is_strong_coloring(g).is_valid, (n, a, b, t)
                    deg = set(g.right_degrees().values())
                    assert deg == {comb(b, t) * comb(n - b, a - t)}, (n, a, b, t)
                    assert validate(coloring_to_pda(g)).is_valid, (n, a, b, t)
