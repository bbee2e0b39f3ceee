from __future__ import annotations

import re
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from pdakit import families
from pdakit.analytics import (
    ParameterError,
    check_disjoint_union,
    check_intersection_t,
    disjoint_union_kfgs,
    intersection_t_kfgs,
)
from pdakit.combinators import combine_same_colors
from pdakit.core import EquivalenceResult, InvalidPdaError, ValidationReport, Violation, equivalent, params, validate
from pdakit.families import (
    disjoint_union_coloring,
    intersection_t_coloring,
    restricted_combined_family,
    star_pda,
    subsets,
    trivial_pda,
)
from pdakit.graphs import ColoredBipartiteGraph, coloring_to_pda, is_strong_coloring, pda_to_coloring


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


def _restricted_by_triples(n, a, b, t):
    """The label-triple build: every edge (Y, (A, A'), (U, U minus A')) as a
    nested-tuple triple, checked and indexed by the graph, then densified by
    coloring_to_pda."""
    rows = subsets(n, b - t)
    cols = tuple((A, A2) for A in subsets(n, a + t) for A2 in combinations(A, a))
    triples = []
    for A in subsets(n, a + t):
        for Y in combinations([x for x in range(1, n + 1) if x not in A], b - t):
            U = tuple(sorted(A + Y))
            triples.extend((Y, (A, A2), (U, tuple(x for x in U if x not in A2)))
                           for A2 in combinations(A, a))
    return coloring_to_pda(ColoredBipartiteGraph(rows, cols, frozenset(triples)))


@pytest.mark.slow
def test_restricted_direct_build_equals_the_triple_build():
    cases = [
        (n, a, b, t)
        for n in range(2, 10)
        for a in range(1, n)
        for b in range(1, n - a + 1)
        for t in range(b)
    ]
    assert len(cases) == 330
    for n, a, b, t in cases:
        direct = restricted_combined_family(n, a, b, t)
        reference = _restricted_by_triples(n, a, b, t)
        assert direct.grid == reference.grid, (n, a, b, t)
        assert direct.legend == reference.legend, (n, a, b, t)
        assert list(direct.legend) == list(reference.legend), (n, a, b, t)
        # The family runs only the grid oracle, so the graph oracle is asked here.
        assert is_strong_coloring(pda_to_coloring(direct)).is_valid, (n, a, b, t)


def test_restricted_family_holds_no_second_copy_of_its_grid():
    # A list grid kept alive while the array copies it to tuples costs a
    # pointer per cell; the build may rise above what it keeps by well under
    # a quarter of that.  (9, 3, 6, 3) is wide and sparse: 84 x 1680, 1% colored.
    tracemalloc.start()
    try:
        p = restricted_combined_family(9, 3, 6, 3)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (p.F, p.K) == (84, 1680)
    assert peak - retained < p.F * p.K * 8 / 4


@pytest.mark.parametrize(
    "build, bytes_per_edge",
    [
        pytest.param(lambda: disjoint_union_coloring(256, 1, 1), 180, id="disjoint-union"),
        pytest.param(lambda: intersection_t_coloring(10, 4, 4, 2), 240, id="intersection-t"),
    ],
)
def test_coloring_family_builds_hold_no_second_copy_of_their_edges(build, bytes_per_edge):
    # A hashed set of the label triples beside the constructor's map of them
    # would cost about 140 more bytes per edge at the peak than one pass does.
    tracemalloc.start()
    try:
        g = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < bytes_per_edge * len(g._edges)


def test_restricted_family_scans_its_array_once_with_the_grid_oracle(scans):
    p = restricted_combined_family(5, 2, 2, 1)
    assert [id(obj) for obj in scans] == [id(p)]
    assert params(p).S == comb(5, 4) * comb(4, 2)
    assert validate(p).is_valid
    assert [id(obj) for obj in scans] == [id(p)]


def test_restricted_family_raises_the_grid_report_when_its_check_fails(monkeypatch):
    broken = ValidationReport((Violation("C", ((1, 1), (2, 2)), "color 1: non-star corner at (1,2)"),))
    monkeypatch.setattr(families, "validate", lambda p: broken)
    with pytest.raises(InvalidPdaError, match=r"not a valid PDA:\ncondition C at \(1, 1\), \(2, 2\)"):
        restricted_combined_family(4, 1, 2, 1)


def test_restricted_combined_rejects_bad_ranges():
    with pytest.raises(ParameterError):
        restricted_combined_family(4, 2, 3, 0)
    with pytest.raises(ParameterError):
        restricted_combined_family(4, 1, 2, 2)


def test_trivial_pda_params():
    pr = params(trivial_pda())
    assert (pr.K, pr.F, pr.Z, pr.S) == (2, 2, 1, 1)


def test_star_graph_single_edge():
    g = pda_to_coloring(star_pda(1))
    assert len(g.triples) == 1 and len(g.colors) == 1


def test_star_graph_three_leaves():
    p = coloring_to_pda(pda_to_coloring(star_pda(3)))
    assert p.F == 1 and p.K == 3 and p.S == 3
    assert set(p.grid[0]) == {1, 2, 3}


def _hand_built_star(m: int) -> ColoredBipartiteGraph:
    """K_{1,m} built edge by edge: row 1, columns 1'..m', edge i colored i."""
    left: tuple = (1,)
    right = tuple(f"{i}'" for i in range(1, m + 1))
    triples = frozenset((1, right[i], i + 1) for i in range(m))
    return ColoredBipartiteGraph(left, right, triples)


def test_star_family_is_the_coloring_of_its_one_row_array():
    for m in range(1, 65):
        reference = _hand_built_star(m)
        assert pda_to_coloring(star_pda(m)) == reference, m
        p, expected = star_pda(m), coloring_to_pda(reference)
        assert p == expected and p.legend is None and expected.legend is None, m


@pytest.mark.parametrize("m", [0, -3])
def test_star_family_rejects_m_below_one(m):
    with pytest.raises(ParameterError, match=rf"^need m >= 1, got m={m}$"):
        star_pda(m)


def _legal(check, *args) -> bool:
    try:
        check(*args)
    except ParameterError:
        return False
    return True


def test_disjoint_union_is_the_intersection_size_coloring_at_t_zero():
    legal = 0
    for n in range(2, 10):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                at_zero = intersection_t_coloring(n, a, b, 0)
                renamed = frozenset((A, B, union) for A, B, (union, inter) in at_zero.triples if inter == ())
                assert len(renamed) == len(at_zero.triples), (n, a, b)
                g = disjoint_union_coloring(n, a, b)
                assert g == ColoredBipartiteGraph(at_zero.left, at_zero.right, renamed), (n, a, b)
                assert disjoint_union_kfgs(n, a, b) == intersection_t_kfgs(n, a, b, 0), (n, a, b)
                legal += 1
    assert legal == 120


def test_disjoint_union_accepts_exactly_the_intersection_size_range_at_t_zero():
    accepted = 0
    for n in range(10):
        for a in range(-1, 11):
            for b in range(-1, 11):
                legal = _legal(check_disjoint_union, n, a, b)
                assert legal == _legal(check_intersection_t, n, a, b, 0), (n, a, b)
                accepted += legal
                if legal:
                    continue
                # each refuses with its own message, the coloring and its law with the check's
                own = f"need a, b >= 1 and a + b <= n, got n={n} a={a} b={b}"
                for build in (check_disjoint_union, disjoint_union_coloring, disjoint_union_kfgs):
                    with pytest.raises(ParameterError, match=f"^{re.escape(own)}$"):
                        build(n, a, b)
                if 0 < a < n and 0 < b < n:
                    other = "need 0 <= t <= min(a, b) and a + b - t <= n, got t=0"
                else:
                    other = f"need 0 < a, b < n, got n={n} a={a} b={b}"
                for build in (check_intersection_t, intersection_t_coloring, intersection_t_kfgs):
                    with pytest.raises(ParameterError, match=f"^{re.escape(other)}$"):
                        build(n, a, b, 0)
    assert accepted == 120


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
