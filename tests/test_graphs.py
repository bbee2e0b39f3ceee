from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import _one_fault_classes, _roundtrip_catalog, _star_to_color, build_family, family_params

import pdakit
from pdakit import cli, graphs
from pdakit.analytics import ParameterError, cycle_law
from pdakit.combinators import cycle_product, star_product
from pdakit.core import PdaArray, ValidationReport, Violation, params, validate, write_pda
from pdakit.families import disjoint_union_coloring, restricted_combined_family, star_pda, trivial_pda
from pdakit.graphs import (
    ColoredBipartiteGraph,
    ColoredGraph,
    GraphError,
    Label,
    NonConstantDegreeError,
    NotStrongError,
    as_general_graph,
    coloring_to_pda,
    is_strong_coloring,
    pda_to_coloring,
    split_bipartite,
)


def test_strong_coloring_accepts_the_strip_coloring():
    g = ColoredBipartiteGraph(
        left=(1, 2),
        right=("1'", "2'", "3'", "4'"),
        triples=frozenset({(1, "2'", 1), (1, "4'", 2), (2, "1'", 1), (2, "3'", 2)}),
    )
    assert is_strong_coloring(g).is_valid


def test_adjacent_same_color_edges_are_rejected():
    # path a-b, b-c, both colored 1
    g = ColoredBipartiteGraph(
        left=("b",),
        right=("a", "c"),
        triples=frozenset({("b", "a", 1), ("b", "c", 1)}),
    )
    report = is_strong_coloring(g)
    assert not report.is_valid
    assert report.violations[0].condition == "shared-vertex"


def test_distance_one_same_color_edges_are_rejected():
    # path a-b, b-c, c-d colored 1, 2, 1: the ends are joined by b-c
    g = ColoredBipartiteGraph(
        left=("a", "c"),
        right=("b", "d"),
        triples=frozenset({("a", "b", 1), ("c", "b", 2), ("c", "d", 1)}),
    )
    report = is_strong_coloring(g)
    assert not report.is_valid
    assert report.violations[0].condition == "linked-edges"


def test_bipartite_distance_one_check():
    g = ColoredBipartiteGraph(
        left=("u", "v"),
        right=("x", "y"),
        triples=frozenset({("u", "x", 1), ("u", "y", 2), ("v", "y", 1)}),
    )
    report = is_strong_coloring(g)
    assert [v.condition for v in report.violations] == ["linked-edges"]


def test_pda_to_coloring_example1(example1):
    g = pda_to_coloring(example1)
    assert len(g.triples) == 8
    assert g.left == (1, 2, 3, 4)
    assert g.right == ("1'", "2'", "3'", "4'")
    assert (1, "2'", 1) in g.triples and (4, "3'", 4) in g.triples
    assert is_strong_coloring(g).is_valid


def test_graph_roundtrip_is_identity(example1):
    assert coloring_to_pda(pda_to_coloring(example1)).grid == example1.grid


def test_complete_bipartite_star_to_pda():
    m = 3
    g = ColoredBipartiteGraph(
        left=("hub",),
        right=tuple(range(m)),
        triples=frozenset({("hub", i, i + 1) for i in range(m)}),
    )
    p = coloring_to_pda(g)
    assert p.F == 1 and p.K == m and p.S == m
    assert p.star_count(0) == 0


def test_nonconstant_degree_rejected_with_witness():
    g = ColoredBipartiteGraph(
        left=(1, 2),
        right=("x", "y"),
        triples=frozenset({(1, "x", 1), (2, "x", 2), (1, "y", 3)}),
    )
    with pytest.raises(NonConstantDegreeError) as info:
        coloring_to_pda(g)
    assert "'x'" in str(info.value) and "'y'" in str(info.value)


def test_nonstrong_coloring_rejected():
    g = ColoredBipartiteGraph(
        left=(1,),
        right=("x", "y"),
        triples=frozenset({(1, "x", 1), (1, "y", 1)}),
    )
    with pytest.raises(NotStrongError):
        coloring_to_pda(g)


def test_structured_colors_densify_with_legend():
    g = ColoredBipartiteGraph(
        left=(1, 2),
        right=("x", "y"),
        triples=frozenset({(1, "x", ("p",)), (2, "y", ("q",))}),
    )
    p = coloring_to_pda(g)
    assert p.S == 2
    assert p.legend is not None
    assert set(p.legend) == {1, 2}
    assert set(p.legend.values()) == {("p",), ("q",)}
    # first-appearance row-major order: row 1 hits ("p",) first
    assert p.legend[1] == ("p",)


@pytest.mark.parametrize(
    "colors, grid, legend",
    [
        ((True,), ((1,),), {1: True}),
        ((1.0,), ((1,),), {1: 1.0}),
        ((1, 2.0), ((1, None), (None, 2)), {1: 1, 2: 2.0}),
        ((2.0, 1), ((1, None), (None, 2)), {1: 2.0, 2: 1}),
    ],
    ids=["true", "float-one", "int-then-float", "float-then-int"],
)
def test_labels_equal_to_ints_but_not_plain_ints_are_densified(colors, grid, legend):
    # True == 1 and 1.0 == 1, yet neither is a grid entry, so neither passes through.
    left = tuple(range(1, len(colors) + 1))
    right = tuple(f"{k}'" for k in left)
    g = ColoredBipartiteGraph(left, right, frozenset((j, right[j - 1], s) for j, s in zip(left, colors)))
    p = coloring_to_pda(g)
    assert p.grid == grid
    assert p.legend == legend and list(p.legend.items()) == list(legend.items())
    assert all(type(v) is type(s) for v, s in zip(p.legend.values(), legend.values()))


def test_plain_int_colors_1_to_s_still_pass_through():
    g = ColoredBipartiteGraph((1, 2), ("x", "y"), frozenset({(1, "x", 2), (2, "y", 1)}))
    p = coloring_to_pda(g)
    assert p.grid == ((2, None), (None, 1))
    assert p.legend is None


def test_cross_oracle_agreement_targeted(example1):
    assert validate(example1).is_valid == is_strong_coloring(pda_to_coloring(example1)).is_valid
    bad = PdaArray([[1, 2], [2, 1]])
    assert not validate(bad).is_valid
    assert not is_strong_coloring(pda_to_coloring(bad)).is_valid


def test_each_graph_keeps_its_strength_report(example1):
    swap = PdaArray([[1, 2], [2, 1]])
    for build in (
        lambda: pda_to_coloring(example1),
        lambda: pda_to_coloring(swap),
        lambda: as_general_graph(pda_to_coloring(example1)),
        lambda: as_general_graph(pda_to_coloring(swap)),
    ):
        g, fresh = build(), build()
        bipartite = isinstance(g, ColoredBipartiteGraph)
        if bipartite:
            assert is_strong_coloring(g) == is_strong_coloring(g)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        if bipartite:
            assert str(is_strong_coloring(fresh)) == str(is_strong_coloring(g))
    # Only arrays keep a verdict, the grid oracle's: converting a validated
    # array's graph back gives an array that is not yet validated.
    validate(example1)
    assert coloring_to_pda(pda_to_coloring(example1))._report is None


def test_a_checked_graph_converts_without_a_second_scan(scans):
    # Graphs keep no verdict, so conversion scans the graph it converts.
    g = disjoint_union_coloring(5, 1, 2)
    assert is_strong_coloring(g).is_valid
    p = coloring_to_pda(g)
    assert [id(obj) for obj in scans] == [id(g), id(g)]
    assert validate(p).is_valid
    assert [id(obj) for obj in scans] == [id(g), id(g), id(p)]


def _constant_right_degree(p: PdaArray) -> bool:
    degrees = {k: sum(1 for j in range(p.F) if p.grid[j][k] is not None) for k in range(p.K)}
    return len(set(degrees.values())) == 1


def random_structural_array(rnd: random.Random) -> PdaArray:
    F = rnd.randint(1, 6)
    K = rnd.randint(1, 6)
    max_color = rnd.randint(1, 5)
    rows = [[rnd.choice([None, *range(1, max_color + 1)]) for _ in range(K)] for _ in range(F)]
    present = sorted({e for row in rows for e in row if e is not None})
    dense = {c: i + 1 for i, c in enumerate(present)}
    return PdaArray([[None if e is None else dense[e] for e in row] for row in rows])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_cross_oracle_agreement_random(seed):
    p = random_structural_array(random.Random(seed))
    report = validate(p)
    bc_clean = not any(v.condition in ("B", "C") for v in report.violations)
    a_clean = not any(v.condition == "A" for v in report.violations)
    strong = is_strong_coloring(pda_to_coloring(p)).is_valid
    assert bc_clean == strong
    assert a_clean == _constant_right_degree(p)
    assert report.is_valid == (strong and _constant_right_degree(p))


def _reference_strong_violations(g: ColoredBipartiteGraph) -> list[Violation]:
    """The strength scan that walks every pair of same-colored edges, and finds links in a set of edges."""
    by_color: list[list[tuple[int, int]]] = [[] for _ in g._palette]
    for j, k, c in g._edges:
        by_color[c].append((j, k))
    width = len(g.right)
    edge_set = {j * width + k for j, k, _ in g._edges}
    left, right = g.left, g.right
    violations: list[Violation] = []
    for s, edges in zip(g._palette, by_color):
        for i, (j1, k1) in enumerate(edges):
            for j2, k2 in edges[i + 1:]:
                if j1 == j2 or k1 == k2:
                    kind = "shared-vertex"
                    detail = f"same-colored edges meet at {(left[j1] if j1 == j2 else right[k1])!r}"
                elif j1 * width + k2 in edge_set or j2 * width + k1 in edge_set:
                    link = (left[j1], right[k2]) if j1 * width + k2 in edge_set else (left[j2], right[k1])
                    kind = "linked-edges"
                    detail = f"edge {link!r} joins two edges of color {s!r}"
                else:
                    continue
                witness = ((left[j1], right[k1], s), (left[j2], right[k2], s))
                violations.append(Violation(kind, witness, detail))
    return violations


def _pda_to_coloring_by_triples(p: PdaArray) -> ColoredBipartiteGraph:
    """The build pda_to_coloring replaced: a frozenset of (row, column, color) label
    triples, which the labelled constructor maps back to positions and sorts."""
    left = tuple(range(1, p.F + 1))
    right = tuple(f"{k}'" for k in range(1, p.K + 1))
    triples = frozenset(
        (j, r, e)
        for j, row in zip(left, p.grid)
        for r, e in zip(compress(right, row), filter(None, row))
    )
    return ColoredBipartiteGraph(left, right, triples)


def test_labelled_constructor_holds_one_copy_of_its_index():
    # A sorted list of (key, label) pairs beside the label map and the edge
    # list would cost about 135 bytes per edge at the peak; one copy of each
    # stays under 115.
    g = disjoint_union_coloring(128, 1, 1)
    triples = g.triples
    tracemalloc.start()
    try:
        built = ColoredBipartiteGraph(g.left, g.right, triples)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built._edges == g._edges and built._palette == g._palette
    assert peak - retained < 115 * len(triples)


def _assert_strength_scan_matches_reference(p: PdaArray) -> list[Violation]:
    """Assert p's coloring equal to the triple build (graph, hash, index and strength report)
    and to a walk of the grid, and its strength report equal to the pair walk's (kind,
    witness, detail and order); return the violations."""
    g, by_triples = pda_to_coloring(p), _pda_to_coloring_by_triples(p)
    assert g == by_triples and hash(g) == hash(by_triples)
    assert (g.left, g.right) == (by_triples.left, by_triples.right)
    assert g._edges == by_triples._edges and g._palette == by_triples._palette
    assert str(is_strong_coloring(g)) == str(is_strong_coloring(by_triples))
    walked = {(j + 1, f"{k + 1}'", e) for j, row in enumerate(p.grid) for k, e in enumerate(row) if e is not None}
    assert g.triples == by_triples.triples == walked
    got = graphs._strong_violations_bipartite(g)
    assert got == _reference_strong_violations(g)
    return got


def test_strength_scan_matches_the_reference_on_the_restricted_sweep():
    n = 9
    cases = [(a, b, t) for a in range(1, n) for b in range(1, n - a + 1) for t in range(b)]
    assert len(cases) == 120
    assert not any(_assert_strength_scan_matches_reference(restricted_combined_family(n, *c)) for c in cases)


def test_strength_scan_matches_the_reference_on_mutants():
    rng = random.Random(117)
    arrays = []
    for p, _ in _roundtrip_catalog():
        arrays.append(p)
        if p.S and p.star_count(0):
            arrays += [_star_to_color(p, rng) for _ in range(6)]
    star = coloring_to_pda(star_product([pda_to_coloring(trivial_pda())] * 8))
    for _ in range(40):  # one to three cells of the 256 x 256 star product overwritten
        rows = [list(row) for row in star.grid]
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(star.F)][rng.randrange(star.K)] = rng.choice([None, 1])
        arrays.append(PdaArray(rows))
    strong = [not _assert_strength_scan_matches_reference(p) for p in arrays]
    assert True in strong and False in strong


def test_strength_scan_matches_the_reference_on_large_and_one_fault_classes(star_1024):
    star, recolored = star_1024
    assert not _assert_strength_scan_matches_reference(star)
    kinds = {v.condition for v in _assert_strength_scan_matches_reference(recolored)}
    assert kinds == {"shared-vertex", "linked-edges"}
    faults = {name: [v.condition for v in _assert_strength_scan_matches_reference(p)]
              for name, p in _one_fault_classes().items()}
    assert faults == {
        "repeated row": ["shared-vertex"],
        "repeated column": ["shared-vertex"],
        "colored corner": ["linked-edges"],
        "one cell": [],
    }


def test_strength_scan_matches_the_reference_on_the_family_corpora():
    built = 0
    for name in cli.FAMILIES:
        for values in family_params(name):
            try:
                p = build_family(name, values)
            except ParameterError:
                continue
            assert not _assert_strength_scan_matches_reference(p), (name, values)
            built += 1
    assert built == 685  # every legal case of the five families


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=300, deadline=None)
def test_strength_scan_matches_the_reference_on_small_grids(seed):
    _assert_strength_scan_matches_reference(random_structural_array(random.Random(seed)))


def general_strength(g: ColoredGraph) -> ValidationReport:
    """The strength scan on a general graph, the reference for the cycle construction below.

    Two edges of one color violate strength when they share a vertex or some
    edge joins an endpoint of one to an endpoint of the other.  Edges are taken
    in the order of their endpoints' positions in ``g.vertices``, colors by
    their first edge, so the witnesses do not depend on hashing.
    """
    pos = {v: i for i, v in enumerate(g.vertices)}
    n, name = len(g.vertices), g.vertices
    edges = sorted((tuple(sorted(pos[v] for v in e)), s) for e, s in g.colored_edges)
    by_color: dict[Label, list[tuple[int, int]]] = {}
    for e, s in edges:
        by_color.setdefault(s, []).append(e)
    edge_set = {i * n + j for (i, j), _ in edges}
    violations = []
    for s, same in by_color.items():
        for a, e1 in enumerate(same):
            for e2 in same[a + 1:]:
                shared = [x for x in e1 if x in e2]
                if shared:
                    kind = "shared-vertex"
                    detail = f"same-colored edges meet at {name[shared[0]]!r}"
                elif link := next(((x, y) for x in e1 for y in e2 if min(x, y) * n + max(x, y) in edge_set), None):
                    kind = "linked-edges"
                    detail = f"edge {tuple(name[v] for v in sorted(link))!r} joins two edges of color {s!r}"
                else:
                    continue
                witness = (((name[e1[0]], name[e1[1]]), s), ((name[e2[0]], name[e2[1]]), s))
                violations.append(Violation(kind, witness, detail))
    return ValidationReport(tuple(violations))


def test_general_scan_agrees_with_the_bipartite_scan_on_the_split():
    rng = random.Random(15)
    arrays = [p for p, _ in _roundtrip_catalog()]
    arrays += [_star_to_color(p, rng) for p in arrays if p.star_count(0) for _ in range(4)]
    verdicts = []
    for p in arrays:
        general = as_general_graph(pda_to_coloring(p))
        split = split_bipartite(general, [v for v in general.vertices if v[0] == "row"])
        verdicts.append(general_strength(general).is_valid)
        assert verdicts[-1] == is_strong_coloring(split).is_valid
    assert True in verdicts and False in verdicts


# The paper's cycle construction, kept here as the reference that
# combinators.cycle_product's closed rule is checked against: a proper vertex
# coloring of the m-cycle, its 3-color strong edge coloring, and the two
# opposing orientations that carry disjoint color sets.


@dataclass(frozen=True)
class VertexColoring:
    """Assignment vertex -> color; proper when adjacent vertices differ."""

    assignments: tuple[tuple[Label, Label], ...]

    def as_dict(self) -> dict[Label, Label]:
        return dict(self.assignments)


@dataclass(frozen=True)
class Orientation:
    """One direction per colored edge: (<x, y>, color) pairs."""

    directed: frozenset[tuple[tuple[Label, Label], Label]]

    @property
    def colors(self) -> frozenset[Label]:
        return frozenset(s for _, s in self.directed)


def cycle_vertex_coloring(m: int) -> VertexColoring:
    """Parity 2-coloring for even m; the 3-coloring {a, b, c} for m = 3."""
    if m == 3:
        return VertexColoring(((1, "a"), (2, "b"), (3, "c")))
    if m >= 4 and m % 2 == 0:
        return VertexColoring(tuple((v, "a" if v % 2 == 1 else "b") for v in range(1, m + 1)))
    raise GraphError(f"no vertex coloring rule for m={m}: need m=3 or m even")


def cycle_strong_coloring(m: int) -> ColoredGraph:
    """Color edge {i, i+1} with ((i-1) mod 3) + 1; strong when 3 divides m."""
    if m < 3 or m % 3 != 0:
        raise GraphError(f"3-color strong edge coloring of a cycle needs 3 | m, got m={m}")
    vertices = tuple(range(1, m + 1))
    edges = frozenset(
        (frozenset({vertices[i], vertices[(i + 1) % m]}), (i % 3) + 1) for i in range(m)
    )
    return ColoredGraph(vertices, edges)


def opposing_orientations(c: ColoredGraph) -> tuple[Orientation, Orientation]:
    """Clockwise and counterclockwise traversals of a colored cycle.

    The input must be a cycle whose traversal order matches the vertex list.
    The forward direction <v_i, v_i+1> takes the color of the successor edge
    (a rotation of the base coloring, itself strong); the opposing orientation
    reverses every edge and primes the color, giving disjoint color sets.
    """
    m = len(c.vertices)
    order = list(c.vertices)
    ring = [frozenset({order[i], order[(i + 1) % m]}) for i in range(m)]
    host = {e for e, _ in c.colored_edges}
    if m < 3 or set(ring) != host or len(host) != m:
        raise GraphError("opposing orientations are defined here for cycles in vertex order")
    color_at = {e: s for e, s in c.colored_edges}
    forward = []
    backward = []
    for i in range(m):
        x, y = order[i], order[(i + 1) % m]
        s = color_at[ring[(i + 1) % m]]
        forward.append(((x, y), s))
        backward.append(((y, x), f"{s}'"))
    return Orientation(frozenset(forward)), Orientation(frozenset(backward))


def _oriented_cycle_factor(m: int) -> ColoredBipartiteGraph:
    """S_m as the paper builds it, on rows and columns 1..m: a proper vertex
    coloring of the m-cycle colors each equal pair, and the 3-color strong
    edge coloring with its two opposing orientations each adjacent pair."""
    vertex_colors = cycle_vertex_coloring(m).as_dict()
    forward, backward = opposing_orientations(cycle_strong_coloring(m))
    arrows = dict(forward.directed) | dict(backward.directed)
    ring = tuple(range(1, m + 1))
    steps = [(x, x, vertex_colors[x]) for x in ring] + [(x, u, s) for (x, u), s in arrows.items()]
    return ColoredBipartiteGraph(ring, ring, frozenset(steps))


def _oriented_cycle_product(base: ColoredBipartiteGraph, m: int) -> ColoredBipartiteGraph:
    """The cycle product as the paper builds it: every base edge paired with
    every step of the cycle factor, the colors paired alike."""
    cycle = _oriented_cycle_factor(m)
    left = tuple((x, y) for x in cycle.left for y in base.left)
    right = tuple((x, v) for x in cycle.right for v in base.right)
    triples = frozenset(((x, y), (u, v), (s, s2)) for y, v, s2 in base.triples for x, u, s in cycle.triples)
    return ColoredBipartiteGraph(left, right, triples)


def test_cycle_structure():
    ec = cycle_strong_coloring(6)
    assert ec.vertices == (1, 2, 3, 4, 5, 6)
    edges = {e for e, _ in ec.colored_edges}
    assert frozenset({6, 1}) in edges and len(edges) == 6
    with pytest.raises(GraphError):
        cycle_strong_coloring(2)


def test_cycle_vertex_coloring_three():
    colors = cycle_vertex_coloring(3).as_dict()
    assert colors == {1: "a", 2: "b", 3: "c"}
    assert all(len({colors[v] for v in e}) == 2 for e, _ in cycle_strong_coloring(3).colored_edges)


def test_cycle_vertex_coloring_even_parity():
    colors = cycle_vertex_coloring(6).as_dict()
    assert set(colors.values()) == {"a", "b"}
    assert all(len({colors[v] for v in e}) == 2 for e, _ in cycle_strong_coloring(6).colored_edges)
    with pytest.raises(GraphError):
        cycle_vertex_coloring(5)


def test_cycle_strong_coloring_m3_matches_published_sets():
    ec = cycle_strong_coloring(3)
    assert ec.colored_edges == frozenset(
        {
            (frozenset({1, 2}), 1),
            (frozenset({2, 3}), 2),
            (frozenset({3, 1}), 3),
        }
    )
    assert general_strength(ec).is_valid


@pytest.mark.parametrize("m", [3, 6, 9, 12])
def test_cycle_strong_coloring_multiples_of_three(m):
    ec = cycle_strong_coloring(m)
    assert len({s for _, s in ec.colored_edges}) == 3
    assert general_strength(ec).is_valid


def test_cycle_strong_coloring_rejects_other_lengths():
    with pytest.raises(GraphError):
        cycle_strong_coloring(4)
    with pytest.raises(GraphError):
        cycle_strong_coloring(7)


def test_opposing_orientations_match_published_example():
    fwd, bwd = opposing_orientations(cycle_strong_coloring(3))
    assert fwd.directed == frozenset({((1, 2), 2), ((2, 3), 3), ((3, 1), 1)})
    assert bwd.directed == frozenset({((2, 1), "2'"), ((3, 2), "3'"), ((1, 3), "1'")})


@pytest.mark.parametrize("m", [3, 6, 12])
def test_opposing_orientation_invariants(m):
    ec = cycle_strong_coloring(m)
    fwd, bwd = opposing_orientations(ec)
    ring = {e for e, _ in ec.colored_edges}
    for orientation in (fwd, bwd):
        covered = [frozenset(pair) for pair, _ in orientation.directed]
        assert len(covered) == len(ring) and set(covered) == ring
    assert not (fwd.colors & bwd.colors)
    assert {pair for pair, _ in bwd.directed} == {(y, x) for (x, y), _ in fwd.directed}
    # six directed colors in total once both copies are counted
    assert len(fwd.colors | bwd.colors) == 6


def test_opposing_orientations_reject_a_non_cycle():
    ec = cycle_strong_coloring(6)
    path = ColoredGraph(ec.vertices, frozenset(ce for ce in ec.colored_edges if ce[0] != {6, 1}))
    chord = ColoredGraph(ec.vertices, ec.colored_edges | {(frozenset({1, 4}), 1)})
    for graph in (path, chord):
        with pytest.raises(GraphError):
            opposing_orientations(graph)


@pytest.mark.parametrize("m", [3, 6, 12, 18, 24, 30, 36])
def test_cycle_product_equals_the_oriented_cycle_construction(m):
    string_strip = ColoredBipartiteGraph(
        left=("u", "v"),
        right=("p", "q", "r", "s"),
        triples=frozenset({("u", "q", "red"), ("u", "s", "blue"), ("v", "p", "red"), ("v", "r", "blue")}),
    )
    bases = [
        pda_to_coloring(trivial_pda()),
        disjoint_union_coloring(4, 1, 2),
        pda_to_coloring(star_pda(3)),
        string_strip,
    ]
    for base in bases:
        direct = cycle_product(base, m)
        reference = _oriented_cycle_product(base, m)
        assert direct == reference
        p, q = coloring_to_pda(direct), coloring_to_pda(reference)
        assert (write_pda(p), p.legend) == (write_pda(q), q.legend)


@pytest.mark.parametrize("m", [3, 6, 12, 18, 30])
def test_the_cycle_factor_measures_the_cycle_law_and_passes_both_oracles(m):
    cycle = _oriented_cycle_factor(m)
    p = coloring_to_pda(cycle)
    r = params(p)
    assert (r.K, r.F, r.g, r.S) == (m, m, 3, 9 if m == 3 else 8) == cycle_law((1, 1, 1, 1), m)
    assert validate(p).is_valid and is_strong_coloring(cycle).is_valid


def test_split_bipartite_rebuilds_the_tagged_sides():
    g = ColoredBipartiteGraph(
        left=(1, 2), right=("x", "y"), triples=frozenset({(1, "x", 1), (2, "y", 2)})
    )
    general = as_general_graph(g)
    rebuilt = split_bipartite(general, [("row", 1), ("row", 2)])
    assert coloring_to_pda(rebuilt).grid == coloring_to_pda(g).grid
    with pytest.raises(GraphError):
        split_bipartite(general, [("row", 1), ("col", "x")])


def test_graph_construction_errors():
    with pytest.raises(GraphError):
        ColoredGraph(("a",), frozenset({(frozenset({"a"}), 1)}))
    with pytest.raises(GraphError):
        ColoredBipartiteGraph((1, 1), ("x",), frozenset())
    with pytest.raises(GraphError):
        ColoredBipartiteGraph((1,), ("x",), frozenset({(1, "z", 1)}))
    with pytest.raises(GraphError):
        ColoredGraph(("a", "b"), frozenset({(frozenset({"a", "c"}), 1)}))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: ColoredBipartiteGraph((1, 1), ("x",), frozenset()),
            "duplicate vertex label within a side",
            id="bipartite-duplicate-label",
        ),
        pytest.param(
            lambda: ColoredBipartiteGraph((1,), ("x",), frozenset({(1, "z", 1)})),
            "triple endpoint (1, 'z') not among declared vertices",
            id="bipartite-undeclared-endpoint",
        ),
        pytest.param(
            lambda: ColoredBipartiteGraph((1,), ("x",), frozenset({(1, "x", 1), (1, "x", 2)})),
            "pair (1, 'x') carries more than one color",
            id="bipartite-two-colors",
        ),
        pytest.param(
            lambda: ColoredBipartiteGraph((1,), ("x",), [(1, "x", 1), (1, "x", 1)]),
            "pair (1, 'x') appears in more than one triple",
            id="bipartite-repeated-triple",
        ),
        pytest.param(
            lambda: ColoredGraph((1,), frozenset({(frozenset({1}), 1)})),
            "edge {1} is not a 2-set (self-loops are not allowed)",
            id="general-not-a-2-set",
        ),
        pytest.param(
            lambda: ColoredGraph((1, 2), frozenset({(frozenset({1, 3}), 1)})),
            "edge {1, 3} uses undeclared vertices",
            id="general-undeclared-vertex",
        ),
        pytest.param(
            lambda: ColoredGraph((1, 2), frozenset({(frozenset({1, 2}), 1), (frozenset({1, 2}), 2)})),
            "edge {1, 2} carries more than one color",
            id="general-two-colors",
        ),
        pytest.param(
            lambda: ColoredGraph(("a", "b", "a"), frozenset({(frozenset("ab"), 1)})),
            "duplicate vertex label",
            id="general-duplicate-label",
        ),
    ],
)
def test_structural_error_messages(build, message):
    with pytest.raises(GraphError) as info:
        build()
    assert str(info.value) == message


BIPARTITE_THREE_COLORS = (
    "ColoredBipartiteGraph(('u', 'v', 'w'), ('x', 'y', 'z'), frozenset({"
    "('u', 'x', 'red'), ('u', 'y', 'red'), ('v', 'y', 'blue'), ('v', 'z', 'blue'),"
    " ('w', 'x', 'green'), ('w', 'z', 'green')}))"
)


@pytest.mark.parametrize(
    "graph, violations",
    [
        pytest.param(BIPARTITE_THREE_COLORS, 3, id="bipartite"),
    ],
)
def test_general_strong_witnesses_do_not_depend_on_hash_seed(graph, violations):
    script = (
        "from pdakit.graphs import ColoredBipartiteGraph, ColoredGraph, is_strong_coloring\n"
        f"print(is_strong_coloring({graph}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pdakit.__file__).resolve().parents[1])}
    reports = [
        subprocess.run(
            [sys.executable, "-c", script], env={**env, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "3", "5")
    ]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].count("condition") == violations


EDGE_MESSAGES = {
    "ColoredGraph(('c', 'a', 'b'), frozenset({(frozenset('abc'), 1)}))":
        "edge {'c', 'a', 'b'} is not a 2-set (self-loops are not allowed)",
    "ColoredGraph(('b', 'a'), frozenset({(frozenset('az'), 1)}))": "edge {'a', 'z'} uses undeclared vertices",
    "ColoredGraph(('b', 'a'), frozenset({(frozenset('yx'), 1)}))": "edge {'x', 'y'} uses undeclared vertices",
    "ColoredGraph(('b', 'a'), frozenset({(frozenset('ab'), 1), (frozenset('ab'), 2)}))":
        "edge {'b', 'a'} carries more than one color",
    "split_bipartite(ColoredGraph(('b', 'a'), frozenset({(frozenset('ab'), 1)})), 'ab')":
        "edge {'b', 'a'} does not cross the requested split",
}


def test_edge_messages_follow_declared_order_under_every_hash_seed():
    # Endpoints print in the graph's vertex order, undeclared ones last by repr;
    # a set's own repr would follow the hash seed.
    script = (
        "from pdakit.graphs import ColoredGraph, GraphError, split_bipartite\n"
        f"for build in {list(EDGE_MESSAGES)!r}:\n"
        "    try:\n"
        "        eval(build)\n"
        "    except GraphError as exc:\n"
        "        print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pdakit.__file__).resolve().parents[1])}
    for seed in ("0", "1", "2", "3"):
        out = subprocess.run(
            [sys.executable, "-c", script], env={**env, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines() == list(EDGE_MESSAGES.values()), seed


def test_not_strong_error_prints_a_bounded_report_and_keeps_every_violation():
    g = pda_to_coloring(PdaArray([[1] * 300]))
    with pytest.raises(NotStrongError) as info:
        star_product([g, g])
    assert len(info.value.report.violations) == 44850
    assert len(str(info.value).encode()) < 1024


def test_bipartite_strong_witnesses_come_out_row_major():
    g = ColoredBipartiteGraph(
        left=("w", "v", "u"),
        right=("x", "y", "z"),
        triples=frozenset({("u", "x", 2), ("u", "y", 2), ("w", "y", 1), ("w", "z", 1), ("v", "x", 3)}),
    )
    report = is_strong_coloring(g)
    assert [v.cells for v in report.violations] == [
        (("w", "y", 1), ("w", "z", 1)),
        (("u", "x", 2), ("u", "y", 2)),
    ]


def test_degree_witness_follows_declared_column_order():
    g = ColoredBipartiteGraph(
        left=(1, 2), right=("y", "x"), triples=frozenset({(1, "y", 1), (2, "y", 2), (1, "x", 3)})
    )
    with pytest.raises(NonConstantDegreeError) as info:
        coloring_to_pda(g)
    assert info.value.witness == (("y", 2), ("x", 1))
