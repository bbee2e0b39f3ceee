from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdakit
from pdakit.core import PdaArray, validate
from pdakit.graphs import (
    ColoredBipartiteGraph,
    ColoredGraph,
    GraphError,
    NonConstantDegreeError,
    NotStrongError,
    as_general_graph,
    coloring_to_pda,
    cycle_strong_coloring,
    cycle_vertex_coloring,
    is_strong_coloring,
    opposing_orientations,
    pda_to_coloring,
    split_bipartite,
    two_coloring,
)


def test_strong_coloring_accepts_the_strip_coloring():
    g = ColoredBipartiteGraph(
        left=(1, 2),
        right=("1'", "2'", "3'", "4'"),
        triples=frozenset({(1, "2'", 1), (1, "4'", 2), (2, "1'", 1), (2, "3'", 2)}),
    )
    assert is_strong_coloring(g).is_valid


def test_adjacent_same_color_edges_are_rejected():
    g = ColoredGraph(
        vertices=("a", "b", "c"),
        colored_edges=frozenset({(frozenset({"a", "b"}), 1), (frozenset({"b", "c"}), 1)}),
    )
    report = is_strong_coloring(g)
    assert not report.is_valid
    assert report.violations[0].condition == "shared-vertex"


def test_distance_one_same_color_edges_are_rejected():
    # path a-b, b-c, c-d colored 1, 2, 1: the ends are joined by b-c
    g = ColoredGraph(
        vertices=("a", "b", "c", "d"),
        colored_edges=frozenset(
            {
                (frozenset({"a", "b"}), 1),
                (frozenset({"b", "c"}), 2),
                (frozenset({"c", "d"}), 1),
            }
        ),
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


def test_cross_oracle_agreement_targeted(example1):
    assert validate(example1).is_valid == is_strong_coloring(pda_to_coloring(example1)).is_valid
    bad = PdaArray.from_rows([[1, 2], [2, 1]])
    assert not validate(bad).is_valid
    assert not is_strong_coloring(pda_to_coloring(bad)).is_valid


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
    return PdaArray.from_rows([[None if e is None else dense[e] for e in row] for row in rows])


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
    assert is_strong_coloring(ec).is_valid


@pytest.mark.parametrize("m", [3, 6, 9, 12])
def test_cycle_strong_coloring_multiples_of_three(m):
    ec = cycle_strong_coloring(m)
    assert len(ec.colors) == 3
    assert is_strong_coloring(ec).is_valid


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


def test_two_coloring_and_split():
    even = cycle_strong_coloring(6)
    side = two_coloring(even)
    assert side is not None
    odd = cycle_strong_coloring(3)
    assert two_coloring(odd) is None

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
        pytest.param(
            "ColoredGraph(tuple('abcde'), frozenset((frozenset('abcde'[i:i + 2]), 1) for i in range(4)))",
            5,
            id="path",
        ),
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
