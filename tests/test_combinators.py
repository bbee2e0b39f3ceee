"""Combinator tests.  The tensor products of six bases are pinned in
tests/golden/tensor_products.txt; after a deliberate change of output,
regenerate it with `PYTHONPATH=src python tests/test_combinators.py` and
review the diff.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdakit.analytics import ParameterError, cycle_law, star_law, tensor_law
from pdakit.combinators import (
    MODES,
    CombineError,
    combine,
    combined_cells,
    combine_same_colors,
    cycle_product,
    same_colors_claimed_params,
    star_product,
    tensor_product,
)
from pdakit.core import EquivalenceResult, PdaArray, equivalent, params, read_pda, validate, write_pda
from pdakit.families import (
    disjoint_union_coloring,
    intersection_t_coloring,
    restricted_combined_family,
    star_pda,
    trivial_pda,
)
from pdakit.graphs import (
    ColoredBipartiteGraph,
    ColoredGraph,
    GraphError,
    NonConstantDegreeError,
    NotStrongError,
    as_general_graph,
    coloring_to_pda,
    is_strong_coloring,
    pda_to_coloring,
    split_bipartite,
)
from pdakit.scheme import FileLibrary, random_demands, verify_roundtrip


def test_combine_strips_reproduces_published_triple_system(strip):
    g = pda_to_coloring(strip)
    combined = combine_same_colors(g, g)
    assert combined.left == g.right
    assert set(combined.right) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert combined.triples == frozenset(
        {
            ("2'", (1, 1), (1, "2'")),
            ("2'", (1, 2), (1, "1'")),
            ("1'", (2, 1), (1, "2'")),
            ("1'", (2, 2), (1, "1'")),
            ("4'", (1, 1), (2, "4'")),
            ("4'", (1, 2), (2, "3'")),
            ("3'", (2, 1), (2, "4'")),
            ("3'", (2, 2), (2, "3'")),
        }
    )
    assert combined.colors == frozenset({(1, "1'"), (1, "2'"), (2, "3'"), (2, "4'")})
    assert is_strong_coloring(combined).is_valid


def test_combine_strips_gives_example1_up_to_relabeling(strip, example1):
    combined = coloring_to_pda(combine_same_colors(pda_to_coloring(strip), pda_to_coloring(strip)))
    pr = params(combined)
    assert (pr.K, pr.F, pr.Z, pr.S) == (4, 4, 2, 4)
    assert equivalent(combined, example1) is EquivalenceResult.EQUIVALENT


def test_published_parameter_claim_is_reported_not_trusted(strip):
    # the published summary for this combination disagrees with the build
    claim = same_colors_claimed_params(strip, strip)
    assert claim == (4, 4, 0, 8)
    combined = coloring_to_pda(combine_same_colors(pda_to_coloring(strip), pda_to_coloring(strip)))
    pr = params(combined)
    assert (pr.K, pr.F, pr.Z, pr.S) != claim


def test_combine_with_single_edge_relabels_right_side():
    g1 = pda_to_coloring(trivial_pda())
    g2 = ColoredBipartiteGraph(left=("u",), right=("v",), triples=frozenset({("u", "v", 1)}))
    combined = combine_same_colors(g1, g2)
    # brute-force expansion: every edge of g1 pairs with the single edge of g2
    expected = {
        (y, (x, "u"), (1, "v"))
        for x, y, s in g1.triples
    }
    assert combined.triples == frozenset(expected)
    assert combined.left == g1.right
    assert combined.right == ((1, "u"), (2, "u"))
    p = coloring_to_pda(combined)
    assert equivalent(p, trivial_pda()) is EquivalenceResult.EQUIVALENT


def test_combine_rejects_color_set_mismatch():
    g1 = ColoredBipartiteGraph((1,), ("a", "b"), frozenset({(1, "a", 1), (1, "b", 2)}))
    g2 = ColoredBipartiteGraph((1,), ("a", "b"), frozenset({(1, "a", 1), (1, "b", 3)}))
    with pytest.raises(CombineError):
        combine_same_colors(g1, g2)


def test_combine_rejects_nonstrong_input():
    bad = ColoredBipartiteGraph((1,), ("x", "y"), frozenset({(1, "x", 1), (1, "y", 1)}))
    with pytest.raises(NotStrongError):
        combine_same_colors(bad, bad)


def test_star_product_trivial_squared_by_expansion():
    g = pda_to_coloring(trivial_pda())
    product = star_product([g, g])
    # oracle: expand all coordinate pairs of the two 2x2 grids directly
    edges = {(1, "2'"), (2, "1'")}
    expected = {
        ((x1, x2), (y1, y2), (1, 1))
        for (x1, y1) in edges
        for (x2, y2) in edges
    }
    assert product.triples == frozenset(expected)
    pr = params(coloring_to_pda(product))
    assert (pr.K, pr.F, pr.Z, pr.S) == (4, 4, 3, 1)


def test_star_product_grouping_with_star_graph(example1):
    grouped = star_product([pda_to_coloring(example1), pda_to_coloring(star_pda(3))])
    pr = params(coloring_to_pda(grouped))
    # grouping multiplies users and colors by m, keeps F and Z
    assert (pr.K, pr.F, pr.Z, pr.S) == (12, 4, 2, 12)


def test_star_product_with_single_leaf_is_identity_like(example1):
    p = coloring_to_pda(star_product([pda_to_coloring(example1), pda_to_coloring(star_pda(1))]))
    assert equivalent(p, example1) is EquivalenceResult.EQUIVALENT


def test_star_product_parameter_law_sample():
    bases = [
        pda_to_coloring(trivial_pda()),
        disjoint_union_coloring(4, 1, 2),
        disjoint_union_coloring(5, 1, 2),
    ]
    for g1 in bases:
        for g2 in bases:
            p1 = params(coloring_to_pda(g1))
            p2 = params(coloring_to_pda(g2))
            pr = params(coloring_to_pda(star_product([g1, g2])))
            assert pr.K == p1.K * p2.K
            assert pr.F == p1.F * p2.F
            assert pr.S == p1.S * p2.S
            assert pr.g == p1.g * p2.g


def test_star_product_needs_two_factors():
    with pytest.raises(CombineError):
        star_product([pda_to_coloring(trivial_pda())])


def _single_edge(u, v, color) -> ColoredGraph:
    """One edge from row u to column v, tagged as ``as_general_graph`` tags them."""
    ends = (("row", u), ("col", v))
    return ColoredGraph(ends, frozenset({(frozenset(ends), color)}))


def _strong_on_split(product: ColoredGraph, left) -> bool:
    return is_strong_coloring(split_bipartite(product, left)).is_valid


def test_tensor_of_single_edges():
    product = tensor_product(_single_edge("a", "b", 1), _single_edge("c", "d", 9))
    a, b, c, d = ("row", "a"), ("col", "b"), ("row", "c"), ("col", "d")
    assert len(product.colored_edges) == 2
    assert {s for _, s in product.colored_edges} == {(1, 9)}
    assert _strong_on_split(product, [(a, c), (a, d)])
    supports = {e for e, _ in product.colored_edges}
    assert frozenset({(a, c), (b, d)}) in supports
    assert frozenset({(a, d), (b, c)}) in supports


def test_tensor_trivial_with_edge_is_strong():
    g = as_general_graph(pda_to_coloring(trivial_pda()))
    product = tensor_product(g, _single_edge("u", "v", 7))
    assert _strong_on_split(product, [v for v in product.vertices if v[0][0] == "row"])
    assert len(product.colored_edges) == 4


def test_tensor_rejects_two_odd_cycles():
    c3 = ColoredGraph((1, 2, 3), frozenset((frozenset({x, x % 3 + 1}), x) for x in (1, 2, 3)))
    with pytest.raises(CombineError):
        tensor_product(c3, c3)


def test_tensor_rejects_an_untagged_factor_naming_its_first_untagged_vertex():
    factor = ColoredGraph((("row", 1), "x", "y"), frozenset({(frozenset({("row", 1), "x"}), 1)}))
    for pair in ((factor, _single_edge("u", "v", 7)), (_single_edge("u", "v", 7), factor)):
        with pytest.raises(CombineError, match=r"^tensor factor vertex 'x' is not tagged 'row' or 'col'$"):
            tensor_product(*pair)


def test_tensor_rejects_a_tagged_odd_cycle():
    # Every array's coloring is bipartite, so a factor with an odd cycle has no PDA behind
    # it.  However it is tagged, an odd cycle has an edge inside one side.
    r1, r2, c = ("row", 1), ("row", 2), ("col", 3)
    triangle = ColoredGraph(
        (r1, r2, c), frozenset({(frozenset({r1, r2}), 1), (frozenset({r2, c}), 2), (frozenset({c, r1}), 3)})
    )
    message = "edge {('row', 1), ('row', 2)} does not cross the requested split"
    for pair in ((triangle, _single_edge("u", "v", 7)), (_single_edge("u", "v", 7), triangle)):
        with pytest.raises(GraphError) as info:
            tensor_product(*pair)
        assert str(info.value) == message


def test_tensor_checks_each_factor_with_the_bipartite_scan(scans):
    g = as_general_graph(pda_to_coloring(trivial_pda()))
    tensor_product(g, _single_edge("u", "v", 7))
    assert [type(obj) for obj in scans] == [ColoredBipartiteGraph] * 2
    # Each factor is split on its tags: its "row" vertices are the scanned graph's rows.
    assert [obj.left for obj in scans] == [(("row", 1), ("row", 2)), (("row", "u"),)]
    a, b, c = ("row", "a"), ("col", "b"), ("row", "c")
    bad = ColoredGraph((a, b, c), frozenset({(frozenset({a, b}), 1), (frozenset({b, c}), 1)}))
    with pytest.raises(NotStrongError):
        tensor_product(g, bad)


def test_cycle_product_m3_on_trivial_matches_published_params():
    p = coloring_to_pda(cycle_product(pda_to_coloring(trivial_pda()), 3))
    pr = params(p)
    assert (pr.K, pr.F, pr.Z, pr.S) == (6, 6, 3, 9)


def test_cycle_product_m6_on_trivial_full_expansion():
    p = coloring_to_pda(cycle_product(pda_to_coloring(trivial_pda()), 6))
    pr = params(p)
    assert (pr.K, pr.F, pr.Z, pr.S) == (12, 12, 12 - 3 * 1, 8 * 1)
    assert validate(p).is_valid


def test_cycle_product_parameter_law_on_subset_base():
    base = disjoint_union_coloring(4, 1, 2)
    base_params = params(coloring_to_pda(base))
    assert base_params.g == 2  # each 2-subset has exactly 2 disjoint singletons
    p = coloring_to_pda(cycle_product(base, 6))
    pr = params(p)
    assert pr.K == 6 * base_params.K
    assert pr.F == 6 * base_params.F
    assert pr.Z == 6 * base_params.F - 3 * base_params.g
    assert pr.S == 8 * base_params.S


def test_cycle_product_rejects_unsupported_m():
    g = pda_to_coloring(trivial_pda())
    for m in (2, 4, 5, 9):
        with pytest.raises(ParameterError, match=f"^cycle product supports m = 3 or m divisible by 6, got m={m}$"):
            cycle_product(g, m)


def test_cycle_product_rejects_nonstrong_base():
    bad = ColoredBipartiteGraph((1,), ("x", "y"), frozenset({(1, "x", 1), (1, "y", 1)}))
    with pytest.raises(NotStrongError):
        cycle_product(bad, 6)


def test_combine_can_return_graph_with_nonconstant_degree():
    # without the nested-pair restriction the new column degrees may vary:
    # the operator still returns the coloring, only array conversion refuses
    from pdakit.families import disjoint_union_coloring

    g1 = disjoint_union_coloring(4, 2, 1)
    g2 = disjoint_union_coloring(4, 1, 2)
    combined = combine_same_colors(g1, g2)
    assert is_strong_coloring(combined).is_valid
    assert len(set(combined.right_degrees().values())) > 1
    with pytest.raises(NonConstantDegreeError):
        coloring_to_pda(combined)


def test_legends_are_total_and_invertible(strip):
    combined = combine_same_colors(pda_to_coloring(strip), pda_to_coloring(strip))
    p = coloring_to_pda(combined)
    assert p.legend is not None
    assert set(p.legend) == set(range(1, p.S + 1))
    assert len(set(p.legend.values())) == p.S
    # the legend inverts the densification: cells map back to the graph colors
    color_at = {(l, r): s for l, r, s in combined.triples}
    for row_label, col_label, graph_color in combined.triples:
        j = combined.left.index(row_label)
        k = combined.right.index(col_label)
        assert p.legend[p.grid[j][k]] == graph_color
    assert set(p.legend.values()) == set(color_at.values())


TENSOR_GOLDEN = Path(__file__).parent / "golden" / "tensor_products.txt"


def _tensor_bases() -> dict[str, PdaArray]:
    """Six valid bases.  Some pairs give a product whose column degrees differ,
    which has no array form; the base read back from its file has no legend."""
    return {
        "trivial": trivial_pda(),
        "disjoint-union(4,1,2)": coloring_to_pda(disjoint_union_coloring(4, 1, 2)),
        "intersection-t(5,2,2,1)": coloring_to_pda(intersection_t_coloring(5, 2, 2, 1)),
        "intersection-t(4,2,2,1)": coloring_to_pda(intersection_t_coloring(4, 2, 2, 1)),
        "disjoint-union(4,1,1) read back": read_pda(write_pda(coloring_to_pda(disjoint_union_coloring(4, 1, 1)))),
        "star(3)": coloring_to_pda(pda_to_coloring(star_pda(3))),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tensor_product_lines() -> str:
    """One line per ordered pair of bases: the product that `pdakit combine
    --mode tensor` builds, as the sha256 of its file text and of its legend's
    repr, or the degree error it raises."""
    lines = []
    for (name1, p1), (name2, p2) in itertools.product(_tensor_bases().items(), repeat=2):
        try:
            p = combine("tensor", [p1, p2])
        except NonConstantDegreeError as exc:
            outcome = f"NonConstantDegreeError: {exc}"
        else:
            outcome = f"{p.F}x{p.K} S={p.S} text {_sha256(write_pda(p))} legend {_sha256(repr(p.legend))}"
        lines.append(f"{name1} x {name2}: {outcome}\n")
    return "".join(lines)


def test_tensor_products_of_the_bases_match_golden():
    assert tensor_product_lines() == TENSOR_GOLDEN.read_text()


def _kfgs(p: PdaArray) -> tuple[int, int, int, int]:
    pr = params(p)
    return pr.K, pr.F, pr.g, pr.S


def test_tensor_law_matches_the_measured_products_of_the_bases():
    agreed = refused = 0
    for p1, p2 in itertools.product(_tensor_bases().values(), repeat=2):
        try:
            p = combine("tensor", [p1, p2])
        except NonConstantDegreeError:
            refused += 1
        else:
            assert _kfgs(p) == tensor_law(_kfgs(p1), _kfgs(p2))
            agreed += 1
    assert (agreed, refused) == (24, 12)


def _tag(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    """g with its rows labelled ("row", l) and its columns ("col", r)."""
    return ColoredBipartiteGraph(
        tuple(("row", l) for l in g.left),
        tuple(("col", r) for r in g.right),
        frozenset((("row", l), ("col", r), s) for l, r, s in g.triples),
    )


def _double(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    """g laid twice over its tagged vertex list V2, rows first, on both sides:
    once as ("row", l) -> ("col", r) and once as ("col", r) -> ("row", l),
    both in g's color."""
    tagged = _tag(g)
    v2 = tagged.left + tagged.right
    return ColoredBipartiteGraph(v2, v2, tagged.triples | {(r, l, s) for l, r, s in tagged.triples})


def test_tensor_product_is_the_star_product_of_the_tagged_and_doubled_factors():
    refused = 0
    for p1, p2 in itertools.product(_tensor_bases().values(), repeat=2):
        g1, g2 = pda_to_coloring(p1), pda_to_coloring(p2)
        product = tensor_product(as_general_graph(g1), as_general_graph(g2))
        tensor = split_bipartite(product, [v for v in product.vertices if v[0][0] == "row"])
        star = star_product([_tag(g1), _double(g2)])
        assert (star.left, star.right, star.triples) == (tensor.left, tensor.right, tensor.triples)
        outcome = _outcome(coloring_to_pda, star)
        assert outcome == _outcome(coloring_to_pda, tensor)
        # The degree rule: refused exactly when some row of the second array
        # holds other than g2 colored cells.
        uneven = any(len(row) - row.count(None) != params(p2).g for row in p2.grid)
        assert (outcome[0] is NonConstantDegreeError) == uneven
        refused += uneven
    assert refused == 12


def _reference_tensor_product(c1: ColoredGraph, c2: ColoredGraph) -> ColoredGraph:
    """The paper's tensor product, after the factor checks `tensor_product` makes:
    each pair of edges {x1, y1} and {x2, y2} gives the edges {(x1, x2), (y1, y2)}
    and {(x1, y2), (y1, x2)}, both colored (s1, s2), whichever way round each
    edge is read."""
    for c in (c1, c2):
        if untagged := [v for v in c.vertices if not (isinstance(v, tuple) and len(v) == 2 and v[0] in ("row", "col"))]:
            raise CombineError(f"tensor factor vertex {untagged[0]!r} is not tagged 'row' or 'col'")
        report = is_strong_coloring(split_bipartite(c, [v for v in c.vertices if v[0] == "row"]))
        if not report.is_valid:
            raise NotStrongError(report)
    vertices = tuple((u, v) for u in c1.vertices for v in c2.vertices)
    edges: set[tuple[frozenset, tuple]] = set()
    for e1, s1 in c1.colored_edges:
        x1, y1 = tuple(e1)
        for e2, s2 in c2.colored_edges:
            x2, y2 = tuple(e2)
            edges.add((frozenset({(x1, x2), (y1, y2)}), (s1, s2)))
            edges.add((frozenset({(x1, y2), (y1, x2)}), (s1, s2)))
    return ColoredGraph(vertices, frozenset(edges))


def _graph_outcome(build, *args) -> object:
    try:
        return build(*args)
    except Exception as exc:  # whatever one raises, the other must raise too
        return type(exc), str(exc)


def test_tensor_product_equals_the_reference_construction():
    bases = [as_general_graph(pda_to_coloring(p)) for p in _tensor_bases().values()]
    rng = random.Random(30)
    shuffled = [ColoredGraph(tuple(rng.sample(g.vertices, len(g.vertices))), g.colored_edges) for g in bases]
    assert all(s.vertices != g.vertices for s, g in zip(shuffled, bases) if len(g.vertices) > 2)
    # The factors the tests above build by hand: single edges, a base with an
    # edge, an untagged odd cycle, an untagged vertex, a tagged odd cycle and a
    # coloring that is not strong.
    r1, r2, c = ("row", 1), ("row", 2), ("col", 3)
    hand = [
        _single_edge("a", "b", 1),
        _single_edge("c", "d", 9),
        bases[0],
        ColoredGraph((1, 2, 3), frozenset((frozenset({x, x % 3 + 1}), x) for x in (1, 2, 3))),
        ColoredGraph((("row", 1), "x", "y"), frozenset({(frozenset({("row", 1), "x"}), 1)})),
        ColoredGraph((r1, r2, c), frozenset({(frozenset({r1, r2}), 1), (frozenset({r2, c}), 2), (frozenset({c, r1}), 3)})),
        ColoredGraph((r1, c, r2), frozenset({(frozenset({r1, c}), 1), (frozenset({c, r2}), 1)})),
    ]
    pairs = [
        *itertools.product(bases, repeat=2),
        *itertools.product(shuffled, bases),
        *itertools.product(hand, repeat=2),
    ]
    kinds = set()
    for pair in pairs:
        outcome = _graph_outcome(tensor_product, *pair)
        assert outcome == _graph_outcome(_reference_tensor_product, *pair)
        kinds.add(type(outcome) if isinstance(outcome, ColoredGraph) else outcome[0])
    assert kinds == {ColoredGraph, CombineError, GraphError, NotStrongError}


def _reference_combine(mode: str, arrays: list[PdaArray], m: int | None = None) -> PdaArray:
    """The command line's combine sequence from before `combinators.combine`:
    colorings, the operator, the tensor product's general-graph round trip and
    split, then `coloring_to_pda`."""
    colorings = [pda_to_coloring(p) for p in arrays]
    if mode == "same-colors":
        g = combine_same_colors(*colorings)
    elif mode == "star":
        g = star_product(colorings)
    elif mode == "tensor":
        g1, g2 = (as_general_graph(c) for c in colorings)
        product = tensor_product(g1, g2)
        left = [v for v in product.vertices if v[0][0] == "row"]
        g = split_bipartite(product, left)
    else:
        g = cycle_product(colorings[0], m)
    return coloring_to_pda(g)


def _combine_cases() -> list[tuple[str, list[PdaArray], int | None]]:
    bases = list(_tensor_bases().values())
    pairs = [list(pair) for pair in itertools.product(bases, repeat=2)]
    return [
        *((mode, pair, None) for mode in ("same-colors", "star", "tensor") for pair in pairs),
        *(("cycle", [p], m) for m in (3, 6) for p in bases),
    ]


def _outcome(build, *args) -> tuple:
    try:
        p = build(*args)
    except Exception as exc:  # whatever the reference raises, combine must raise too
        return type(exc), str(exc)
    return write_pda(p), repr(p.legend)


def test_combine_equals_the_reference_sequence_on_the_bases():
    outcomes = []
    for mode, arrays, m in _combine_cases():
        outcome = _outcome(combine, mode, arrays, m)
        assert outcome == _outcome(_reference_combine, mode, arrays, m), (mode, m)
        outcomes.append(outcome[0] if isinstance(outcome[0], type) else str)
    # Both paths are covered: arrays and refusals (color sets, degrees).
    assert {str, CombineError, NonConstantDegreeError} <= set(outcomes)


def test_combine_rejects_an_unknown_mode():
    with pytest.raises(CombineError, match="^no such mode 'sum'$"):
        combine("sum", [trivial_pda(), trivial_pda()])


# What each mode does with 0 to 3 arrays: None where it builds, else the refusal.
_COUNT_REFUSALS = {
    "same-colors": ["same-colors needs at least two input files"] * 2
    + [None, "same-colors takes exactly two input files"],
    "star": ["star needs at least two input files"] * 2 + [None, None],
    "tensor": ["tensor takes exactly two input files"] * 2 + [None, "tensor takes exactly two input files"],
    "cycle": ["cycle takes exactly one input file", None] + ["cycle takes exactly one input file"] * 2,
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("count", range(4))
def test_combine_checks_the_number_of_arrays_before_building(mode, count):
    arrays = [trivial_pda()] * count
    refusal = _COUNT_REFUSALS[mode][count]
    for call in (combine, combined_cells):
        if refusal is None:
            call(mode, arrays, 6)
        else:
            with pytest.raises(ParameterError, match=f"^{refusal}$"):
                call(mode, arrays, 6)


def test_combined_cells_are_the_built_shape_on_the_bases():
    for mode, arrays, m in _combine_cases():
        try:
            p = combine(mode, arrays, m)
        except (CombineError, NonConstantDegreeError):
            continue
        cells = combined_cells(mode, arrays, m)
        if mode == "same-colors":  # a bound: its columns are some of the pairs of the inputs' rows
            assert cells >= p.F * p.K, mode
        else:
            assert cells == p.F * p.K, (mode, m)


# Nested products: trees of star, tensor and cycle nodes over the six bases and
# a restricted family, up to depth 3, built bottom up under a cell cap.
NESTED_CAP_CELLS = 40_000


@functools.cache
def _nested_leaves() -> dict[str, PdaArray]:
    return {**_tensor_bases(), "restricted(4,1,2,1)": restricted_combined_family(4, 1, 2, 1)}


def _trees(depth: int):
    """A leaf name, or (mode, child, child) for star and tensor, or ("cycle", child, m)."""
    leaf = st.sampled_from(sorted(_nested_leaves()))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(("star", "tensor")), sub, sub),
        st.tuples(st.just("cycle"), sub, st.sampled_from((3, 6))),
    )


def _build_nested(tree) -> tuple[PdaArray, tuple[int, int, int, int]]:
    """The tree's array and its (K, F, g, S) composed from the leaves' by the
    operators' laws.  A node is built only when ``combined_cells`` puts it
    under the cap and, for tensor, the degree rule lets it have an array form;
    otherwise its first child stands in its place."""
    if isinstance(tree, str):
        p = _nested_leaves()[tree]
        return p, _kfgs(p)
    mode, first, second = tree
    children = [_build_nested(first)] + ([] if mode == "cycle" else [_build_nested(second)])
    arrays, laws = [p for p, _ in children], [law for _, law in children]
    m = second if mode == "cycle" else None
    cells = combined_cells(mode, arrays, m)
    if cells > NESTED_CAP_CELLS:
        return children[0]
    law = {"star": star_law, "tensor": tensor_law}[mode](*laws) if m is None else cycle_law(laws[0], m)
    if mode == "tensor":
        # The tensor product's column degrees are constant exactly when g1 = 0
        # or every row of the second factor holds g2 colored cells.
        g1, g2 = laws[0][2], laws[1][2]
        if g1 != 0 and any(len(row) - row.count(None) != g2 for row in arrays[1].grid):
            with pytest.raises(NonConstantDegreeError):
                combine(mode, arrays)
            return children[0]
    p = combine(mode, arrays, m)
    assert cells == p.F * p.K, tree
    assert _kfgs(p) == law, tree
    return p, law


@given(tree=_trees(3), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_nested_products_follow_the_composed_laws(tree, seed):
    p, law = _build_nested(tree)
    assert _kfgs(p) == law
    assert validate(p).is_valid
    assert is_strong_coloring(pda_to_coloring(p)).is_valid
    assert read_pda(write_pda(p)) == p
    lib = FileLibrary.for_array(p, 3, seed)
    assert verify_roundtrip(p, lib, random_demands(3, p.K, 1, seed)[0])


if __name__ == "__main__":
    TENSOR_GOLDEN.write_text(tensor_product_lines())
    print(f"wrote {TENSOR_GOLDEN}")
