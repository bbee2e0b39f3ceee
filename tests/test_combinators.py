"""Combinator tests.  The tensor products of six bases are pinned in
tests/golden/tensor_products.txt; after a deliberate change of output,
regenerate it with `PYTHONPATH=src python tests/test_combinators.py` and
review the diff.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
from pathlib import Path

import pytest

from pdakit import cli
from pdakit.analytics import ParameterError, tensor_law
from pdakit.combinators import (
    CombineError,
    combine,
    combine_same_colors,
    cycle_product,
    same_colors_claimed_params,
    star_product,
    tensor_product,
)
from pdakit.core import EquivalenceResult, PdaArray, equivalent, params, read_pda, validate, write_pda
from pdakit.families import disjoint_union_coloring, intersection_t_coloring, star_graph_coloring, trivial_pda
from pdakit.graphs import (
    ColoredBipartiteGraph,
    ColoredGraph,
    NonConstantDegreeError,
    NotStrongError,
    as_general_graph,
    coloring_to_pda,
    is_strong_coloring,
    pda_to_coloring,
    split_bipartite,
)


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
    grouped = star_product([pda_to_coloring(example1), star_graph_coloring(3)])
    pr = params(coloring_to_pda(grouped))
    # grouping multiplies users and colors by m, keeps F and Z
    assert (pr.K, pr.F, pr.Z, pr.S) == (12, 4, 2, 12)


def test_star_product_with_single_leaf_is_identity_like(example1):
    p = coloring_to_pda(star_product([pda_to_coloring(example1), star_graph_coloring(1)]))
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
    return ColoredGraph((u, v), frozenset({(frozenset({u, v}), color)}))


def _strong_on_split(product: ColoredGraph, left) -> bool:
    return is_strong_coloring(split_bipartite(product, left)).is_valid


def test_tensor_of_single_edges():
    product = tensor_product(_single_edge("a", "b", 1), _single_edge("c", "d", 9))
    assert len(product.colored_edges) == 2
    assert {s for _, s in product.colored_edges} == {(1, 9)}
    assert _strong_on_split(product, [("a", "c"), ("a", "d")])
    supports = {e for e, _ in product.colored_edges}
    assert frozenset({("a", "c"), ("b", "d")}) in supports
    assert frozenset({("a", "d"), ("b", "c")}) in supports


def test_tensor_trivial_with_edge_is_strong():
    g = as_general_graph(pda_to_coloring(trivial_pda()))
    product = tensor_product(g, _single_edge("u", "v", 7))
    assert _strong_on_split(product, [v for v in product.vertices if v[0][0] == "row"])
    assert len(product.colored_edges) == 4


def test_tensor_rejects_two_odd_cycles():
    c3 = ColoredGraph((1, 2, 3), frozenset((frozenset({x, x % 3 + 1}), x) for x in (1, 2, 3)))
    with pytest.raises(CombineError):
        tensor_product(c3, c3)


def test_tensor_rejects_one_odd_cycle():
    # Every array's coloring is bipartite, so a factor with an odd cycle has no PDA behind it.
    c3 = ColoredGraph((1, 2, 3), frozenset((frozenset({x, x % 3 + 1}), x) for x in (1, 2, 3)))
    with pytest.raises(CombineError, match="requires bipartite factors"):
        tensor_product(c3, _single_edge("u", "v", 7))
    with pytest.raises(CombineError, match="requires bipartite factors"):
        tensor_product(_single_edge("u", "v", 7), c3)


def test_tensor_checks_each_factor_with_the_bipartite_scan(scans):
    g = as_general_graph(pda_to_coloring(trivial_pda()))
    tensor_product(g, _single_edge("u", "v", 7))
    assert [type(obj) for obj in scans] == [ColoredBipartiteGraph] * 2
    bad = ColoredGraph(("a", "b", "c"), frozenset({(frozenset("ab"), 1), (frozenset("bc"), 1)}))
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
        "star(3)": coloring_to_pda(star_graph_coloring(3)),
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


def test_combined_cells_are_the_built_shape_on_the_bases():
    for mode, arrays, m in _combine_cases():
        try:
            p = combine(mode, arrays, m)
        except (CombineError, NonConstantDegreeError):
            continue
        cells = cli._combined_cells(argparse.Namespace(mode=mode, m=m), arrays)
        if mode == "same-colors":  # a bound: its columns are some of the pairs of the inputs' rows
            assert cells >= p.F * p.K, mode
        else:
            assert cells == p.F * p.K, (mode, m)


if __name__ == "__main__":
    TENSOR_GOLDEN.write_text(tensor_product_lines())
    print(f"wrote {TENSOR_GOLDEN}")
