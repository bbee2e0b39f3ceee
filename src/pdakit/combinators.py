"""Composition operators on strong edge colorings.

Every operator checks its inputs with the strength oracle (one pass per color
class when clean, a walk of the pairs only in a class that fails), builds the
composite triple system, and returns a colored graph whose colors are
structured tuples recording exactly which input colors and vertices
contributed.  All factors are bipartite, as every array's coloring is; the
tensor product takes them as general graphs and checks each on its split
into two sides.  Converting to an array (graphs.coloring_to_pda) densifies those
tuples to integers and keeps the mapping on the array's legend; ``combine``
runs the whole pipeline from arrays to an array.  Outputs need not have
constant column degree, so the conversion may legitimately fail, as it does
for the same-colors combination without the nested-pair restriction.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Optional, Sequence

from .analytics import check_cycle_length
from .core import PdaArray
from .graphs import (
    ColoredBipartiteGraph,
    ColoredGraph,
    Label,
    _require_strong,
    as_general_graph,
    coloring_to_pda,
    pda_to_coloring,
    split_bipartite,
    two_coloring,
)

class CombineError(ValueError):
    """Inputs rejected by a composition operator."""


def combine_same_colors(
    g1: ColoredBipartiteGraph, g2: ColoredBipartiteGraph
) -> ColoredBipartiteGraph:
    """Combine two strong colorings that share one color set.

    The result has rows g1.right and columns {(x, u) in g1.left x g2.left
    sharing some color}; the edge from y to (x, u) exists when (x, y, s) and
    (u, v, s) are edges for a common color s, and is colored (s, v).
    """
    _require_strong(g1)
    _require_strong(g2)
    if g1.colors != g2.colors:
        raise CombineError(
            f"color sets differ: {sorted(map(repr, g1.colors))} vs {sorted(map(repr, g2.colors))}"
        )
    by_color1: dict[Label, list[tuple[Label, Label]]] = {}
    for x, y, s in g1.triples:
        by_color1.setdefault(s, []).append((x, y))
    by_color2: dict[Label, list[tuple[Label, Label]]] = {}
    for u, v, s in g2.triples:
        by_color2.setdefault(s, []).append((u, v))

    pairs: set[tuple[Label, Label]] = set()
    triples: set[tuple[Label, Label, Label]] = set()
    for s, edges1 in by_color1.items():
        for (x, y), (u, v) in iproduct(edges1, by_color2.get(s, ())):
            pairs.add((x, u))
            triples.add((y, (x, u), (s, v)))

    idx1 = {x: i for i, x in enumerate(g1.left)}
    idx2 = {u: i for i, u in enumerate(g2.left)}
    right = tuple(sorted(pairs, key=lambda p: (idx1[p[0]], idx2[p[1]])))
    return ColoredBipartiteGraph(g1.right, right, frozenset(triples))


def same_colors_claimed_params(p1: PdaArray, p2: PdaArray) -> tuple[int, int, int, int]:
    """(K, F, Z, S) as published for the same-colors combination of two arrays.

    The published summary's index sets mix row and column roles and its S
    over-counts, so these numbers routinely disagree with the constructed
    array; they are reported alongside measured values, never substituted for
    them.
    """
    # Colors are dense, so p2's colors are 1..S2, and the colors the arrays share are 1..min(S1, S2).
    shared = range(min(p1.S, p2.S))
    cells1, cells2 = p1.color_cells, p2.color_cells
    row_pairs = {(j1, j2) for s in shared for j1, _ in cells1[s] for j2, _ in cells2[s]}
    sharing_cols = {k for s in shared for _, k in cells1[s]}
    return len(row_pairs), p1.K, p1.K - len(sharing_cols), p2.S * p2.K


def star_product(gs: Sequence[ColoredBipartiteGraph]) -> ColoredBipartiteGraph:
    """Coordinatewise product: edge iff edge in every factor, colors tupled.

    Parameters multiply: K, F, and S are products, and F - Z is the product of
    the factors' integer-per-column counts.
    """
    if len(gs) < 2:
        raise CombineError("need at least two factors")
    for g in gs:
        _require_strong(g)
    left = tuple(iproduct(*(g.left for g in gs)))
    right = tuple(iproduct(*(g.right for g in gs)))
    triples = frozenset(
        (
            tuple(tr[0] for tr in combo),
            tuple(tr[1] for tr in combo),
            tuple(tr[2] for tr in combo),
        )
        for combo in iproduct(*(tuple(g.triples) for g in gs))
    )
    return ColoredBipartiteGraph(left, right, triples)


def tensor_product(c1: ColoredGraph, c2: ColoredGraph) -> ColoredGraph:
    """Tensor product of two bipartite factors, with tuple colors.

    Each pair of edges {x1, y1} and {x2, y2} gives the edges {(x1, x2), (y1, y2)}
    and {(x1, y2), (y1, x2)}, both colored (s1, s2).  Each factor is split into
    its two sides (``two_coloring``) and checked there by the bipartite strength
    oracle; a factor with an odd cycle is rejected.
    """
    for c in (c1, c2):
        side = two_coloring(c)
        if side is None:
            raise CombineError("tensor product requires bipartite factors: a factor has an odd cycle")
        _require_strong(split_bipartite(c, [v for v in c.vertices if side[v] == 0]))
    vertices = tuple((u, v) for u in c1.vertices for v in c2.vertices)
    edges: set[tuple[frozenset, tuple]] = set()
    for e1, s1 in c1.colored_edges:
        x1, y1 = tuple(e1)
        for e2, s2 in c2.colored_edges:
            x2, y2 = tuple(e2)
            edges.add((frozenset({(x1, x2), (y1, y2)}), (s1, s2)))
            edges.add((frozenset({(x1, y2), (y1, x2)}), (s1, s2)))
    return ColoredGraph(vertices, frozenset(edges))


def cycle_product(base: ColoredBipartiteGraph, m: int) -> ColoredBipartiteGraph:
    """Strong-like product of an m-cycle with a strong bipartite coloring.

    Rows are (cycle vertex, base row) pairs and columns (cycle vertex,
    base column) pairs; an edge requires a base edge in the second coordinate
    and equality or cycle-adjacency in the first.  Equal cycle vertices color
    the edge with the vertex's color, adjacent ones with the color the
    oriented cycle assigns to the arrow between them; both are paired with the
    base color.  Supported m: 3 (nine color groups) and multiples of 6 (eight,
    since the vertex coloring then needs only two colors).

    The colors follow a closed rule.  Vertex x has color "abc"[x-1] when
    m = 3, and otherwise "a" for odd x and "b" for even x.  The arrow
    x -> (x mod m) + 1 has color (x mod 3) + 1, and the reverse arrow the same
    color primed.  This equals the paper's construction from a proper vertex
    coloring, the 3-color strong edge coloring of the cycle and its two
    opposing orientations, which lives in the tests as the reference
    (test_cycle_product_equals_the_oriented_cycle_construction).
    """
    check_cycle_length(m)
    _require_strong(base)
    ring = range(1, m + 1)
    # (first row coordinate, first column coordinate, cycle color) for every step
    steps = [(x, x, "abc"[x - 1] if m == 3 else "ab"[(x - 1) % 2]) for x in ring]
    for x in ring:
        s = x % 3 + 1
        steps += [(x, x % m + 1, s), (x % m + 1, x, f"{s}'")]

    left = tuple((x, y) for x in ring for y in base.left)
    right = tuple((x, v) for x in ring for v in base.right)
    triples = frozenset(((x, y), (u, v), (s, s2)) for y, v, s2 in base.triples for x, u, s in steps)
    return ColoredBipartiteGraph(left, right, triples)


def combine(mode: str, arrays: Sequence[PdaArray], m: Optional[int] = None) -> PdaArray:
    """The array ``pdakit combine --mode <mode>`` writes: the operator on the
    arrays' colorings, converted back.  "same-colors" and "tensor" take two
    arrays, "star" two or more, and "cycle" one and the cycle length m."""
    colorings = [pda_to_coloring(p) for p in arrays]
    if mode == "same-colors":
        g = combine_same_colors(*colorings)
    elif mode == "star":
        g = star_product(colorings)
    elif mode == "tensor":
        product = tensor_product(*(as_general_graph(c) for c in colorings))
        g = split_bipartite(product, [v for v in product.vertices if v[0][0] == "row"])
    elif mode == "cycle":
        g = cycle_product(colorings[0], m)
    else:
        raise CombineError(f"no such mode {mode!r}")
    return coloring_to_pda(g)
