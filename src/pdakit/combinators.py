"""Composition operators on strong edge colorings.

Every operator checks its inputs with the strength oracle (one pass per color
class when clean, a walk of the pairs only in a class that fails), builds the
composite triple system, and returns a colored graph whose colors are
structured tuples recording exactly which input colors and vertices
contributed.  All factors are bipartite, as every array's coloring is; the
tensor product takes them as general graphs, checks each on the split its
"row" and "col" vertex tags name, and builds from those splits.  Converting
to an array (coloring_to_pda) densifies those tuples to integers and keeps
the mapping on the array's legend; ``combine`` runs the whole pipeline from
arrays to an array.  Outputs need not have constant column degree, so the
conversion may legitimately fail, as it does for the same-colors combination
without the nested-pair restriction.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Iterable, Iterator, Optional, Sequence

from .analytics import ParameterError, check_cycle_length, cycle_law, star_law, tensor_law
from .core import PdaArray, params
from .graphs import (
    ColoredBipartiteGraph,
    ColoredGraph,
    Label,
    _require_strong,
    as_general_graph,
    coloring_to_pda,
    pda_to_coloring,
    split_bipartite,
)

class CombineError(ValueError):
    """Inputs rejected by a composition operator."""


MODES = ("same-colors", "star", "tensor", "cycle")  # as ``pdakit combine --mode`` offers them


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
    if differ := g1.colors ^ g2.colors:
        only = next(s for s in g1._palette + g2._palette if s in differ)
        raise CombineError(f"color sets differ: {len(g1._palette)} colors vs {len(g2._palette)}; "
                           f"{only!r} is only in the {'first' if only in g1.colors else 'second'}")
    by_color2: dict[Label, list[tuple[Label, Label]]] = {}
    for u, v, s in g2.triples:
        by_color2.setdefault(s, []).append((u, v))
    # The color sets are equal, so every color of g1 has its class in g2.
    triples = [(y, (x, u), (s, v)) for x, y, s in g1.triples for u, v in by_color2[s]]
    joined = {c for _, c, _ in triples}
    right = tuple(c for c in iproduct(g1.left, g2.left) if c in joined)
    return ColoredBipartiteGraph(g1.right, right, triples)


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


def _star_triples(factors: Sequence[Iterable[tuple[Label, Label, Label]]]) -> Iterator[tuple]:
    """The star rule: zip(*combo) regroups one triple per factor into (row, column, color)."""
    return (tuple(zip(*combo)) for combo in iproduct(*factors))


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
    return ColoredBipartiteGraph(left, right, _star_triples([g.triples for g in gs]))


def tensor_product(c1: ColoredGraph, c2: ColoredGraph) -> ColoredGraph:
    """Tensor product of two bipartite factors, with tuple colors.

    Each pair of edges {x1, y1} and {x2, y2} gives the edges {(x1, x2), (y1, y2)}
    and {(x1, y2), (y1, x2)}, both colored (s1, s2).  Each factor's sides are
    the tags ``as_general_graph`` puts on its vertices: a vertex that is not
    ("row", l) or ("col", r) is a ``CombineError``, an edge inside one side (as
    any odd cycle has) a ``GraphError`` from ``split_bipartite``, and each split
    is checked by the bipartite strength oracle.  The product is the star rule
    over those checked splits: the first's triples (l, r, s) with the second's
    taken both ways, (l, r, s) and (r, l, s).
    """
    splits = []
    for c in (c1, c2):
        if untagged := [v for v in c.vertices if not (isinstance(v, tuple) and len(v) == 2 and v[0] in ("row", "col"))]:
            raise CombineError(f"tensor factor vertex {untagged[0]!r} is not tagged 'row' or 'col'")
        splits.append(split_bipartite(c, [v for v in c.vertices if v[0] == "row"]))
        _require_strong(splits[-1])
    both_ways = [t for l, r, s in splits[1].triples for t in ((l, r, s), (r, l, s))]
    edges = frozenset((frozenset((a, b)), s) for a, b, s in _star_triples([splits[0].triples, both_ways]))
    return ColoredGraph(tuple((u, v) for u in c1.vertices for v in c2.vertices), edges)


def cycle_product(base: ColoredBipartiteGraph, m: int) -> ColoredBipartiteGraph:
    """The star product of an m-cycle's coloring S_m with a strong bipartite coloring.

    Rows are (cycle vertex, base row) pairs and columns (cycle vertex,
    base column) pairs; an edge requires a base edge in the second coordinate
    and equality or cycle-adjacency in the first.  Equal cycle vertices color
    the edge with the vertex's color, adjacent ones with the color the
    oriented cycle assigns to the arrow between them; both are paired with the
    base color.  Supported m: 3 (nine color groups) and multiples of 6 (eight,
    since the vertex coloring then needs only two colors).

    S_m colors those 3m steps on rows and columns 1..m by a closed rule.
    Vertex x has color "abc"[x-1] when m = 3, and otherwise "a" for odd x and
    "b" for even x.  The arrow x -> (x mod m) + 1 has color (x mod 3) + 1, and
    the reverse arrow the same color primed.  This equals the paper's
    construction from a proper vertex coloring, the 3-color strong edge
    coloring of the cycle and its two opposing orientations, which lives in the
    tests as the reference (test_cycle_product_equals_the_oriented_cycle_construction).
    ``star_product`` checks both factors: a base that is not strong raises ``NotStrongError``.
    """
    check_cycle_length(m)
    ring = tuple(range(1, m + 1))
    # (first row coordinate, first column coordinate, cycle color) for every step
    steps = [(x, x, "abc"[x - 1] if m == 3 else "ab"[(x - 1) % 2]) for x in ring]
    for x in ring:
        s = x % 3 + 1
        steps += [(x, x % m + 1, s), (x % m + 1, x, f"{s}'")]
    return star_product([ColoredBipartiteGraph(ring, ring, steps), base])


def _check_inputs(mode: str, arrays: Sequence[PdaArray]) -> None:
    """Refuse an unknown mode, or a number of arrays the mode does not take."""
    if mode not in MODES:
        raise CombineError(f"no such mode {mode!r}")
    if mode in ("same-colors", "star") and len(arrays) < 2:
        raise ParameterError(f"{mode} needs at least two input files")
    if mode in ("same-colors", "tensor") and len(arrays) != 2:
        raise ParameterError(f"{mode} takes exactly two input files")
    if mode == "cycle" and len(arrays) != 1:
        raise ParameterError("cycle takes exactly one input file")


def combined_cells(mode: str, arrays: Sequence[PdaArray], m: Optional[int] = None) -> int:
    """F x K of ``combine(mode, arrays, m)`` from its operator's law, or for
    same-colors a bound: its rows are the first input's columns, and its
    columns some pairs of the two inputs' rows."""
    _check_inputs(mode, arrays)
    if mode == "same-colors":
        return arrays[0].K * arrays[0].F * arrays[1].F
    kfgs = [(r.K, r.F, r.g, r.S) for r in map(params, arrays)]
    law = {"star": star_law, "tensor": tensor_law, "cycle": lambda base: cycle_law(base, m)}[mode]
    k, f, _, _ = law(*kfgs)
    return f * k


def combine(mode: str, arrays: Sequence[PdaArray], m: Optional[int] = None) -> PdaArray:
    """The array ``pdakit combine --mode <mode>`` writes: the operator on the
    arrays' colorings, converted back.  "same-colors" and "tensor" take two
    arrays, "star" two or more, and "cycle" one and the cycle length m."""
    _check_inputs(mode, arrays)
    colorings = [pda_to_coloring(p) for p in arrays]
    if mode == "same-colors":
        g = combine_same_colors(*colorings)
    elif mode == "star":
        g = star_product(colorings)
    elif mode == "tensor":
        product = tensor_product(*(as_general_graph(c) for c in colorings))
        g = split_bipartite(product, [v for v in product.vertices if v[0][0] == "row"])
    else:
        g = cycle_product(colorings[0], m)
    return coloring_to_pda(g)
