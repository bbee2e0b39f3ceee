"""Edge-colored graphs and the bridge between PDAs and strong edge colorings.

A strong edge coloring assigns colors so that two edges sharing a color are
never adjacent nor joined by a third edge (their distance is at least 2).  An
F x K array is a valid PDA exactly when its colored bipartite graph is
strongly colored and the column-side vertices all have the same degree, which
makes the checker here a second, independent oracle for the grid validator.

The checker scans bipartite graphs only, as every array's coloring is one; a
tensor factor is checked on its split into the "row" and "col" vertices that
``as_general_graph`` tags.  A bipartite graph holds a position index, not its
labels: edges row-major in the declared order of the two sides, each with the
position of its color in a palette kept in order of first appearance.  The
labelled constructor maps label triples to positions once, ``pda_to_coloring``
builds the index straight from the grid, and ``triples`` is derived from the
index on first read.  Every scan reads the index.  Strength witnesses, the
degree witness and the array built from a coloring all follow its order, so
none depends on set iteration or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Hashable, Iterable

from .core import Entry, PdaArray, ValidationReport, Violation

Label = Hashable


class GraphError(ValueError):
    """Structural problem with a graph or its coloring."""


class NonConstantDegreeError(GraphError):
    """Column-side degrees differ, so the coloring has no PDA form."""

    def __init__(self, v1: Label, d1: int, v2: Label, d2: int):
        super().__init__(
            f"column vertices must have constant degree: {v1!r} has degree {d1}, {v2!r} has degree {d2}"
        )
        self.witness = ((v1, d1), (v2, d2))


class NotStrongError(GraphError):
    """The edge coloring fails the strength condition."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"not a strong edge coloring:\n{report}")
        self.report = report


def _require_strong(g: ColoredBipartiteGraph) -> None:
    report = is_strong_coloring(g)
    if not report.is_valid:
        raise NotStrongError(report)


@dataclass(frozen=True, init=False, repr=False)
class ColoredBipartiteGraph:
    """Edge-colored bipartite graph over an ordered row side and column side.

    Its content is a position index: ``_edges``, the (row, column, color)
    positions of its edges in row-major order, and ``_palette``, its colors in
    order of first appearance.  The sides fix the row/column order of the
    PDA, and every scan reads the index, never the labels.  ``triples``, the
    (row-vertex, column-vertex, color) label triples, is derived from the
    index on first read, as an array's ``color_cells`` is from its cell index.
    ``ColoredBipartiteGraph(left, right, triples)`` builds the index from
    triples: at most one per vertex pair, each endpoint declared, and each
    color declared by appearing in one.  No verdict is kept: each
    ``is_strong_coloring`` call scans.
    """

    left: tuple[Label, ...]
    right: tuple[Label, ...]
    _edges: tuple[tuple[int, int, int], ...]
    _palette: tuple[Label, ...]

    def __init__(self, left: tuple[Label, ...], right: tuple[Label, ...],
                 triples: Iterable[tuple[Label, Label, Label]]):
        row = {l: j for j, l in enumerate(left)}
        col = {r: k for k, r in enumerate(right)}
        if len(row) != len(left) or len(col) != len(right):
            raise GraphError("duplicate vertex label within a side")
        width = len(col)
        colored: dict[int, Label] = {}
        for l, r, s in triples:
            if l not in row or r not in col:
                raise GraphError(f"triple endpoint ({l!r}, {r!r}) not among declared vertices")
            key = row[l] * width + col[r]
            if key in colored:
                raise GraphError(f"pair ({l!r}, {r!r}) carries more than one color")
            colored[key] = s
        # Keys are unique, so sorting never compares colors.
        palette: dict[Label, int] = {}
        edges = [(key // width, key % width, palette.setdefault(s, len(palette))) for key, s in sorted(colored.items())]
        self._set_index(left, right, edges, tuple(palette))

    @classmethod
    def _of_index(cls, left, right, edges, palette) -> ColoredBipartiteGraph:
        """A graph straight from its index, which the caller built row-major and in palette order."""
        g = object.__new__(cls)
        g._set_index(left, right, edges, palette)
        return g

    def _set_index(self, left, right, edges, palette) -> None:
        for name, value in (("left", left), ("right", right), ("_edges", tuple(edges)), ("_palette", palette)):
            object.__setattr__(self, name, value)

    @cached_property
    def triples(self) -> frozenset[tuple[Label, Label, Label]]:
        """(row-vertex, column-vertex, color) per edge; built from the index on first read."""
        left, right, palette = self.left, self.right, self._palette
        return frozenset((left[j], right[k], palette[c]) for j, k, c in self._edges)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(left={self.left!r}, right={self.right!r}, triples={self.triples!r})"

    @property
    def colors(self) -> frozenset[Label]:
        return frozenset(self._palette)

    def right_degrees(self) -> dict[Label, int]:
        deg = [0] * len(self.right)
        for _, k, _ in self._edges:
            deg[k] += 1
        return dict(zip(self.right, deg))


@dataclass(frozen=True)
class ColoredGraph:
    """General edge-colored graph: ({u, v}, color) pairs over declared vertices, checked for structure only."""

    vertices: tuple[Label, ...]
    colored_edges: frozenset[tuple[frozenset[Label], Label]]

    def __post_init__(self):
        declared = set(self.vertices)
        if len(declared) != len(self.vertices):
            raise GraphError("duplicate vertex label")
        seen: set[frozenset[Label]] = set()
        for e, _ in self.colored_edges:
            if len(e) != 2:
                raise GraphError(f"edge {set(e)!r} is not a 2-set (self-loops are not allowed)")
            if not e <= declared:
                raise GraphError(f"edge {set(e)!r} uses undeclared vertices")
            if e in seen:
                raise GraphError(f"edge {set(e)!r} carries more than one color")
            seen.add(e)


def _strong_violations_bipartite(g: ColoredBipartiteGraph) -> list[Violation]:
    # Each color's own edge tuples, row-major.
    by_color: list[list[tuple[int, int, int]]] = [[] for _ in g._palette]
    for edge in g._edges:
        by_color[edge[2]].append(edge)
    # Each row's neighbours as a set of column positions.  Sets, not bitmasks
    # over the columns: a mask costs a word per 30 columns at every edge, so a
    # wide graph's scan would grow with edges times width.
    adjacent: list[set[int]] = [set() for _ in g.left]
    for j, k, _ in g._edges:
        adjacent[j].add(k)
    left, right = g.left, g.right
    violations: list[Violation] = []
    for s, edges in zip(g._palette, by_color):
        # Decide the class in one pass.  Its edges are an induced matching
        # exactly when their columns are distinct and each edge's row meets
        # no class column but its own.  Only a class that fails walks its
        # pairs, to name the witnesses.
        if len(edges) < 2:
            continue
        ends = {k for _, k, _ in edges}
        if len(ends) == len(edges) and all(len(ends.intersection(adjacent[j])) == 1 for j, _, _ in edges):
            continue
        for i, (j1, k1, _) in enumerate(edges):
            for j2, k2, _ in edges[i + 1:]:
                if j1 == j2 or k1 == k2:
                    kind = "shared-vertex"
                    detail = f"same-colored edges meet at {(left[j1] if j1 == j2 else right[k1])!r}"
                elif k2 in adjacent[j1] or k1 in adjacent[j2]:
                    link = (left[j1], right[k2]) if k2 in adjacent[j1] else (left[j2], right[k1])
                    kind = "linked-edges"
                    detail = f"edge {link!r} joins two edges of color {s!r}"
                else:
                    continue
                witness = ((left[j1], right[k1], s), (left[j2], right[k2], s))
                violations.append(Violation(kind, witness, detail))
    return violations


def is_strong_coloring(g: ColoredBipartiteGraph) -> ValidationReport:
    """Strength check: decide each color class, then name its violating pairs.

    Two edges of one color violate strength when they share a vertex or when
    some edge of the graph connects an endpoint of one to an endpoint of the
    other; in a bipartite graph that edge runs from one's row to the other's
    column.  A class that is clean costs one pass over its edges, each edge's
    row tested against the class's columns; only a class that fails walks its
    pairs of edges.  Witnesses come out in declared order: colors by their first edge,
    and within a color the pairs of edges row-major over the two sides, the
    order a walk of every pair gives.  Each call scans and returns a fresh
    report; only arrays keep theirs.
    """
    return ValidationReport(tuple(_strong_violations_bipartite(g)))


def pda_to_coloring(p: PdaArray) -> ColoredBipartiteGraph:
    """View an array as a colored bipartite graph: rows 1..F, columns 1'..K'.

    One row-major walk of the grid builds the graph's index, colors numbered
    by first appearance.  It never reads the array's colored-cell index, so
    the graph oracle shares no cell bookkeeping with the grid oracle.
    """
    columns = tuple(range(p.K))  # a tuple, so selecting from it makes no int objects
    palette: dict[Label, int] = {}
    # Colors are >= 1, so each row selects its own colored cells and their columns.
    edges = [
        (j, k, palette.setdefault(e, len(palette)))
        for j, row in enumerate(p.grid)
        for k, e in zip(compress(columns, row), filter(None, row))
    ]
    left = tuple(range(1, p.F + 1))
    right = tuple(f"{k}'" for k in range(1, p.K + 1))
    return ColoredBipartiteGraph._of_index(left, right, edges, tuple(palette))


def coloring_to_pda(g: ColoredBipartiteGraph) -> PdaArray:
    """Convert a strong coloring with constant column degree into an array.

    Structured color labels are densified to integers 1..S in
    first-appearance row-major order, with the original labels kept on the
    result's ``legend``; colors that already are the plain ints 1..S pass
    through unchanged, so converting an array's own coloring back is the
    identity.  Rejects non-constant column degrees and non-strong colorings,
    naming the witness; the degree witness is the first column and the first
    column whose degree differs from it, in declared order.
    """
    degrees = list(g.right_degrees().items())
    for v, d in degrees[1:]:
        if d != degrees[0][1]:
            raise NonConstantDegreeError(*degrees[0], v, d)
    _require_strong(g)

    # Palette colors are distinct, so S plain ints (no bool or float) in 1..S are exactly 1..S.
    dense = range(1, len(g._palette) + 1)
    already_dense = all(type(s) is int and s in dense for s in g._palette)
    grid: list[list[Entry]] = [[None] * len(g.right) for _ in g.left]
    for j, k, c in g._edges:
        grid[j][k] = g._palette[c] if already_dense else c + 1
    # Rows become tuples one by one, so the filled lists and the rows the
    # array keeps are never both held whole.
    for j, row in enumerate(grid):
        grid[j] = tuple(row)
    legend = None if already_dense else dict(zip(dense, g._palette))
    return PdaArray(grid, legend=legend)


def as_general_graph(g: ColoredBipartiteGraph) -> ColoredGraph:
    """Forget sides, tagging each vertex ("row", l) or ("col", r): the sides ``tensor_product`` reads."""
    vertices = tuple(("row", l) for l in g.left) + tuple(("col", r) for r in g.right)
    edges = frozenset(
        (frozenset({("row", l), ("col", r)}), s) for l, r, s in g.triples
    )
    return ColoredGraph(vertices, edges)


def split_bipartite(g: ColoredGraph, left_vertices: Iterable[Label]) -> ColoredBipartiteGraph:
    """Rebuild sides from a general colored graph given one side's vertices.

    Every edge must cross the split.  Vertex order follows the input graph's
    vertex list within each side.
    """
    lset = set(left_vertices)
    left = tuple(v for v in g.vertices if v in lset)
    right = tuple(v for v in g.vertices if v not in lset)
    triples = []
    for e, s in g.colored_edges:
        u, v = tuple(e)
        if u in lset and v not in lset:
            triples.append((u, v, s))
        elif v in lset and u not in lset:
            triples.append((v, u, s))
        else:
            raise GraphError(f"edge {set(e)!r} does not cross the requested split")
    return ColoredBipartiteGraph(left, right, frozenset(triples))
