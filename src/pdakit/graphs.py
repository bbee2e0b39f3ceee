"""Edge-colored graphs and the bridge between PDAs and strong edge colorings.

A strong edge coloring assigns colors so that two edges sharing a color are
never adjacent nor joined by a third edge (their distance is at least 2).  An
F x K array is a valid PDA exactly when its colored bipartite graph is
strongly colored and the column-side vertices all have the same degree, which
makes the checker here a second, independent oracle for the grid validator.

The checker scans bipartite graphs only, as every array's coloring is one; a
general ``ColoredGraph`` is checked on its split into two sides.  Labels
become positions once, at construction, and every scan reads the index kept
by that pass: edges row-major in the declared order of the two sides.
Strength witnesses, the degree witness and the array built from a coloring
all follow that order, so none depends on set iteration or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

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


@dataclass(frozen=True)
class ColoredBipartiteGraph:
    """Triple system over an ordered row side and column side.

    ``triples`` holds (row-vertex, column-vertex, color).  At most one triple
    per vertex pair; every color is declared by appearing in a triple.  The
    side lists fix the row/column order of the PDA.  Labels become positions
    once, in the pass that checks them at construction, and every scan reads
    that index, never the labels: ``_edges``, the (row, column, color index)
    triples in row-major order, and ``_palette``, the colors in order of first
    appearance.  No verdict is kept: each ``is_strong_coloring`` call scans.
    """

    left: tuple[Label, ...]
    right: tuple[Label, ...]
    triples: frozenset[tuple[Label, Label, Label]]
    _edges: list[tuple[int, int, int]] = field(init=False, repr=False, compare=False)
    _palette: tuple[Label, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row = {l: j for j, l in enumerate(self.left)}
        col = {r: k for k, r in enumerate(self.right)}
        if len(row) != len(self.left) or len(col) != len(self.right):
            raise GraphError("duplicate vertex label within a side")
        width = len(col)
        colored: dict[int, Label] = {}
        for l, r, s in self.triples:
            if l not in row or r not in col:
                raise GraphError(f"triple endpoint ({l!r}, {r!r}) not among declared vertices")
            key = row[l] * width + col[r]
            if key in colored:
                raise GraphError(f"pair ({l!r}, {r!r}) carries more than one color")
            colored[key] = s
        # Keys are unique, so sorting never compares colors.
        palette: dict[Label, int] = {}
        edges = [(key // width, key % width, palette.setdefault(s, len(palette))) for key, s in sorted(colored.items())]
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_palette", tuple(palette))

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


def is_strong_coloring(g: ColoredBipartiteGraph) -> ValidationReport:
    """Brute-force strength check over all pairs of same-colored edges.

    Two edges of one color violate strength when they share a vertex or when
    some edge of the graph connects an endpoint of one to an endpoint of the
    other; in a bipartite graph that edge runs from one's row to the other's
    column.  Witnesses come out in declared order: colors by their first edge,
    and within a color the pairs of edges row-major over the two sides.  Each
    call scans and returns a fresh report; only arrays keep theirs.
    """
    return ValidationReport(tuple(_strong_violations_bipartite(g)))


def pda_to_coloring(p: PdaArray) -> ColoredBipartiteGraph:
    """View an array as a colored bipartite graph: rows 1..F, columns 1'..K'."""
    left = tuple(range(1, p.F + 1))
    right = tuple(f"{k}'" for k in range(1, p.K + 1))
    triples = frozenset(
        (j + 1, right[k], e)
        for j, row in enumerate(p.grid)
        for k, e in enumerate(row)
        if e is not None
    )
    return ColoredBipartiteGraph(left, right, triples)


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
    legend = None if already_dense else dict(zip(dense, g._palette))
    return PdaArray(grid, legend=legend)


def as_general_graph(g: ColoredBipartiteGraph) -> ColoredGraph:
    """Forget sides, tagging vertices so the two sides cannot collide."""
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


def two_coloring(g: ColoredGraph) -> Optional[dict[Label, int]]:
    """BFS bipartition of the support; None when an odd cycle exists."""
    adjacency: dict[Label, set[Label]] = {v: set() for v in g.vertices}
    for e, _ in g.colored_edges:
        u, v = tuple(e)
        adjacency[u].add(v)
        adjacency[v].add(u)
    side: dict[Label, int] = {}
    for start in g.vertices:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adjacency[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return side
