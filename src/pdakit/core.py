"""Placement delivery arrays: representation, validation, parameters, equivalence, text I/O.

A placement delivery array (PDA) is an F x K grid whose entries are either a
star or an integer color in 1..S.  A valid array satisfies three conditions:

  A. every column contains the same number of stars,
  B. no integer repeats within a row or within a column,
  C. any two equal integers at (j1,k1), (j2,k2) have stars at both opposite
     corners (j1,k2) and (j2,k1).

The validator here is a brute-force pair scan, deliberately independent of any
construction logic, so it can serve as the oracle for every generator and
combinator in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

# A grid entry: None encodes the star symbol, integers >= 1 are colors.
Entry = Optional[int]

STAR_TOKEN = "*"


class PdaError(ValueError):
    """Base class for PDA construction, validation, and I/O errors."""


class PdaFormatError(PdaError):
    """Malformed PDA text.  Carries the 1-based line and column of the fault."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InvalidPdaError(PdaError):
    """An operation required a valid PDA but the array fails condition A, B, or C."""


@dataclass(frozen=True)
class Violation:
    """One failed condition with witness coordinates.

    For grid conditions A, B, C the witness holds 1-based (row, column) pairs,
    matching the usual PDA indexing convention (condition A carries
    (star-count, column) pairs instead, spelled out in ``detail``).  The
    strong-coloring checker in the graphs module reuses this type with edge
    triples as the witness.
    """

    condition: str
    cells: tuple
    detail: str = ""

    def __str__(self) -> str:
        where = ", ".join(str(c) for c in self.cells)
        return f"condition {self.condition} at {where}: {self.detail}".rstrip(": ")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validity check; valid iff no violations were found."""

    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.is_valid:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class ParamRecord:
    """Measured (K, F, Z, S) of a valid PDA plus the derived exact rationals."""

    K: int
    F: int
    Z: int
    S: int

    @property
    def g(self) -> int:
        """Integer entries per column, F - Z."""
        return self.F - self.Z

    @property
    def ratio(self) -> Fraction:
        """Cache ratio M/N = Z/F."""
        return Fraction(self.Z, self.F)

    @property
    def rate(self) -> Fraction:
        """Delivery rate R = S/F."""
        return Fraction(self.S, self.F)

    def __str__(self) -> str:
        return (
            f"K={self.K} F={self.F} Z={self.Z} S={self.S} "
            f"g={self.g} M/N={self.ratio} R={self.rate}"
        )


@dataclass(frozen=True)
class PdaArray:
    """An F x K grid over {star} u {1..S}, with colors dense in 1..S.

    Construction enforces structural well-formedness only (rectangular shape,
    colors >= 1 with no gaps); conditions A, B, C are checked by
    :func:`validate`.  ``legend`` optionally maps each dense color index back
    to the structured label it replaced (set by graph-to-PDA conversion) and
    does not participate in equality.
    """

    grid: tuple[tuple[Entry, ...], ...]
    legend: Optional[Mapping[int, object]] = field(default=None, compare=False)
    # Number of distinct colors present, counted by the pass that checks the grid.
    S: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.grid or not self.grid[0]:
            raise PdaError("grid must have at least one row and one column")
        width = len(self.grid[0])
        seen: set[int] = set()
        for j, row in enumerate(self.grid):
            if len(row) != width:
                raise PdaError(f"row {j + 1} has {len(row)} entries, expected {width}")
            for entry in row:
                if entry is None:
                    continue
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                    raise PdaError(f"bad entry {entry!r} in row {j + 1}: colors are integers >= 1")
                seen.add(entry)
        if seen:
            missing = sorted(set(range(1, max(seen) + 1)) - seen)
            if missing:
                raise PdaError(f"color gap: {missing[0]} absent but {max(seen)} present")
        if self.legend is not None and set(self.legend) != seen:
            raise PdaError("legend keys must be exactly the colors present")
        object.__setattr__(self, "S", len(seen))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Entry]], legend: Optional[Mapping[int, object]] = None) -> "PdaArray":
        return cls(tuple(tuple(row) for row in rows), legend)

    @property
    def F(self) -> int:
        """Row count (subpacketization)."""
        return len(self.grid)

    @property
    def K(self) -> int:
        """Column count (users)."""
        return len(self.grid[0])

    def column(self, k: int) -> tuple[Entry, ...]:
        return tuple(row[k] for row in self.grid)

    @cached_property
    def _star_counts(self) -> tuple[int, ...]:
        """Stars per column, counted in one pass over the grid on first access."""
        return tuple(column.count(None) for column in zip(*self.grid))

    def star_count(self, k: int) -> int:
        return self._star_counts[k]

    def entries_by_color(self) -> dict[int, list[tuple[int, int]]]:
        """Map color -> 0-based (row, col) positions, in row-major order."""
        classes: dict[int, list[tuple[int, int]]] = {}
        for j, row in enumerate(self.grid):
            for k, e in enumerate(row):
                if e is not None:
                    classes.setdefault(e, []).append((j, k))
        return classes

    def __str__(self) -> str:
        return "\n".join(
            " ".join(STAR_TOKEN if e is None else str(e) for e in row) for row in self.grid
        )


def validate(p: PdaArray) -> ValidationReport:
    """Check conditions A, B, C by brute force and report every violation.

    Condition A is interpreted as "all columns contain the same number of
    stars"; Z is measured from the array, never taken from metadata.  The scan
    over all pairs of equal entries is O(F^2 K^2) in the worst case and shares
    no logic with any construction in this package.
    """
    violations: list[Violation] = []

    counts = [p.star_count(k) for k in range(p.K)]
    base = counts[0]
    for k, c in enumerate(counts[1:], start=1):
        if c != base:
            violations.append(
                Violation(
                    "A",
                    ((base, 1), (c, k + 1)),
                    f"column 1 has {base} stars, column {k + 1} has {c}",
                )
            )

    classes = p.entries_by_color()
    for color in sorted(classes):
        cells = classes[color]
        for a in range(len(cells)):
            j1, k1 = cells[a]
            for b in range(a + 1, len(cells)):
                j2, k2 = cells[b]
                if j1 == j2 or k1 == k2:
                    violations.append(
                        Violation(
                            "B",
                            ((j1 + 1, k1 + 1), (j2 + 1, k2 + 1)),
                            f"color {color} repeats in a {'row' if j1 == j2 else 'column'}",
                        )
                    )
                    continue
                corners = []
                if p.grid[j1][k2] is not None:
                    corners.append((j1 + 1, k2 + 1))
                if p.grid[j2][k1] is not None:
                    corners.append((j2 + 1, k1 + 1))
                if corners:
                    at = ", ".join(f"({j},{k})" for j, k in corners)
                    violations.append(
                        Violation(
                            "C",
                            ((j1 + 1, k1 + 1), (j2 + 1, k2 + 1)),
                            f"color {color}: non-star corner at {at}",
                        )
                    )
    return ValidationReport(tuple(violations))


def params(p: PdaArray) -> ParamRecord:
    """Measured (K, F, Z, S) of a valid array; rejects invalid ones."""
    report = validate(p)
    if not report.is_valid:
        raise InvalidPdaError(f"not a valid PDA:\n{report}")
    return ParamRecord(K=p.K, F=p.F, Z=p.star_count(0), S=p.S)


class EquivalenceResult(Enum):
    EQUIVALENT = "equivalent"
    INEQUIVALENT = "inequivalent"
    BUDGET_EXHAUSTED = "budget_exhausted"

    def __str__(self) -> str:
        return self.value


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> bool:
        self.remaining -= 1
        return self.remaining >= 0


def _signature(line: tuple[Entry, ...], class_sizes: dict[int, int]) -> tuple:
    """Star count and sorted color-class sizes of one row or column."""
    stars = sum(1 for e in line if e is None)
    profile = tuple(sorted(class_sizes[e] for e in line if e is not None))
    return (stars, profile)


def equivalent(p1: PdaArray, p2: PdaArray, budget: int = 1_000_000) -> EquivalenceResult:
    """Decide whether a row permutation, column permutation, and color bijection map p1 to p2.

    Backtracking search pruned on row and column star/color-multiplicity
    signatures.  Parameter-distinct inputs are rejected without search.  When
    the number of attempted assignments exceeds ``budget`` the search gives up
    and reports BUDGET_EXHAUSTED.  Intended for the small arrays this package
    works with (roughly up to 12 x 12).
    """
    pr1, pr2 = params(p1), params(p2)
    if (pr1.K, pr1.F, pr1.Z, pr1.S) != (pr2.K, pr2.F, pr2.Z, pr2.S):
        return EquivalenceResult.INEQUIVALENT

    sizes1 = {c: len(cells) for c, cells in p1.entries_by_color().items()}
    sizes2 = {c: len(cells) for c, cells in p2.entries_by_color().items()}
    if sorted(sizes1.values()) != sorted(sizes2.values()):
        return EquivalenceResult.INEQUIVALENT

    rsig1 = [_signature(row, sizes1) for row in p1.grid]
    rsig2 = [_signature(row, sizes2) for row in p2.grid]
    if sorted(rsig1) != sorted(rsig2):
        return EquivalenceResult.INEQUIVALENT
    csig1 = [_signature(p1.column(k), sizes1) for k in range(p1.K)]
    csig2 = [_signature(p2.column(k), sizes2) for k in range(p2.K)]
    if sorted(csig1) != sorted(csig2):
        return EquivalenceResult.INEQUIVALENT

    budget_box = _Budget(budget)
    row_candidates = [
        [r for r in range(p2.F) if rsig2[r] == rsig1[j]] for j in range(p1.F)
    ]
    row_order = sorted(range(p1.F), key=lambda j: len(row_candidates[j]))

    row_map: list[int] = [-1] * p1.F
    used_rows = [False] * p2.F

    col_candidates_base = [
        [c for c in range(p2.K) if csig2[c] == csig1[k]] for k in range(p1.K)
    ]
    col_order = sorted(range(p1.K), key=lambda k: len(col_candidates_base[k]))

    star_rows1 = [frozenset(j for j in range(p1.F) if p1.grid[j][k] is None) for k in range(p1.K)]
    star_rows2 = [frozenset(j for j in range(p2.F) if p2.grid[j][k] is None) for k in range(p2.K)]

    def assign_columns(idx: int, col_map: dict[int, int], used_cols: list[bool],
                       fwd: dict[int, int], bwd: dict[int, int]) -> Optional[bool]:
        if idx == p1.K:
            return True
        k = col_order[idx]
        image = frozenset(row_map[j] for j in star_rows1[k])
        for c in col_candidates_base[k]:
            if used_cols[c] or star_rows2[c] != image:
                continue
            if not budget_box.spend():
                return None
            added: list[int] = []
            ok = True
            for j in range(p1.F):
                e1 = p1.grid[j][k]
                if e1 is None:
                    continue
                e2 = p2.grid[row_map[j]][c]
                if e2 is None:
                    ok = False
                    break
                if e1 in fwd:
                    if fwd[e1] != e2:
                        ok = False
                        break
                elif e2 in bwd:
                    ok = False
                    break
                else:
                    fwd[e1] = e2
                    bwd[e2] = e1
                    added.append(e1)
            if ok:
                used_cols[c] = True
                col_map[k] = c
                sub = assign_columns(idx + 1, col_map, used_cols, fwd, bwd)
                if sub:
                    return True
                used_cols[c] = False
                del col_map[k]
                if sub is None:
                    return None
            for e1 in added:
                del bwd[fwd[e1]]
                del fwd[e1]
        return False

    def assign_rows(idx: int) -> Optional[bool]:
        if idx == p1.F:
            return assign_columns(0, {}, [False] * p2.K, {}, {})
        j = row_order[idx]
        for r in row_candidates[j]:
            if used_rows[r]:
                continue
            if not budget_box.spend():
                return None
            row_map[j] = r
            used_rows[r] = True
            sub = assign_rows(idx + 1)
            if sub:
                return True
            used_rows[r] = False
            row_map[j] = -1
            if sub is None:
                return None
        return False

    outcome = assign_rows(0)
    if outcome is None:
        return EquivalenceResult.BUDGET_EXHAUSTED
    return EquivalenceResult.EQUIVALENT if outcome else EquivalenceResult.INEQUIVALENT


_HEADER_RE = re.compile(r"^K=([0-9]+) F=([0-9]+) Z=([0-9]+) S=([0-9]+)$")
_INT_RE = re.compile(r"^[1-9][0-9]*$")


def _parse_int(digits: str, line: int, column: int) -> int:
    """Convert a run of ASCII digits; one longer than Python converts is a format fault."""
    try:
        return int(digits)
    except ValueError:
        raise PdaFormatError(f"integer of {len(digits)} digits is too long", line, column) from None


def write_pda(p: PdaArray) -> str:
    """Serialize to the versioned text format, bit-exact and label-preserving.

    The header Z records the star count of the first column (equal across
    columns once the array validates).  Colors are written exactly as stored;
    construction already guarantees they are dense in 1..S, and graph
    conversion assigns them in first-appearance row-major order.
    """
    header = f"K={p.K} F={p.F} Z={p.star_count(0)} S={p.S}"
    return f"pda v1\n{header}\n{p}\n"


def read_pda(text: str) -> PdaArray:
    """Parse the text format, checking the header against measured values.

    Raises PdaFormatError with a 1-based line/column for the first fault, and
    no other error: bad magic, malformed header, wrong token (integers are
    ASCII digits), an integer too long to convert, missing trailing newline,
    header/measurement mismatch, or a gap in the color range.
    """
    if not text.endswith("\n"):
        lines_so_far = text.count("\n") + 1
        last = text.rsplit("\n", 1)[-1]
        raise PdaFormatError("trailing newline required", lines_so_far, len(last) + 1)
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != "pda v1":
        raise PdaFormatError("expected magic line 'pda v1'", 1, 1)
    if len(lines) < 2:
        raise PdaFormatError("missing header line", 2, 1)
    m = _HEADER_RE.match(lines[1])
    if not m:
        raise PdaFormatError("expected 'K=<int> F=<int> Z=<int> S=<int>'", 2, 1)
    K, F, Z, S = (_parse_int(m[i], 2, m.start(i) + 1) for i in range(1, 5))
    if len(lines) != 2 + F:
        raise PdaFormatError(f"expected {F} grid lines, found {len(lines) - 2}", len(lines) + 1, 1)

    grid: list[tuple[Entry, ...]] = []
    for j in range(F):
        line = lines[2 + j]
        lineno = 3 + j
        tokens = line.split(" ")
        if "" in tokens:
            at = line.index("  ") + 2 if "  " in line else (1 if line.startswith(" ") else len(line) + 1)
            raise PdaFormatError("tokens must be separated by single spaces", lineno, at)
        if len(tokens) != K:
            raise PdaFormatError(f"expected {K} tokens, found {len(tokens)}", lineno, 1)
        row: list[Entry] = []
        pos = 1
        for tok in tokens:
            if tok == STAR_TOKEN:
                row.append(None)
            elif _INT_RE.match(tok):
                value = _parse_int(tok, lineno, pos)
                if value > S:
                    raise PdaFormatError(f"color {value} exceeds declared S={S}", lineno, pos)
                row.append(value)
            else:
                raise PdaFormatError(f"bad token {tok!r}", lineno, pos)
            pos += len(tok) + 1
        grid.append(tuple(row))

    try:
        p = PdaArray(tuple(grid))
    except PdaError as exc:
        raise PdaFormatError(str(exc), 3, 1) from exc
    if p.S != S:
        raise PdaFormatError(f"header S={S} but {p.S} colors present", 2, 1)
    if p.star_count(0) != Z:
        raise PdaFormatError(f"header Z={Z} but column 1 has {p.star_count(0)} stars", 2, 1)
    return p
