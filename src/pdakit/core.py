"""Placement delivery arrays: representation, validation, parameters, equivalence, text I/O.

A placement delivery array (PDA) is an F x K grid whose entries are either a
star or an integer color in 1..S.  A valid array satisfies three conditions:

  A. every column contains the same number of stars,
  B. no integer repeats within a row or within a column,
  C. any two equal integers at (j1,k1), (j2,k2) have stars at both opposite
     corners (j1,k2) and (j2,k1).

The validator here decides, then names: a color class that is clean costs one
pass over its cells, and only a class that fails walks its pairs of equal
entries, in the same order as a full pair scan, to name every violation.  It
is deliberately independent of any construction logic, so it can serve as the
oracle for every generator and combinator in this package.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from itertools import compress
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Sequence

# A grid entry: None encodes the star symbol, integers >= 1 are colors.
Entry = Optional[int]

STAR_TOKEN = "*"

# Characters of an input token or argument that an error message repeats.
ECHO_WIDTH = 40


def _echo(text: str) -> str:
    """repr(text) for an error message; past ECHO_WIDTH characters, the repr of its
    first ECHO_WIDTH and "...", then its length, so the message stays short."""
    if len(text) <= ECHO_WIDTH:
        return repr(text)
    return f"{text[:ECHO_WIDTH] + '...'!r} ({len(text)} characters)"


def _echo_number(n: int) -> str:
    """str(n) for an error message; past ECHO_WIDTH digits, its digit count instead."""
    digits = str(n)
    return digits if len(digits) <= ECHO_WIDTH else f"<{len(digits)} digits>"


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


REPORT_LIMIT = 10  # violations printed per condition


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validity check; valid iff no violations were found.

    ``violations`` keeps every violation.  Printed, a report shows at most
    REPORT_LIMIT of each condition in their order, then one "condition X: N
    more" line per clipped condition, so a message that embeds it stays small.
    """

    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.is_valid:
            return "valid"
        seen: Counter[str] = Counter()
        lines = []
        for v in self.violations:
            seen[v.condition] += 1
            if seen[v.condition] <= REPORT_LIMIT:
                lines.append(str(v))
        lines += [f"condition {c}: {n - REPORT_LIMIT} more" for c, n in seen.items() if n > REPORT_LIMIT]
        return "\n".join(lines)


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
    colors >= 1 with no gaps) and, in the same pass, indexes the colored
    cells for every later reader; conditions A, B, C are checked by
    :func:`validate`, which keeps its report on the array, so each array is
    scanned at most once.  ``legend`` optionally maps each dense color index
    back to the structured label it replaced (set by graph-to-PDA conversion)
    and does not participate in equality.
    """

    grid: tuple[tuple[Entry, ...], ...]
    legend: Optional[Mapping[int, object]] = field(default=None, compare=False)
    # Number of distinct colors present, counted by the pass that checks the grid.
    S: int = field(init=False, repr=False, compare=False)
    # The colored-cell index, never changed after that pass: per color 1..S its
    # cells as row * K + column in row-major order, and per column its star count.
    _classes: tuple[list[int], ...] = field(init=False, repr=False, compare=False)
    _stars: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # The report of validate's first scan; never the graph oracle's verdict.
    _report: Optional[ValidationReport] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Rows are stored as tuples and the legend as a dict of its own, so no
        # caller's list or mapping can change a checked grid, legend or view.
        object.__setattr__(self, "grid", tuple(tuple(row) for row in self.grid))
        object.__setattr__(self, "legend", None if self.legend is None else dict(self.legend))
        if not self.grid or not self.grid[0]:
            raise PdaError("grid must have at least one row and one column")
        width = len(self.grid[0])
        columns = tuple(range(width))  # a tuple, so selecting from it makes no int objects
        classes: defaultdict[int, list[int]] = defaultdict(list)
        colored = [0] * width
        for j, row in enumerate(self.grid):
            if len(row) != width:
                raise PdaError(f"row {j + 1} has {len(row)} entries, expected {width}")
            # Colors are >= 1, so a row selects its own colored cells.  A falsy
            # entry other than a star (0, False, '') is neither selected nor a
            # star, so such a row is walked cell by cell to name its first bad entry.
            cells = list(compress(columns, row))
            if len(cells) + row.count(None) < width:
                cells = [k for k in columns if row[k] is not None]
            at = j * width
            for k in cells:
                entry = row[k]
                # A plain int skips the subclass tests; bool is an int subclass but no color.
                if type(entry) is not int and (not isinstance(entry, int) or isinstance(entry, bool)) or entry < 1:
                    raise PdaError(f"bad entry {entry!r} in row {j + 1}: colors are integers >= 1")
                classes[entry].append(at + k)
                colored[k] += 1
        S = len(classes)
        if classes and max(classes) != S:
            # S distinct colors, the largest above S, so one of 1..S is absent.
            missing = min(set(range(1, S + 1)) - classes.keys())
            raise PdaError(f"color gap: {missing} absent but {max(classes)} present")
        if self.legend is not None and set(self.legend) != classes.keys():
            raise PdaError("legend keys must be exactly the colors present")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "_classes", tuple(classes[s] for s in range(1, S + 1)))
        object.__setattr__(self, "_stars", tuple(len(self.grid) - c for c in colored))

    @property
    def F(self) -> int:
        """Row count (subpacketization)."""
        return len(self.grid)

    @property
    def K(self) -> int:
        """Column count (users)."""
        return len(self.grid[0])

    def star_count(self, k: int) -> int:
        return self._stars[k]

    @cached_property
    def color_cells(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per color 1..S, its 1-based (row, column) cells in row-major order; built on first use."""
        K = self.K
        return tuple(tuple((c // K + 1, c % K + 1) for c in cells) for cells in self._classes)

    @cached_property
    def star_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per column, the 1-based rows holding a star, ascending; built on first use.

        Each column is cut from one tuple of 1..F between its colored rows, so
        every column shares that tuple's int objects and costs a pointer per star.
        """
        every, out = tuple(range(1, self.F + 1)), []
        for column in _colored_cells(self)[1]:
            rows, at = [], 0
            for j, _ in column:
                rows += every[at:j]
                at = j + 1
            rows += every[at:]
            out.append(tuple(rows))
        return tuple(out)

    @cached_property
    def decode_plan(self) -> tuple[tuple, Optional[tuple[int, int, int, int]]]:
        """What each user strips out of the broadcast, built on first use for the protocol simulator.

        Per column k, each colored row as 0-based (row, color - 1, others), others
        being that color's (column, row) cells outside column k in slot order; then
        the first such cell whose row is not a star of column k, as 1-based (user,
        slot, its column, its row), or None when each user caches what it strips.
        Each cell's pair is built once per color and shared by every user's others.
        """
        K = self.K
        senders = [tuple((c % K, c // K) for c in cells) for cells in self._classes]
        users = tuple(
            tuple((j, e - 1, tuple(cell for cell in senders[e - 1] if cell[0] != k)) for j, e in column)
            for k, column in enumerate(_colored_cells(self)[1])
        )
        gap = next(((k + 1, e + 1, k2 + 1, j2 + 1) for k, steps in enumerate(users) for _, e, others in steps
                    for k2, j2 in others if self.grid[j2][k] is not None), None)
        return users, gap

    def __str__(self) -> str:
        K = self.K
        # Decided once per array: counting a row's stars costs more per colored
        # cell than the slicing below saves on a dense row.
        if 8 * sum(self._stars) < 7 * self.F * K:
            return "\n".join(" ".join([STAR_TOKEN if e is None else str(e) for e in row]) for row in self.grid)
        # At least 7/8 stars: each line is the all-star line with its colors written over their stars.
        columns, stars = tuple(range(K)), " ".join([STAR_TOKEN] * K)
        lines = []
        for row in self.grid:
            pieces, at = [], 0
            for k, e in zip(compress(columns, row), filter(None, row)):
                pieces += stars[at : 2 * k], str(e)
                at = 2 * k + 1
            pieces.append(stars[at:])
            lines.append("".join(pieces))
        return "\n".join(lines)


def validate(p: PdaArray) -> ValidationReport:
    """Check conditions A, B, C and report every violation.

    Condition A is interpreted as "all columns contain the same number of
    stars"; Z is measured from the array, never taken from metadata.  A
    clean color class costs one pass over its cells: each cell's row is read
    at the class's columns.  Only a class that fails walks its pairs of equal
    entries, row-major as a full pair scan would, to name the witnesses.  The
    scan shares no logic with any construction in this package.  It runs once
    per array: the report is kept on ``p`` and returned again by later calls.
    """
    if p._report is None:
        object.__setattr__(p, "_report", ValidationReport(tuple(_grid_violations(p))))
    return p._report


def _grid_violations(p: PdaArray) -> list[Violation]:
    violations: list[Violation] = []

    counts = p._stars
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

    grid, K = p.grid, p.K
    for color, flat in enumerate(p._classes, start=1):
        # Decide the class in one pass.  A cell's row, gathered at every class
        # column, holds its own color there and a star everywhere else exactly
        # when no other cell shares its row or column or colors a corner with
        # it.  Only a class that fails walks its pairs, to name the witnesses.
        last = len(flat) - 1
        if not last:
            continue
        gather = itemgetter(*[c % K for c in flat])
        if all(gather(grid[c // K]).count(None) == last for c in flat):
            continue
        cells = [divmod(c, K) for c in flat]
        for a, (j1, k1) in enumerate(cells):
            row1 = grid[j1]
            for j2, k2 in cells[a + 1 :]:
                if j1 == j2 or k1 == k2:
                    violations.append(
                        Violation(
                            "B",
                            ((j1 + 1, k1 + 1), (j2 + 1, k2 + 1)),
                            f"color {color} repeats in a {'row' if j1 == j2 else 'column'}",
                        )
                    )
                elif row1[k2] is not None or grid[j2][k1] is not None:
                    # Only a violating pair builds its corner list.
                    corners = []
                    if row1[k2] is not None:
                        corners.append((j1 + 1, k2 + 1))
                    if grid[j2][k1] is not None:
                        corners.append((j2 + 1, k1 + 1))
                    at = ", ".join(f"({j},{k})" for j, k in corners)
                    violations.append(
                        Violation(
                            "C",
                            ((j1 + 1, k1 + 1), (j2 + 1, k2 + 1)),
                            f"color {color}: non-star corner at {at}",
                        )
                    )
    return violations


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


def _colored_cells(p: PdaArray) -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]:
    """Per row its (column, color) cells, and per column its (row, color) cells in row order."""
    K = p.K
    rows: list[list[tuple[int, int]]] = [[] for _ in range(p.F)]
    for e, cells in enumerate(p._classes, start=1):
        for c in cells:
            j, k = divmod(c, K)
            rows[j].append((k, e))
    cols: list[list[tuple[int, int]]] = [[] for _ in range(K)]
    for j, cells in enumerate(rows):
        for k, e in cells:
            cols[k].append((j, e))
    return rows, cols


def _signature(cells: list[tuple[int, int]], length: int, class_sizes: Sequence[int]) -> tuple:
    """Star count and sorted color-class sizes of one row or column, from its colored cells."""
    return (length - len(cells), tuple(sorted([class_sizes[e - 1] for _, e in cells])))


def _candidates(sig1: list[tuple], sig2: list[tuple]) -> list[list[int]]:
    """Per line of p1, the lines of p2 with its signature in index order (lists are shared)."""
    buckets: dict[tuple, list[int]] = {}
    for i, sig in enumerate(sig2):
        buckets.setdefault(sig, []).append(i)
    return [buckets[sig] for sig in sig1]


def equivalent(p1: PdaArray, p2: PdaArray, budget: int = 1_000_000) -> EquivalenceResult:
    """Decide whether a row permutation, column permutation, and color bijection map p1 to p2.

    Backtracking search pruned on row and column star/color-multiplicity
    signatures: rows first, then columns, each level matched against the
    candidates with its signature.  Inputs whose signatures differ, as
    parameter-distinct ones do, are rejected without search.  When the number
    of attempted assignments exceeds ``budget`` the search gives up and
    reports BUDGET_EXHAUSTED.  The search stack is a list with one generator
    per matched row or column, so its depth (F + K) meets no recursion limit.

    The set-up reads each side's colored-cell index and visits each colored
    cell a constant number of times, so a mostly-star array costs little more
    than its colors.  Results and budget accounting, BUDGET_EXHAUSTED at a
    given budget included, match the recursive per-cell search it replaced,
    which test_equivalent_matches_the_reference_search keeps as the reference.
    """
    params(p1)  # raises on an invalid array
    params(p2)
    sizes1 = [len(cells) for cells in p1._classes]
    sizes2 = [len(cells) for cells in p2._classes]
    rows1, cols1 = _colored_cells(p1)
    rows2, cols2 = _colored_cells(p2)

    rsig1 = [_signature(cells, p1.K, sizes1) for cells in rows1]
    rsig2 = [_signature(cells, p2.K, sizes2) for cells in rows2]
    if sorted(rsig1) != sorted(rsig2):
        return EquivalenceResult.INEQUIVALENT
    csig1 = [_signature(cells, p1.F, sizes1) for cells in cols1]
    csig2 = [_signature(cells, p2.F, sizes2) for cells in cols2]
    if sorted(csig1) != sorted(csig2):
        return EquivalenceResult.INEQUIVALENT

    row_candidates = _candidates(rsig1, rsig2)
    row_order = sorted(range(p1.F), key=lambda j: len(row_candidates[j]))
    col_counts = Counter(csig2)
    col_order = sorted(range(p1.K), key=lambda k: col_counts[csig1[k]])

    # Columns are matched once every row is, so row_map is then a bijection and
    # column k's star rows map onto column c's exactly when its colored rows do;
    # each colored cell of k then lands on a colored cell of c.  So column k's
    # candidates are p2's columns with its signature and with the image of its
    # colored rows as theirs, in index order.
    columns2: dict[tuple, list[int]] = {}
    for c, cells in enumerate(cols2):
        columns2.setdefault((csig2[c], frozenset([j for j, _ in cells])), []).append(c)
    row_map = [-1] * p1.F
    used_rows, used_cols = [False] * p2.F, [False] * p2.K
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}

    # One generator per search level.  Each yields once per candidate it tries
    # (True when assigned, False when the column's colors clash) and undoes
    # that candidate when resumed.
    def match_row(j: int) -> Iterator[bool]:
        for r in row_candidates[j]:
            if not used_rows[r]:
                row_map[j] = r
                used_rows[r] = True
                yield True
                used_rows[r] = False

    def match_column(k: int) -> Iterator[bool]:
        cells = cols1[k]
        for c in columns2.get((csig1[k], frozenset([row_map[j] for j, _ in cells])), ()):
            if used_cols[c]:
                continue
            added: list[int] = []
            ok = True
            for j, e1 in cells:
                e2 = p2.grid[row_map[j]][c]
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
            used_cols[c] = ok
            yield ok
            used_cols[c] = False
            for e1 in added:
                del bwd[fwd[e1]]
                del fwd[e1]

    levels = [partial(match_row, j) for j in row_order] + [partial(match_column, k) for k in col_order]
    stack = [levels[0]()]
    while stack:
        assigned = next(stack[-1], None)
        if assigned is None:
            stack.pop()
            continue
        budget -= 1
        if budget < 0:
            return EquivalenceResult.BUDGET_EXHAUSTED
        if assigned:
            if len(stack) == len(levels):
                return EquivalenceResult.EQUIVALENT
            stack.append(levels[len(stack)]())
    return EquivalenceResult.INEQUIVALENT


_HEADER_RE = re.compile(r"^K=([0-9]+) F=([0-9]+) Z=([0-9]+) S=([0-9]+)$")
_INT_RE = re.compile(r"^[1-9][0-9]*$")
# A whole grid line: tokens `*` or ASCII colors without a leading zero, single-spaced.
# Each repeat starts at a space, so a failing line backtracks in linear time.
_LINE_RE = re.compile(r"(?:\*|[1-9][0-9]*)(?: (?:\*|[1-9][0-9]*))*")


def _parse_int(digits: str, line: int, column: int) -> int:
    """Convert a run of ASCII digits; one longer than Python converts is a format fault."""
    try:
        return int(digits)
    except ValueError:
        raise PdaFormatError(f"integer of {len(digits)} digits is too long", line, column) from None


def write_pda(p: PdaArray) -> str:
    """Serialize to the versioned text format, bit-exact in the grid.

    The legend is not written, so the array read back has none;
    ``read_pda(write_pda(p)) == p`` holds because equality ignores the legend.

    The header Z records the star count of the first column (equal across
    columns once the array validates).  Colors are written exactly as stored;
    construction already guarantees they are dense in 1..S, and graph
    conversion assigns them in first-appearance row-major order.  An array
    that is at least 7/8 stars is written as slices of its all-star line
    around the colors, so it converts only its colors to text.
    """
    header = f"K={p.K} F={p.F} Z={p.star_count(0)} S={p.S}"
    return f"pda v1\n{header}\n{p}\n"


def _lines(text: str) -> Iterator[str]:
    """Each newline-terminated line of ``text`` in turn, without its newline."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1


def _row(line: str, K: int, S: int) -> Optional[tuple[Entry, ...]]:
    """The row of a well-formed grid line, decided with C-level string operations;
    None for a line that _walk must name the first fault of."""
    if line.count(" ") != K - 1 or not _LINE_RE.fullmatch(line):
        return None
    try:
        if 16 * (K - line.count(STAR_TOKEN)) <= K:
            # At most 1/16 colors (past that, the per-color find and count below
            # cost more than the comprehension): with the stars gone, a color's
            # column is the number of spaces before it, so Python steps only
            # through the colors.  The line is ASCII, and bytes drop its stars
            # several times faster than str.replace.
            digits = line.encode().translate(None, b"*")
            tokens = digits.split()
            colors = list(map(int, tokens))
            row: list[Entry] = [None] * K
            k = end = 0
            for tok, color in zip(tokens, colors):
                start = digits.find(tok, end)
                k += digits.count(b" ", end, start)
                row[k] = color
                end = start + len(tok)
        else:
            row = [None if tok == STAR_TOKEN else int(tok) for tok in line.split(" ")]
            colors = filter(None, row)
    except ValueError:  # a color longer than int() converts
        return None
    return tuple(row) if max(colors, default=0) <= S else None


def _walk(line: str, lineno: int, K: int, S: int) -> tuple[Entry, ...]:
    """Parse a grid line token by token, raising PdaFormatError at its first fault."""
    tokens = line.split(" ") if line else []
    if "" in tokens:
        at = line.index("  ") + 2 if "  " in line else (1 if line.startswith(" ") else len(line) + 1)
        raise PdaFormatError("tokens must be separated by single spaces", lineno, at)
    if len(tokens) != K:
        raise PdaFormatError(f"expected {_echo_number(K)} tokens, found {len(tokens)}", lineno, 1)
    row: list[Entry] = []
    pos = 1
    for tok in tokens:
        if tok == STAR_TOKEN:
            row.append(None)
        elif _INT_RE.match(tok):
            value = _parse_int(tok, lineno, pos)
            if value > S:
                color = tok if len(tok) <= ECHO_WIDTH else f"of {len(tok)} digits"
                raise PdaFormatError(f"color {color} exceeds declared S={_echo_number(S)}", lineno, pos)
            row.append(value)
        else:
            raise PdaFormatError(f"bad token {_echo(tok)}", lineno, pos)
        pos += len(tok) + 1
    return tuple(row)


def read_pda(text: str) -> PdaArray:
    """Parse the text format, checking the header against measured values.

    Raises PdaFormatError with a 1-based line/column for the first fault, and
    no other error: bad magic, malformed header, wrong token (integers are
    ASCII digits), an integer too long to convert, missing trailing newline,
    header/measurement mismatch, or a gap in the color range.  A message
    names a header number of more than ECHO_WIDTH digits by its digit count.

    Each grid line is checked whole, by one match of the token grammar and
    a count of its spaces, and then only its colors are converted; a line
    that fails the check is walked token by token to name its first fault.
    """
    if not text.endswith("\n"):
        lines_so_far = text.count("\n") + 1
        last = text.rsplit("\n", 1)[-1]
        raise PdaFormatError("trailing newline required", lines_so_far, len(last) + 1)
    # Lines are taken one at a time, so no second copy of the text is ever whole.
    count = text.count("\n")
    lines = _lines(text)
    if next(lines) != "pda v1":
        raise PdaFormatError("expected magic line 'pda v1'", 1, 1)
    if count < 2:
        raise PdaFormatError("missing header line", 2, 1)
    m = _HEADER_RE.match(next(lines))
    if not m:
        raise PdaFormatError("expected 'K=<int> F=<int> Z=<int> S=<int>'", 2, 1)
    K, F, Z, S = (_parse_int(m[i], 2, m.start(i) + 1) for i in range(1, 5))
    if count != 2 + F:
        raise PdaFormatError(f"expected {_echo_number(F)} grid lines, found {count - 2}", count + 1, 1)

    grid: list[tuple[Entry, ...]] = []
    for lineno, line in enumerate(lines, start=3):
        row = _row(line, K, S)
        grid.append(_walk(line, lineno, K, S) if row is None else row)

    try:
        p = PdaArray(grid)
    except PdaError as exc:
        raise PdaFormatError(str(exc), 3, 1) from exc
    if p.S != S:
        raise PdaFormatError(f"header S={_echo_number(S)} but {p.S} colors present", 2, 1)
    if p.star_count(0) != Z:
        raise PdaFormatError(f"header Z={_echo_number(Z)} but column 1 has {p.star_count(0)} stars", 2, 1)
    return p
