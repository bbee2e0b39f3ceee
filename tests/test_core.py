from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from conftest import _one_fault_classes, _roundtrip_catalog, _star_to_color, _walked_classes
from hypothesis import given, settings
from hypothesis import strategies as st

from pdakit import core
from pdakit.combinators import cycle_product, star_product
from pdakit.core import (
    ECHO_WIDTH,
    EquivalenceResult,
    InvalidPdaError,
    PdaArray,
    PdaError,
    PdaFormatError,
    Violation,
    equivalent,
    params,
    read_pda,
    validate,
    write_pda,
)
from pdakit.families import (
    disjoint_union_coloring,
    intersection_t_coloring,
    restricted_combined_family,
    star_pda,
    trivial_pda,
)
from pdakit.graphs import coloring_to_pda, pda_to_coloring


def test_example1_is_valid(example1):
    report = validate(example1)
    assert report.is_valid
    assert report.violations == ()


def test_row_repeat_is_condition_b():
    p = PdaArray([[1, 1]])
    report = validate(p)
    assert not report.is_valid
    assert [v.condition for v in report.violations] == ["B"]
    assert report.violations[0].cells == ((1, 1), (1, 2))


def test_column_repeat_is_condition_b():
    p = PdaArray([[1], [1]])
    report = validate(p)
    assert [v.condition for v in report.violations] == ["B"]
    assert report.violations[0].cells == ((1, 1), (2, 1))


def brute_force_c_witnesses(grid):
    """Independent condition-C scan: literally test all pairs of entries."""
    F, K = len(grid), len(grid[0])
    found = []
    for (j1, k1), (j2, k2) in itertools.combinations(
        [(j, k) for j in range(F) for k in range(K)], 2
    ):
        a, b = grid[j1][k1], grid[j2][k2]
        if a is None or a != b or j1 == j2 or k1 == k2:
            continue
        if grid[j1][k2] is not None or grid[j2][k1] is not None:
            found.append(((j1 + 1, k1 + 1), (j2 + 1, k2 + 1)))
    return found


def test_swap_grid_is_condition_c():
    rows = [[1, 2], [2, 1]]
    expected = brute_force_c_witnesses(rows)
    assert ((1, 1), (2, 2)) in expected
    report = validate(PdaArray(rows))
    got = {(v.condition, v.cells) for v in report.violations}
    assert ("C", ((1, 1), (2, 2))) in got
    assert ("C", ((1, 2), (2, 1))) in got
    assert all(v.condition == "C" for v in report.violations)


def test_condition_a_reports_unbalanced_columns():
    p = PdaArray([[None, 1], [1, None], [None, 2]])
    report = validate(p)
    assert [v.condition for v in report.violations] == ["A"]
    assert "column 2" in report.violations[0].detail


def test_star_counts_match_a_per_column_scan():
    rng = random.Random(7)
    for _ in range(50):
        F, K = rng.randint(1, 6), rng.randint(1, 6)
        p = PdaArray([[rng.choice([None, 1]) for _ in range(K)] for _ in range(F)])
        per_column = [sum(1 for row in p.grid if row[k] is None) for k in range(K)]
        assert [p.star_count(k) for k in range(K)] == per_column
        assert p.S == len({e for row in p.grid for e in row if e is not None})


def test_grid_rows_are_stored_as_tuples():
    rows = [[None, 1], [1, None]]
    p = PdaArray(grid=rows)
    assert type(p.grid) is tuple and all(type(row) is tuple for row in p.grid)
    rows[0][0] = 2  # the caller's lists are not the array's rows
    assert p.grid == ((None, 1), (1, None))
    assert p.star_count(0) == 1
    assert p == PdaArray([[None, 1], [1, None]])
    assert hash(p) == hash(PdaArray([[None, 1], [1, None]]))


def test_the_legend_is_a_copy_of_the_callers_mapping():
    source = {1: "x"}
    p = PdaArray([[None, 1], [1, None]], legend=source)
    source.clear()
    source[7] = "y"  # after construction, the caller's mapping no longer fits S = 1
    assert p.legend == {1: "x"} and list(p.legend) == [1]
    assert type(p.legend) is dict


def _reference_grid_violations(p: PdaArray) -> list[Violation]:
    """The grid scan with a corner list built for every pair of unequal rows and columns."""
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

    classes = _walked_classes(p)
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
    return violations


def _assert_grid_scan_matches_reference(p: PdaArray) -> bool:
    """Assert an index equal to a walk of the grid and equal reports (kind, witness,
    detail and order); return whether p is valid."""
    walked = _walked_classes(p)
    assert [[divmod(c, p.K) for c in cells] for cells in p._classes] == [walked[s] for s in sorted(walked)]
    assert p._stars == tuple(sum(row[k] is None for row in p.grid) for k in range(p.K))
    got = core._grid_violations(p)
    assert got == _reference_grid_violations(p)
    return not got


def test_grid_scan_matches_the_reference_on_the_restricted_sweep():
    n = 9
    cases = [(a, b, t) for a in range(1, n) for b in range(1, n - a + 1) for t in range(b)]
    assert len(cases) == 120
    assert all(_assert_grid_scan_matches_reference(restricted_combined_family(n, *c)) for c in cases)


def test_grid_scan_matches_the_reference_on_mutants():
    rng = random.Random(114)
    verdicts = []
    for p, _ in _roundtrip_catalog():
        if p.S and p.star_count(0):
            verdicts += [_assert_grid_scan_matches_reference(_star_to_color(p, rng)) for _ in range(6)]
    star = coloring_to_pda(star_product([pda_to_coloring(trivial_pda())] * 8))
    assert _assert_grid_scan_matches_reference(star)
    for _ in range(40):  # one to three cells of the 256 x 256 star product overwritten
        rows = [list(row) for row in star.grid]
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(star.F)][rng.randrange(star.K)] = rng.choice([None, 1])
        verdicts.append(_assert_grid_scan_matches_reference(PdaArray(rows)))
    assert not all(verdicts)


def test_grid_scan_matches_the_reference_on_large_and_one_fault_classes(star_1024):
    star, recolored = star_1024
    assert _assert_grid_scan_matches_reference(star)
    assert not _assert_grid_scan_matches_reference(recolored)
    assert {v.condition for v in core._grid_violations(recolored)} == {"A", "B", "C"}
    faults = {}
    for name, p in _one_fault_classes().items():
        _assert_grid_scan_matches_reference(p)
        faults[name] = [v.condition for v in core._grid_violations(p) if v.condition != "A"]
    assert faults == {"repeated row": ["B"], "repeated column": ["B"], "colored corner": ["C"], "one cell": []}


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_grid_scan_matches_the_reference_on_small_grids(seed):
    _assert_grid_scan_matches_reference(random_structural_array(random.Random(seed)))


def test_params_example1(example1):
    pr = params(example1)
    assert (pr.K, pr.F, pr.Z, pr.S) == (4, 4, 2, 4)
    assert pr.ratio == Fraction(1, 2)
    assert pr.rate == Fraction(1)
    assert pr.g == 2


def test_params_trivial_array_measures_one_color():
    # drawn with a single distinct integer, so S is measured as 1
    pr = params(PdaArray([[None, 1], [1, None]]))
    assert (pr.K, pr.F, pr.Z, pr.S) == (2, 2, 1, 1)
    assert pr.rate == Fraction(1, 2)


def test_params_all_star_column():
    pr = params(PdaArray([[None]] * 5))
    assert (pr.K, pr.F, pr.Z, pr.S) == (1, 5, 5, 0)
    assert pr.rate == 0


def test_params_rejects_invalid():
    with pytest.raises(InvalidPdaError):
        params(PdaArray([[1, 1]]))


def test_construction_rejects_malformed():
    with pytest.raises(PdaError):
        PdaArray([])
    with pytest.raises(PdaError):
        PdaArray([[1, 2], [1]])
    with pytest.raises(PdaError):
        PdaArray([[0]])
    with pytest.raises(PdaError):
        PdaArray([[1, 3]])  # color 2 missing
    with pytest.raises(PdaError, match="^legend keys must be exactly the colors present$"):
        PdaArray([[None, 1], [1, None]], legend={2: "x"})


@pytest.mark.parametrize(
    "row, bad",
    [
        *(([None, 1, entry], entry) for entry in (False, True, 0, 0.0, "", (), -1, 1.5, "1")),
        ([None, 0, -1], 0),
        ([None, -1, 0], -1),
    ],
)
def test_construction_names_the_first_bad_entry_of_a_row(row, bad):
    # Falsy entries (False, 0, '') are not selected as colored cells; they must
    # not pass as stars either.
    with pytest.raises(PdaError) as info:
        PdaArray([[1, None, None], row])
    assert str(info.value) == f"bad entry {bad!r} in row 2: colors are integers >= 1"


def test_equivalent_identity(example1):
    assert equivalent(example1, example1) is EquivalenceResult.EQUIVALENT


def apply_relabeling(p, row_perm, col_perm, color_map):
    rows = [
        [
            None if p.grid[row_perm[j]][col_perm[k]] is None else color_map[p.grid[row_perm[j]][col_perm[k]]]
            for k in range(p.K)
        ]
        for j in range(p.F)
    ]
    return PdaArray(rows)


def test_equivalent_after_known_permutation(example1):
    # swap columns 1 and 3 and colors 1 and 3, then confirm by search
    shuffled = apply_relabeling(example1, [0, 1, 2, 3], [2, 1, 0, 3], {1: 3, 2: 2, 3: 1, 4: 4})
    assert shuffled != example1
    assert equivalent(example1, shuffled) is EquivalenceResult.EQUIVALENT


def test_inequivalent_on_parameter_mismatch(example1):
    other = PdaArray(
        [
            [None, None, None, 1],
            [None, None, 1, None],
            [None, 1, None, None],
            [1, None, None, None],
        ]
    )
    assert params(other).Z == 3
    assert equivalent(example1, other) is EquivalenceResult.INEQUIVALENT


def test_inequivalent_same_parameters():
    # both (3,3,2,3) and valid, but the entries sit in different row patterns
    p1 = PdaArray([[None, None, None], [None, None, None], [1, 2, 3]])
    p2 = PdaArray([[None, None, None], [None, None, 1], [2, 3, None]])
    pr1, pr2 = params(p1), params(p2)
    assert (pr1.K, pr1.F, pr1.Z, pr1.S) == (pr2.K, pr2.F, pr2.Z, pr2.S) == (3, 3, 2, 3)
    assert equivalent(p1, p2) is EquivalenceResult.INEQUIVALENT


def test_budget_exhaustion(example1):
    assert equivalent(example1, example1, budget=0) is EquivalenceResult.BUDGET_EXHAUSTED


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the search exhausts its default budget on this pair, equivalent by construction",
)
def test_equivalent_decides_a_cycle_product_against_its_row_rotation():
    # `pdakit combine --mode cycle --m 6 trivial.pda`, and the same file with
    # its first grid row moved last.
    p = coloring_to_pda(cycle_product(pda_to_coloring(trivial_pda()), 6))
    moved = PdaArray(p.grid[1:] + p.grid[:1])
    assert (p.F, p.K) == (12, 12)
    assert equivalent(p, moved) is EquivalenceResult.EQUIVALENT


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_equivalence_invariant_under_random_relabeling(rnd):
    from conftest import EXAMPLE1_ROWS

    p = PdaArray(EXAMPLE1_ROWS)
    row_perm = list(range(p.F))
    col_perm = list(range(p.K))
    colors = list(range(1, p.S + 1))
    shuffled_colors = colors[:]
    rnd.shuffle(row_perm)
    rnd.shuffle(col_perm)
    rnd.shuffle(shuffled_colors)
    other = apply_relabeling(p, row_perm, col_perm, dict(zip(colors, shuffled_colors)))
    assert equivalent(p, other) is EquivalenceResult.EQUIVALENT


def test_validate_keeps_its_report_on_the_array(example1):
    broken = PdaArray([[1, 2], [2, 1]])
    for p in (example1, broken):
        assert validate(p) is validate(p)
        fresh = PdaArray(p.grid)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert str(validate(fresh)) == str(validate(p))
    with pytest.raises(InvalidPdaError):
        params(broken)


def test_validate_params_and_equivalent_scan_an_array_once(example1, scans):
    twin = apply_relabeling(example1, [3, 2, 1, 0], [1, 0, 3, 2], {1: 2, 2: 1, 3: 4, 4: 3})
    assert validate(example1).is_valid
    assert params(example1).S == 4
    assert equivalent(example1, twin) is EquivalenceResult.EQUIVALENT
    assert equivalent(twin, example1) is EquivalenceResult.EQUIVALENT
    assert [id(p) for p in scans] == [id(example1), id(twin)]


class _ReferenceBudget:
    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> bool:
        self.remaining -= 1
        return self.remaining >= 0


def _reference_signature(line, class_sizes) -> tuple:
    stars = sum(1 for e in line if e is None)
    profile = tuple(sorted(class_sizes[e] for e in line if e is not None))
    return (stars, profile)


def _reference_equivalent(p1: PdaArray, p2: PdaArray, budget: int = 1_000_000) -> EquivalenceResult:
    """The search with its per-cell set-up: color classes as cell lists, one tuple per
    column, F x F and K x K signature comparisons and star rows from index loops."""
    pr1, pr2 = params(p1), params(p2)
    if (pr1.K, pr1.F, pr1.Z, pr1.S) != (pr2.K, pr2.F, pr2.Z, pr2.S):
        return EquivalenceResult.INEQUIVALENT

    sizes1 = {c: len(cells) for c, cells in _walked_classes(p1).items()}
    sizes2 = {c: len(cells) for c, cells in _walked_classes(p2).items()}
    if sorted(sizes1.values()) != sorted(sizes2.values()):
        return EquivalenceResult.INEQUIVALENT

    rsig1 = [_reference_signature(row, sizes1) for row in p1.grid]
    rsig2 = [_reference_signature(row, sizes2) for row in p2.grid]
    if sorted(rsig1) != sorted(rsig2):
        return EquivalenceResult.INEQUIVALENT
    csig1 = [_reference_signature(tuple(row[k] for row in p1.grid), sizes1) for k in range(p1.K)]
    csig2 = [_reference_signature(tuple(row[k] for row in p2.grid), sizes2) for k in range(p2.K)]
    if sorted(csig1) != sorted(csig2):
        return EquivalenceResult.INEQUIVALENT

    budget_box = _ReferenceBudget(budget)
    row_candidates = [[r for r in range(p2.F) if rsig2[r] == rsig1[j]] for j in range(p1.F)]
    row_order = sorted(range(p1.F), key=lambda j: len(row_candidates[j]))

    row_map: list[int] = [-1] * p1.F
    used_rows = [False] * p2.F

    col_candidates_base = [[c for c in range(p2.K) if csig2[c] == csig1[k]] for k in range(p1.K)]
    col_order = sorted(range(p1.K), key=lambda k: len(col_candidates_base[k]))

    star_rows1 = [frozenset(j for j in range(p1.F) if p1.grid[j][k] is None) for k in range(p1.K)]
    star_rows2 = [frozenset(j for j in range(p2.F) if p2.grid[j][k] is None) for k in range(p2.K)]

    def assign_columns(idx, col_map, used_cols, fwd, bwd):
        if idx == p1.K:
            return True
        k = col_order[idx]
        image = frozenset(row_map[j] for j in star_rows1[k])
        for c in col_candidates_base[k]:
            if used_cols[c] or star_rows2[c] != image:
                continue
            if not budget_box.spend():
                return None
            added = []
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

    def assign_rows(idx):
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


def _rows(text: str) -> PdaArray:
    """An array written as rows joined by '|', entries by spaces, '*' for a star."""
    return PdaArray(
        [[None if tok == "*" else int(tok) for tok in row.split()] for row in text.split("|")]
    )


def _seeded_relabeling(p: PdaArray, seed: int) -> PdaArray:
    rng = random.Random(seed)
    rows, cols, colors = list(range(p.F)), list(range(p.K)), list(range(1, p.S + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(colors)
    return apply_relabeling(p, rows, cols, dict(zip(range(1, p.S + 1), colors)))


# Valid arrays with equal (K, F, Z, S), class sizes and row and column signatures
# that no relabeling maps onto each other, so the search itself must say so.
_INEQUIVALENT_SAME_SIGNATURES = [
    ("1 * 4 *|* 4 * 1|3 * 2 *|* 2 * 3", "* 2 * 4|2 * 4 *|* 1 3 *|1 * * 3"),
    ("2 * * * * *|3 1 * * 5 7|* * 2 7 6 *|* 6 3 5 * 4", "* 6 * 3 5 1|* 2 1 * 4 *|7 * 6 4 * 2|5 * * * * *"),
    ("5 3 * * *|* * * * 2|* * 5 3 4|1 * * 2 *|* 2 1 * *", "* 1 3 * *|1 * * * 5|2 4 * * 3|* * 5 2 *|* * * 1 *"),
    (
        "* * 6 2 * *|12 2 7 * 5 10|9 13 11 * 14 8|3 1 * 7 6 4|* * * * * *|* * * 8 * *",
        "8 5 4 13 * 9|1 * 3 6 7 14|* 10 * * * *|10 * 2 11 5 12|* * * * * *|* 6 * * 4 *",
    ),
    (
        "* * * * 3 * * *|* * 7 * * 6 * *|5 1 * * * * 3 *|2 * * 7 * * * 3|* * * 1 * 4 * *|* 4 8 * 5 * 2 6",
        "5 * * * * * * *|* 7 * * * * * 2|* * 6 * 1 * * *|* * * 4 * 1 5 *|3 4 * * 8 6 2 *|* * 3 7 * * * 5",
    ),
]


def _equivalence_corpus() -> list[tuple[str, PdaArray, PdaArray]]:
    from conftest import EXAMPLE1_ROWS, STRIP_ROWS

    trivial = pda_to_coloring(trivial_pda())
    pool = {
        "example1": PdaArray(EXAMPLE1_ROWS),
        "strip": PdaArray(STRIP_ROWS),
        "trivial": trivial_pda(),
        "du-4-1-2": coloring_to_pda(disjoint_union_coloring(4, 1, 2)),
        "du-5-1-2": coloring_to_pda(disjoint_union_coloring(5, 1, 2)),
        "du-5-2-2": coloring_to_pda(disjoint_union_coloring(5, 2, 2)),
        "it-4-2-2-1": coloring_to_pda(intersection_t_coloring(4, 2, 2, 1)),
        "star-graph-4": coloring_to_pda(pda_to_coloring(star_pda(4))),
        "cycle-3": coloring_to_pda(cycle_product(trivial, 3)),
        "star-2": coloring_to_pda(star_product([trivial] * 2)),
        "rc-4-1-2-1": restricted_combined_family(4, 1, 2, 1),
        "stars": PdaArray([[None]] * 3),
        "row": PdaArray([[1, 2, 3]]),
    }
    corpus = []
    for name, p in pool.items():
        corpus.append((f"{name}/self", p, p))
        for seed in (1, 5):
            corpus.append((f"{name}/relabel-{seed}", p, _seeded_relabeling(p, seed)))
    # Distinct pool arrays, and a pair of equal (K, F, Z, S) = (4, 4, 2, 4) whose
    # color-class sizes differ ([1, 2, 2, 3] against [2, 2, 2, 2]): the
    # signatures alone must reject them, as the reference's pre-checks do.
    corpus += [(f"{n1}/{n2}", p1, p2) for n1, p1 in pool.items() for n2, p2 in pool.items() if n1 != n2]
    corpus.append(("4x4/class-sizes-differ", _rows("1 * * 2|* 1 * 3|* * 1 *|4 2 3 *"), pool["example1"]))
    corpus.append(("3x3/rows-differ", _rows("* * *|* * *|1 2 3"), _rows("* * *|* * 1|2 3 *")))
    for i, (a, b) in enumerate(_INEQUIVALENT_SAME_SIGNATURES):
        corpus.append((f"same-signatures-{i}", _rows(a), _rows(b)))
    return corpus


def _exhaustion_point(p1: PdaArray, p2: PdaArray) -> int:
    """The least budget at which the reference search reaches a verdict."""
    hi = 1
    while _reference_equivalent(p1, p2, hi) is EquivalenceResult.BUDGET_EXHAUSTED:
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _reference_equivalent(p1, p2, mid) is EquivalenceResult.BUDGET_EXHAUSTED:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_equivalent_matches_the_reference_search():
    outcomes = Counter()
    for name, p1, p2 in _equivalence_corpus():
        point = _exhaustion_point(p1, p2)
        for budget in [*range(max(0, point - 24), point + 3), 1_000_000]:
            expected = _reference_equivalent(p1, p2, budget)
            assert equivalent(p1, p2, budget) is expected, (name, budget)
            outcomes[expected] += 1
        assert point == 0 or equivalent(p1, p2, point - 1) is EquivalenceResult.BUDGET_EXHAUSTED, name
    # The corpus reaches all three verdicts, and the search itself (not only the
    # signature filter) rejects the same-signature pairs.
    assert set(outcomes) == set(EquivalenceResult)
    for i, (a, b) in enumerate(_INEQUIVALENT_SAME_SIGNATURES):
        assert _exhaustion_point(_rows(a), _rows(b)) > 0, i
        assert equivalent(_rows(a), _rows(b)) is EquivalenceResult.INEQUIVALENT, i


@pytest.mark.parametrize("factors", [3, 6, 10])
def test_equivalent_matches_a_star_product_with_one_pass_of_f_plus_k_nodes(factors):
    # The star product of trivial arrays and a seeded relabeling of it match on
    # the first candidate at every level, so F + K nodes decide the pair.  At
    # 1024 x 1024 the reference search ends in RecursionError.
    p = coloring_to_pda(star_product([pda_to_coloring(trivial_pda())] * factors))
    twin = _seeded_relabeling(p, factors)
    assert p.F == p.K == 2**factors
    for budget, expected in (
        (p.F + p.K - 1, EquivalenceResult.BUDGET_EXHAUSTED),
        (p.F + p.K, EquivalenceResult.EQUIVALENT),
    ):
        assert equivalent(p, twin, budget) is expected, budget
        if factors <= 6:
            assert _reference_equivalent(p, twin, budget) is expected, budget


def test_write_then_read_is_identity(example1):
    text = write_pda(example1)
    assert text.startswith("pda v1\nK=4 F=4 Z=2 S=4\n")
    assert text.endswith("\n")
    assert read_pda(text) == example1


def test_read_then_write_is_identity_on_files(example1):
    text = write_pda(example1)
    assert write_pda(read_pda(text)) == text


def test_serialization_preserves_params(example1):
    assert params(read_pda(write_pda(example1))) == params(example1)


def test_read_holds_no_second_copy_of_the_text(star_1024):
    # A list of every line would cost about as much as the text itself; the
    # parse may rise above what it keeps by well under a quarter of that.
    star, _ = star_1024
    text = write_pda(star)
    tracemalloc.start()
    try:
        p = read_pda(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p == star
    assert peak - retained < len(text) / 4


def test_read_reports_bad_token_position():
    text = "pda v1\nK=2 F=1 Z=0 S=2\n1 x\n"
    with pytest.raises(PdaFormatError) as info:
        read_pda(text)
    assert info.value.line == 3
    assert info.value.column == 3


def test_read_clips_a_bad_token_or_color_past_the_echo_width():
    def message(tok: str) -> str:
        with pytest.raises(PdaFormatError) as info:
            read_pda(f"pda v1\nK=2 F=1 Z=0 S=1\n1 {tok}\n")
        return str(info.value)

    at_width = "x" * ECHO_WIDTH
    assert message(at_width) == f"line 3, column 3: bad token {at_width!r}"
    assert message("x" * 100_000) == f"line 3, column 3: bad token {at_width + '...'!r} (100000 characters)"
    assert message("9" * ECHO_WIDTH) == f"line 3, column 3: color {'9' * ECHO_WIDTH} exceeds declared S=1"
    assert message("9" * 4000) == "line 3, column 3: color of 4000 digits exceeds declared S=1"


def test_read_rejects_color_gap():
    text = "pda v1\nK=2 F=1 Z=0 S=3\n1 3\n"
    with pytest.raises(PdaFormatError) as info:
        read_pda(text)
    assert "2" in str(info.value)


def test_read_rejects_header_mismatch():
    with pytest.raises(PdaFormatError):
        read_pda("pda v1\nK=2 F=1 Z=1 S=2\n1 2\n")
    with pytest.raises(PdaFormatError):
        read_pda("pda v1\nK=2 F=1 Z=0 S=5\n1 2\n")


def test_read_requires_trailing_newline():
    with pytest.raises(PdaFormatError):
        read_pda("pda v1\nK=1 F=1 Z=0 S=1\n1")


def test_read_rejects_bad_magic_and_spacing():
    with pytest.raises(PdaFormatError):
        read_pda("pda v2\nK=1 F=1 Z=0 S=1\n1\n")
    with pytest.raises(PdaFormatError):
        read_pda("pda v1\nK=2 F=1 Z=0 S=2\n1  2\n")


def test_read_reports_an_empty_grid_line_as_zero_tokens():
    with pytest.raises(PdaFormatError) as info:
        read_pda("pda v1\nK=2 F=2 Z=1 S=1\n1 *\n\n")
    assert (info.value.line, info.value.column) == (4, 1)
    assert str(info.value) == "line 4, column 1: expected 2 tokens, found 0"


LONG = "9" * 5000  # past Python's default 4,300-digit int() limit


@pytest.mark.parametrize(
    "text, line, column",
    [
        pytest.param("pda v1\nK=\u0661 F=1 Z=0 S=1\n1\n", 2, 1, id="foreign-header-digit"),
        pytest.param("pda v1\nK=2 F=1 Z=0 S=11\n1 1\u0661\n", 3, 3, id="foreign-grid-digit"),
        pytest.param(f"pda v1\nK=1 F=1 Z=0 S={LONG}\n1\n", 2, 15, id="long-header-integer"),
        pytest.param(f"pda v1\nK=1 F=1 Z=0 S=1\n{LONG}\n", 3, 1, id="long-grid-integer"),
        # The least absent color is found among 1..S measured, not 1..10**12.
        pytest.param(f"pda v1\nK=1 F=1 Z=0 S={10**12}\n{10**12}\n", 3, 1, id="huge-color-gap"),
    ],
)
def test_read_rejects_foreign_and_overlong_digits_at_their_position(text, line, column):
    with pytest.raises(PdaFormatError) as info:
        read_pda(text)
    assert (info.value.line, info.value.column) == (line, column)


PDA_TEXT_PIECES = st.sampled_from(
    ["pda v1\n", "K=1 F=1 Z=0 S=1\n", "K=2 F=2 Z=1 S=1\n", "K=", " F=", " Z=", " S=",
     "0", "1", "2", LONG, "\u0661", "\u00b2", "*", "x", " ", "  ", "\n", "\r\n"]
)


@given(st.text() | st.lists(PDA_TEXT_PIECES, max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_read_raises_nothing_but_format_errors(text):
    try:
        read_pda(text)
    except PdaFormatError:
        pass


def random_structural_array(rnd: random.Random) -> PdaArray:
    """Any rectangular grid over stars and dense colors, valid or not."""
    F = rnd.randint(1, 5)
    K = rnd.randint(1, 5)
    max_color = rnd.randint(1, 4)
    rows = [[rnd.choice([None, *range(1, max_color + 1)]) for _ in range(K)] for _ in range(F)]
    present = sorted({e for row in rows for e in row if e is not None})
    dense = {c: i + 1 for i, c in enumerate(present)}
    rows = [[None if e is None else dense[e] for e in row] for row in rows]
    return PdaArray(rows)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_text_roundtrip_for_arbitrary_structural_arrays(seed):
    p = random_structural_array(random.Random(seed))
    assert read_pda(write_pda(p)) == p
