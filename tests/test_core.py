from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdakit.core import (
    EquivalenceResult,
    InvalidPdaError,
    PdaArray,
    PdaError,
    PdaFormatError,
    equivalent,
    params,
    read_pda,
    validate,
    write_pda,
)


def test_example1_is_valid(example1):
    report = validate(example1)
    assert report.is_valid
    assert report.violations == ()


def test_row_repeat_is_condition_b():
    p = PdaArray.from_rows([[1, 1]])
    report = validate(p)
    assert not report.is_valid
    assert [v.condition for v in report.violations] == ["B"]
    assert report.violations[0].cells == ((1, 1), (1, 2))


def test_column_repeat_is_condition_b():
    p = PdaArray.from_rows([[1], [1]])
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
    report = validate(PdaArray.from_rows(rows))
    got = {(v.condition, v.cells) for v in report.violations}
    assert ("C", ((1, 1), (2, 2))) in got
    assert ("C", ((1, 2), (2, 1))) in got
    assert all(v.condition == "C" for v in report.violations)


def test_condition_a_reports_unbalanced_columns():
    p = PdaArray.from_rows([[None, 1], [1, None], [None, 2]])
    report = validate(p)
    assert [v.condition for v in report.violations] == ["A"]
    assert "column 2" in report.violations[0].detail


def test_star_counts_match_a_per_column_scan():
    rng = random.Random(7)
    for _ in range(50):
        F, K = rng.randint(1, 6), rng.randint(1, 6)
        p = PdaArray.from_rows([[rng.choice([None, 1]) for _ in range(K)] for _ in range(F)])
        per_column = [sum(1 for row in p.grid if row[k] is None) for k in range(K)]
        assert [p.star_count(k) for k in range(K)] == per_column
        assert p.S == len({e for row in p.grid for e in row if e is not None})


def test_params_example1(example1):
    pr = params(example1)
    assert (pr.K, pr.F, pr.Z, pr.S) == (4, 4, 2, 4)
    assert pr.ratio == Fraction(1, 2)
    assert pr.rate == Fraction(1)
    assert pr.g == 2


def test_params_trivial_array_measures_one_color():
    # drawn with a single distinct integer, so S is measured as 1
    pr = params(PdaArray.from_rows([[None, 1], [1, None]]))
    assert (pr.K, pr.F, pr.Z, pr.S) == (2, 2, 1, 1)
    assert pr.rate == Fraction(1, 2)


def test_params_all_star_column():
    pr = params(PdaArray.from_rows([[None]] * 5))
    assert (pr.K, pr.F, pr.Z, pr.S) == (1, 5, 5, 0)
    assert pr.rate == 0


def test_params_rejects_invalid():
    with pytest.raises(InvalidPdaError):
        params(PdaArray.from_rows([[1, 1]]))


def test_construction_rejects_malformed():
    with pytest.raises(PdaError):
        PdaArray.from_rows([])
    with pytest.raises(PdaError):
        PdaArray.from_rows([[1, 2], [1]])
    with pytest.raises(PdaError):
        PdaArray.from_rows([[0]])
    with pytest.raises(PdaError):
        PdaArray.from_rows([[1, 3]])  # color 2 missing


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
    return PdaArray.from_rows(rows)


def test_equivalent_after_known_permutation(example1):
    # swap columns 1 and 3 and colors 1 and 3, then confirm by search
    shuffled = apply_relabeling(example1, [0, 1, 2, 3], [2, 1, 0, 3], {1: 3, 2: 2, 3: 1, 4: 4})
    assert shuffled != example1
    assert equivalent(example1, shuffled) is EquivalenceResult.EQUIVALENT


def test_inequivalent_on_parameter_mismatch(example1):
    other = PdaArray.from_rows(
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
    p1 = PdaArray.from_rows([[None, None, None], [None, None, None], [1, 2, 3]])
    p2 = PdaArray.from_rows([[None, None, None], [None, None, 1], [2, 3, None]])
    pr1, pr2 = params(p1), params(p2)
    assert (pr1.K, pr1.F, pr1.Z, pr1.S) == (pr2.K, pr2.F, pr2.Z, pr2.S) == (3, 3, 2, 3)
    assert equivalent(p1, p2) is EquivalenceResult.INEQUIVALENT


def test_budget_exhaustion(example1):
    assert equivalent(example1, example1, budget=0) is EquivalenceResult.BUDGET_EXHAUSTED


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_equivalence_invariant_under_random_relabeling(rnd):
    from conftest import EXAMPLE1_ROWS

    p = PdaArray.from_rows(EXAMPLE1_ROWS)
    row_perm = list(range(p.F))
    col_perm = list(range(p.K))
    colors = list(range(1, p.S + 1))
    shuffled_colors = colors[:]
    rnd.shuffle(row_perm)
    rnd.shuffle(col_perm)
    rnd.shuffle(shuffled_colors)
    other = apply_relabeling(p, row_perm, col_perm, dict(zip(colors, shuffled_colors)))
    assert equivalent(p, other) is EquivalenceResult.EQUIVALENT


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


def test_read_reports_bad_token_position():
    text = "pda v1\nK=2 F=1 Z=0 S=2\n1 x\n"
    with pytest.raises(PdaFormatError) as info:
        read_pda(text)
    assert info.value.line == 3
    assert info.value.column == 3


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


LONG = "9" * 5000  # past Python's default 4,300-digit int() limit


@pytest.mark.parametrize(
    "text, line, column",
    [
        pytest.param("pda v1\nK=\u0661 F=1 Z=0 S=1\n1\n", 2, 1, id="foreign-header-digit"),
        pytest.param("pda v1\nK=2 F=1 Z=0 S=11\n1 1\u0661\n", 3, 3, id="foreign-grid-digit"),
        pytest.param(f"pda v1\nK=1 F=1 Z=0 S={LONG}\n1\n", 2, 15, id="long-header-integer"),
        pytest.param(f"pda v1\nK=1 F=1 Z=0 S=1\n{LONG}\n", 3, 1, id="long-grid-integer"),
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
    return PdaArray.from_rows(rows)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_text_roundtrip_for_arbitrary_structural_arrays(seed):
    p = random_structural_array(random.Random(seed))
    assert read_pda(write_pda(p)) == p
