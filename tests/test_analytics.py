from __future__ import annotations

import csv
import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from pdakit import cli
from pdakit.analytics import (
    CSV_HEADER,
    TABLE_NAMES,
    ParameterError,
    binary_entropy,
    block_code_cycle_params,
    block_code_params,
    check_cycle_length,
    cycle_family_params,
    minimal_x,
    render_csv,
    restricted_family_params,
    star_intersection_params,
    stirling_binomial_estimate,
    table_report,
)
from pdakit.combinators import cycle_product, star_product
from pdakit.core import params, read_pda, validate
from pdakit.families import (
    disjoint_union_coloring,
    intersection_t_coloring,
    restricted_combined_family,
)
from pdakit.graphs import coloring_to_pda, is_strong_coloring, pda_to_coloring


def test_restricted_family_params_large_row():
    row = restricted_family_params(10, 1, 5, 1)
    assert row.K == 90
    assert row.F == 210
    assert row.R == 6  # closed form; the printed table shows 5
    assert row.one_minus_MN == Fraction(1, 3)


def test_restricted_family_params_small_row():
    row = restricted_family_params(4, 1, 2, 1)
    assert (row.K, row.one_minus_MN, row.F, row.R) == (12, Fraction(1, 2), 4, 3)


@pytest.mark.parametrize("n,a,b,t", [(4, 1, 2, 0), (5, 1, 3, 0), (5, 2, 2, 1)])
def test_restricted_family_params_match_construction(n, a, b, t):
    row = restricted_family_params(n, a, b, t)
    pr = params(restricted_combined_family(n, a, b, t))
    assert row.K == pr.K
    assert row.F == pr.F
    assert row.one_minus_MN == 1 - pr.ratio
    assert row.R == pr.rate


def test_star_intersection_params_published_row():
    row = star_intersection_params(8, 4, 2, 1, 8, 4, 2, 1)
    assert row.K == 784
    assert row.R == 16
    assert row.F == comb(8, 4) ** 2 == 4900
    assert row.one_minus_MN == Fraction(16, 49)


def test_star_intersection_params_match_construction():
    g = intersection_t_coloring(4, 2, 2, 1)
    pr = params(coloring_to_pda(star_product([g, g])))
    row = star_intersection_params(4, 2, 2, 1, 4, 2, 2, 1)
    assert (row.K, row.F) == (pr.K, pr.F)
    assert row.one_minus_MN == 1 - pr.ratio
    assert row.R == pr.rate


def test_star_intersection_params_degenerate_diagonal():
    row = star_intersection_params(4, 2, 2, 2, 4, 2, 2, 2)
    assert row.K == row.F


def test_cycle_family_params_match_construction():
    row = cycle_family_params(4, 1, 2, 6)
    pr = params(coloring_to_pda(cycle_product(disjoint_union_coloring(4, 1, 2), 6)))
    assert (row.K, row.F) == (pr.K, pr.F)
    assert row.one_minus_MN == 1 - pr.ratio
    assert row.R == pr.rate


@pytest.mark.slow
def test_restricted_family_closed_forms_full_sweep():
    for n in range(9, 11):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                for t in range(0, b):
                    pr = params(restricted_combined_family(n, a, b, t))
                    row = restricted_family_params(n, a, b, t)
                    assert (pr.K, pr.F) == (row.K, row.F), (n, a, b, t)
                    assert 1 - pr.ratio == row.one_minus_MN, (n, a, b, t)
                    assert pr.rate == row.R, (n, a, b, t)


def test_cycle_family_closed_forms_match_constructions():
    for n, a, b in [(3, 1, 1), (4, 1, 2), (5, 1, 2), (5, 2, 2)]:
        for m in (3, 6):
            row = cycle_family_params(n, a, b, m)
            pr = params(coloring_to_pda(cycle_product(disjoint_union_coloring(n, a, b), m)))
            assert (row.K, row.F) == (pr.K, pr.F), (n, a, b, m)
            assert row.one_minus_MN == 1 - pr.ratio, (n, a, b, m)
            assert row.R == pr.rate, (n, a, b, m)


def test_star_intersection_closed_forms_match_constructions():
    cases = [
        ((4, 2, 2, 1), (4, 2, 2, 1)),
        ((4, 2, 2, 1), (5, 2, 2, 1)),
        ((5, 1, 2, 0), (4, 1, 1, 0)),
    ]
    for left, right in cases:
        g1 = intersection_t_coloring(*left)
        g2 = intersection_t_coloring(*right)
        pr = params(coloring_to_pda(star_product([g1, g2])))
        row = star_intersection_params(*left, *right)
        assert (row.K, row.F) == (pr.K, pr.F), (left, right)
        assert row.one_minus_MN == 1 - pr.ratio, (left, right)
        assert row.R == pr.rate, (left, right)


def test_cycle_family_params_m3_uses_nine_color_groups():
    row = cycle_family_params(4, 1, 2, 3)
    assert row.R == Fraction(9 * comb(4, 3), 3 * comb(4, 1))


def test_block_code_params_published_row():
    row = block_code_params(24, 2, 17)
    assert row.F == 2**19
    assert row.R == Fraction(3, 4)
    assert row.one_minus_MN == Fraction(3, 8)
    assert row.K == 48


def test_block_code_params_validates_x_and_q():
    assert minimal_x(60, 44) == 3
    assert block_code_params(60, 2, 44).label == "(60,2,44,3)"  # the table prints x=4
    with pytest.raises(ParameterError):
        block_code_params(24, 6, 17)  # q = 6 is not a prime power
    for q in (1, 0, -4):  # below 2, no prime power
        with pytest.raises(ParameterError, match=f"^q must be a prime power, got q={q}$"):
            block_code_params(3, q, 2)
    with pytest.raises(ParameterError):
        block_code_params(0, 2, 1)


def test_block_code_shortcut_forms_agree_with_the_g_and_s_arithmetic():
    # 1 - M/N = (l+1)/(nq) and R = (l+1)/((q-1)n) against g/F and S/F, with
    # g = x (q-1) q^(l-1) and S = x q^l, on the least x with (l+1) | nx.
    for n, q, l in itertools.product(range(1, 41), (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27), range(1, 16)):
        x = minimal_x(n, l)
        row = block_code_params(n, q, l)
        assert row.one_minus_MN == Fraction(x * (q - 1) * q ** (l - 1), row.F), (n, q, l)
        assert row.R == Fraction(x * q**l, row.F), (n, q, l)


def _accepts(build, error, *args) -> bool:
    try:
        build(*args)
    except error:
        return False
    return True


_GRID = [(n, a, b, t) for n in range(8) for a, b, t in itertools.product(range(-1, n + 2), repeat=3)]
_CYCLE_BASE = (3, 1, 1)

# rule -> (construction, its error), (closed form, its error), points to try
_SHARED_RULES = {
    "restricted": (
        (restricted_combined_family, ParameterError), (restricted_family_params, ParameterError), _GRID,
    ),
    "disjoint-union": (
        (lambda n, a, b, t: disjoint_union_coloring(n, a, b), ParameterError),
        (lambda n, a, b, t: cycle_family_params(n, a, b, 6), ParameterError),
        _GRID,
    ),
    "intersection-t": (
        (intersection_t_coloring, ParameterError),
        (lambda n, a, b, t: star_intersection_params(n, a, b, t, n, a, b, t), ParameterError),
        _GRID,
    ),
    "cycle-length": (
        (lambda m: cycle_product(disjoint_union_coloring(*_CYCLE_BASE), m), ParameterError),
        (lambda m: cycle_family_params(*_CYCLE_BASE, m), ParameterError),
        [(m,) for m in range(-1, 41)],
    ),
}


@pytest.mark.parametrize("rule", list(_SHARED_RULES))
def test_constructions_and_closed_forms_accept_the_same_parameters(rule):
    (build, build_error), (price, price_error), points = _SHARED_RULES[rule]
    verdicts = set()
    for point in points:
        built = _accepts(build, build_error, *point)
        assert built == _accepts(price, price_error, *point), point
        verdicts.add(built)
    assert verdicts == {True, False}


def test_check_cycle_length_accepts_three_and_the_multiples_of_six():
    accepted = [m for m in range(-12, 61) if _accepts(check_cycle_length, ParameterError, m)]
    assert accepted == [3, *range(6, 61, 6)]
    assert not _accepts(check_cycle_length, ParameterError, None)  # `combine` in cycle mode without m
    for m in (3.0, 6.0, True, "6"):  # only an exact int, so the cycle law's K and F stay ints
        assert not _accepts(check_cycle_length, ParameterError, m), m
    with pytest.raises(ParameterError, match="^cycle product supports m = 3 or m divisible by 6, got m=4$"):
        check_cycle_length(4)


def test_block_code_cycle_params_published_row():
    row = block_code_cycle_params(4, 2, 5, 6)
    assert row.F == 3 * 2**7
    assert row.R == 2
    assert row.one_minus_MN == Fraction(3, 8)
    with pytest.raises(ParameterError):
        block_code_cycle_params(4, 2, 5, 4)


def test_binary_entropy_basics():
    assert binary_entropy(Fraction(1, 2)) == 1.0
    for x in (0.1, 0.25, 0.4):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x))
    with pytest.raises(ParameterError):
        binary_entropy(0)
    with pytest.raises(ParameterError):
        binary_entropy(1)


def test_stirling_estimate_accuracy():
    est = stirling_binomial_estimate(8, 4) ** 2
    assert abs(est - 4900) / 4900 < 0.10
    with pytest.raises(ParameterError):
        stirling_binomial_estimate(4, 4)


def test_stirling_relative_error_decreases():
    errors = []
    for k in range(4, 13):
        exact = comb(2 * k, k)
        est = stirling_binomial_estimate(2 * k, k)
        errors.append(abs(est - exact) / exact)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_table_viii_matches_published_values_exactly():
    rows = table_report("VIII")
    assert [tr.F for tr in rows] == [2**19, 2**46, 2**73]
    assert all(tr.R == Fraction(3, 4) for tr in rows)
    assert all(tr.one_minus_MN == Fraction(3, 8) for tr in rows)
    assert [tr.K for tr in rows] == [48, 120, 192]
    assert rows[0].divergence == ()
    assert rows[1].divergence == ("label",)  # printed x=4 is not minimal
    assert rows[2].divergence == ()


def test_table_ix_matches_published_values_exactly():
    rows = table_report("IX")
    assert [tr.F for tr in rows] == [3 * 2**7, 3 * 2**16, 3 * 2**25]
    assert all(tr.R == 2 for tr in rows)
    assert all(tr.one_minus_MN == Fraction(3, 8) for tr in rows)
    assert all(tr.divergence == () for tr in rows)


@pytest.mark.slow
@pytest.mark.parametrize(
    "table, n, build, combine",
    [
        *(
            pytest.param("III", n, ["--family", "restricted-combined", "--n", str(n), "--a", "1",
                                    "--b", str(n // 2), "--t", "1"], None, id=f"III-n={n}")
            for n in (10, 12, 14)
        ),
        *(
            pytest.param("VII", n, ["--family", "disjoint-union", "--n", str(n), "--a", str(n // 2), "--b", "2"],
                         ["--mode", "cycle", "--m", "6"], id=f"VII-n={n}")
            for n in (10, 12)
        ),
    ],
)
def test_published_rows_built_through_the_cli_measure_as_their_closed_forms(table, n, build, combine, tmp_path):
    path = built = tmp_path / "built.pda"
    assert cli.main(["build", *build, "-o", str(built)]) == 0
    if combine:
        path = tmp_path / "combined.pda"
        assert cli.main(["combine", *combine, str(built), "-o", str(path)]) == 0
    p = read_pda(path.read_text())
    assert validate(p).is_valid and is_strong_coloring(pda_to_coloring(p)).is_valid
    pr = params(p)
    row = next(r for r in table_report(table) if r.label == f"n={n}")
    assert (pr.K, 1 - pr.ratio, pr.F, pr.rate) == (row.K, row.one_minus_MN, row.F, row.R)
    if table == "VII":
        assert row.divergence == ("one_minus_MN", "F", "R")


def test_table_v_rows_and_flags():
    rows = table_report("V")
    assert [tr.K for tr in rows] == [784, 1296, 2025]
    assert [tr.R for tr in rows] == [16, Fraction(81, 4), 25]
    assert rows[0].F == 4900
    assert rows[1].F is None  # non-integral point, flagged
    assert rows[2].F == 63504
    for tr in rows:
        assert "F" in tr.divergence
    for tr, printed in zip((rows[0], rows[2]), (5215, 66754)):
        assert abs(tr.F - printed) / printed < 0.10
        assert tr.f_estimate == pytest.approx(printed, rel=1e-4)
    assert rows[1].f_estimate == pytest.approx(18542, rel=1e-4)


def test_table_iii_rows_and_flags():
    rows = table_report("III")
    assert [tr.K for tr in rows] == [90, 132, 182]
    assert [tr.F for tr in rows] == [210, 792, 3003]
    assert [tr.R for tr in rows] == [6, 7, 8]
    assert "R" in rows[0].divergence  # printed 5 disagrees with the closed form
    assert "R" not in rows[1].divergence and "R" not in rows[2].divergence
    assert all("one_minus_MN" in tr.divergence for tr in rows)
    assert rows[0].one_minus_MN == Fraction(1, 3)


def test_table_vii_emits_closed_forms_with_flags():
    rows = table_report("VII")
    assert [tr.K for tr in rows] == [270, 396, 546]
    assert [tr.F for tr in rows] == [1512, 5544, 20592]
    assert rows[0].R == Fraction(40, 63)
    for tr in rows:
        assert {"one_minus_MN", "F", "R"} <= set(tr.divergence)


@pytest.mark.parametrize("name", ["II", "IV", "VI"])
def test_baseline_tables_are_flagged_not_recomputed(name):
    rows = table_report(name)
    assert len(rows) == 3
    assert all(tr.divergence == ("not-recomputed",) for tr in rows)


def test_table_report_rejects_unknown_name():
    with pytest.raises(ParameterError):
        table_report("X")


def test_render_csv_format():
    text = render_csv(table_report("VIII"))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith('"(24,2,17,3)",48,3/8,524288,3/4,')
    assert text.endswith("\n")


def test_render_csv_rationals_and_na():
    text = render_csv(table_report("V"))
    row = text.splitlines()[2]
    cells = row.split(",")
    assert cells[0] == "a=4.5"
    assert cells[2] == "81/256"
    assert cells[3] == "NA"
    assert cells[4] == "81/4"
    assert "f_estimate" not in text


def test_render_csv_estimates_behind_flag():
    text = render_csv(table_report("V"), include_estimates=True)
    assert text.splitlines()[0] == CSV_HEADER + ",f_estimate"
    assert "18542.9" in text


@pytest.mark.parametrize("estimates", [False, True], ids=["exact", "estimate"])
@pytest.mark.parametrize("name", TABLE_NAMES)
def test_render_csv_parses_to_header_width_rows(name, estimates):
    # Labels such as (24,2,17,3) hold commas, so a CSV reader must see them quoted.
    table = table_report(name)
    header, *rows = csv.reader(render_csv(table, include_estimates=estimates).splitlines())
    assert len(header) == 7 + estimates
    assert [len(row) for row in rows] == [len(header)] * len(table)
    assert [row[0] for row in rows] == [tr.label for tr in table]


@pytest.mark.parametrize("estimates", [False, True], ids=["exact", "estimate"])
@pytest.mark.parametrize("name", TABLE_NAMES)
def test_render_csv_matches_golden_bytes(name, estimates):
    suffix = "_estimate" if estimates else ""
    golden = Path(__file__).parent / "golden" / f"table_{name}{suffix}.csv"
    assert render_csv(table_report(name), include_estimates=estimates).encode() == golden.read_bytes()
