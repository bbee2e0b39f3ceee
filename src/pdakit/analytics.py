"""Exact parameter calculators for the families in this package and
reproduction of the published comparison tables with divergence flags.

Every scheme number here is computed from exact binomials (Python integers
and fractions).  Where a published table printed an approximation or a value
our closed forms contradict, the report carries both: the exact value in the
main columns and the printed one in ``paper_values``, with the column named
in ``divergence``.  Printed values are never silently substituted for computed
ones.  Tables whose schemes come from other constructions entirely (II, IV,
VI, used in the source material as comparison baselines) are emitted from
their printed values and flagged ``not-recomputed``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional


class ParameterError(ValueError):
    """Family or closed-form parameters outside their legal range."""


def binary_entropy(x) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x) for 0 < x < 1."""
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ParameterError(f"entropy argument must lie in (0, 1), got {x}")
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def stirling_binomial_estimate(n: float, k: float) -> float:
    """C(n, k) ~ 2^(n H(k/n)) / sqrt(2 pi k (1 - k/n)).

    The same approximation the published tables use for their subpacketization
    figures; also meaningful at non-integral k, where no exact value exists.
    """
    if not 0 < k < n:
        raise ParameterError(f"need 0 < k < n, got n={n} k={k}")
    ratio = k / n
    return 2.0 ** (n * binary_entropy(ratio)) / math.sqrt(2.0 * math.pi * k * (1.0 - ratio))


@dataclass(frozen=True)
class SchemeRow:
    """One scheme's exact parameters: K users, cache gap 1 - M/N, F, rate R.

    ``F`` is None when the parameter point indexes no integral scheme; in that
    case ``f_estimate`` carries the Stirling figure.  A published-table row
    also fills ``paper_values`` and ``divergence``, as the module docstring
    describes.
    """

    label: str
    K: Optional[int]
    one_minus_MN: Optional[Fraction]
    F: Optional[int]
    R: Optional[Fraction]
    f_estimate: Optional[float] = None
    note: str = ""
    paper_values: tuple[tuple[str, str], ...] = ()
    divergence: tuple[str, ...] = ()


# Each family's legal range and the supported cycle lengths, stated once for the
# constructions in `families` and `combinators`, the closed forms and the CLI.


def check_disjoint_union(n: int, a: int, b: int) -> None:
    if a < 1 or b < 1 or a + b > n:
        raise ParameterError(f"need a, b >= 1 and a + b <= n, got n={n} a={a} b={b}")


def check_intersection_t(n: int, a: int, b: int, t: int) -> None:
    if not (0 < a < n and 0 < b < n):
        raise ParameterError(f"need 0 < a, b < n, got n={n} a={a} b={b}")
    if not (0 <= t <= min(a, b) and a + b - t <= n):
        raise ParameterError(f"need 0 <= t <= min(a, b) and a + b - t <= n, got t={t}")


def check_restricted(n: int, a: int, b: int, t: int) -> None:
    check_disjoint_union(n, a, b)
    if not 0 <= t < b:
        raise ParameterError(f"need 0 <= t < b, got t={t} b={b}")


def check_cycle_length(m: int) -> None:
    """m = 3 (three vertex colors) or a multiple of 6 (two suffice)."""
    if m != 3 and not (isinstance(m, int) and m >= 6 and m % 6 == 0):
        raise ParameterError(f"cycle product supports m = 3 or m divisible by 6, got m={m}")


# A scheme's integer parameters (K, F, g, S): users, packets, colored cells
# per column (g = F - Z) and colors; 1 - M/N = g/F and R = S/F.
KFgS = tuple[int, int, int, int]


def _row(label: str, kfgs: KFgS, note: str = "") -> SchemeRow:
    k, f, g, s = kfgs
    return SchemeRow(label=label, K=k, one_minus_MN=Fraction(g, f), F=f, R=Fraction(s, f), note=note)


def star_law(*factors: KFgS) -> KFgS:
    """The star product multiplies each of K, F, g and S across its factors."""
    return tuple(math.prod(column) for column in zip(*factors))


def cycle_law(base: KFgS, m: int) -> KFgS:
    """The cycle product with C_m: (K, F, g, S) -> (mK, mF, 3g, 8S), 9S when m = 3.

    S counts one group per vertex color and per oriented copy of the 3 edge colors.
    """
    check_cycle_length(m)
    k, f, g, s = base
    return m * k, m * f, 3 * g, (9 if m == 3 else 8) * s


def tensor_law(first: KFgS, second: KFgS) -> KFgS:
    """The tensor product: (K1 V2, F1 V2, g1 g2, S1 S2), V2 = K2 + F2.  Its column
    degrees are constant only when every row of the second factor, too, holds g2
    colored cells; otherwise it has no array form."""
    (k1, f1, g1, s1), (k2, f2, g2, s2) = first, second
    return k1 * (k2 + f2), f1 * (k2 + f2), g1 * g2, s1 * s2


def disjoint_union_kfgs(n: int, a: int, b: int) -> KFgS:
    """K = C(n,b),  F = C(n,a),  g = C(n-b,a),  S = C(n,a+b)."""
    check_disjoint_union(n, a, b)
    return math.comb(n, b), math.comb(n, a), math.comb(n - b, a), math.comb(n, a + b)


def intersection_t_kfgs(n: int, a: int, b: int, t: int) -> KFgS:
    """K = C(n,b),  F = C(n,a),  g = C(b,t) C(n-b,a-t),  S = C(n,d) C(n-d,t), d = a+b-2t."""
    check_intersection_t(n, a, b, t)
    d = a + b - 2 * t  # size of the symmetric difference
    g = math.comb(b, t) * math.comb(n - b, a - t)
    return math.comb(n, b), math.comb(n, a), g, math.comb(n, d) * math.comb(n - d, t)


def restricted_kfgs(n: int, a: int, b: int, t: int) -> KFgS:
    """K = C(n,a+t) C(a+t,a),  F = C(n,b-t),  g = C(n-a-t,b-t),  S = C(n,a+b) C(a+b,b)."""
    check_restricted(n, a, b, t)
    k, s = math.comb(n, a + t) * math.comb(a + t, a), math.comb(n, a + b) * math.comb(a + b, b)
    return k, math.comb(n, b - t), math.comb(n - a - t, b - t), s


def restricted_family_params(n: int, a: int, b: int, t: int) -> SchemeRow:
    """Closed forms for the restricted same-colors combination of subset colorings."""
    return _row(f"n={n} a={a} b={b} t={t}", restricted_kfgs(n, a, b, t))


def star_intersection_params(
    n: int, a: int, b: int, t: int, n2: int, a2: int, b2: int, t2: int
) -> SchemeRow:
    """Closed forms for the star product of two intersection-size colorings:
    the star law on two ``intersection_t_kfgs``."""
    factors = intersection_t_kfgs(n, a, b, t), intersection_t_kfgs(n2, a2, b2, t2)
    return _row(f"n={n} a={a} b={b} t={t} x n={n2} a={a2} b={b2} t={t2}", star_law(*factors))


def cycle_family_params(n: int, a: int, b: int, m: int) -> SchemeRow:
    """Closed forms for the cycle product over a disjoint-union coloring: the
    cycle law applied to ``disjoint_union_kfgs``."""
    return _row(f"n={n} a={a} b={b} m={m}", cycle_law(disjoint_union_kfgs(n, a, b), m))


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            while q % d == 0:
                q //= d
            return q == 1
        d += 1
    return True


def minimal_x(n: int, l: int) -> int:
    """Least positive x with (l+1) | n*x."""
    return (l + 1) // math.gcd(n, l + 1)


_BLOCK_CODE_NOTE = "K = n*q inferred from the published comparison rows"


def _block_code(n: int, q: int, l: int) -> tuple[str, KFgS]:
    """The scheme's label (n,q,l,x) and its (K, F, g, S), with x = minimal_x(n, l)."""
    if n < 1 or l < 1:
        raise ParameterError(f"need n, l >= 1, got n={n} l={l}")
    if not _is_prime_power(q):
        raise ParameterError(f"q must be a prime power, got q={q}")
    x = minimal_x(n, l)
    kfgs = n * q, (q - 1) * q**l * x * n // (l + 1), x * (q - 1) * q ** (l - 1), x * q**l
    return f"({n},{q},{l},{x})", kfgs


def block_code_params(n: int, q: int, l: int) -> SchemeRow:
    """Parameter arithmetic of the linear-block-code family.

    F = (q-1) q^l x n / (l+1),  S = x q^l,  g = x (q-1) q^(l-1),
    M/N = 1 - (l+1)/(nq),  R = (l+1)/((q-1) n).  K = nq, inferred from the
    published comparison rows (marked in the note).  x is the least positive
    integer with (l+1) | nx, computed from n and l and printed in the label.
    Only the arithmetic is implemented, so n > l is not required here; the
    published cycle-transform rows themselves use n < l.
    """
    return _row(*_block_code(n, q, l), note=_BLOCK_CODE_NOTE)


def block_code_cycle_params(n: int, q: int, l: int, m: int) -> SchemeRow:
    """The block-code family under the cycle product's law (``cycle_law``)."""
    label, kfgs = _block_code(n, q, l)
    return _row(f"{label} m={m}", cycle_law(kfgs, m), note=_BLOCK_CODE_NOTE)


_COLUMNS = ("K", "one_minus_MN", "F", "R")

CSV_HEADER = ",".join(("label", *_COLUMNS, "paper_value", "divergence"))


def _printed(text: str) -> Fraction:
    """A printed table value as an exact rational: 90, 1/4, 7.77, 2^19 or 3*2^16."""
    value = Fraction(1)
    for factor in text.split("*"):
        base, _, exponent = factor.partition("^")
        value *= Fraction(base) ** int(exponent or 1)
    return value


def _compare(row: SchemeRow, printed: tuple[str, ...], printed_label: Optional[str] = None) -> SchemeRow:
    """Flag each column whose printed value, given in ``_COLUMNS`` order, differs from ``row``."""
    divergent: list[str] = []
    shown: list[tuple[str, str]] = []
    for col, text in zip(_COLUMNS, printed):
        ours = getattr(row, col)
        if ours is None or Fraction(ours) != _printed(text):
            divergent.append(col)
            shown.append((col, text))
    if printed_label is not None and printed_label != row.label:
        divergent.append("label")
        shown.append(("label", printed_label))
    return replace(row, paper_values=tuple(shown), divergence=tuple(divergent))


def _baseline(label: str, *printed: str) -> SchemeRow:
    k, one_minus, f, r = (_printed(text) for text in printed)
    row = SchemeRow(
        label=label, K=int(k), one_minus_MN=one_minus, F=int(f), R=r,
        note="published baseline scheme; F printed from a Stirling estimate",
    )
    shown = tuple((col, str(getattr(row, col))) for col in _COLUMNS)
    return replace(row, paper_values=shown, divergence=("not-recomputed",))


def _at_n(closed: Callable[[int], SchemeRow], note: str, *printed: tuple[str, ...]) -> list[SchemeRow]:
    """A closed form at n = 10, 12, 14, labelled ``n=<n>``, with its note."""
    return [
        _compare(replace(closed(n), label=f"n={n}", note=note), values)
        for n, values in zip((10, 12, 14), printed)
    ]


def _table_v() -> list[SchemeRow]:
    note = "printed F is a Stirling estimate; printed 1-M/N the large-n asymptote"

    def closed(a: int) -> SchemeRow:
        n = 2 * a
        return replace(
            star_intersection_params(n, a, 2, 1, n, a, 2, 1),
            label=f"a={a}", f_estimate=stirling_binomial_estimate(n, a) ** 2, note=note,
        )

    # a = 4.5 with n = 9: K = C(9,2)^2, R = (n-a)^2, and 1-M/N = (9/16)^2
    # survive gamma-function cancellation; F itself indexes no integral scheme.
    half = SchemeRow(
        label="a=4.5",
        K=math.comb(9, 2) ** 2,
        one_minus_MN=Fraction(81, 256),
        F=None,
        R=Fraction(81, 4),
        f_estimate=stirling_binomial_estimate(9, 4.5) ** 2,
        note="a=4.5 is non-integral: K and R survive cancellation, F does not",
    )
    return [
        _compare(closed(4), ("784", "1/4", "5215", "16")),
        _compare(half, ("1296", "1/4", "18542", "20.25")),
        _compare(closed(5), ("2025", "1/4", "66754", "25")),
    ]


# Every published table in print order.  II, IV and VI are baseline schemes
# whose constructions are not in this package, emitted as printed
# (label, K, 1-M/N, F, R).
_TABLES: dict[str, Callable[[], list[SchemeRow]]] = {
    "II": lambda: [
        _baseline("n~6*sqrt(5)", "90", "1/4", "2382", "1"),
        _baseline("n~2*sqrt(66)", "132", "1/4", "15406", "1"),
        _baseline("n~2*sqrt(91)", "182", "1/4", "101147", "1"),
    ],
    "III": lambda: _at_n(
        lambda n: restricted_family_params(n, 1, n // 2, 1),
        "printed 1-M/N is the large-b asymptote ((lambda-1)/lambda)^2 = 1/4",
        ("90", "1/4", "210", "5"),
        ("132", "1/4", "792", "7"),
        ("182", "1/4", "3003", "8"),
    ),
    "IV": lambda: [
        _baseline("n~sqrt(1568)", "784", "1/4", "2598778", "39.50"),
        _baseline("n~sqrt(2592)", "1296", "1/4", "255881905", "50.91"),
        _baseline("n~sqrt(4050)", "2025", "1/4", "45902134943", "63.64"),
    ],
    "V": _table_v,
    "VI": lambda: [
        _baseline("n~sqrt(540)", "270", "1/4", "1637369", "1"),
        _baseline("n~sqrt(792)", "396", "1/4", "44564986", "1"),
        _baseline("n~sqrt(1092)", "546", "1/4", "1230404836", "1"),
    ],
    "VII": lambda: _at_n(
        lambda n: cycle_family_params(n, n // 2, 2, 6),
        "printed F and R do not follow from the scheme's own closed forms",
        ("270", "1/4", "703", "7.77"),
        ("396", "1/4", "2152", "7.77"),
        ("546", "1/4", "6679", "7.77"),
    ),
    # row 2 prints x=4, which is not minimal; the minimal x=3 reproduces F=2^46
    "VIII": lambda: [
        _compare(block_code_params(24, 2, 17), ("48", "3/8", "2^19", "3/4"), "(24,2,17,3)"),
        _compare(block_code_params(60, 2, 44), ("120", "3/8", "2^46", "3/4"), "(60,2,44,4)"),
        _compare(block_code_params(96, 2, 71), ("192", "3/8", "2^73", "3/4"), "(96,2,71,3)"),
    ],
    "IX": lambda: [
        _compare(block_code_cycle_params(4, 2, 5, 6), ("48", "3/8", "3*2^7", "2")),
        _compare(block_code_cycle_params(10, 2, 14, 6), ("120", "3/8", "3*2^16", "2")),
        _compare(block_code_cycle_params(16, 2, 23, 6), ("192", "3/8", "3*2^25", "2")),
    ],
}

TABLE_NAMES = tuple(_TABLES)


def table_report(which: str) -> list[SchemeRow]:
    """Rows of one published comparison table, named as in ``TABLE_NAMES``."""
    if which not in _TABLES:
        raise ParameterError(f"no such table {which!r}; choose from {', '.join(TABLE_NAMES)}")
    return _TABLES[which]()


def _cell(value) -> str:
    return "NA" if value is None else str(value)


def render_csv(rows: list[SchemeRow], include_estimates: bool = False) -> str:
    """CSV with exact rationals as p/q.

    The standard columns never hold floats; ``include_estimates`` appends an
    ``f_estimate`` column carrying the Stirling figures where one exists.
    Cells holding a comma, such as the block-code labels, are quoted.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(",") + (["f_estimate"] if include_estimates else []))
    for r in rows:
        paper = ";".join(f"{col}={val}" for col, val in r.paper_values)
        divergence = ";".join(r.divergence)
        cells = [r.label, _cell(r.K), _cell(r.one_minus_MN), _cell(r.F), _cell(r.R), paper, divergence]
        if include_estimates:
            cells.append("" if r.f_estimate is None else f"{r.f_estimate:.1f}")
        writer.writerow(cells)
    return out.getvalue()
