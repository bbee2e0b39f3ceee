"""Command-line front end: build, validate, combine, simulate, and report.

Exit codes: 0 success, 1 invalid, unreadable or incompatible array file,
2 usage error or unwritable output path, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import analytics, combinators, families, graphs, scheme
from .core import (
    EquivalenceResult,
    InvalidPdaError,
    PdaArray,
    PdaError,
    equivalent,
    params,
    read_pda,
    validate,
    write_pda,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# `simulate` draws its whole library (N files of F one-byte packets) before the
# first demand.  Each file also costs its bytes object's header and its slot in
# the library's tuple, so the cap counts both.
LIBRARY_CAP_BYTES = 2**20
FILE_OVERHEAD_BYTES = sys.getsizeof(b"") + 8

# `build` and `combine` refuse an array of more cells (F x K) than a 2048 x 2048 one before building it.
BUILD_CAP_CELLS = 2**22


class UsageError(Exception):
    pass


def _load(path: str) -> PdaArray:
    try:
        return read_pda(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise PdaError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _binomial_past_cap(n: int, k: int) -> int:
    """C(n, k), or the first of its partial products C(n - k + i, i) past BUILD_CAP_CELLS.

    Those products grow with i, so this stops early on any n, however large.
    """
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > BUILD_CAP_CELLS:
            break
    return c


# F x K of each family from its closed form, once its range check passes, or a
# lower bound of it past the cap.  A star family below m = 1 is under the cap,
# so its builder reports it.
def _disjoint_union_cells(n: int, a: int, b: int) -> int:
    analytics.check_disjoint_union(n, a, b)
    return _binomial_past_cap(n, a) * _binomial_past_cap(n, b)


def _intersection_t_cells(n: int, a: int, b: int, t: int) -> int:
    analytics.check_intersection_t(n, a, b, t)
    return _binomial_past_cap(n, a) * _binomial_past_cap(n, b)


def _restricted_cells(n: int, a: int, b: int, t: int) -> int:
    analytics.check_restricted(n, a, b, t)
    return _binomial_past_cap(n, b - t) * _binomial_past_cap(n, a + t) * _binomial_past_cap(a + t, a)


class Family(NamedTuple):
    flags: tuple[str, ...]  # in the order the builder takes them
    build: Callable  # returns an array or a coloring
    cells: Callable[..., int]  # F x K, or a bound of it past the cap, from the same flags


FAMILIES = {
    "disjoint-union": Family(("n", "a", "b"), families.disjoint_union_coloring, _disjoint_union_cells),
    "intersection-t": Family(("n", "a", "b", "t"), families.intersection_t_coloring, _intersection_t_cells),
    "restricted-combined": Family(("n", "a", "b", "t"), families.restricted_combined_family, _restricted_cells),
    "trivial": Family((), families.trivial_pda, lambda: 4),
    "star": Family(("m",), families.star_graph_coloring, lambda m: m),
}


def _cmd_build(args) -> int:
    family = FAMILIES[args.family]
    for flag in family.flags:
        if getattr(args, flag) is None:
            raise UsageError(f"family {args.family!r} requires --{flag}")
    values = [getattr(args, flag) for flag in family.flags]
    cells = family.cells(*values)
    if cells > BUILD_CAP_CELLS:
        raise UsageError(f"family {args.family!r} builds at least {cells} cells (F x K); "
                         f"the cap is {BUILD_CAP_CELLS}")
    built = family.build(*values)
    p = built if isinstance(built, PdaArray) else graphs.coloring_to_pda(built)
    _write(args.output, write_pda(p))
    print(f"wrote {args.output}: {params(p)}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    p = _load(args.file)
    report = validate(p)
    print(report)
    return EXIT_OK if report.is_valid else EXIT_INVALID


def _cmd_params(args) -> int:
    p = _load(args.file)
    print(params(p))
    return EXIT_OK


# As read_pda's tokens: int() alone would also take other scripts' digits, signs, spaces and '_'.
_DEMAND_RE = re.compile(r"[0-9]+(,[0-9]+)*")


def _demands_for(p: PdaArray, args) -> Iterable[tuple[int, ...]]:
    if args.demand is not None and args.exhaustive:
        raise UsageError("--demand and --exhaustive are mutually exclusive")
    if args.demand is not None:
        if not _DEMAND_RE.fullmatch(args.demand):
            raise UsageError(f"bad --demand {args.demand!r}: expected comma-separated ASCII decimal integers")
        try:
            return [tuple(int(tok) for tok in args.demand.split(","))]
        except ValueError as exc:  # a token longer than int() converts
            raise UsageError(f"bad --demand {args.demand!r}: {exc}") from exc
    if args.exhaustive or args.files**p.K <= 4096:
        return scheme.exhaustive_demands(args.files, p.K)
    return scheme.random_demands(args.files, p.K, 200, args.seed)


def _cmd_simulate(args) -> int:
    if args.files < 1:
        raise UsageError("--files must be at least 1")
    p = _load(args.file)
    allocated = args.files * (p.F + FILE_OVERHEAD_BYTES)
    if allocated > LIBRARY_CAP_BYTES:
        raise UsageError(f"--files {args.files} needs a library of {args.files * p.F} bytes, "
                         f"{allocated} with {FILE_OVERHEAD_BYTES} per file object; "
                         f"the cap is {LIBRARY_CAP_BYTES}")
    pr = params(p)
    lib = scheme.FileLibrary.for_array(p, args.files, args.seed)
    total = failures = 0
    for d in _demands_for(p, args):
        ok = scheme.verify_roundtrip(p, lib, d)
        status = "pass" if ok else "FAIL"
        print(f"demand {','.join(map(str, d))}: {status}")
        total += 1
        failures += 0 if ok else 1
    print(f"{total - failures}/{total} demands decoded; broadcasts per demand: {pr.S}; rate R={pr.rate}")
    if failures:
        print("decoding failed on a validated array: validator invariant breached", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _combined_cells(args, arrays: list[PdaArray]) -> int:
    """After the mode's usage checks, F x K of the combination from its inputs' shapes.

    Exact except for same-colors, which gets a bound.  An unsupported cycle
    length counts as no cells, so the operator reports it.
    """
    if args.mode in ("same-colors", "star"):
        if len(arrays) < 2:
            raise UsageError(f"{args.mode} needs at least two input files")
        if args.mode == "star":
            return math.prod(p.F for p in arrays) * math.prod(p.K for p in arrays)
        # Each step's rows are the columns so far, and its columns some pairs of
        # the rows so far with the next factor's rows.
        F, K = arrays[0].F, arrays[0].K
        for p in arrays[1:]:
            F, K = K, F * p.F
        return F * K
    if args.mode == "tensor":
        if len(arrays) != 2:
            raise UsageError("tensor takes exactly two input files")
        p1, p2 = arrays
        return p1.F * p1.K * (p2.F + p2.K) ** 2
    if len(arrays) != 1:
        raise UsageError("cycle takes exactly one input file")
    if args.m is None:
        raise UsageError("cycle requires --m")
    return args.m**2 * arrays[0].F * arrays[0].K if analytics.cycle_length_supported(args.m) else 0


def _combine_graphs(args, arrays: list[PdaArray]) -> graphs.ColoredBipartiteGraph:
    colorings = [graphs.pda_to_coloring(p) for p in arrays]
    if args.mode == "same-colors":
        return combinators.combine_same_colors_fold(colorings)
    if args.mode == "star":
        return combinators.star_product(colorings)
    if args.mode == "tensor":
        g1, g2 = (graphs.as_general_graph(c) for c in colorings)
        product = combinators.tensor_product(g1, g2)
        left = [v for v in product.vertices if v[0][0] == "row"]
        return graphs.split_bipartite(product, left)
    return combinators.cycle_product(colorings[0], args.m)


def _cmd_combine(args) -> int:
    arrays = [_load(f) for f in args.files]
    for path, p in zip(args.files, arrays):
        if not validate(p).is_valid:
            raise InvalidPdaError(f"{path} is not a valid PDA")
    cells = _combined_cells(args, arrays)
    if cells > BUILD_CAP_CELLS:
        raise UsageError(f"mode {args.mode!r} builds up to {cells} cells (F x K); "
                         f"the cap is {BUILD_CAP_CELLS}")
    combined = _combine_graphs(args, arrays)
    p = graphs.coloring_to_pda(combined)
    measured = params(p)
    if args.mode == "same-colors" and len(arrays) == 2:
        claim = combinators.same_colors_claimed_params(arrays[0], arrays[1])
        flags = "agrees" if claim == (measured.K, measured.F, measured.Z, measured.S) else "DIVERGES from measured"
        print(f"published parameter claim (K,F,Z,S)={claim} {flags}")
    _write(args.output, write_pda(p))
    print(f"wrote {args.output}: {measured}")
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = analytics.table_report(args.which)
    text = analytics.render_csv(rows, include_estimates=args.estimate)
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    p1, p2 = _load(args.file1), _load(args.file2)
    outcome = equivalent(p1, p2, budget=args.budget)
    print(outcome)
    return {
        EquivalenceResult.EQUIVALENT: EXIT_OK,
        EquivalenceResult.INEQUIVALENT: 1,
        EquivalenceResult.BUDGET_EXHAUSTED: 2,
    }[outcome]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdakit",
        description="Construct, combine, validate, and simulate placement delivery arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a base array and write it to a file")
    b.add_argument("--family", required=True, choices=list(FAMILIES))
    for flag in ("n", "a", "b", "t", "m"):
        b.add_argument(f"--{flag}", type=int)
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=_cmd_build)

    v = sub.add_parser("validate", help="check conditions A, B, C and print the report")
    v.add_argument("file")
    v.set_defaults(func=_cmd_validate)

    pa = sub.add_parser("params", help="print measured K, F, Z, S and exact rationals")
    pa.add_argument("file")
    pa.set_defaults(func=_cmd_params)

    c = sub.add_parser("combine", help="apply a composition operator to array files")
    c.add_argument("--mode", required=True, choices=["same-colors", "star", "tensor", "cycle"])
    c.add_argument("--m", type=int, help="cycle length for --mode cycle")
    c.add_argument("files", nargs="+")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_combine)

    s = sub.add_parser("simulate", help="run placement, delivery, and decoding")
    s.add_argument("file")
    s.add_argument("--files", type=int, required=True,
                   help=f"library size N; the N files of F one-byte packets, plus "
                        f"{FILE_OVERHEAD_BYTES} bytes per file object, may total at most "
                        f"{LIBRARY_CAP_BYTES} bytes")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--demand", help="comma-separated demand vector")
    s.add_argument("--exhaustive", action="store_true", help="run all N^K demand vectors")
    s.set_defaults(func=_cmd_simulate)

    t = sub.add_parser("table", help="emit a published comparison table as CSV")
    t.add_argument("which", choices=list(analytics.TABLE_NAMES))
    t.add_argument("-o", "--output")
    t.add_argument("--estimate", action="store_true",
                   help="append the floating-point F estimate column")
    t.set_defaults(func=_cmd_table)

    e = sub.add_parser("equiv", help="decide row/column/color-relabeling equivalence")
    e.add_argument("file1")
    e.add_argument("file2")
    e.add_argument("--budget", type=int, default=1_000_000)
    e.set_defaults(func=_cmd_equiv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, analytics.ParameterError, scheme.SchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PdaError, graphs.GraphError, combinators.CombineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except scheme.DecodingError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
