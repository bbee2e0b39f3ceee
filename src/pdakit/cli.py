"""Command-line front end: build, validate, combine, simulate, and report.

Exit codes: 0 success, 1 invalid, unreadable or incompatible array file,
2 usage error or unwritable output path, 3 internal invariant breach;
``equiv`` returns 1 for inequivalent arrays and 2 when its search budget runs out.
"""

from __future__ import annotations

import argparse
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


def _subset_cells(check: Callable[..., None], kfgs: Callable[..., analytics.KFgS]) -> Callable[..., int]:
    """A subset family's F x K, each factor clipped at the cap + 1.  Every legal
    subset family has F, K >= n, so once the range check passes, an n^2 past the
    cap is refused before any binomial is computed."""
    def cells(n: int, *rest: int) -> int:
        if n * n > BUILD_CAP_CELLS:
            check(n, *rest)
            k = f = n
        else:
            k, f, _, _ = kfgs(n, *rest)
        return min(f, BUILD_CAP_CELLS + 1) * min(k, BUILD_CAP_CELLS + 1)
    return cells


class Family(NamedTuple):
    flags: tuple[str, ...]  # in the order the builder takes them
    build: Callable  # returns an array or a coloring
    cells: Callable[..., int]  # F x K, or a bound of it past the cap, from the same flags


# A star family below m = 1 is under the cap, so its builder reports it.
FAMILIES = {
    "disjoint-union": Family(("n", "a", "b"), families.disjoint_union_coloring,
                             _subset_cells(analytics.check_disjoint_union, analytics.disjoint_union_kfgs)),
    "intersection-t": Family(("n", "a", "b", "t"), families.intersection_t_coloring,
                             _subset_cells(analytics.check_intersection_t, analytics.intersection_t_kfgs)),
    "restricted-combined": Family(("n", "a", "b", "t"), families.restricted_combined_family,
                                  _subset_cells(analytics.check_restricted, analytics.restricted_kfgs)),
    "trivial": Family((), families.trivial_pda, lambda: 4),
    "star": Family(("m",), families.star_pda, lambda m: m),
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
    if args.exhaustive or args.files == 1 or (p.K <= 12 and args.files**p.K <= 4096):  # N^K <= 4096 (2^13 > 4096)
        return scheme.exhaustive_demands(args.files, p.K)
    return scheme.iter_random_demands(args.files, p.K, 200, args.seed)


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


def _cmd_combine(args) -> int:
    arrays = [_load(f) for f in args.files]
    for path, p in zip(args.files, arrays):
        if not validate(p).is_valid:
            raise InvalidPdaError(f"{path} is not a valid PDA")
    if args.mode == "cycle" and args.m is None:
        raise UsageError("cycle requires --m")
    cells = combinators.combined_cells(args.mode, arrays, args.m)
    if cells > BUILD_CAP_CELLS:
        raise UsageError(f"mode {args.mode!r} builds up to {cells} cells (F x K); "
                         f"the cap is {BUILD_CAP_CELLS}")
    p = combinators.combine(args.mode, arrays, args.m)
    measured = params(p)
    if args.mode == "same-colors":
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
    c.add_argument("--mode", required=True, choices=combinators.MODES)
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


if __name__ == "__main__":
    sys.exit(main())
