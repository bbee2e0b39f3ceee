"""Command-line front end: build, validate, combine, simulate, and report.

Exit codes: 0 success, 1 invalid, unreadable or incompatible array file,
2 usage error or unwritable output path, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable

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

# `simulate` draws its whole library (N files of F one-byte packets) before the first demand.
LIBRARY_CAP_BYTES = 2**20


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


# Each family's flags, in the order its builder takes them, and its builder,
# which returns an array or a coloring.
FAMILIES = {
    "disjoint-union": (("n", "a", "b"), families.disjoint_union_coloring),
    "intersection-t": (("n", "a", "b", "t"), families.intersection_t_coloring),
    "restricted-combined": (("n", "a", "b", "t"), families.restricted_combined_family),
    "trivial": ((), families.trivial_pda),
    "star": (("m",), families.star_graph_coloring),
}


def _cmd_build(args) -> int:
    flags, build = FAMILIES[args.family]
    for flag in flags:
        if getattr(args, flag) is None:
            raise UsageError(f"family {args.family!r} requires --{flag}")
    built = build(*(getattr(args, flag) for flag in flags))
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


def _demands_for(p: PdaArray, args) -> Iterable[tuple[int, ...]]:
    if args.demand is not None and args.exhaustive:
        raise UsageError("--demand and --exhaustive are mutually exclusive")
    if args.demand is not None:
        try:
            return [tuple(int(tok) for tok in args.demand.split(","))]
        except ValueError as exc:
            raise UsageError(f"bad --demand {args.demand!r}: {exc}") from exc
    if args.exhaustive or args.files**p.K <= 4096:
        return scheme.exhaustive_demands(args.files, p.K)
    return scheme.random_demands(args.files, p.K, 200, args.seed)


def _cmd_simulate(args) -> int:
    if args.files < 1:
        raise UsageError("--files must be at least 1")
    p = _load(args.file)
    if args.files * p.F > LIBRARY_CAP_BYTES:
        raise UsageError(f"--files {args.files} needs a library of {args.files * p.F} bytes; "
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


def _combine_graphs(args, arrays: list[PdaArray]) -> graphs.ColoredBipartiteGraph:
    colorings = [graphs.pda_to_coloring(p) for p in arrays]
    if args.mode == "same-colors":
        if len(colorings) < 2:
            raise UsageError("same-colors needs at least two input files")
        return combinators.combine_same_colors_fold(colorings)
    if args.mode == "star":
        if len(colorings) < 2:
            raise UsageError("star needs at least two input files")
        return combinators.star_product(colorings)
    if args.mode == "tensor":
        if len(colorings) != 2:
            raise UsageError("tensor takes exactly two input files")
        g1, g2 = (graphs.as_general_graph(c) for c in colorings)
        product = combinators.tensor_product(g1, g2)
        left = [v for v in product.vertices if v[0][0] == "row"]
        return graphs.split_bipartite(product, left)
    if len(colorings) != 1:
        raise UsageError("cycle takes exactly one input file")
    if args.m is None:
        raise UsageError("cycle requires --m")
    return combinators.cycle_product(colorings[0], args.m)


def _cmd_combine(args) -> int:
    arrays = [_load(f) for f in args.files]
    for path, p in zip(args.files, arrays):
        if not validate(p).is_valid:
            raise InvalidPdaError(f"{path} is not a valid PDA")
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
                   help=f"library size N; the N files of F one-byte packets may total at most "
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
