"""The benchmark's workloads: sweep, products and simulate.

Each workload prepares its inputs from the seed (set-up), then runs passes
(the timed phase).  A pass makes every call into pdakit through a tracer and
checks every output.  The seed drives the sweep order, the relabelings, the
file contents and the demands; pdakit receives only those generated inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

from pdakit import analytics, combinators, core, families, graphs, scheme


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  FULL is the benchmark; SMOKE runs in about a second."""

    sweep_n: int = 9
    star_factors: int = 10
    cycle_base: tuple = (6, 2, 2)
    cycle_m: int = 6
    tensor_left: tuple = (4, 1, 2)
    tensor_right: tuple = (5, 2, 2, 1)  # regular, so the tensor law below holds
    equiv_budget: int = 20_000
    roundtrip_files: int = 2
    sim_base: tuple = (5, 1, 2)
    sim_m: int = 6
    sim_files: int = 4
    packet_bytes: int = 256
    demands_per_pass: int = 100


FULL = Sizes()
SMOKE = Sizes(
    sweep_n=5,
    star_factors=3,
    cycle_base=(4, 1, 2),
    cycle_m=3,
    tensor_left=(3, 1, 1),
    tensor_right=(4, 2, 2, 1),
    equiv_budget=2_000,
    sim_base=(4, 1, 2),
    sim_m=3,
    packet_bytes=8,
    demands_per_pass=12,
)


# ---- computed work counts (traced passes only) ----------------------------

def _pairs(class_sizes) -> int:
    return sum(c * (c - 1) // 2 for c in class_sizes)


def grid_class_sizes(p: core.PdaArray) -> list[int]:
    return list(Counter(e for row in p.grid for e in row if e is not None).values())


def triple_class_sizes(g: graphs.ColoredBipartiteGraph) -> list[int]:
    return list(Counter(s for _, _, s in g.triples).values())


def xor_bytes(p: core.PdaArray, packet: int) -> int:
    """Bytes one demand XORs: each slot of color c XORs its |c| packets, and
    each receiver of a color-c cell strips the |c| - 1 others."""
    return packet * sum(c * c for c in grid_class_sizes(p))


# ---- the two oracles and the closed-form comparison -----------------------

def grid_oracle(tr, p: core.PdaArray) -> bool:
    if tr.enabled:
        tr.count("core.pair_checks", _pairs(grid_class_sizes(p)))
    return tr.call("core.validate", core.validate, p).is_valid


def graph_oracle(tr, p: core.PdaArray) -> bool:
    g = tr.call("graphs.pda_to_coloring", graphs.pda_to_coloring, p)
    if tr.enabled:
        tr.count("graphs.pair_checks", _pairs(triple_class_sizes(g)))
    return tr.call("graphs.is_strong_coloring", graphs.is_strong_coloring, g).is_valid


def measured_params(tr, p: core.PdaArray):
    """params(p), or None when the grid oracle rejects p."""
    if tr.enabled:
        tr.count("core.pair_checks", _pairs(grid_class_sizes(p)))
    try:
        return tr.call("core.params", core.params, p)
    except core.InvalidPdaError:
        return None


def as_closed_form(rec: core.ParamRecord) -> tuple:
    """(K, F, 1 - M/N, R) of a measured array, exact."""
    return (rec.K, rec.F, 1 - rec.ratio, rec.rate)


def row_closed_form(row: analytics.SchemeRow) -> tuple:
    return (row.K, row.F, row.one_minus_MN, row.R)


def law_closed_form(K: int, F: int, Z: int, S: int) -> tuple:
    return (K, F, Fraction(F - Z, F), Fraction(S, F))


# ---- sweep ----------------------------------------------------------------

@dataclass
class SweepInputs:
    cases: list


def prepare_sweep(seed: int, sizes: Sizes, workdir: Path) -> SweepInputs:
    n = sizes.sweep_n
    cases = [(n, a, b, t) for a in range(1, n) for b in range(1, n - a + 1) for t in range(b)]
    random.Random(seed).shuffle(cases)
    return SweepInputs(cases)


def sweep_pass(inp: SweepInputs, ps) -> None:
    """Every legal restricted_combined_family(n, a, b, t): both oracles and the closed forms."""
    tr, checks = ps.tr, ps.checks
    for n, a, b, t in inp.cases:
        label = f"{n}/{a}/{b}/{t}"
        with ps.item("array", label):
            p = tr.call(
                "families.restricted_combined_family", families.restricted_combined_family, n, a, b, t
            )
            if tr.enabled:
                tr.count("families.cells_out", p.F * p.K)
            rec = measured_params(tr, p)
            checks.check("oracle_agreement", (rec is not None) == graph_oracle(tr, p), label)
            row = tr.call(
                "analytics.restricted_family_params", analytics.restricted_family_params, n, a, b, t
            )
            ok = rec is not None and as_closed_form(rec) == row_closed_form(row)
            checks.check("closed_form", ok, label)


def sweep_shapes(inp: SweepInputs) -> dict:
    return {"n": inp.cases[0][0], "arrays": len(inp.cases)}


# ---- products -------------------------------------------------------------

@dataclass
class ProductsInputs:
    workdir: Path
    files: dict            # base array name -> path, written at set-up
    expected: dict         # product name -> closed form, or None for the cycle product
    relabel_seeds: dict    # product name -> seed of its relabeled twin
    library: scheme.FileLibrary
    demands: list
    sizes: Sizes


def _save(tr, path: Path, p: core.PdaArray) -> None:
    text = tr.call("core.write_pda", core.write_pda, p)
    if tr.enabled:
        tr.count("core.io_bytes", len(text))
    path.write_text(text)


def _load(tr, path: Path) -> core.PdaArray:
    text = path.read_text()
    if tr.enabled:
        tr.count("core.io_bytes", len(text))
    return tr.call("core.read_pda", core.read_pda, text)


def prepare_products(seed: int, sizes: Sizes, workdir: Path) -> ProductsInputs:
    """Write the base arrays (the `pdakit build` step) and draw the seeded inputs."""
    bases = {
        "trivial": families.trivial_pda(),
        "cycle_base": graphs.coloring_to_pda(families.disjoint_union_coloring(*sizes.cycle_base)),
        "tensor_left": graphs.coloring_to_pda(families.disjoint_union_coloring(*sizes.tensor_left)),
        "tensor_right": graphs.coloring_to_pda(families.intersection_t_coloring(*sizes.tensor_right)),
    }
    files = {}
    for name, p in bases.items():
        files[name] = workdir / f"{name}.pda"
        files[name].write_text(core.write_pda(p))

    t, left, right = (core.params(bases[k]) for k in ("trivial", "tensor_left", "tensor_right"))
    m = sizes.star_factors
    star = law_closed_form(t.K**m, t.F**m, t.F**m - t.g**m, t.S**m)
    # Tensor law for a bipartite first factor and a regular second one:
    # each side of the first factor is paired with every vertex of the second.
    v2 = right.K + right.F
    tensor = law_closed_form(left.K * v2, left.F * v2, left.F * v2 - left.g * right.g, left.S * right.S)

    rng = random.Random(seed)
    relabel_seeds = {name: rng.getrandbits(64) for name in ("star", "cycle", "tensor")}
    users = sizes.cycle_m * t.K
    file_len = sizes.cycle_m * t.F  # one byte per packet
    library = scheme.FileLibrary(tuple(rng.randbytes(file_len) for _ in range(sizes.roundtrip_files)))
    demands = list(iproduct(range(1, sizes.roundtrip_files + 1), repeat=users))
    return ProductsInputs(
        workdir, files, {"star": star, "cycle": None, "tensor": tensor},
        relabel_seeds, library, demands, sizes,
    )


def relabel(p: core.PdaArray, rng: random.Random) -> core.PdaArray:
    """A seeded row, column and color relabeling of p."""
    rows, cols, colors = list(range(p.F)), list(range(p.K)), list(range(1, p.S + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(colors)
    cmap = dict(zip(range(1, p.S + 1), colors))
    cmap[None] = None
    return core.PdaArray(tuple(tuple(cmap[p.grid[r][c]] for c in cols) for r in rows))


def _combine(ps, mode: str, paths: list, out: Path, m: int | None = None) -> core.PdaArray:
    """`pdakit combine`: read and validate the inputs, apply the operator, convert, write."""
    tr = ps.tr
    arrays = [_load(tr, path) for path in paths]
    for path, p in zip(paths, arrays):
        ps.checks.check("input_valid", grid_oracle(tr, p), path.name)
    colorings = [tr.call("graphs.pda_to_coloring", graphs.pda_to_coloring, p) for p in arrays]
    if mode == "star":
        g = tr.call("combinators.star_product", combinators.star_product, colorings)
        made = len(g.triples)
    elif mode == "cycle":
        g = tr.call("combinators.cycle_product", combinators.cycle_product, colorings[0], m)
        made = len(g.triples)
    else:
        g1, g2 = (tr.call("graphs.as_general_graph", graphs.as_general_graph, c) for c in colorings)
        product = tr.call("combinators.tensor_product", combinators.tensor_product, g1, g2)
        made = len(product.colored_edges)
        left = [v for v in product.vertices if v[0][0] == "row"]
        g = tr.call("graphs.split_bipartite", graphs.split_bipartite, product, left)
    if tr.enabled:
        tr.count("combinators.triples_out", made)
        tr.count("graphs.pair_checks", _pairs(triple_class_sizes(g)))
    p = tr.call("graphs.coloring_to_pda", graphs.coloring_to_pda, g)
    _save(tr, out, p)
    return p


def _certify(ps, name: str, path: Path, expected, sizes: Sizes) -> core.PdaArray:
    """`pdakit validate` and `pdakit params` on a written product, plus the graph oracle."""
    tr, checks = ps.tr, ps.checks
    q = _load(tr, path)
    grid_ok = grid_oracle(tr, q)
    checks.check("oracle_agreement", grid_ok == graph_oracle(tr, q), name)
    rec = measured_params(tr, q)
    if expected is None:
        n, a, b = sizes.cycle_base
        row = tr.call("analytics.cycle_family_params", analytics.cycle_family_params, n, a, b, sizes.cycle_m)
        expected = row_closed_form(row)
    checks.check("closed_form", rec is not None and as_closed_form(rec) == expected, name)
    return q


def products_pass(inp: ProductsInputs, ps) -> None:
    """Star, cycle and tensor products through the CLI's sequence, then a simulate round trip."""
    tr, checks, sizes, files = ps.tr, ps.checks, inp.sizes, inp.files
    plans = {
        "star": ("star", [files["trivial"]] * sizes.star_factors, None),
        "cycle": ("cycle", [files["cycle_base"]], sizes.cycle_m),
        "tensor": ("tensor", [files["tensor_left"], files["tensor_right"]], None),
    }
    for name, (mode, paths, m) in plans.items():
        out = inp.workdir / f"{name}.pda"
        q = None
        with ps.item("product", name):
            p = _combine(ps, mode, paths, out, m)
            q = _certify(ps, name, out, inp.expected[name], sizes)
            checks.check("io_roundtrip", q == p, name)
            del p
        if q is None:
            continue
        twin = relabel(q, random.Random(inp.relabel_seeds[name]))
        with ps.item("equivalence", name):
            result = None
            try:
                result = tr.call("core.equivalent", core.equivalent, q, twin, budget=sizes.equiv_budget)
            finally:
                if tr.enabled and result is not core.EquivalenceResult.EQUIVALENT:
                    tr.count("core.equivalent.failed", 1)
            if result is core.EquivalenceResult.BUDGET_EXHAUSTED:
                checks.fail("equivalence", f"{name}: budget of {sizes.equiv_budget} nodes exhausted")
            else:
                checks.check("equivalence", result is core.EquivalenceResult.EQUIVALENT, name)

    # `pdakit simulate --files N` on the cycle product of the trivial array.
    out = inp.workdir / "roundtrip.pda"
    p = None
    with ps.item("product", "roundtrip"):
        _combine(ps, "cycle", [files["trivial"]], out, sizes.cycle_m)
        p = _load(tr, out)
        checks.check("input_valid", grid_oracle(tr, p), out.name)
    if p is None:
        return
    lib = inp.library
    packet = lib.file_len // p.F
    if tr.enabled:  # verify_roundtrip places, delivers and decodes on every call
        per_call = {
            "scheme.xor_bytes": xor_bytes(p, packet),
            "scheme.broadcast_bytes": p.S * packet,
            "scheme.cached_bytes": p.K * p.star_count(0) * lib.n_files * packet,
        }
    for i, d in enumerate(inp.demands):
        with ps.item("demand", str(i)):
            ok = tr.call("scheme.verify_roundtrip", scheme.verify_roundtrip, p, lib, d)
            checks.check("demand", ok, f"demand {i}")
            if ok:
                ps.verified_bytes += p.K * lib.file_len
            if tr.enabled:
                for name, n in per_call.items():
                    tr.count(name, n)


def products_shapes(inp: ProductsInputs) -> dict:
    s = inp.sizes
    return {
        "star_factors": s.star_factors,
        "cycle": {"base": s.cycle_base, "m": s.cycle_m},
        "tensor": {"left": s.tensor_left, "right": s.tensor_right},
        "equiv_budget": s.equiv_budget,
        "roundtrip": {"files": inp.library.n_files, "file_bytes": inp.library.file_len,
                      "demands": len(inp.demands)},
    }


# ---- simulate -------------------------------------------------------------

@dataclass
class SimulateInputs:
    p: core.PdaArray
    library: scheme.FileLibrary
    rng: random.Random
    demands_per_pass: int


def prepare_simulate(seed: int, sizes: Sizes, workdir: Path) -> SimulateInputs:
    base = families.disjoint_union_coloring(*sizes.sim_base)
    p = graphs.coloring_to_pda(combinators.cycle_product(base, sizes.sim_m))
    rng = random.Random(seed)
    library = scheme.FileLibrary(
        tuple(rng.randbytes(p.F * sizes.packet_bytes) for _ in range(sizes.sim_files))
    )
    return SimulateInputs(p, library, rng, sizes.demands_per_pass)


def simulate_pass(inp: SimulateInputs, ps) -> None:
    """Place once, then deliver, decode and verify each random demand, with exact byte accounting."""
    tr, checks, p, lib = ps.tr, ps.checks, inp.p, inp.library
    demands = [
        tuple(inp.rng.randint(1, lib.n_files) for _ in range(p.K)) for _ in range(inp.demands_per_pass)
    ]
    with ps.item("placement", "place"):
        rec = measured_params(tr, p)
        caches = tr.call("scheme.place", scheme.place, p, lib)
        library_bytes = lib.n_files * lib.file_len
        held = [caches.user_bytes(k) for k in range(1, p.K + 1)]
        checks.check("cache_accounting", all(Fraction(b, library_bytes) == rec.ratio for b in held))
        if tr.enabled:
            tr.count("scheme.cached_bytes", sum(held))
    per_demand_xor = xor_bytes(p, lib.file_len // p.F) if tr.enabled else 0
    for i, d in enumerate(demands):
        with ps.item("demand", str(i)):
            log = tr.call("scheme.deliver", scheme.deliver, p, lib, d)
            out = tr.call("scheme.decode", scheme.decode, p, caches, log, d)
            ok = all(out[k] == lib.files[d[k] - 1] for k in range(p.K))
            checks.check("demand", ok, f"demand {i}")
            sent = sum(len(slot.payload) for slot in log.slots)
            checks.check("broadcast_accounting", Fraction(sent, lib.file_len) == rec.rate, f"demand {i}")
            if ok:
                ps.verified_bytes += p.K * lib.file_len
            if tr.enabled:
                tr.count("scheme.xor_bytes", per_demand_xor)
                tr.count("scheme.broadcast_bytes", sent)


def simulate_shapes(inp: SimulateInputs) -> dict:
    p, lib = inp.p, inp.library
    return {"K": p.K, "F": p.F, "S": p.S, "files": lib.n_files,
            "packet_bytes": lib.file_len // p.F, "demands_per_pass": inp.demands_per_pass}


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # the work item whose latency is item_p50_ms / item_p90_ms
    prepare: object
    run_pass: object
    shapes: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "array", prepare_sweep, sweep_pass, sweep_shapes),
        Workload("products", "demand", prepare_products, products_pass, products_shapes),
        Workload("simulate", "demand", prepare_simulate, simulate_pass, simulate_shapes),
    )
}
