from __future__ import annotations

import pytest

from pdakit.combinators import cycle_product
from pdakit.core import PdaArray, params
from pdakit.families import star_graph_coloring, trivial_pda
from pdakit.graphs import coloring_to_pda, pda_to_coloring
from pdakit.scheme import (
    DecodingError,
    FileLibrary,
    SchemeError,
    decode,
    deliver,
    exhaustive_demands,
    place,
    random_demands,
    verify_roundtrip,
)


def test_placement_matches_worked_example(example1):
    lib = FileLibrary.for_array(example1, 2, seed=11)
    caches = place(example1, lib)
    odd = {(1, 1), (1, 3), (2, 1), (2, 3)}
    even = {(1, 2), (1, 4), (2, 2), (2, 4)}
    assert set(caches.caches[0]) == set(caches.caches[2]) == odd
    assert set(caches.caches[1]) == set(caches.caches[3]) == even
    for key, value in caches.caches[0].items():
        assert value == lib.packet(key[0], key[1], example1.F)


def test_cache_size_invariant(example1):
    lib = FileLibrary.for_array(example1, 3, seed=5, bytes_per_packet=4)
    caches = place(example1, lib)
    pr = params(example1)
    per_user = lib.n_files * pr.Z * (lib.file_len // pr.F)
    assert all(caches.user_bytes(k) == per_user for k in range(1, example1.K + 1))


def test_all_star_column_caches_everything():
    p = PdaArray.from_rows([[None], [None], [None]])
    lib = FileLibrary.for_array(p, 2, seed=0)
    caches = place(p, lib)
    assert set(caches.caches[0]) == {(i, j) for i in (1, 2) for j in (1, 2, 3)}


def test_zero_star_array_gives_empty_caches():
    p = PdaArray.from_rows([[1, 2, 3]])
    lib = FileLibrary.for_array(p, 2, seed=0)
    caches = place(p, lib)
    assert all(not c for c in caches.caches)
    assert all(verify_roundtrip(p, lib, d) for d in exhaustive_demands(2, 3))


def _packet_ids(slot, demand) -> frozenset[tuple[int, int]]:
    """The (file, packet) pairs XOR-ed into a slot under a demand."""
    return frozenset((demand[k - 1], j) for j, k in slot.senders)


# Broadcast structure for the 4x4 worked example, by demand vector:
# slot s holds the packets (demand[k], j) over the cells (j, k) of color s.
DELIVERY_TABLE = {
    (1, 2, 2, 1): [{(1, 2), (2, 1)}, {(1, 4), (2, 3)}, {(2, 2), (1, 1)}, {(2, 4), (1, 3)}],
    (1, 1, 1, 1): [{(1, 2), (1, 1)}, {(1, 4), (1, 3)}, {(1, 2), (1, 1)}, {(1, 4), (1, 3)}],
    (1, 1, 1, 2): [{(1, 2), (1, 1)}, {(1, 4), (1, 3)}, {(1, 2), (2, 1)}, {(1, 4), (2, 3)}],
    (1, 1, 2, 2): [{(1, 2), (1, 1)}, {(1, 4), (1, 3)}, {(2, 2), (2, 1)}, {(2, 4), (2, 3)}],
}


@pytest.mark.parametrize("demand", sorted(DELIVERY_TABLE))
def test_delivery_slots_match_published_table(example1, demand):
    lib = FileLibrary.for_array(example1, 2, seed=3)
    log = deliver(example1, lib, demand)
    assert len(log.slots) == 4
    for slot, expected in zip(log.slots, DELIVERY_TABLE[demand]):
        assert _packet_ids(slot, demand) == frozenset(expected)


def test_delivery_payload_is_xor_of_named_packets(example1):
    lib = FileLibrary.for_array(example1, 2, seed=3)
    demand = (1, 2, 2, 1)
    log = deliver(example1, lib, demand)
    w12 = lib.packet(1, 2, 4)
    w21 = lib.packet(2, 1, 4)
    assert log.slots[0].payload == bytes(a ^ b for a, b in zip(w12, w21))


def test_trivial_array_single_slot():
    p = trivial_pda()
    lib = FileLibrary.for_array(p, 1, seed=9)
    log = deliver(p, lib, (1, 1))
    assert len(log.slots) == 1
    assert _packet_ids(log.slots[0], (1, 1)) == frozenset({(1, 1), (1, 2)})


def test_decoding_strips_cached_packets(example1):
    lib = FileLibrary.for_array(example1, 2, seed=21)
    demand = (1, 2, 2, 1)
    caches = place(example1, lib)
    log = deliver(example1, lib, demand)
    rebuilt = decode(example1, caches, log, demand)
    # user 1 rebuilt its packet 2 from slot 1 by stripping the cached (2, 1)
    assert rebuilt[0][1:2] == lib.packet(1, 2, 4)
    for k in range(4):
        assert rebuilt[k] == lib.files[demand[k] - 1]


def test_exhaustive_roundtrip_small_library(example1):
    lib = FileLibrary.for_array(example1, 2, seed=2)
    demands = list(exhaustive_demands(2, 4))
    assert len(demands) == 16
    assert all(verify_roundtrip(example1, lib, d) for d in demands)


def test_roundtrip_single_file_library(example1):
    lib = FileLibrary.for_array(example1, 1, seed=4)
    assert verify_roundtrip(example1, lib, (1, 1, 1, 1))


def test_roundtrip_on_cycle_product_array():
    p = coloring_to_pda(cycle_product(pda_to_coloring(trivial_pda()), 3))
    assert (p.K, p.F) == (6, 6)
    lib = FileLibrary.for_array(p, 6, seed=77)
    for d in random_demands(6, 6, 50, seed=78):
        assert verify_roundtrip(p, lib, d)


def test_roundtrip_policy_sweep_over_generated_arrays():
    """Exhaustive demands when N^K <= 4096, otherwise 200 seeded vectors."""
    from pdakit.combinators import star_product
    from pdakit.families import (
        disjoint_union_coloring,
        intersection_t_coloring,
        restricted_combined_family,
    )

    catalog = [
        (trivial_pda(), 3),
        (coloring_to_pda(disjoint_union_coloring(4, 1, 2)), 2),
        (coloring_to_pda(intersection_t_coloring(4, 2, 2, 1)), 3),
        (coloring_to_pda(star_graph_coloring(3)), 4),
        (coloring_to_pda(star_product([pda_to_coloring(trivial_pda())] * 2)), 3),
        (restricted_combined_family(4, 1, 2, 1), 2),
        (coloring_to_pda(cycle_product(pda_to_coloring(trivial_pda()), 6)), 3),
    ]
    for p, n_files in catalog:
        lib = FileLibrary.for_array(p, n_files, seed=101)
        if n_files**p.K <= 4096:
            demands = list(exhaustive_demands(n_files, p.K))
        else:
            demands = random_demands(n_files, p.K, 200, seed=102)
        assert all(verify_roundtrip(p, lib, d) for d in demands), (p.K, p.F)


def test_condition_c_violation_breaks_decoding():
    bad = PdaArray.from_rows([[1, 2], [2, 1]])
    lib = FileLibrary.for_array(bad, 2, seed=1)
    caches = place(bad, lib)
    demand = (1, 2)
    log = deliver(bad, lib, demand)
    with pytest.raises(DecodingError) as info:
        decode(bad, caches, log, demand)
    assert info.value.user == 1
    assert not verify_roundtrip(bad, lib, demand)


def test_condition_b_violation_corrupts_bytes():
    bad = PdaArray.from_rows([[1], [1]])
    lib = FileLibrary(files=(b"\x01\x02",))
    assert not verify_roundtrip(bad, lib, (1,))


def test_broadcast_count_equals_color_count(example1):
    lib = FileLibrary.for_array(example1, 2, seed=0)
    pr = params(example1)
    log = deliver(example1, lib, (1, 1, 1, 1))
    assert len(log.slots) == pr.S
    assert len(log.slots[0].payload) == lib.file_len // pr.F


def test_divisibility_and_demand_errors(example1):
    with pytest.raises(SchemeError):
        place(example1, FileLibrary(files=(b"\x00" * 5, b"\x01" * 5)))
    lib = FileLibrary.for_array(example1, 2, seed=0)
    with pytest.raises(SchemeError):
        deliver(example1, lib, (1, 1, 1))
    with pytest.raises(SchemeError):
        deliver(example1, lib, (1, 1, 1, 3))


@pytest.mark.parametrize("demand", [(1,), (1, 1, 1, 1, 1)], ids=["short", "long"])
def test_decode_rejects_demand_of_wrong_length(example1, demand):
    lib = FileLibrary.for_array(example1, 2, seed=0)
    log = deliver(example1, lib, (1, 2, 1, 2))
    with pytest.raises(SchemeError, match="demand must list 4 files"):
        decode(example1, place(example1, lib), log, demand)


def test_library_construction_errors():
    with pytest.raises(SchemeError):
        FileLibrary(files=())
    with pytest.raises(SchemeError):
        FileLibrary(files=(b"ab", b"abc"))
    with pytest.raises(SchemeError):
        FileLibrary(files=(b"",))


def test_random_library_and_demands_are_deterministic():
    a = FileLibrary.random(2, 8, seed=42)
    b = FileLibrary.random(2, 8, seed=42)
    assert a == b
    assert random_demands(3, 4, 10, seed=6) == random_demands(3, 4, 10, seed=6)
