from __future__ import annotations

import random

import pytest
from conftest import _roundtrip_catalog, _star_to_color, _walked_classes

from pdakit.combinators import cycle_product, star_product
from pdakit.core import EquivalenceResult, PdaArray, equivalent, params, validate
from pdakit.families import disjoint_union_coloring, trivial_pda
from pdakit.graphs import coloring_to_pda, pda_to_coloring
from pdakit.scheme import (
    BroadcastLog,
    DecodingError,
    FileLibrary,
    SchemeError,
    Slot,
    decode,
    deliver,
    exhaustive_demands,
    place,
    random_demands,
    verify_roundtrip,
)


def _cached(caches, k: int, packets_per_file: int) -> dict[tuple[int, int], bytes]:
    """User k's cache as (file, packet) -> bytes, read from its star rows."""
    lib = caches.library
    return {
        (i, j): lib.packet_ints(i, packets_per_file)[j - 1].to_bytes(caches.packet_bytes, "big")
        for i in range(1, lib.n_files + 1)
        for j in caches.rows[k - 1]
    }


def test_placement_matches_worked_example(example1):
    lib = FileLibrary.for_array(example1, 2, seed=11)
    caches = place(example1, lib)
    odd = {(1, 1), (1, 3), (2, 1), (2, 3)}
    even = {(1, 2), (1, 4), (2, 2), (2, 4)}
    assert set(_cached(caches, 1, 4)) == set(_cached(caches, 3, 4)) == odd
    assert set(_cached(caches, 2, 4)) == set(_cached(caches, 4, 4)) == even
    for key, value in _cached(caches, 1, 4).items():
        assert value == lib.packet(key[0], key[1], example1.F)


def test_cache_size_invariant(example1):
    lib = FileLibrary.random(3, 4 * example1.F, seed=5)
    caches = place(example1, lib)
    pr = params(example1)
    per_user = lib.n_files * pr.Z * (lib.file_len // pr.F)
    assert all(caches.user_bytes(k) == per_user for k in range(1, example1.K + 1))


def test_all_star_column_caches_everything():
    p = PdaArray([[None], [None], [None]])
    lib = FileLibrary.for_array(p, 2, seed=0)
    caches = place(p, lib)
    assert set(_cached(caches, 1, p.F)) == {(i, j) for i in (1, 2) for j in (1, 2, 3)}


def test_zero_star_array_gives_empty_caches():
    p = PdaArray([[1, 2, 3]])
    lib = FileLibrary.for_array(p, 2, seed=0)
    caches = place(p, lib)
    assert all(not rows for rows in caches.rows)
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


def _policy_demands(p: PdaArray, n_files: int) -> list[tuple[int, ...]]:
    """Exhaustive demands when N^K <= 4096, otherwise 200 seeded vectors."""
    if n_files**p.K <= 4096:
        return list(exhaustive_demands(n_files, p.K))
    return random_demands(n_files, p.K, 200, seed=102)


def test_roundtrip_policy_sweep_over_generated_arrays():
    """Exhaustive demands when N^K <= 4096, otherwise 200 seeded vectors."""
    for p, n_files in _roundtrip_catalog():
        lib = FileLibrary.for_array(p, n_files, seed=101)
        demands = _policy_demands(p, n_files)
        assert all(verify_roundtrip(p, lib, d) for d in demands), (p.K, p.F)


def test_condition_c_violation_breaks_decoding():
    bad = PdaArray([[1, 2], [2, 1]])
    lib = FileLibrary.for_array(bad, 2, seed=1)
    caches = place(bad, lib)
    demand = (1, 2)
    log = deliver(bad, lib, demand)
    with pytest.raises(DecodingError) as info:
        decode(bad, caches, log, demand)
    assert info.value.user == 1
    assert not verify_roundtrip(bad, lib, demand)


def test_condition_b_violation_corrupts_bytes():
    bad = PdaArray([[1], [1]])
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


def test_decode_rejects_a_file_outside_the_library(example1):
    lib = FileLibrary.for_array(example1, 2, seed=0)
    log = deliver(example1, lib, (1, 2, 1, 2))
    for demand in [(1, 2, 3, 2), (0, 2, 1, 2)]:
        with pytest.raises(SchemeError, match="library has 1..2"):
            decode(example1, place(example1, lib), log, demand)


def test_protocol_views_are_built_once_per_array_and_only_when_simulated(example1):
    validate(example1)
    assert equivalent(example1, example1) is EquivalenceResult.EQUIVALENT
    assert "color_cells" not in vars(example1) and "star_rows" not in vars(example1)
    lib = FileLibrary.for_array(example1, 3, seed=0)
    first, second = deliver(example1, lib, (1, 2, 1, 2)), deliver(example1, lib, (2, 1, 2, 1))
    assert all(a.senders is b.senders for a, b in zip(first.slots, second.slots))
    assert place(example1, lib).rows is place(example1, lib).rows
    assert lib.packet_ints(1, example1.F) is lib.packet_ints(1, example1.F)
    assert set(lib._packet_ints) == {(example1.F, 1), (example1.F, 2)}  # only demanded files


def test_decode_rejects_a_log_of_the_wrong_slot_count(example1):
    p = trivial_pda()
    lib = FileLibrary.for_array(p, 2, seed=0)
    other = deliver(example1, FileLibrary.for_array(example1, 2, seed=0), (1, 2, 1, 2))
    for log, count in ((BroadcastLog(()), 0), (other, 4)):
        with pytest.raises(SchemeError, match=rf"broadcast log has {count} slots, the array has S=1$"):
            decode(p, place(p, lib), log, (1, 2))


@pytest.mark.parametrize("length", [8, 0, 2])
def test_decode_rejects_a_payload_that_is_not_one_packet_long(length):
    # An 8-byte log used to overflow int.to_bytes, and an empty payload decoded to wrong bytes.
    p = trivial_pda()
    lib = FileLibrary.for_array(p, 2, seed=0)
    log = BroadcastLog(tuple(Slot(slot.color, bytes(length), slot.senders)
                             for slot in deliver(p, lib, (1, 2)).slots))
    with pytest.raises(SchemeError, match=rf"^slot 1 carries {length} bytes, a packet here has 1$"):
        decode(p, place(p, lib), log, (1, 2))


@pytest.mark.parametrize("k", [0, -1, 3])
def test_user_bytes_rejects_a_user_outside_1_to_k(k):
    p = trivial_pda()
    caches = place(p, FileLibrary.for_array(p, 2, seed=0))
    assert [caches.user_bytes(u) for u in (1, 2)] == [2, 2]
    with pytest.raises(SchemeError, match=rf"^no user {k}: the caches hold users 1..2$"):
        caches.user_bytes(k)


def test_the_decode_plan_shares_each_sender_pair_between_users():
    p = coloring_to_pda(star_product([pda_to_coloring(trivial_pda())] * 2))
    assert p.S == 1 and len(p.color_cells[0]) == 4
    users, _ = p.decode_plan
    # Users 1 and 2 both strip column 3's cell, through one shared pair object.
    first, second = ({cell[0]: cell for cell in users[k][0][2]} for k in (0, 1))
    assert first[2] == second[2] and first[2] is second[2]
    # The plan equals one built with a fresh pair per user.
    classes = _walked_classes(p)
    fresh = tuple(
        tuple((j, e - 1, tuple((k2, j2) for j2, k2 in classes[e] if k2 != k)) for j, e in
              ((j, p.grid[j][k]) for j in range(p.F) if p.grid[j][k] is not None))
        for k in range(p.K)
    )
    assert users == fresh


def test_the_decode_plan_is_built_once_per_array_and_only_when_simulated(example1):
    validate(example1)
    assert equivalent(example1, example1) is EquivalenceResult.EQUIVALENT
    assert "decode_plan" not in vars(example1)
    lib = FileLibrary.for_array(example1, 2, seed=0)
    assert verify_roundtrip(example1, lib, (1, 2, 1, 2))
    plan = vars(example1)["decode_plan"]
    log = deliver(example1, lib, (2, 1, 2, 1))
    decode(example1, place(example1, lib), log, (2, 1, 2, 1))
    assert verify_roundtrip(example1, lib, (1, 1, 1, 1))
    assert vars(example1)["decode_plan"] is plan
    users, gap = plan
    # User 1's colored rows 2 and 4 (0-based 1 and 3) strip the cells of colors 1 and 2 in column 2.
    assert users[0] == ((1, 0, ((1, 0),)), (3, 1, ((1, 2),)))
    assert gap is None
    # User 1 needs row 2 of user 2 for slot 1, and has no star there.
    assert PdaArray([[1, 2], [2, 1]]).decode_plan[1] == (1, 1, 2, 2)


def test_library_construction_errors():
    with pytest.raises(SchemeError):
        FileLibrary(files=())
    with pytest.raises(SchemeError):
        FileLibrary(files=(b"ab", b"abc"))
    with pytest.raises(SchemeError):
        FileLibrary(files=(b"",))


@pytest.mark.parametrize(
    "i, j, count",
    [(0, 1, 4), (3, 1, 4), (1, 0, 4), (1, 5, 4), (1, 9, 4), (1, 1, 3), (1, 1, 0)],
    ids=["file-0", "file-past-n", "packet-0", "packet-past-f", "packet-far", "count-3", "count-0"],
)
def test_packet_rejects_a_file_packet_or_count_out_of_range(i, j, count):
    lib = FileLibrary((b"abcd", b"wxyz"))
    message = rf"^cannot take packet {j} of {count} from file {i}: the library has 2 files of 4 bytes$"
    with pytest.raises(SchemeError, match=message):
        lib.packet(i, j, count)
    assert lib.packet(2, 1, 4) == b"w" and lib.packet(1, 4, 4) == b"d" and lib.packet(2, 2, 2) == b"yz"


@pytest.mark.parametrize("i, count", [(0, 4), (3, 4), (1, 3)], ids=["file-0", "file-past-n", "count-3"])
def test_packet_ints_caches_nothing_for_a_bad_file_or_count(i, count):
    lib = FileLibrary((b"abcd", b"wxyz"))
    with pytest.raises(SchemeError):
        lib.packet_ints(i, count)
    assert lib._packet_ints == {}
    assert lib.packet_ints(2, 4) == tuple(b"wxyz")


def test_verify_roundtrip_rejects_files_that_do_not_split_into_f_packets(example1):
    lib = FileLibrary(files=(b"\x00" * 5, b"\x01" * 5))
    message = "^cannot take packet 1 of 4 from file 1: the library has 2 files of 5 bytes$"
    with pytest.raises(SchemeError, match=message):
        verify_roundtrip(example1, lib, (1, 2, 1, 2))


def test_random_library_and_demands_are_deterministic():
    a = FileLibrary.random(2, 8, seed=42)
    b = FileLibrary.random(2, 8, seed=42)
    assert a == b
    assert random_demands(3, 4, 10, seed=6) == random_demands(3, 4, 10, seed=6)


# ---- the per-byte reference ------------------------------------------------
# The protocol as first written: each cache is a dict of copied packet bytes
# and every XOR runs one byte at a time.  The whole-packet path in
# pdakit.scheme must give the same slots, the same decoded files and the same
# DecodingError as this reference.


def _ref_xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _ref_place(p: PdaArray, lib: FileLibrary) -> list[dict[tuple[int, int], bytes]]:
    caches = []
    for k in range(1, p.K + 1):
        cache: dict[tuple[int, int], bytes] = {}
        for j in range(1, p.F + 1):
            if p.grid[j - 1][k - 1] is None:
                for i in range(1, lib.n_files + 1):
                    cache[(i, j)] = lib.packet(i, j, p.F)
        caches.append(cache)
    return caches


def _ref_deliver(p: PdaArray, lib: FileLibrary, d: tuple[int, ...]) -> BroadcastLog:
    size = lib.file_len // p.F
    classes = _walked_classes(p)
    slots = []
    for s in sorted(classes):
        senders = tuple((j0 + 1, k0 + 1) for j0, k0 in classes[s])
        payload = bytes(size)
        for j, k in senders:
            payload = _ref_xor(payload, lib.packet(d[k - 1], j, p.F))
        slots.append(Slot(color=s, payload=payload, senders=senders))
    return BroadcastLog(tuple(slots))


def _ref_decode(p: PdaArray, caches, log: BroadcastLog, d: tuple[int, ...]) -> tuple[bytes, ...]:
    out = []
    for k in range(1, p.K + 1):
        want = d[k - 1]
        cache = caches[k - 1]
        parts = []
        for j in range(1, p.F + 1):
            e = p.grid[j - 1][k - 1]
            if e is None:
                parts.append(cache[(want, j)])
                continue
            slot = log.slots[e - 1]
            acc = slot.payload
            for j2, k2 in slot.senders:
                if k2 == k:
                    continue
                key = (d[k2 - 1], j2)
                if key not in cache:
                    raise DecodingError(user=k, packet=key, slot=e)
                acc = _ref_xor(acc, cache[key])
            parts.append(acc)
        out.append(b"".join(parts))
    return tuple(out)


def _decoded(run):
    """Decoded files, or the DecodingError's (user, packet, slot, message)."""
    try:
        return run()
    except DecodingError as exc:
        return (exc.user, exc.packet, exc.slot, str(exc))


def _assert_matches_reference(p: PdaArray, lib: FileLibrary, demands) -> int:
    """Compare every slot and decoding with the reference; return the error count."""
    caches, ref_caches = place(p, lib), _ref_place(p, lib)
    errors = 0
    for d in demands:
        log, ref_log = deliver(p, lib, d), _ref_deliver(p, lib, d)
        assert log == ref_log, d
        assert all(type(slot.payload) is bytes for slot in log.slots)
        got = _decoded(lambda: decode(p, caches, log, d))
        assert got == _decoded(lambda: _ref_decode(p, ref_caches, ref_log, d)), d
        errors += not isinstance(got[0], bytes)
    return errors


def test_fast_path_matches_reference_on_the_roundtrip_catalog():
    for p, n_files in _roundtrip_catalog():
        lib = FileLibrary.random(n_files, 2 * p.F, seed=103)
        assert _assert_matches_reference(p, lib, _policy_demands(p, n_files)) == 0


@pytest.mark.parametrize("packet_bytes", [1, 3, 256])
def test_fast_path_matches_reference_on_the_simulated_array(packet_bytes):
    p = coloring_to_pda(cycle_product(disjoint_union_coloring(5, 1, 2), 6))
    assert (p.K, p.F, p.S) == (60, 30, 80)
    lib = FileLibrary.random(4, packet_bytes * p.F, seed=packet_bytes)
    demands = random_demands(4, p.K, 12 if packet_bytes == 256 else 40, seed=104 + packet_bytes)
    assert _assert_matches_reference(p, lib, demands) == 0


def test_fast_path_matches_reference_on_condition_c_violations():
    broken = [PdaArray([[1, 2], [2, 1]]), PdaArray([[1], [1]])]
    rng = random.Random(105)
    for p, _ in _roundtrip_catalog():
        if p.S and p.star_count(0):
            broken += [_star_to_color(p, rng) for _ in range(6)]
    errors = 0
    for p in broken:
        lib = FileLibrary.random(2, 3 * p.F, seed=106)
        errors += _assert_matches_reference(p, lib, random_demands(2, p.K, 64, seed=107))
    assert errors > 0


def _ref_roundtrip(p: PdaArray, lib: FileLibrary, d: tuple[int, ...]) -> bool:
    """The round trip composed from the per-byte reference: place, deliver, decode, compare files."""
    try:
        rebuilt = _ref_decode(p, _ref_place(p, lib), _ref_deliver(p, lib, d), d)
    except DecodingError:
        return False
    return all(rebuilt[k] == lib.files[d[k] - 1] for k in range(p.K))


def _assert_roundtrip_matches_reference(p: PdaArray, lib: FileLibrary, demands) -> int:
    """Compare verify_roundtrip with the reference composition; return the failure count."""
    failures = 0
    for d in demands:
        ok = verify_roundtrip(p, lib, d)
        assert ok is _ref_roundtrip(p, lib, d), d
        failures += not ok
    return failures


def test_verify_roundtrip_matches_the_reference_on_the_roundtrip_catalog():
    for p, n_files in _roundtrip_catalog():
        lib = FileLibrary.random(n_files, 2 * p.F, seed=108)
        assert _assert_roundtrip_matches_reference(p, lib, _policy_demands(p, n_files)) == 0


def test_verify_roundtrip_matches_the_reference_on_the_simulated_array():
    p = coloring_to_pda(cycle_product(disjoint_union_coloring(5, 1, 2), 6))
    assert (p.K, p.F) == (60, 30)
    lib = FileLibrary.random(4, 3 * p.F, seed=109)
    assert _assert_roundtrip_matches_reference(p, lib, random_demands(4, p.K, 40, seed=110)) == 0


def test_verify_roundtrip_matches_the_reference_on_condition_b_and_c_violations():
    broken = [PdaArray([[1, 2], [2, 1]]), PdaArray([[1], [1]]), PdaArray([[1, None], [1, None]])]
    rng = random.Random(111)
    for p, _ in _roundtrip_catalog():
        if p.S and p.star_count(0):
            broken += [_star_to_color(p, rng) for _ in range(6)]
    failures = 0
    for p in broken:
        lib = FileLibrary.random(2, 2 * p.F, seed=112)
        failures += _assert_roundtrip_matches_reference(p, lib, random_demands(2, p.K, 64, seed=113))
    assert failures > 0
