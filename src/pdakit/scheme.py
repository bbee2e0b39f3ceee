"""Byte-exact execution of the caching protocol an array encodes.

Placement stores packet (i, j) at user k whenever grid cell (j, k) is a star,
so a user's cache is the set of star rows of its column: it holds those
packets of every library file, which are read from the library, not copied.
Delivery broadcasts, for each color s, the XOR of packets (demand[k], j) over
the cells (j, k) carrying s.  Each user then recovers every missing packet by
XOR-ing the slot with the contributions of the other users, all of which sit
in its cache exactly when the array satisfies condition C.

Every packet is held as one big-endian Python int, so each XOR runs over a
whole packet at once; payloads and decoded files are still exact bytes.

Files, packets, users, and colors are numbered from 1 throughout this module,
matching the validation reports; the grid itself is indexed from 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Iterator, Sequence

from .core import PdaArray


class SchemeError(ValueError):
    """Bad simulation inputs (library shape, demand range, divisibility)."""


class DecodingError(RuntimeError):
    """A packet needed for decoding was not cached.

    Can only happen when the array violates condition C, so hitting this on a
    validated array means the validator itself is broken.
    """

    def __init__(self, user: int, packet: tuple[int, int], slot: int):
        super().__init__(
            f"user {user} cannot decode: packet W_({packet[0]},{packet[1]}) "
            f"needed for slot {slot} is not cached"
        )
        self.user = user
        self.packet = packet
        self.slot = slot


@dataclass(frozen=True)
class FileLibrary:
    """N equal-length files; lengths must divide evenly into F packets."""

    files: tuple[bytes, ...]
    # (packet count F, file i) -> that file's packets as ints, built on first use.
    _packet_ints: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if not self.files:
            raise SchemeError("library needs at least one file")
        length = len(self.files[0])
        if length < 1:
            raise SchemeError("files must be non-empty")
        if any(len(f) != length for f in self.files):
            raise SchemeError("all files must have equal length")

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def file_len(self) -> int:
        return len(self.files[0])

    def packet(self, i: int, j: int, packets_per_file: int) -> bytes:
        """Packet j (1-based) of file i (1-based), out of packets_per_file."""
        if not (1 <= i <= self.n_files and 1 <= j <= packets_per_file) or self.file_len % packets_per_file:
            raise SchemeError(f"cannot take packet {j} of {packets_per_file} from file {i}: "
                              f"the library has {self.n_files} files of {self.file_len} bytes")
        size = self.file_len // packets_per_file
        return self.files[i - 1][(j - 1) * size : j * size]

    def packet_ints(self, i: int, packets_per_file: int) -> tuple[int, ...]:
        """Packets 1..F of file i as big-endian ints, converted once per (F, i)."""
        ints = self._packet_ints.get((packets_per_file, i))
        if ints is None:
            ints = tuple(
                int.from_bytes(self.packet(i, j, packets_per_file), "big")
                for j in range(1, packets_per_file + 1)
            )
            self._packet_ints[(packets_per_file, i)] = ints
        return ints

    @classmethod
    def random(cls, n_files: int, file_len: int, seed: int) -> "FileLibrary":
        """Deterministic pseudorandom contents from a 64-bit seed."""
        rng = random.Random(seed)
        return cls(tuple(rng.randbytes(file_len) for _ in range(n_files)))

    @classmethod
    def for_array(cls, p: PdaArray, n_files: int, seed: int) -> "FileLibrary":
        """Smallest faithful library for p: F one-byte packets per file."""
        return cls.random(n_files, p.F, seed)


@dataclass(frozen=True)
class CacheState:
    """Per-user caches, held as tuples of star rows rather than copied bytes.

    User k holds packet (i, j) of every library file i for each star row j in
    ``rows[k-1]``, an ascending tuple, read from ``library``; each packet is
    ``packet_bytes`` long.
    """

    library: FileLibrary
    rows: tuple[tuple[int, ...], ...]
    packet_bytes: int

    def user_bytes(self, k: int) -> int:
        if not 1 <= k <= len(self.rows):
            raise SchemeError(f"no user {k}: the caches hold users 1..{len(self.rows)}")
        return len(self.rows[k - 1]) * self.library.n_files * self.packet_bytes


@dataclass(frozen=True)
class Slot:
    """One broadcast: the XOR payload for a color and the cells that fed it."""

    color: int
    payload: bytes
    senders: tuple[tuple[int, int], ...]  # 1-based (row, column) cells


@dataclass(frozen=True)
class BroadcastLog:
    """All S slots, in color order 1..S."""

    slots: tuple[Slot, ...]


def _check_demand(p: PdaArray, lib: FileLibrary, demand: Sequence[int]) -> tuple[int, ...]:
    d = tuple(demand)
    if len(d) != p.K:
        raise SchemeError(f"demand must list {p.K} files, got {len(d)}")
    n_files = lib.n_files
    for k, want in enumerate(d, start=1):
        if not 1 <= want <= n_files:
            raise SchemeError(f"user {k} demands file {want}, library has 1..{n_files}")
    return d


def _packet_size(p: PdaArray, lib: FileLibrary) -> int:
    if lib.file_len % p.F != 0:
        raise SchemeError(f"file length {lib.file_len} is not divisible by F={p.F}")
    return lib.file_len // p.F


def place(p: PdaArray, lib: FileLibrary) -> CacheState:
    """Fill caches: user k stores packet (i, j) of every file i when (j, k) is a star."""
    return CacheState(lib, p.star_rows, _packet_size(p, lib))


def _broadcast(p: PdaArray, wanted: list[tuple[int, ...]]) -> list[int]:
    """Per color s, the XOR of packets (demand[k], j) over its cells (j, k), as an int."""
    sent = []
    for senders in p.color_cells:
        payload = 0
        for j, k in senders:
            payload ^= wanted[k - 1][j - 1]
        sent.append(payload)
    return sent


def _decoded(p: PdaArray, sent: list[int], wanted: list[tuple[int, ...]], d: tuple[int, ...]) -> list[list[int]]:
    """Per user, each colored row's packet as an int: its slot with the other senders' packets stripped."""
    users, gap = p.decode_plan
    if gap is not None:
        k, s, k2, j2 = gap
        raise DecodingError(user=k, packet=(d[k2 - 1], j2), slot=s)
    out = []
    for steps in users:
        ints = []
        for _, e, others in steps:
            acc = sent[e]
            for k2, j2 in others:
                acc ^= wanted[k2][j2]
            ints.append(acc)
        out.append(ints)
    return out


def deliver(p: PdaArray, lib: FileLibrary, demand: Sequence[int]) -> BroadcastLog:
    """One slot per color: XOR of packets (demand[k], j) over cells (j, k) of that color."""
    size = _packet_size(p, lib)
    d = _check_demand(p, lib, demand)
    sent = _broadcast(p, [lib.packet_ints(i, p.F) for i in d])
    return BroadcastLog(tuple(
        Slot(color=s, payload=payload.to_bytes(size, "big"), senders=senders)
        for s, (payload, senders) in enumerate(zip(sent, p.color_cells), start=1)
    ))


def decode(
    p: PdaArray, caches: CacheState, log: BroadcastLog, demand: Sequence[int]
) -> tuple[bytes, ...]:
    """Reconstruct every user's demanded file from its cache and the broadcast.

    For a colored cell (j, k) with color s, user k strips the other
    contributors' packets out of slot s; those packets are cached whenever the
    array satisfies condition C, otherwise DecodingError identifies the gap.
    The senders come from the array, so of the log only its payloads are read,
    and each must be one packet long.
    """
    lib, size = caches.library, caches.packet_bytes
    d = _check_demand(p, lib, demand)
    if len(log.slots) != p.S:
        raise SchemeError(f"broadcast log has {len(log.slots)} slots, the array has S={p.S}")
    for s, slot in enumerate(log.slots, start=1):
        if len(slot.payload) != size:
            raise SchemeError(f"slot {s} carries {len(slot.payload)} bytes, a packet here has {size}")
    wanted = [lib.packet_ints(i, p.F) for i in d]
    decoded = _decoded(p, [int.from_bytes(slot.payload, "big") for slot in log.slots], wanted, d)
    out = []
    for i, steps, ints in zip(d, p.decode_plan[0], decoded):
        cached = lib.files[i - 1]  # read only at the star rows, one slice per run of them
        parts, at = [], 0
        for (j, _, _), acc in zip(steps, ints):
            parts += cached[at * size : j * size], acc.to_bytes(size, "big")
            at = j + 1
        parts.append(cached[at * size :])
        out.append(b"".join(parts))
    return tuple(out)


def verify_roundtrip(p: PdaArray, lib: FileLibrary, demand: Sequence[int]) -> bool:
    """Deliver and decode on ints, and compare each colored row's packet with the library's.

    A star row is the library's own packet.  Packets are fixed-width and
    big-endian, so equal ints are equal bytes: no slot or byte string is built.
    A file length that F does not divide is refused as ``place`` and ``deliver`` refuse it.
    """
    _packet_size(p, lib)
    d = _check_demand(p, lib, demand)
    files = {i: lib.packet_ints(i, p.F) for i in set(d)}
    wanted = [files[i] for i in d]
    try:
        decoded = _decoded(p, _broadcast(p, wanted), wanted, d)
    except DecodingError:
        return False
    return all(acc == mine[j] for mine, steps, ints in zip(wanted, p.decode_plan[0], decoded)
               for (j, _, _), acc in zip(steps, ints))


def exhaustive_demands(n_files: int, users: int) -> Iterator[tuple[int, ...]]:
    """All n_files**users demand vectors, lexicographic."""
    return iproduct(range(1, n_files + 1), repeat=users)


def iter_random_demands(n_files: int, users: int, count: int, seed: int) -> Iterator[tuple[int, ...]]:
    """``random_demands``, drawn one demand vector at a time."""
    rng = random.Random(seed)
    return (tuple(rng.randint(1, n_files) for _ in range(users)) for _ in range(count))


def random_demands(n_files: int, users: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Deterministic sample of demand vectors from a seed."""
    return list(iter_random_demands(n_files, users, count, seed))
