"""Byte-level execution of the caching protocol an array encodes.

Placement stores packet (i, j) at user k whenever grid cell (j, k) is a star.
Delivery broadcasts, for each color s, the XOR of packets (demand[k], j) over
the cells (j, k) carrying s.  Each user then recovers every missing packet by
XOR-ing the slot with the contributions of the other users, all of which sit
in its cache exactly when the array satisfies condition C.

Files, packets, users, and colors are numbered from 1 throughout this module,
matching the validation reports; the grid itself is indexed from 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterator, Mapping, Sequence

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


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class FileLibrary:
    """N equal-length files; lengths must divide evenly into F packets."""

    files: tuple[bytes, ...]

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
        size = self.file_len // packets_per_file
        return self.files[i - 1][(j - 1) * size : j * size]

    @classmethod
    def random(cls, n_files: int, file_len: int, seed: int) -> "FileLibrary":
        """Deterministic pseudorandom contents from a 64-bit seed."""
        rng = random.Random(seed)
        return cls(tuple(rng.randbytes(file_len) for _ in range(n_files)))

    @classmethod
    def for_array(cls, p: PdaArray, n_files: int, seed: int, bytes_per_packet: int = 1) -> "FileLibrary":
        """Smallest faithful library for p: file length F * bytes_per_packet."""
        return cls.random(n_files, p.F * bytes_per_packet, seed)


@dataclass(frozen=True)
class CacheState:
    """Per-user caches: user k holds ``caches[k-1]``, keyed by (file, packet)."""

    caches: tuple[Mapping[tuple[int, int], bytes], ...]

    def user_bytes(self, k: int) -> int:
        return sum(len(v) for v in self.caches[k - 1].values())


@dataclass(frozen=True)
class Slot:
    """One broadcast: the XOR payload for a color and the cells that fed it."""

    color: int
    payload: bytes
    senders: tuple[tuple[int, int], ...]  # 1-based (row, column) cells

    def packet_ids(self, demand: Sequence[int]) -> frozenset[tuple[int, int]]:
        """The (file, packet) pairs XOR-ed into this slot under a demand."""
        return frozenset((demand[k - 1], j) for j, k in self.senders)


@dataclass(frozen=True)
class BroadcastLog:
    """All S slots, in color order 1..S."""

    slots: tuple[Slot, ...]

    @property
    def broadcast_count(self) -> int:
        return len(self.slots)


def _check_length(p: PdaArray, demand: Sequence[int]) -> tuple[int, ...]:
    d = tuple(demand)
    if len(d) != p.K:
        raise SchemeError(f"demand must list {p.K} files, got {len(d)}")
    return d


def _check_demand(p: PdaArray, lib: FileLibrary, demand: Sequence[int]) -> tuple[int, ...]:
    d = _check_length(p, demand)
    for k, want in enumerate(d, start=1):
        if not 1 <= want <= lib.n_files:
            raise SchemeError(f"user {k} demands file {want}, library has 1..{lib.n_files}")
    return d


def _packet_size(p: PdaArray, lib: FileLibrary) -> int:
    if lib.file_len % p.F != 0:
        raise SchemeError(f"file length {lib.file_len} is not divisible by F={p.F}")
    return lib.file_len // p.F


def place(p: PdaArray, lib: FileLibrary) -> CacheState:
    """Fill caches: user k stores packet (i, j) of every file i when (j, k) is a star."""
    _packet_size(p, lib)
    caches = []
    for k in range(1, p.K + 1):
        cache: dict[tuple[int, int], bytes] = {}
        for j in range(1, p.F + 1):
            if p.grid[j - 1][k - 1] is None:
                for i in range(1, lib.n_files + 1):
                    cache[(i, j)] = lib.packet(i, j, p.F)
        caches.append(cache)
    return CacheState(tuple(caches))


def deliver(p: PdaArray, lib: FileLibrary, demand: Sequence[int]) -> BroadcastLog:
    """One slot per color: XOR of packets (demand[k], j) over cells (j, k) of that color."""
    size = _packet_size(p, lib)
    d = _check_demand(p, lib, demand)
    classes = p.entries_by_color()
    slots = []
    for s in sorted(classes):
        senders = tuple((j0 + 1, k0 + 1) for j0, k0 in classes[s])
        payload = bytes(size)
        for j, k in senders:
            payload = _xor(payload, lib.packet(d[k - 1], j, p.F))
        slots.append(Slot(color=s, payload=payload, senders=senders))
    return BroadcastLog(tuple(slots))


def decode(
    p: PdaArray, caches: CacheState, log: BroadcastLog, demand: Sequence[int]
) -> tuple[bytes, ...]:
    """Reconstruct every user's demanded file from its cache and the broadcast.

    For a colored cell (j, k) with color s, user k strips the other
    contributors' packets out of slot s; those packets are cached whenever the
    array satisfies condition C, otherwise DecodingError identifies the gap.
    """
    d = _check_length(p, demand)
    out = []
    for k in range(1, p.K + 1):
        want = d[k - 1]
        cache = caches.caches[k - 1]
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
                acc = _xor(acc, cache[key])
            parts.append(acc)
        out.append(b"".join(parts))
    return tuple(out)


def verify_roundtrip(p: PdaArray, lib: FileLibrary, demand: Sequence[int]) -> bool:
    """Place, deliver, decode, and compare every reconstruction byte for byte."""
    d = _check_demand(p, lib, demand)
    caches = place(p, lib)
    log = deliver(p, lib, d)
    try:
        rebuilt = decode(p, caches, log, d)
    except DecodingError:
        return False
    return all(rebuilt[k - 1] == lib.files[d[k - 1] - 1] for k in range(1, p.K + 1))


def exhaustive_demands(n_files: int, users: int) -> Iterator[tuple[int, ...]]:
    """All n_files**users demand vectors, lexicographic."""
    return iproduct(range(1, n_files + 1), repeat=users)


def random_demands(n_files: int, users: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Deterministic sample of demand vectors from a seed."""
    rng = random.Random(seed)
    return [tuple(rng.randint(1, n_files) for _ in range(users)) for _ in range(count)]
