"""Private append-only ledger: signed entries and hash-chained blocks.

Entries are signed by their authoring node; blocks bind entries with a root
digest and chain through prev_hash. Verification is self-certifying: the key
table is rebuilt from NODE_SPEC entries in ledger order, so a dump carries
everything needed to check it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .crypto import DIGEST_SIZE, ZERO_DIGEST, Signer, digest, verify
# `decode` is not called here; perfbench/tracing.py patches it by this name.
from .encoding import EncodingError, decode, decode_at, encode, list_of  # noqa: F401

DUMP_MAGIC = b"CPOOL-LEDGER\x01"
_U32 = struct.Struct(">I")


class LedgerError(Exception):
    """A malformed dump or a rejected append. `height` is the dump block that
    failed to parse, or 0 when no block is to blame (bad header, append)."""

    def __init__(self, message: str, height: int = 0):
        super().__init__(message)
        self.height = height


class EntryKind(Enum):
    NODE_SPEC = "NODE_SPEC"
    JOB_ASSIGN = "JOB_ASSIGN"
    JOB_STATUS = "JOB_STATUS"
    PROGRESS_PROOF = "PROGRESS_PROOF"
    CHALLENGE = "CHALLENGE"
    REWARD_RECORD = "REWARD_RECORD"
    POOL_EVENT = "POOL_EVENT"


@dataclass(frozen=True)
class LedgerEntry:
    """One signed ledger fact.

    An entry's payload is never mutated after construction. An entry may
    store its payload's canonical encoding as `payload_bytes` (in its
    `__dict__`): `sign_entry` stores the bytes it signed until the entry's
    block is sealed, when the block's bytes become the one copy; an entry
    read from a dump keeps the slice it was read from, its only copy. The
    signing bytes, the digest input and the entry's part of a dump are framed
    around the stored bytes, and are not kept: a sealed block keeps its own
    bytes instead. An entry that stores none is encoded again by each
    `frames()`, which stores nothing.
    """

    kind: EntryKind
    author: str
    payload: dict
    signature: bytes

    def frames(self) -> tuple[bytes, bytes]:
        """The signing bytes `[kind, author, payload]` and the wire bytes
        `[kind, author, payload, signature]`, framed around one encoding of
        the kind and author. The wire bytes are the digest input and the
        entry's part of a dump block."""
        payload_bytes = self.__dict__.get("payload_bytes")
        if payload_bytes is None:
            payload_bytes = encode(self.payload)
        items = [encode(self.kind.value), encode(self.author), payload_bytes]
        signing = list_of(items)
        items.append(encode(self.signature))
        return signing, list_of(items)

    def signing_bytes(self) -> bytes:
        return self.frames()[0]


def sign_entry(kind: EntryKind, author: str, payload: dict, signer: Signer) -> LedgerEntry:
    """An entry signed by `signer`. It stores the payload bytes the signature
    was made over until its block is sealed."""
    entry = LedgerEntry(kind, author, payload, b"")
    # No one else holds the entry yet, so this completes its construction.
    entry.__dict__["payload_bytes"] = encode(payload)
    object.__setattr__(entry, "signature", signer.sign(entry.signing_bytes()))
    return entry


def entries_root(wires: list[bytes]) -> bytes:
    """The root over the entries with these wire bytes."""
    return digest(b"".join([digest(wire) for wire in wires]))


def block_digest(height: int, prev_hash: bytes, root: bytes, timestamp: int) -> bytes:
    return digest(encode([height, prev_hash, root, timestamp]))


@dataclass(frozen=True)
class LedgerBlock:
    height: int
    prev_hash: bytes
    root: bytes
    timestamp: int
    digest: bytes
    entries: tuple[LedgerEntry, ...]

    @cached_property
    def wire_bytes(self) -> bytes:
        """The block's canonical encoding, its part of a dump. A sealed block
        has it from its seal; a loaded or rebuilt block frames it here."""
        return self._framed([entry.frames()[1] for entry in self.entries])

    def _framed(self, wires: list[bytes]) -> bytes:
        return list_of([
            encode(self.height),
            encode(self.prev_hash),
            encode(self.root),
            encode(self.timestamp),
            encode(self.digest),
            list_of(wires),
        ])


def _make_block(
    height: int, prev_hash: bytes, timestamp: int, entries: list[LedgerEntry],
    wires: list[bytes],
) -> LedgerBlock:
    """Seal `entries`, whose wire bytes are `wires`; each entry is framed once."""
    root = entries_root(wires)
    block = LedgerBlock(
        height=height,
        prev_hash=prev_hash,
        root=root,
        timestamp=timestamp,
        digest=block_digest(height, prev_hash, root, timestamp),
        entries=tuple(entries),
    )
    # Fills the `wire_bytes` cache, as its first use would. Those bytes are
    # now the one copy of each entry's payload bytes, so the entries drop
    # theirs.
    block.__dict__["wire_bytes"] = block._framed(wires)
    for entry in entries:
        entry.__dict__.pop("payload_bytes", None)
    return block


class _KeyTable:
    """Deed id -> verify key, learned from NODE_SPEC entries in ledger order."""

    def __init__(self) -> None:
        self.keys: dict[str, bytes] = {}

    def check(self, entry: LedgerEntry, signing_bytes: bytes) -> str | None:
        """Return None if the entry's signature over its `signing_bytes` is
        valid, else the reason."""
        if entry.kind == EntryKind.NODE_SPEC:
            declared = entry.payload.get("deed_id")
            key_hex = entry.payload.get("verify_key")
            if declared != entry.author:
                return f"NODE_SPEC author {entry.author!r} != payload deed {declared!r}"
            if not isinstance(key_hex, str):
                return f"NODE_SPEC for {entry.author} lacks a verify_key"
            try:
                key = bytes.fromhex(key_hex)
            except ValueError:
                return f"NODE_SPEC for {entry.author} has a malformed verify_key"
            if not verify(key, signing_bytes, entry.signature):
                return f"NODE_SPEC self-signature for {entry.author} is invalid"
            known = self.keys.get(entry.author)
            if known is not None and known != key:
                return f"NODE_SPEC rekeys {entry.author}"
            self.keys[entry.author] = key
            return None
        key = self.keys.get(entry.author)
        if key is None:
            return f"entry author {entry.author!r} has no registered key"
        if not verify(key, signing_bytes, entry.signature):
            return f"bad signature on {entry.kind.value} entry by {entry.author}"
        return None


@dataclass
class VerifyResult:
    ok: bool
    failing_height: int | None = None
    reason: str | None = None
    blocks: int = 0
    entries: int = 0


class Ledger:
    """Append-only chain with an empty genesis block at height 0, time 0."""

    def __init__(self):
        self.blocks: list[LedgerBlock] = [_make_block(0, ZERO_DIGEST, 0, [], [])]
        self._keys = _KeyTable()

    @property
    def head(self) -> LedgerBlock:
        return self.blocks[-1]

    def append_entries(self, entries: list[LedgerEntry], timestamp: int) -> LedgerBlock:
        """Seal a batch of entries into the next block, all or nothing."""
        if not entries:
            raise LedgerError("cannot seal an empty block")
        if timestamp < self.head.timestamp:
            raise LedgerError(
                f"block timestamp {timestamp} precedes head timestamp {self.head.timestamp}"
            )
        # Validate against a scratch key table so a failing batch leaves no trace.
        scratch = _KeyTable()
        scratch.keys = dict(self._keys.keys)
        wires = []
        for entry in entries:
            signing, wire = entry.frames()
            reason = scratch.check(entry, signing)
            if reason is not None:
                raise LedgerError(reason)
            wires.append(wire)
        self._keys.keys = scratch.keys
        block = _make_block(len(self.blocks), self.head.digest, timestamp, entries, wires)
        self.blocks.append(block)
        return block

    def entries(self):
        for block in self.blocks:
            for entry in block.entries:
                yield block, entry

    def dump(self) -> bytes:
        out = [DUMP_MAGIC, _U32.pack(len(self.blocks))]
        for block in self.blocks:
            blob = block.wire_bytes
            out.append(_U32.pack(len(blob)))
            out.append(blob)
        return b"".join(out)


_KINDS = {kind.value: kind for kind in EntryKind}


def _field(blob: bytes, at: int, want: type, name: str):
    """Decode the field at `at`; it must be exactly of type `want` (so no
    bool passes as an int)."""
    value, end = decode_at(blob, at)
    if type(value) is not want:
        raise EncodingError(f"{name} is {type(value).__name__}, not {want.__name__}")
    return value, end


def _list_header(blob: bytes, at: int, name: str, length: int | None = None) -> tuple[int, int]:
    """The item count of the list at `at`, and the offset of its first item."""
    if blob[at:at + 1] != b"L":
        value, _ = decode_at(blob, at)
        raise EncodingError(f"{name} is {type(value).__name__}, not list")
    if at + 5 > len(blob):
        raise EncodingError("truncated encoding")
    (count,) = _U32.unpack_from(blob, at + 1)
    if length is not None and count != length:
        raise EncodingError(f"{name} has {count} items, not {length}")
    return count, at + 5


def _read_block(blob: bytes) -> LedgerBlock:
    """Parse one block's canonical bytes in a single strict walk.

    The wire form is `[height, prev_hash, root, timestamp, digest, entries]`
    with each entry `[kind, author, payload, signature]`. Every field must
    have its type, and every payload is fully decoded under the canonical
    rules. Each entry stores the slice its payload was read from as its
    `payload_bytes`: canonical decoding makes those the bytes `encode` would
    write, so verification hashes and sign-checks exactly the bytes read.
    """
    _, at = _list_header(blob, 0, "block", 6)
    height, at = _field(blob, at, int, "height")
    prev_hash, at = _field(blob, at, bytes, "prev_hash")
    root, at = _field(blob, at, bytes, "root")
    timestamp, at = _field(blob, at, int, "timestamp")
    dig, at = _field(blob, at, bytes, "digest")
    count, at = _list_header(blob, at, "entries")
    entries = []
    for _ in range(count):
        _, at = _list_header(blob, at, "entry", 4)
        kind, at = _field(blob, at, str, "entry kind")
        if kind not in _KINDS:
            raise EncodingError(f"unknown entry kind {kind!r}")
        author, at = _field(blob, at, str, "entry author")
        start = at
        payload, at = _field(blob, at, dict, "entry payload")
        payload_bytes = blob[start:at]
        signature, at = _field(blob, at, bytes, "entry signature")
        entry = LedgerEntry(_KINDS[kind], author, payload, signature)
        entry.__dict__["payload_bytes"] = payload_bytes
        entries.append(entry)
    if at != len(blob):
        raise EncodingError(f"trailing bytes after value at offset {at}")
    return LedgerBlock(height, prev_hash, root, timestamp, dig, tuple(entries))


def load_blocks(data: bytes) -> list[LedgerBlock]:
    """Parse a dump without verifying it. Raises LedgerError on malformed bytes,
    including a block field of the wrong type, at that block's height."""
    if not data.startswith(DUMP_MAGIC):
        raise LedgerError("not a ledger dump (bad magic)")
    at = len(DUMP_MAGIC)
    if at + 4 > len(data):
        raise LedgerError("truncated dump header")
    (count,) = _U32.unpack_from(data, at)
    at += 4
    blocks: list[LedgerBlock] = []
    for i in range(count):
        if at + 4 > len(data):
            raise LedgerError(f"truncated dump at block {i}", i)
        (size,) = _U32.unpack_from(data, at)
        at += 4
        if at + size > len(data):
            raise LedgerError(f"truncated dump at block {i}", i)
        try:
            blocks.append(_read_block(data[at:at + size]))
        except EncodingError as exc:
            raise LedgerError(f"malformed block {i}: {exc}", i) from None
        at += size
    if at != len(data):
        raise LedgerError("trailing bytes after final block")
    return blocks


def verify_blocks(blocks: list[LedgerBlock]) -> VerifyResult:
    """Check the chain from genesis: structure, digests, links, signatures."""
    if not blocks:
        return VerifyResult(False, 0, "empty chain")
    keys = _KeyTable()
    total_entries = 0
    prev: LedgerBlock | None = None
    for index, block in enumerate(blocks):
        def fail(reason: str) -> VerifyResult:
            return VerifyResult(False, index, reason, len(blocks), total_entries)

        if block.height != index:
            return fail(f"height {block.height} at position {index}")
        if index == 0:
            if block.prev_hash != ZERO_DIGEST:
                return fail("genesis prev_hash is not zero")
            if block.entries:
                return fail("genesis block must be empty")
        else:
            assert prev is not None
            if block.prev_hash != prev.digest:
                return fail("prev_hash does not match previous block digest")
            if not block.entries:
                return fail("non-genesis block has no entries")
        if len(block.prev_hash) != DIGEST_SIZE or len(block.digest) != DIGEST_SIZE:
            return fail("digest field has wrong size")
        if prev is not None and block.timestamp < prev.timestamp:
            return fail("block timestamp decreases")
        frames = [entry.frames() for entry in block.entries]
        if entries_root([wire for _, wire in frames]) != block.root:
            return fail("entries root mismatch")
        if block_digest(block.height, block.prev_hash, block.root, block.timestamp) != block.digest:
            return fail("block digest mismatch")
        for entry, (signing, _) in zip(block.entries, frames):
            reason = keys.check(entry, signing)
            if reason is not None:
                return fail(reason)
            total_entries += 1
        prev = block
    return VerifyResult(True, None, None, len(blocks), total_entries)


def verify_dump(data: bytes) -> VerifyResult:
    try:
        blocks = load_blocks(data)
    except LedgerError as exc:
        return VerifyResult(False, exc.height, str(exc))
    return verify_blocks(blocks)

