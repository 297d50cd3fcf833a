"""Private append-only ledger: signed entries and hash-chained blocks.

Entries are signed by their authoring node; blocks bind entries with a root
digest and chain through prev_hash. Verification is self-certifying: the key
table is rebuilt from NODE_SPEC entries in ledger order, so a dump carries
everything needed to check it.

One rule, `_seal`, makes a block on both paths: `append_entries` builds the
next block from it, and `verify_blocks` re-seals each block's entries after
the block before it (block 0 must be `GENESIS`), which must reproduce its
height, link, root and digest, or fail with the reason an append would give.

Every payload must have one of the shapes in `SCHEMAS`: the exact keys its
kind (and, where one kind writes several shapes, its variant) writes, each of
its exact type. The check runs on every entry, both when a block is sealed
and when a dump is verified, so an entry the protocol could not apply is
never sealed, and a dump that holds one fails at that entry's block. Readers
of admitted entries trust their shape.
"""

from __future__ import annotations

import re
import struct
from collections import ChainMap
from collections.abc import MutableMapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd

from .crypto import ZERO_DIGEST, Signer, digest, verify
# `decode` is not called here; perfbench/tracing.py patches it by this name.
from .encoding import EncodingError, decode, decode_at, encode, list_of  # noqa: F401

DUMP_MAGIC = b"CPOOL-LEDGER\x01"
_U32 = struct.Struct(">I")


class LedgerError(Exception):
    """A malformed dump or a batch `_seal` refuses. `height` is the dump block
    that failed to parse, or 0 when no block is to blame (bad header, seal)."""

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


_EMPTY_ROOT = entries_root([])
# The empty block at height 0, time 0, that every chain starts from.
GENESIS = LedgerBlock(0, ZERO_DIGEST, _EMPTY_ROOT, 0,
                      block_digest(0, ZERO_DIGEST, _EMPTY_ROOT, 0), ())


# -- payload schemas ---------------------------------------------------------
#
# A rule is a type, which the value must be exactly (so no bool passes as an
# int); a string leaf, a predicate over strings whose docstring names what it
# accepts; a dict, a map with exactly these keys, each value fitting its rule;
# `[rule]`, a list of any length; `(rule, ...)`, a list with one item per
# rule; or `_MapOf(rule)`, a map from any keys to values of one rule.

_AMOUNT_TEXT = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def _amount(text: str) -> bool:
    """a token amount in lowest terms"""
    # Exactly the strings `str(Fraction)` writes: no sign on zero, no
    # leading zeros, and a denominator other than 1 sharing no factor with
    # the numerator.
    match = _AMOUNT_TEXT.fullmatch(text)
    if match is None:
        return False
    numerator, denominator = match.groups()
    try:
        return denominator is None or (
            denominator != "1" and gcd(int(numerator), int(denominator)) == 1)
    except ValueError:  # more digits than `int` converts
        return False


def _hex(text: str) -> bool:
    """lowercase hex"""
    try:
        return bytes.fromhex(text).hex() == text  # `fromhex` also reads "AB" and spaces
    except ValueError:
        return False


@dataclass(frozen=True)
class _MapOf:
    values: object


def _mismatch(rule, value) -> str | None:
    """None if `value` fits `rule`, else the path below `value` of the first
    field that does not, and what is wrong with it."""
    if isinstance(rule, type):
        if type(value) is rule:
            return None
        return f": expected {rule.__name__}, got {type(value).__name__}"
    if isinstance(rule, (dict, _MapOf)):
        if type(value) is not dict:
            return f": expected map, got {type(value).__name__}"
        if isinstance(rule, _MapOf):
            fields = [(key, rule.values) for key in value]
        elif value.keys() != rule.keys():
            missing = sorted(rule.keys() - value.keys())
            return f": missing {missing}, unknown {sorted(value.keys() - rule.keys())}"
        else:
            fields = rule.items()
        for key, field_rule in fields:
            field = value[key]
            # `type(field) is field_rule` is a type rule met without a call.
            if type(field) is not field_rule:
                reason = _mismatch(field_rule, field)
                if reason is not None:
                    return f".{key}{reason}"
        return None
    if isinstance(rule, (list, tuple)):
        if type(value) is not list:
            return f": expected list, got {type(value).__name__}"
        if isinstance(rule, list):
            rule = rule * len(value)
        elif len(value) != len(rule):
            return f": expected {len(rule)} items, got {len(value)}"
        for index, (item_rule, item) in enumerate(zip(rule, value)):
            if type(item) is not item_rule:
                reason = _mismatch(item_rule, item)
                if reason is not None:
                    return f"[{index}]{reason}"
        return None
    if type(value) is str and rule(value):
        return None
    return f": expected {rule.__doc__}, got {value!r:.40}"


_NODE = {"deed_id": str, "verify_key": _hex, "region": str}
_CAPABILITY = {"cpu": float, "gpu": bool, "gpu_units": float, "memory": float}

# The field whose value tells apart the shapes of a kind that writes several.
# A node's NODE_SPEC has no `role`; the coordinator's has "coordinator".
_VARIANT_FIELD = {
    EntryKind.NODE_SPEC: "role",
    EntryKind.JOB_STATUS: "status",
    EntryKind.CHALLENGE: "phase",
    EntryKind.POOL_EVENT: "event",
}

# (kind, variant) -> the payload's fields. The variant is the value of the
# kind's `_VARIANT_FIELD`, or None where the payload has none. The POOL_EVENT
# variants are the pool events the README lists.
SCHEMAS = {
    (EntryKind.NODE_SPEC, "coordinator"): dict(_NODE, role=str),
    (EntryKind.NODE_SPEC, None): dict(_NODE, capability=_CAPABILITY, balance=_amount),
    (EntryKind.JOB_ASSIGN, None): dict(
        job=str, pipeline=str, steps=int, epoch=int, workers=[(str, int)],
        commitments=_MapOf(_hex),
    ),
    (EntryKind.JOB_STATUS, "DONE"): dict(
        job=str, status=str, at=int, epoch=int, aggregate=_hex, aggregate_size=int,
    ),
    (EntryKind.JOB_STATUS, "CANCELLED"): dict(
        job=str, status=str, at=int, epoch=int, reason=str,
    ),
    (EntryKind.PROGRESS_PROOF, None): dict(
        job=str, worker=str, link=int, commitment=_hex, nonce=_hex, epoch=int, verdict=str,
    ),
    (EntryKind.CHALLENGE, "opened"): dict(
        phase=str, job=str, challenger=str, bond=_amount, seed=_hex, epoch=int, at=int,
    ),
    (EntryKind.CHALLENGE, "resolved"): dict(
        phase=str, challenge=str, job=str, votes=_MapOf(bool), at=int,
    ),
    (EntryKind.REWARD_RECORD, None): dict(epoch=int, pool=_amount, entries=[(str, _amount, float)]),
    (EntryKind.POOL_EVENT, "plugin_rejected"): dict(
        event=str, job=str, sender=str, pipeline=str, reasons=[str],
    ),
    (EntryKind.POOL_EVENT, "job_rejected"): dict(event=str, job=str, sender=str, reason=str),
    (EntryKind.POOL_EVENT, "code_recheck_failed"): dict(event=str, job=str, reason=str),
    (EntryKind.POOL_EVENT, "proof_rejected"): dict(
        event=str, job=str, worker=str, link=int, reason=str, penalty=float,
        power_after=float, epoch=int,
    ),
    (EntryKind.POOL_EVENT, "gather_failed"): dict(event=str, job=str, reason=str),
    (EntryKind.POOL_EVENT, "cancel_skipped"): dict(event=str, job=str, reason=str),
    (EntryKind.POOL_EVENT, "review_resolved"): dict(event=str, job=str, verdict=str, at=int),
    (EntryKind.POOL_EVENT, "challenge_rejected"): dict(event=str, job=str, reason=str),
    (EntryKind.POOL_EVENT, "jury_drawn"): dict(event=str, challenge=str, job=str, jury=[str]),
    (EntryKind.POOL_EVENT, "challenge_settled"): dict(event=str, challenge=str, verdict=str),
}


def payload_shape(kind: EntryKind, payload: dict) -> tuple[EntryKind, str | None]:
    """The `SCHEMAS` key a payload of this kind is checked against."""
    field = _VARIANT_FIELD.get(kind)
    variant = payload.get(field) if field else None
    return kind, variant if type(variant) is str else None


def _shape_mismatch(kind: EntryKind, payload) -> str | None:
    """None if the payload has its shape in `SCHEMAS`, else the reason,
    which names the kind and the field."""
    if type(payload) is not dict:
        return f"{kind.value} payload is {type(payload).__name__}, not a map"
    shape = payload_shape(kind, payload)
    schema = SCHEMAS.get(shape)
    if schema is None:
        field = _VARIANT_FIELD[kind]
        return f"{kind.value} payload.{field} {payload.get(field)!r:.40} is not a known variant"
    reason = _mismatch(schema, payload)
    if reason is None:
        return None
    name = kind.value if shape[1] is None else f"{kind.value} {shape[1]}"
    return f"{name} payload{reason}"


def _admit(
    keys: MutableMapping[str, bytes], entry: LedgerEntry, signing_bytes: bytes
) -> str | None:
    """Return None if the entry's payload has its shape in `SCHEMAS` and its
    signature over its `signing_bytes` is valid, else the reason. `keys`
    maps deed id -> verify key, learned from NODE_SPEC entries in ledger
    order; an admitted NODE_SPEC adds its key."""
    reason = _shape_mismatch(entry.kind, entry.payload)
    if reason is not None:
        return reason
    if entry.kind == EntryKind.NODE_SPEC:
        declared = entry.payload["deed_id"]
        if declared != entry.author:
            return f"NODE_SPEC author {entry.author!r} != payload deed {declared!r}"
        key = bytes.fromhex(entry.payload["verify_key"])
        if not verify(key, signing_bytes, entry.signature):
            return f"NODE_SPEC self-signature for {entry.author} is invalid"
        known = keys.get(entry.author)
        if known is not None and known != key:
            return f"NODE_SPEC rekeys {entry.author}"
        keys[entry.author] = key
        return None
    key = keys.get(entry.author)
    if key is None:
        return f"entry author {entry.author!r} has no registered key"
    if not verify(key, signing_bytes, entry.signature):
        return f"bad signature on {entry.kind.value} entry by {entry.author}"
    return None


def _seal(
    prev: LedgerBlock, timestamp: int, entries: Sequence[LedgerEntry],
    keys: MutableMapping[str, bytes],
) -> tuple[bytes, bytes, list[bytes]]:
    """The root and digest of the block that seals `entries` at `timestamp`
    after `prev`, and the entries' wire bytes. Each entry is framed once and
    admitted by `_admit`, which adds the keys it learns to `keys`. Raises
    LedgerError for an empty batch, a timestamp before `prev`'s, or an entry
    `_admit` refuses."""
    if not entries:
        raise LedgerError("cannot seal an empty block")
    if timestamp < prev.timestamp:
        raise LedgerError(
            f"block timestamp {timestamp} precedes head timestamp {prev.timestamp}")
    wires = []
    for entry in entries:
        signing, wire = entry.frames()
        reason = _admit(keys, entry, signing)
        if reason is not None:
            raise LedgerError(reason)
        wires.append(wire)
    root = entries_root(wires)
    return root, block_digest(prev.height + 1, prev.digest, root, timestamp), wires


@dataclass
class VerifyResult:
    ok: bool
    failing_height: int | None = None
    reason: str | None = None
    blocks: int = 0
    entries: int = 0


class Ledger:
    """Append-only chain that starts from `GENESIS`."""

    def __init__(self):
        self.blocks: list[LedgerBlock] = [GENESIS]
        self._keys: dict[str, bytes] = {}

    @property
    def head(self) -> LedgerBlock:
        return self.blocks[-1]

    def append_entries(self, entries: list[LedgerEntry], timestamp: int) -> LedgerBlock:
        """Seal a batch of entries into the next block, all or nothing."""
        head = self.head
        # The batch's new keys are staged in `added`, so a failing batch
        # leaves no trace.
        added: dict[str, bytes] = {}
        root, sealed, wires = _seal(head, timestamp, entries, ChainMap(added, self._keys))
        self._keys.update(added)
        block = LedgerBlock(head.height + 1, head.digest, root, timestamp, sealed, tuple(entries))
        # Fills the `wire_bytes` cache, as its first use would. Those bytes are
        # now the one copy of each entry's payload bytes, so the entries drop
        # theirs.
        block.__dict__["wire_bytes"] = block._framed(wires)
        for entry in entries:
            entry.__dict__.pop("payload_bytes", None)
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
    """Check a chain by sealing it again. Block 0 must be `GENESIS`. Every
    later block must stand at its height, and `_seal` of its entries at its
    timestamp, after the block before it, must give its `prev_hash`, `root`
    and `digest`. A failing verdict names the first block that does not: an
    entry `_seal` refuses comes before a header field that differs, and
    `entries` counts the entries of the blocks before it."""
    if not blocks:
        return VerifyResult(False, 0, "empty chain")
    keys: dict[str, bytes] = {}
    total_entries = 0
    for height, block in enumerate(blocks):
        try:
            if block.height != height:
                raise LedgerError(f"height {block.height} at position {height}")
            if height == 0:
                if block != GENESIS:
                    raise LedgerError("block 0 is not the empty genesis block at time 0")
            else:
                prev = blocks[height - 1]
                root, sealed, _ = _seal(prev, block.timestamp, block.entries, keys)
                if block.prev_hash != prev.digest:
                    raise LedgerError("prev_hash does not match previous block digest")
                if block.root != root:
                    raise LedgerError("entries root mismatch")
                if block.digest != sealed:
                    raise LedgerError("block digest mismatch")
        except LedgerError as exc:
            return VerifyResult(False, height, str(exc), len(blocks), total_entries)
        total_entries += len(block.entries)
    return VerifyResult(True, None, None, len(blocks), total_entries)
