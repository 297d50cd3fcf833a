"""Private append-only ledger: signed entries, hash-chained blocks, mirroring.

Entries are signed by their authoring node; blocks bind entries with a root
digest and chain through prev_hash. Verification is self-certifying: the key
table is rebuilt from NODE_SPEC entries in ledger order, so a dump carries
everything needed to check it.

`oracle_mirror` is the single bridge from ledger facts to pool mutations: it
turns one entry into zero or more commands for the escrow bank and nothing
else in the system moves funds in response to ledger content.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction

from .crypto import DIGEST_SIZE, ZERO_DIGEST, Signer, digest, verify
from .encoding import Encoded, EncodingError, decode, encode

DUMP_MAGIC = b"CPOOL-LEDGER\x01"


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

    An entry's payload is never mutated after construction. Its canonical
    encoding is built once, at first use, and kept as `payload_bytes`; the
    signing bytes, the digest input and the entry's part of a dump are framed
    around those bytes instead of encoding the payload again.
    """

    kind: EntryKind
    author: str
    payload: dict
    signature: bytes

    @cached_property
    def payload_bytes(self) -> Encoded:
        return Encoded(encode(self.payload))

    def signing_bytes(self) -> bytes:
        return encode([self.kind.value, self.author, self.payload_bytes])

    def digest(self) -> bytes:
        return digest(encode(self.to_wire()))

    def to_wire(self) -> list:
        """The digest input, which is also the entry's part of a dump block."""
        return [self.kind.value, self.author, self.payload_bytes, self.signature]

    @classmethod
    def from_wire(cls, wire: list) -> "LedgerEntry":
        kind, author, payload, signature = wire
        return cls(EntryKind(kind), author, payload, signature)


def sign_entry(kind: EntryKind, author: str, payload: dict, signer: Signer) -> LedgerEntry:
    entry = LedgerEntry(kind, author, payload, b"")
    # No one else holds the entry yet, so this completes its construction; it
    # keeps the payload bytes the signature was made over.
    object.__setattr__(entry, "signature", signer.sign(entry.signing_bytes()))
    return entry


def entries_root(entries: list[LedgerEntry]) -> bytes:
    return digest(b"".join(e.digest() for e in entries))


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

    def to_wire(self) -> list:
        return [
            self.height,
            self.prev_hash,
            self.root,
            self.timestamp,
            self.digest,
            [e.to_wire() for e in self.entries],
        ]

    @classmethod
    def from_wire(cls, wire: list) -> "LedgerBlock":
        height, prev_hash, root, timestamp, dig, entry_wires = wire
        return cls(
            height,
            prev_hash,
            root,
            timestamp,
            dig,
            tuple(LedgerEntry.from_wire(w) for w in entry_wires),
        )


def _make_block(
    height: int, prev_hash: bytes, timestamp: int, entries: list[LedgerEntry]
) -> LedgerBlock:
    root = entries_root(entries)
    return LedgerBlock(
        height=height,
        prev_hash=prev_hash,
        root=root,
        timestamp=timestamp,
        digest=block_digest(height, prev_hash, root, timestamp),
        entries=tuple(entries),
    )


class _KeyTable:
    """Deed id -> verify key, learned from NODE_SPEC entries in ledger order."""

    def __init__(self) -> None:
        self.keys: dict[str, bytes] = {}

    def check(self, entry: LedgerEntry) -> str | None:
        """Return None if the entry's signature is valid, else the reason."""
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
            if not verify(key, entry.signing_bytes(), entry.signature):
                return f"NODE_SPEC self-signature for {entry.author} is invalid"
            known = self.keys.get(entry.author)
            if known is not None and known != key:
                return f"NODE_SPEC rekeys {entry.author}"
            self.keys[entry.author] = key
            return None
        key = self.keys.get(entry.author)
        if key is None:
            return f"entry author {entry.author!r} has no registered key"
        if not verify(key, entry.signing_bytes(), entry.signature):
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
        self.blocks: list[LedgerBlock] = [_make_block(0, ZERO_DIGEST, 0, [])]
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
        for entry in entries:
            reason = scratch.check(entry)
            if reason is not None:
                raise LedgerError(reason)
        self._keys.keys = scratch.keys
        block = _make_block(len(self.blocks), self.head.digest, timestamp, entries)
        self.blocks.append(block)
        return block

    def entries(self):
        for block in self.blocks:
            for entry in block.entries:
                yield block, entry

    def dump(self) -> bytes:
        out = [DUMP_MAGIC, struct.pack(">I", len(self.blocks))]
        for block in self.blocks:
            blob = encode(block.to_wire())
            out.append(struct.pack(">I", len(blob)))
            out.append(blob)
        return b"".join(out)


def load_blocks(data: bytes) -> list[LedgerBlock]:
    """Parse a dump without verifying it. Raises LedgerError on malformed bytes."""
    if not data.startswith(DUMP_MAGIC):
        raise LedgerError("not a ledger dump (bad magic)")
    view = memoryview(data)[len(DUMP_MAGIC):]
    if len(view) < 4:
        raise LedgerError("truncated dump header")
    (count,) = struct.unpack(">I", view[:4])
    view = view[4:]
    blocks: list[LedgerBlock] = []
    for i in range(count):
        if len(view) < 4:
            raise LedgerError(f"truncated dump at block {i}", i)
        (size,) = struct.unpack(">I", view[:4])
        view = view[4:]
        if len(view) < size:
            raise LedgerError(f"truncated dump at block {i}", i)
        try:
            wire = decode(bytes(view[:size]))
            blocks.append(LedgerBlock.from_wire(wire))
        except (EncodingError, ValueError, TypeError, KeyError) as exc:
            raise LedgerError(f"malformed block {i}: {exc}", i) from None
        view = view[size:]
    if len(view):
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
        if entries_root(list(block.entries)) != block.root:
            return fail("entries root mismatch")
        if block_digest(block.height, block.prev_hash, block.root, block.timestamp) != block.digest:
            return fail("block digest mismatch")
        for entry in block.entries:
            reason = keys.check(entry)
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


# -- oracle mirror ------------------------------------------------------------


@dataclass(frozen=True)
class SettleCommand:
    job_id: str
    final_status: str  # "DONE" or "CANCELLED"
    at: int
    epoch: int


@dataclass(frozen=True)
class CreditCommand:
    deed_id: str
    amount: Fraction


@dataclass(frozen=True)
class OpenChallengeCommand:
    challenger: str
    job_id: str
    bond: Fraction
    seed: bytes
    epoch: int


@dataclass(frozen=True)
class ResolveChallengeCommand:
    challenge_id: str
    votes: dict[str, bool] = field(hash=False)
    at: int = 0


Command = SettleCommand | CreditCommand | OpenChallengeCommand | ResolveChallengeCommand


def oracle_mirror(entry: LedgerEntry) -> list[Command]:
    """Translate one ledger entry into pool commands.

    Pure and stateless: the same entry always yields the same commands, and
    entry kinds with no financial meaning yield none.
    """
    p = entry.payload
    if entry.kind == EntryKind.JOB_STATUS:
        status = p["status"]
        if status in ("DONE", "CANCELLED"):
            return [
                SettleCommand(
                    job_id=p["job"],
                    final_status=status,
                    at=int(p["at"]),
                    epoch=int(p["epoch"]),
                )
            ]
        return []
    if entry.kind == EntryKind.REWARD_RECORD:
        return [
            CreditCommand(deed_id=deed, amount=Fraction(amount))
            for deed, amount, _share in p["entries"]
        ]
    if entry.kind == EntryKind.CHALLENGE:
        if p["phase"] == "opened":
            return [
                OpenChallengeCommand(
                    challenger=p["challenger"],
                    job_id=p["job"],
                    bond=Fraction(p["bond"]),
                    seed=bytes.fromhex(p["seed"]),
                    epoch=int(p["epoch"]),
                )
            ]
        if p["phase"] == "resolved":
            return [
                ResolveChallengeCommand(
                    challenge_id=p["challenge"],
                    votes={juror: bool(v) for juror, v in p["votes"].items()},
                    at=int(p["at"]),
                )
            ]
        return []
    return []
