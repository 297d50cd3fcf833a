"""Example payloads and hostile ledger dumps, shared by the ledger and CLI
tests.

`EXAMPLES` holds one valid payload for each shape in `ledger.SCHEMAS`.

A forgery takes real blocks, gives one field a value of the wrong type, or
of a tag no encoder writes any more, and re-derives every root, block digest,
link and signature it touches, so that value is the dump's only fault. Each
returns the dump and the height at which it must fail.
"""

import struct

from computepool.crypto import ZERO_DIGEST, derive_signer, digest
from computepool.encoding import encode
from computepool.ledger import (
    DUMP_MAGIC,
    EntryKind,
    Ledger,
    LedgerBlock,
    LedgerEntry,
    block_digest,
    entries_root,
    sign_entry,
)

MALLORY = derive_signer("forged", "mallory")
_NODE = {"deed_id": "mallory", "verify_key": MALLORY.verify_key.hex(), "region": "eu"}
_JOB = "alice:1"

# One valid payload per `ledger.SCHEMAS` key; the NODE_SPECs are mallory's.
EXAMPLES = {
    (EntryKind.NODE_SPEC, None): dict(
        _NODE, capability={"cpu": 2.0, "gpu": False, "gpu_units": 0.0, "memory": 0.5},
        balance="500"),
    (EntryKind.NODE_SPEC, "coordinator"): dict(_NODE, role="coordinator"),
    (EntryKind.JOB_ASSIGN, None): {
        "job": _JOB, "pipeline": "spread", "steps": 4, "epoch": 1,
        "workers": [["bob", 0], ["carol", 1]],
        "commitments": {"bob": "ab" * 32, "carol": "cd" * 32}},
    (EntryKind.PROGRESS_PROOF, None): {
        "job": _JOB, "worker": "bob", "link": 1, "commitment": "01" * 32, "nonce": "02" * 32,
        "epoch": 1, "verdict": "accepted"},
    (EntryKind.JOB_STATUS, "DONE"): {
        "job": _JOB, "status": "DONE", "at": 300, "epoch": 1, "aggregate": "ef" * 32,
        "aggregate_size": 24},
    (EntryKind.JOB_STATUS, "CANCELLED"): {
        "job": "alice:2", "status": "CANCELLED", "at": 400, "epoch": 1,
        "reason": "scripted_cancel"},
    (EntryKind.CHALLENGE, "opened"): {
        "phase": "opened", "job": _JOB, "challenger": "dave", "bond": "3/2", "seed": "03" * 32,
        "epoch": 1, "at": 500},
    (EntryKind.CHALLENGE, "resolved"): {
        "phase": "resolved", "challenge": "ch1", "job": _JOB,
        "votes": {"erin": True, "frank": False, "grace": True}, "at": 536},
    (EntryKind.REWARD_RECORD, None): {
        "epoch": 1, "pool": "301/2",
        "entries": [["bob", "100", 0.6644518272425249], ["carol", "101/2", 0.33554817275747506]]},
    (EntryKind.POOL_EVENT, "plugin_rejected"): {
        "event": "plugin_rejected", "job": "alice:3", "sender": "alice", "pipeline": "calc",
        "reasons": ["unknown variable 'y'"]},
    (EntryKind.POOL_EVENT, "job_rejected"): {
        "event": "job_rejected", "job": "alice:4", "sender": "alice",
        "reason": "insufficient funds"},
    (EntryKind.POOL_EVENT, "code_recheck_failed"): {
        "event": "code_recheck_failed", "job": _JOB,
        "reason": "plugin source does not match its committed hash"},
    (EntryKind.POOL_EVENT, "proof_rejected"): {
        "event": "proof_rejected", "job": _JOB, "worker": "carol", "link": 2,
        "reason": "replayed link 2 (chain is at 2)", "penalty": 1.0, "power_after": -1.0,
        "epoch": 1},
    (EntryKind.POOL_EVENT, "gather_failed"): {
        "event": "gather_failed", "job": _JOB, "reason": "missing shard 1"},
    (EntryKind.POOL_EVENT, "cancel_skipped"): {
        "event": "cancel_skipped", "job": "alice:4", "reason": "job rejected at submission"},
    (EntryKind.POOL_EVENT, "review_resolved"): {
        "event": "review_resolved", "job": "alice:2", "verdict": "WORK_VALID", "at": 900},
    (EntryKind.POOL_EVENT, "challenge_rejected"): {
        "event": "challenge_rejected", "job": "alice:2",
        "reason": "only 2 eligible jurors, need 3"},
    (EntryKind.POOL_EVENT, "jury_drawn"): {
        "event": "jury_drawn", "challenge": "ch1", "job": _JOB,
        "jury": ["erin", "frank", "grace"]},
    (EntryKind.POOL_EVENT, "challenge_settled"): {
        "event": "challenge_settled", "challenge": "ch1", "verdict": "UPHELD"},
}


def example(kind, variant=None, **changes) -> dict:
    """A copy of the example payload of this shape, with `changes` made."""
    return dict(EXAMPLES[kind, variant], **changes)


def mallory_spec():
    """Mallory's self-signed registration."""
    return sign_entry(EntryKind.NODE_SPEC, "mallory", example(EntryKind.NODE_SPEC), MALLORY)


def example_ledger() -> Ledger:
    """Mallory registers as a node and as the coordinator at height 1, then
    signs each other example in a block of its own, in `EXAMPLES` order."""
    led = Ledger()
    entries = [sign_entry(kind, "mallory", payload, MALLORY)
               for (kind, _), payload in EXAMPLES.items()]
    led.append_entries(entries[:2], 1)
    for timestamp, entry in enumerate(entries[2:], start=2):
        led.append_entries([entry], timestamp)
    return led


def resign(entry_wire: list) -> None:
    """Sign an entry's wire value again, as mallory, over its fields as they
    stand."""
    entry_wire[3] = MALLORY.sign(encode(entry_wire[:3]))


def payload_slots(value) -> list[tuple]:
    """(container, key) of every value inside a payload, at any depth."""
    slots = []
    for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
        slots.append((value, key))
        if isinstance(item, (dict, list)):
            slots += payload_slots(item)
    return slots


def wires(blocks) -> list[list]:
    """Each block's wire value, with payloads as values that can be edited."""
    return [
        [b.height, b.prev_hash, b.root, b.timestamp, b.digest,
         [[e.kind.value, e.author, e.payload, e.signature] for e in b.entries]]
        for b in blocks
    ]


def frame(block_wires: list[list]) -> bytes:
    """A dump of these block wire values, encoded as they stand."""
    out = [DUMP_MAGIC, struct.pack(">I", len(block_wires))]
    for wire in block_wires:
        blob = encode(wire)
        out += [struct.pack(">I", len(blob)), blob]
    return b"".join(out)


def rechain(block_wires: list[list]) -> list[list]:
    """Re-derive each block's root, digest and link from its fields, in place."""
    prev = ZERO_DIGEST
    for wire in block_wires:
        height, _, _, timestamp, _, entries = wire
        root = digest(b"".join(digest(encode(e)) for e in entries))
        wire[1], wire[2] = prev, root
        wire[4] = prev = digest(encode([height, prev, root, timestamp]))
    return block_wires


def bool_header(blocks):
    """Heights and timestamps of 0 and 1 written as False and True."""
    ws = wires(blocks)
    for wire in ws:
        for field in (0, 3):
            if wire[field] in (0, 1):
                wire[field] = bool(wire[field])
    return frame(rechain(ws)), 0


def int_digest(blocks):
    ws = rechain(wires(blocks))
    ws[-1][4] = 7
    return frame(ws), len(ws) - 1


def str_timestamp(blocks):
    ws = wires(blocks)
    ws[1][3] = str(ws[1][3])
    return frame(rechain(ws)), 1


def list_node_spec_payload(blocks):
    ws = wires(blocks)
    height, entry = next(
        (h, e) for h, wire in enumerate(ws) for e in wire[5] if e[0] == "NODE_SPEC"
    )
    entry[2] = list(entry[2].values())
    return frame(rechain(ws)), height


def signed_list_payload(blocks):
    """A new block in which a self-registered key validly signs a list payload."""
    event = sign_entry(EntryKind.POOL_EVENT, "mallory", ["x", 1], MALLORY)
    ws = wires(blocks)
    ws.append([len(ws), None, None, ws[-1][3], None,
               [[e.kind.value, e.author, e.payload, e.signature]
                for e in (mallory_spec(), event)]])
    return frame(rechain(ws)), len(ws) - 1


def sealed_without_checks(blocks, entries, timestamp) -> LedgerBlock:
    """The block `entries` would make on top of `blocks`, with no admission."""
    height, prev_hash = len(blocks), blocks[-1].digest
    root = entries_root([entry.frames()[1] for entry in entries])
    return LedgerBlock(height, prev_hash, root, timestamp,
                       block_digest(height, prev_hash, root, timestamp), tuple(entries))


def _dump(blocks) -> bytes:
    led = Ledger()
    led.blocks = list(blocks)
    return led.dump()


def _raw_map(pairs: list[tuple[str, bytes]]) -> bytes:
    """A map's bytes from its keys and the bytes of its values."""
    return b"M" + struct.pack(">I", len(pairs)) + b"".join(encode(k) + v for k, v in pairs)


def _with_raw_payload(blocks, payload_bytes: bytes):
    """A new block in which mallory registers and validly signs a POOL_EVENT
    whose payload is these bytes, signed, hashed and dumped as they stand."""
    event = LedgerEntry(EntryKind.POOL_EVENT, "mallory", {}, b"")
    event.__dict__["payload_bytes"] = payload_bytes
    object.__setattr__(event, "signature", MALLORY.sign(event.signing_bytes()))
    block = sealed_without_checks(blocks, [mallory_spec(), event], blocks[-1].timestamp)
    return _dump([*blocks, block]), len(blocks)


# Payload values of the tags no encoder writes any more: `Q` (a fraction,
# then its numerator and denominator) and `N` (None).
def fraction_payload(blocks):
    return _with_raw_payload(
        blocks, _raw_map([("amount", b"Q" + encode(1) + encode(3)), ("event", encode("x"))]))


def null_payload(blocks):
    return _with_raw_payload(blocks, _raw_map([("event", encode("x")), ("note", b"N")]))


FORGERIES = [bool_header, int_digest, str_timestamp, list_node_spec_payload,
             signed_list_payload, fraction_payload, null_payload]

# Examples with one value the protocol never writes, each with its kind and
# the field `verify` must name when it fails at their block.
ODD_PAYLOADS = {
    "bytes": (EntryKind.POOL_EVENT,
              example(EntryKind.POOL_EVENT, "gather_failed", reason=b"\x00\xff"),
              "POOL_EVENT gather_failed payload.reason"),
    "int entries": (EntryKind.REWARD_RECORD, example(EntryKind.REWARD_RECORD, entries=5),
                    "REWARD_RECORD payload.entries"),
    "int rows": (EntryKind.REWARD_RECORD, example(EntryKind.REWARD_RECORD, entries=[1, 2]),
                 "REWARD_RECORD payload.entries[0]"),
    "empty row": (EntryKind.REWARD_RECORD, example(EntryKind.REWARD_RECORD, entries=[[]]),
                  "REWARD_RECORD payload.entries[0]"),
    "list deed": (EntryKind.NODE_SPEC, example(EntryKind.NODE_SPEC, deed_id=["mallory"]),
                  "NODE_SPEC payload.deed_id"),
}


def signed_payload_dump(kind: EntryKind, payload: dict) -> bytes:
    """Mallory registers at height 1, then signs one entry of this payload at
    height 2. Nothing checks the payload before it is dumped."""
    led = Ledger()
    led.append_entries([mallory_spec()], 1)
    entry = sign_entry(kind, "mallory", payload, MALLORY)
    return _dump([*led.blocks, sealed_without_checks(led.blocks, [entry], 2)])
