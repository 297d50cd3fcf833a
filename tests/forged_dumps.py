"""Hostile ledger dumps and payloads, shared by the ledger and CLI tests.

A forgery takes real blocks, gives one field a value of the wrong type, or
of a tag no encoder writes any more, and re-derives every root, block digest,
link and signature it touches, so that value is the dump's only fault. Each
returns the dump and the height at which it must fail.
"""

import struct

from computepool.crypto import ZERO_DIGEST, derive_signer, digest
from computepool.encoding import encode
from computepool.ledger import DUMP_MAGIC, EntryKind, Ledger, LedgerEntry, sign_entry

MALLORY = derive_signer("forged", "mallory")


def mallory_spec():
    """Mallory's self-signed registration."""
    return sign_entry(
        EntryKind.NODE_SPEC, "mallory",
        {"deed_id": "mallory", "verify_key": MALLORY.verify_key.hex()}, MALLORY,
    )


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


def _raw_map(pairs: list[tuple[str, bytes]]) -> bytes:
    """A map's bytes from its keys and the bytes of its values."""
    return b"M" + struct.pack(">I", len(pairs)) + b"".join(encode(k) + v for k, v in pairs)


def _with_raw_payload(blocks, payload_bytes: bytes):
    """A new block in which mallory registers and validly signs a POOL_EVENT
    whose payload is these bytes, signed, hashed and dumped as they stand."""
    event = LedgerEntry(EntryKind.POOL_EVENT, "mallory", {}, b"")
    event.__dict__["payload_bytes"] = payload_bytes
    object.__setattr__(event, "signature", MALLORY.sign(event.signing_bytes()))
    led = Ledger()
    led.blocks = list(blocks)
    led.append_entries([mallory_spec(), event], blocks[-1].timestamp)
    return led.dump(), len(blocks)


# Payload values of the tags no encoder writes any more: `Q` (a fraction,
# then its numerator and denominator) and `N` (None).
def fraction_payload(blocks):
    return _with_raw_payload(
        blocks, _raw_map([("amount", b"Q" + encode(1) + encode(3)), ("event", encode("x"))]))


def null_payload(blocks):
    return _with_raw_payload(blocks, _raw_map([("event", encode("x")), ("note", b"N")]))


FORGERIES = [bool_header, int_digest, str_timestamp, list_node_spec_payload,
             signed_list_payload, fraction_payload, null_payload]

# Validly signed payloads whose values reports never hold, each with the JSON
# form `inspect` prints for it.
ODD_PAYLOADS = {
    "bytes": ({"event": "x", "raw": b"\x00\xff"}, {"event": "x", "raw": "00ff"}),
    "int entries": ({"entries": 5}, {"entries": 5}),
    "int rows": ({"entries": [1, 2]}, {"entries": [1, 2]}),
    "empty row": ({"entries": [[]]}, {"entries": [[]]}),
    "list deed": ({"deed_id": ["mallory"]}, {"deed_id": ["mallory"]}),
}


def signed_payload_dump(payload: dict) -> bytes:
    """A verifying dump: mallory registers, then signs one POOL_EVENT."""
    led = Ledger()
    led.append_entries([mallory_spec()], 1)
    led.append_entries([sign_entry(EntryKind.POOL_EVENT, "mallory", payload, MALLORY)], 2)
    return led.dump()
