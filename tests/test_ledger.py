"""Hash-chained ledger: appends, dumps, tamper detection, oracle mirror."""

import dataclasses
import random
import struct
from fractions import Fraction
from pathlib import Path

import pytest

from computepool.crypto import ZERO_DIGEST, derive_signer, digest
from computepool.encoding import encode
from computepool.ledger import (
    DUMP_MAGIC,
    CreditCommand,
    EntryKind,
    Ledger,
    LedgerError,
    OpenChallengeCommand,
    ResolveChallengeCommand,
    SettleCommand,
    load_blocks,
    oracle_mirror,
    sign_entry,
    verify_blocks,
    verify_dump,
)
from computepool.scenario import load_scenario
from computepool.simnet import run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ALICE = derive_signer("test", "alice")
BOB = derive_signer("test", "bob")


def node_spec(signer, deed):
    return sign_entry(
        EntryKind.NODE_SPEC,
        deed,
        {"deed_id": deed, "verify_key": signer.verify_key.hex()},
        signer,
    )


def sample_ledger():
    led = Ledger()
    led.append_entries([node_spec(ALICE, "alice"), node_spec(BOB, "bob")], 10)
    led.append_entries(
        [sign_entry(EntryKind.POOL_EVENT, "alice", {"event": "x", "n": 1}, ALICE)], 20
    )
    led.append_entries(
        [
            sign_entry(EntryKind.JOB_STATUS, "bob",
                       {"job": "alice:1", "status": "DONE", "at": 25, "epoch": 1,
                        "digest": "00"}, BOB),
            sign_entry(EntryKind.POOL_EVENT, "bob", {"event": "y"}, BOB),
        ],
        25,
    )
    return led


def test_genesis_shape():
    led = Ledger()
    g = led.head
    assert g.height == 0
    assert g.prev_hash == ZERO_DIGEST
    assert g.entries == ()
    assert verify_blocks(led.blocks).ok


def test_append_links_blocks():
    led = sample_ledger()
    assert [b.height for b in led.blocks] == [0, 1, 2, 3]
    for prev, cur in zip(led.blocks, led.blocks[1:]):
        assert cur.prev_hash == prev.digest
    result = verify_blocks(led.blocks)
    assert result.ok
    assert result.blocks == 4
    assert result.entries == 5


def test_append_rejects_empty_and_backwards_time():
    led = sample_ledger()
    with pytest.raises(LedgerError, match="empty block"):
        led.append_entries([], 30)
    with pytest.raises(LedgerError, match="precedes head"):
        led.append_entries(
            [sign_entry(EntryKind.POOL_EVENT, "alice", {"event": "z"}, ALICE)], 24
        )


def test_failed_batch_leaves_no_trace():
    led = Ledger()
    ghost = derive_signer("test", "ghost")
    batch = [
        node_spec(ALICE, "alice"),
        sign_entry(EntryKind.POOL_EVENT, "ghost", {"event": "z"}, ghost),
    ]
    with pytest.raises(LedgerError, match="no registered key"):
        led.append_entries(batch, 5)
    assert len(led.blocks) == 1
    # alice's key from the failed batch must not have been learned
    with pytest.raises(LedgerError, match="no registered key"):
        led.append_entries(
            [sign_entry(EntryKind.POOL_EVENT, "alice", {"event": "z"}, ALICE)], 6
        )


def test_append_rejects_wrong_key_signature():
    led = Ledger()
    led.append_entries([node_spec(ALICE, "alice")], 1)
    forged = sign_entry(EntryKind.POOL_EVENT, "alice", {"event": "z"}, BOB)
    with pytest.raises(LedgerError, match="bad signature"):
        led.append_entries([forged], 2)


def test_node_spec_must_self_certify():
    led = Ledger()
    mismatch = sign_entry(
        EntryKind.NODE_SPEC, "alice",
        {"deed_id": "bob", "verify_key": ALICE.verify_key.hex()}, ALICE,
    )
    with pytest.raises(LedgerError, match="!= payload deed"):
        led.append_entries([mismatch], 1)
    wrong_key = sign_entry(
        EntryKind.NODE_SPEC, "alice",
        {"deed_id": "alice", "verify_key": BOB.verify_key.hex()}, ALICE,
    )
    with pytest.raises(LedgerError, match="self-signature"):
        led.append_entries([wrong_key], 1)


def test_rekeying_is_rejected():
    led = Ledger()
    led.append_entries([node_spec(ALICE, "alice")], 1)
    imposter = derive_signer("test", "imposter")
    with pytest.raises(LedgerError, match="rekeys"):
        led.append_entries([node_spec(imposter, "alice")], 2)
    # re-announcing the same key is allowed
    led.append_entries([node_spec(ALICE, "alice")], 3)


def test_dump_roundtrip():
    led = sample_ledger()
    data = led.dump()
    assert load_blocks(data) == led.blocks
    result = verify_dump(data)
    assert result.ok and result.blocks == 4


def test_dump_is_stable():
    assert sample_ledger().dump() == sample_ledger().dump()


def test_verify_dump_rejects_bad_magic_and_truncation():
    data = sample_ledger().dump()
    assert not verify_dump(b"XYZ" + data[3:]).ok
    assert not verify_dump(data[:-3]).ok
    assert not verify_dump(data + b"\0").ok


def test_single_byte_flips_are_detected():
    data = sample_ledger().dump()
    rng = random.Random(1234)
    for _ in range(80):
        pos = rng.randrange(len(data))
        flipped = bytearray(data)
        flipped[pos] ^= 1 << rng.randrange(8)
        result = verify_dump(bytes(flipped))
        assert not result.ok, f"flip at byte {pos} went unnoticed"
        assert result.failing_height is not None


def test_tamper_in_last_block_reports_last_height():
    led = sample_ledger()
    blocks = list(led.blocks)
    last = blocks[-1]
    bad = dataclasses.replace(last, timestamp=last.timestamp + 1)
    result = verify_blocks(blocks[:-1] + [bad])
    assert not result.ok
    assert result.failing_height == last.height
    assert "digest mismatch" in result.reason


def test_tampered_entry_payload_is_detected_at_its_block():
    led = sample_ledger()
    blocks = list(led.blocks)
    victim = blocks[2]
    entry = victim.entries[0]
    forged_entry = dataclasses.replace(
        entry, payload={**entry.payload, "n": 999}
    )
    forged_block = dataclasses.replace(victim, entries=(forged_entry,))
    result = verify_blocks(blocks[:2] + [forged_block] + blocks[3:])
    assert not result.ok
    assert result.failing_height == 2


def test_broken_chain_link_is_detected():
    blocks = list(sample_ledger().blocks)
    bad = dataclasses.replace(blocks[2], prev_hash=b"\x01" * 32)
    result = verify_blocks(blocks[:2] + [bad] + blocks[3:])
    assert not result.ok
    assert result.failing_height == 2


def test_mirror_is_pure_and_ignores_non_financial_kinds():
    entry = sign_entry(
        EntryKind.JOB_STATUS, "bob",
        {"job": "alice:1", "status": "DONE", "at": 25, "epoch": 1, "digest": "00"},
        BOB,
    )
    assert oracle_mirror(entry) == oracle_mirror(entry)
    assert oracle_mirror(entry) == [SettleCommand("alice:1", "DONE", 25, 1)]
    for kind, payload in [
        (EntryKind.NODE_SPEC, {"deed_id": "bob", "verify_key": BOB.verify_key.hex()}),
        (EntryKind.JOB_ASSIGN, {"job": "alice:1", "workers": []}),
        (EntryKind.PROGRESS_PROOF, {"job": "alice:1", "link": 1}),
        (EntryKind.POOL_EVENT, {"event": "anything"}),
        (EntryKind.JOB_STATUS, {"job": "alice:1", "status": "IN_PROGRESS"}),
    ]:
        assert oracle_mirror(sign_entry(kind, "bob", payload, BOB)) == []


def test_mirror_translates_rewards_and_challenges():
    reward = sign_entry(
        EntryKind.REWARD_RECORD, "coord",
        {"epoch": 2, "entries": [["a", "5/2", 0.5], ["b", "5/2", 0.5]]},
        ALICE,
    )
    assert oracle_mirror(reward) == [
        CreditCommand("a", Fraction(5, 2)),
        CreditCommand("b", Fraction(5, 2)),
    ]
    opened = sign_entry(
        EntryKind.CHALLENGE, "carol",
        {"phase": "opened", "challenger": "carol", "job": "alice:1",
         "bond": "9", "seed": "ab" * 32, "epoch": 3},
        ALICE,
    )
    assert oracle_mirror(opened) == [
        OpenChallengeCommand("carol", "alice:1", Fraction(9), bytes.fromhex("ab" * 32), 3)
    ]
    resolved = sign_entry(
        EntryKind.CHALLENGE, "coord",
        {"phase": "resolved", "challenge": "ch1", "votes": {"x": True, "y": False},
         "at": 77},
        ALICE,
    )
    assert oracle_mirror(resolved) == [
        ResolveChallengeCommand("ch1", {"x": True, "y": False}, 77)
    ]


# -- each entry's payload is encoded once; every byte stays as specified ------


@pytest.fixture(scope="module")
def reference_ledger():
    return run_scenario(load_scenario(SCENARIOS / "reference.yaml")).ledger


def reference_dump(blocks) -> bytes:
    """A dump built straight from the format: one `encode` of each block's
    whole nested wire value, with every payload encoded in place."""
    out = [DUMP_MAGIC, struct.pack(">I", len(blocks))]
    for b in blocks:
        entries = [[e.kind.value, e.author, e.payload, e.signature] for e in b.entries]
        blob = encode([b.height, b.prev_hash, b.root, b.timestamp, b.digest, entries])
        out += [struct.pack(">I", len(blob)), blob]
    return b"".join(out)


def test_stored_payload_bytes_keep_every_byte(reference_ledger):
    entries = [entry for _, entry in reference_ledger.entries()]
    assert len(entries) > 100
    for entry in entries:
        kind, author, payload, signature = (
            entry.kind.value, entry.author, entry.payload, entry.signature)
        assert entry.signing_bytes() == encode([kind, author, payload])
        assert entry.digest() == digest(encode([kind, author, payload, signature]))
    assert reference_ledger.dump() == reference_dump(reference_ledger.blocks)


def test_replaced_payload_is_dumped_and_caught_at_its_block(reference_ledger):
    blocks = list(reference_ledger.blocks)
    height = len(blocks) // 2
    victim = blocks[height]
    entry = victim.entries[-1]
    forged_entry = dataclasses.replace(entry, payload={**entry.payload, "forged": True})
    blocks[height] = dataclasses.replace(victim, entries=victim.entries[:-1] + (forged_entry,))
    forged = Ledger()
    forged.blocks = blocks
    loaded = load_blocks(forged.dump())
    assert loaded[height].entries[-1].payload == forged_entry.payload
    result = verify_blocks(loaded)
    assert not result.ok
    assert result.failing_height == height


def test_non_canonical_block_fails_at_its_height(reference_ledger):
    # Block 1's height rewritten as the integer text "01" decodes to the same
    # value, so only the rule that a dump must be canonical catches it.
    data = reference_ledger.dump()
    start = len(DUMP_MAGIC) + 4
    (size0,) = struct.unpack(">I", data[start:start + 4])
    at = start + 4 + size0
    (size1,) = struct.unpack(">I", data[at:at + 4])
    blob = data[at + 4:at + 4 + size1]
    height = 5  # after the list tag and its item count
    assert blob[height:height + 6] == encode(1)
    forged_blob = blob[:height] + b"I\x00\x00\x00\x0201" + blob[height + 6:]
    forged = (data[:at] + struct.pack(">I", len(forged_blob)) + forged_blob
              + data[at + 4 + size1:])
    assert verify_dump(data).ok
    result = verify_dump(forged)
    assert not result.ok
    assert result.failing_height == 1
    assert "non-canonical integer text '01'" in result.reason
