"""Hash-chained ledger: appends, dumps, tamper detection."""

import dataclasses
import random
import struct
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forged_dumps
from computepool import encoding, ledger
from computepool.crypto import ZERO_DIGEST, derive_signer, digest
from computepool.encoding import encode
from computepool.ledger import (
    DUMP_MAGIC,
    EntryKind,
    Ledger,
    LedgerError,
    load_blocks,
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


# -- each entry's payload is encoded once; every byte stays as specified ------


@pytest.fixture(scope="module")
def reference_ledger():
    return run_scenario(load_scenario(SCENARIOS / "reference.yaml")).ledger


def test_stored_payload_bytes_keep_every_byte(reference_ledger):
    entries = [entry for _, entry in reference_ledger.entries()]
    assert len(entries) > 100
    # A sealed block's bytes are the one copy of its entries' payload bytes.
    assert not [entry for entry in entries if "payload_bytes" in vars(entry)]
    for entry in entries:
        kind, author, payload, signature = (
            entry.kind.value, entry.author, entry.payload, entry.signature)
        assert entry.signing_bytes() == encode([kind, author, payload])
        assert digest(entry.frames()[1]) == digest(encode([kind, author, payload, signature]))
    # Framing or verifying a sealed entry does not store its bytes again.
    assert verify_blocks(reference_ledger.blocks).ok
    assert not [entry for entry in entries if "payload_bytes" in vars(entry)]
    # A dump built straight from the format: one `encode` of each block's whole
    # nested wire value, with every payload encoded in place.
    wires = forged_dumps.wires(reference_ledger.blocks)
    assert reference_ledger.dump() == forged_dumps.frame(wires)


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


def test_dump_is_built_from_every_block_as_it_stands(reference_ledger):
    data = reference_ledger.dump()
    assert reference_ledger.dump() == data
    # Loaded blocks were not sealed here: they frame their bytes at first use.
    loaded = Ledger()
    loaded.blocks = load_blocks(data)
    assert loaded.dump() == data
    # A rebuilt block dumps its own fields, not the bytes of the block it
    # was rebuilt from.
    blocks = list(reference_ledger.blocks)
    height = len(blocks) // 2
    victim = blocks[height]
    entry = victim.entries[0]
    forged_entry = dataclasses.replace(entry, author="mallory")
    blocks[height] = dataclasses.replace(
        victim, timestamp=victim.timestamp + 1, entries=(forged_entry,) + victim.entries[1:])
    forged = Ledger()
    forged.blocks = blocks
    forged_data = forged.dump()
    assert forged_data == forged_dumps.frame(forged_dumps.wires(blocks))
    rebuilt = load_blocks(forged_data)[height]
    assert rebuilt.timestamp == victim.timestamp + 1
    assert rebuilt.entries[0].author == "mallory"
    assert reference_ledger.dump() == data


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


# -- a loaded dump is verified over the bytes that were read -------------------


def test_verifying_a_loaded_dump_encodes_no_payload(reference_ledger, monkeypatch):
    data = reference_ledger.dump()
    original = encoding.encode

    def encode_no_maps(value):
        if isinstance(value, dict):
            raise AssertionError("a payload was encoded")
        return original(value)

    monkeypatch.setattr(encoding, "encode", encode_no_maps)
    monkeypatch.setattr(ledger, "encode", encode_no_maps)
    result = verify_blocks(load_blocks(data))
    assert result.ok
    assert result.entries == sum(len(b.entries) for b in reference_ledger.blocks)


def test_loaded_payload_bytes_are_slices_of_the_dump(reference_ledger):
    data = reference_ledger.dump()
    at = 0
    for block in load_blocks(data):
        for entry in block.entries:
            stored = vars(entry)["payload_bytes"]  # filled by the load itself
            assert type(stored) is bytes
            assert stored == encode(entry.payload)
            wire = encoding.list_of([
                encode(entry.kind.value), encode(entry.author), stored, encode(entry.signature)
            ])
            at = data.index(wire, at) + len(wire)
    assert at > len(data) // 2


def test_a_loaded_dump_holds_one_object_per_distinct_string(reference_ledger):
    strings = []

    def collect(value):
        if isinstance(value, str):
            strings.append(value)
        elif isinstance(value, dict):
            strings.extend(value)
            for item in value.values():
                collect(item)
        elif isinstance(value, list):
            for item in value:
                collect(item)

    for block in load_blocks(reference_ledger.dump()):
        for entry in block.entries:
            strings.append(entry.author)
            collect(entry.payload)
    first: dict[str, str] = {}
    for text in strings:
        assert first.setdefault(text, text) is text
    assert len(strings) > 5 * len(first)


@pytest.mark.parametrize("forge", forged_dumps.FORGERIES)
def test_wrongly_typed_dump_field_fails_at_its_height(reference_ledger, forge):
    data, height = forge(reference_ledger.blocks)
    assert data != reference_ledger.dump()
    result = verify_dump(data)
    assert not result.ok
    assert result.failing_height == height
    assert result.reason.startswith(f"malformed block {height}: ")


other_typed_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_any_field_of_another_type_fails_at_its_block(data):
    block_wires = forged_dumps.wires(sample_ledger().blocks)
    height = data.draw(st.integers(0, len(block_wires) - 1))
    block = block_wires[height]
    # (container, index) of each header field, each entry and each entry field
    slots = [(block, i) for i in range(6)]
    for position, entry in enumerate(block[5]):
        slots.append((block[5], position))
        slots += [(entry, i) for i in range(4)]
    container, index = data.draw(st.sampled_from(slots))
    original = container[index]
    container[index] = data.draw(
        other_typed_values.filter(lambda v: type(v) is not type(original)))
    result = verify_dump(forged_dumps.frame(block_wires))
    assert not result.ok
    assert result.failing_height == height
