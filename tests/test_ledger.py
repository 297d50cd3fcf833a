"""Hash-chained ledger: appends, dumps, payload schemas, tamper detection."""

import copy
import dataclasses
import random
import re
import struct
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forged_dumps
from computepool import encoding, ledger
from computepool.cli import load_verified
from computepool.crypto import ZERO_DIGEST, derive_signer, digest
from computepool.encoding import encode
from computepool.ledger import (
    DUMP_MAGIC,
    SCHEMAS,
    EntryKind,
    Ledger,
    LedgerError,
    VerifyResult,
    load_blocks,
    payload_shape,
    sign_entry,
    verify_blocks,
)
from computepool.scenario import load_scenario
from computepool.simnet import run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ALICE = derive_signer("test", "alice")
BOB = derive_signer("test", "bob")
example = forged_dumps.example


def node_spec(signer, deed):
    payload = example(EntryKind.NODE_SPEC, deed_id=deed, verify_key=signer.verify_key.hex())
    return sign_entry(EntryKind.NODE_SPEC, deed, payload, signer)


def pool_event(author, signer, event="gather_failed"):
    return sign_entry(EntryKind.POOL_EVENT, author, example(EntryKind.POOL_EVENT, event), signer)


def sample_ledger():
    led = Ledger()
    led.append_entries([node_spec(ALICE, "alice"), node_spec(BOB, "bob")], 10)
    led.append_entries([pool_event("alice", ALICE, "proof_rejected")], 20)
    led.append_entries(
        [
            sign_entry(EntryKind.JOB_STATUS, "bob", example(EntryKind.JOB_STATUS, "DONE"), BOB),
            pool_event("bob", BOB),
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
        led.append_entries([pool_event("alice", ALICE)], 24)


def test_failed_batch_leaves_no_trace():
    led = Ledger()
    ghost = derive_signer("test", "ghost")
    batch = [node_spec(ALICE, "alice"), pool_event("ghost", ghost)]
    with pytest.raises(LedgerError, match="no registered key"):
        led.append_entries(batch, 5)
    assert len(led.blocks) == 1
    # alice's key from the failed batch must not have been learned
    with pytest.raises(LedgerError, match="no registered key"):
        led.append_entries([pool_event("alice", ALICE)], 6)
    # nor from a batch that one entry of the wrong shape rejects
    malformed = sign_entry(
        EntryKind.POOL_EVENT, "alice", example(EntryKind.POOL_EVENT, "gather_failed", job=1),
        ALICE)
    with pytest.raises(LedgerError, match=r"POOL_EVENT gather_failed payload\.job"):
        led.append_entries([node_spec(ALICE, "alice"), malformed], 7)
    assert len(led.blocks) == 1
    with pytest.raises(LedgerError, match="no registered key"):
        led.append_entries([pool_event("alice", ALICE)], 8)


def test_append_rejects_wrong_key_signature():
    led = Ledger()
    led.append_entries([node_spec(ALICE, "alice")], 1)
    forged = pool_event("alice", BOB)
    with pytest.raises(LedgerError, match="bad signature"):
        led.append_entries([forged], 2)


def test_node_spec_must_self_certify():
    led = Ledger()
    mismatch = sign_entry(
        EntryKind.NODE_SPEC, "alice",
        example(EntryKind.NODE_SPEC, deed_id="bob", verify_key=ALICE.verify_key.hex()), ALICE,
    )
    with pytest.raises(LedgerError, match="!= payload deed"):
        led.append_entries([mismatch], 1)
    wrong_key = sign_entry(
        EntryKind.NODE_SPEC, "alice",
        example(EntryKind.NODE_SPEC, deed_id="alice", verify_key=BOB.verify_key.hex()), ALICE,
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
    result = load_verified(data)[0]
    assert result.ok and result.blocks == 4


def test_dump_is_stable():
    assert sample_ledger().dump() == sample_ledger().dump()


def test_verify_dump_rejects_bad_magic_and_truncation():
    data = sample_ledger().dump()
    assert not load_verified(b"XYZ" + data[3:])[0].ok
    assert not load_verified(data[:-3])[0].ok
    assert not load_verified(data + b"\0")[0].ok


def with_last_block(blocks, last: bytes) -> bytes:
    """A dump of `blocks` whose last block is the bytes `last`."""
    blobs = [block.wire_bytes for block in blocks[:-1]] + [last]
    return DUMP_MAGIC + struct.pack(">I", len(blobs)) + b"".join(
        struct.pack(">I", len(blob)) + blob for blob in blobs)


# sample_ledger() has blocks 0-3; a dump's header is the magic and a 4-byte
# block count.
@pytest.mark.parametrize("forge, height, message", [
    (lambda data, blocks: DUMP_MAGIC + b"\0\0", 0, "truncated dump header"),
    (lambda data, blocks: DUMP_MAGIC + struct.pack(">I", 5) + data[len(DUMP_MAGIC) + 4:],
     4, "truncated dump at block 4"),
    (lambda data, blocks: with_last_block(blocks, b"L\0\0"), 3,
     "malformed block 3: truncated encoding"),
    (lambda data, blocks: with_last_block(blocks, blocks[3].wire_bytes + b"\0"), 3,
     "malformed block 3: trailing bytes after value at offset "),
], ids=["truncated_header", "missing_block", "truncated_list_header", "trailing_bytes_in_block"])
def test_a_malformed_dump_is_refused_at_its_block(forge, height, message):
    led = sample_ledger()
    with pytest.raises(LedgerError, match=re.escape(message)) as exc:
        load_blocks(forge(led.dump(), led.blocks))
    assert exc.value.height == height


def test_an_empty_chain_does_not_verify():
    assert verify_blocks([]) == VerifyResult(False, 0, "empty chain")


def test_an_entry_whose_payload_is_not_a_map_is_refused():
    # A dump's payload must decode to a map, so only blocks in memory carry one.
    led = Ledger()
    led.append_entries([forged_dumps.mallory_spec()], 1)
    entry = sign_entry(EntryKind.JOB_ASSIGN, "mallory", ["x", 1], forged_dumps.MALLORY)
    reason = "JOB_ASSIGN payload is list, not a map"
    with pytest.raises(LedgerError, match=re.escape(reason)):
        led.append_entries([entry], 2)
    candidate = forged_dumps.sealed_without_checks(led.blocks, [entry], 2)
    assert verify_blocks([*led.blocks, candidate]) == VerifyResult(False, 2, reason, 3, 1)


def test_single_byte_flips_are_detected():
    data = sample_ledger().dump()
    rng = random.Random(1234)
    for _ in range(80):
        pos = rng.randrange(len(data))
        flipped = bytearray(data)
        flipped[pos] ^= 1 << rng.randrange(8)
        result = load_verified(bytes(flipped))[0]
        assert not result.ok, f"flip at byte {pos} went unnoticed"
        assert result.failing_height is not None


@pytest.mark.parametrize("change, reason", [
    (lambda last: {"timestamp": last.timestamp + 1}, "digest mismatch"),
    # The block's digest is still the one its entries seal to, so only the
    # comparison of the re-sealed root catches this.
    (lambda last: {"root": digest(last.root)}, "entries root mismatch"),
], ids=["timestamp", "root"])
def test_tamper_in_last_block_reports_last_height(change, reason):
    led = sample_ledger()
    blocks = list(led.blocks)
    last = blocks[-1]
    bad = dataclasses.replace(last, **change(last))
    result = verify_blocks(blocks[:-1] + [bad])
    assert not result.ok
    assert result.failing_height == last.height
    assert reason in result.reason


def test_tampered_entry_payload_is_detected_at_its_block():
    led = sample_ledger()
    blocks = list(led.blocks)
    victim = blocks[2]
    entry = victim.entries[0]
    forged_entry = dataclasses.replace(
        entry, payload={**entry.payload, "link": 999}
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


@pytest.mark.parametrize("edit", [
    lambda block_wires: block_wires[0].__setitem__(3, 5),
    lambda block_wires: block_wires[0][5].append(block_wires[1][5][0]),
], ids=["timestamp_5", "holds_an_entry"])
def test_block_0_must_be_the_empty_block_at_time_0(edit):
    # Every root, digest and link after the edit is derived again, so the
    # genesis block's own fields are the dump's only fault.
    block_wires = forged_dumps.wires(sample_ledger().blocks)
    edit(block_wires)
    result = load_verified(forged_dumps.frame(forged_dumps.rechain(block_wires)))[0]
    assert (result.ok, result.failing_height) == (False, 0)


@pytest.mark.parametrize("batch, timestamp", [
    ([], 30),
    ([pool_event("alice", ALICE)], 24),
    ([pool_event("alice", ALICE), pool_event("alice", BOB)], 30),
], ids=["empty", "backwards", "second_entry_forged"])
def test_verify_refuses_a_block_with_the_reason_append_gives(batch, timestamp):
    led = sample_ledger()
    with pytest.raises(LedgerError) as exc:
        led.append_entries(batch, timestamp)
    candidate = forged_dumps.sealed_without_checks(led.blocks, batch, timestamp)
    result = load_verified(forged_dumps.frame(forged_dumps.wires([*led.blocks, candidate])))[0]
    assert (result.ok, result.failing_height, result.reason) == (
        False, candidate.height, str(exc.value))
    # Only the blocks that verified are counted, not the admitted first entry.
    assert result.entries == sum(len(block.entries) for block in led.blocks)


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
    assert load_verified(data)[0].ok
    result = load_verified(forged)[0]
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
    result = load_verified(data)[0]
    assert not result.ok
    assert result.failing_height == height
    assert result.reason.startswith(f"malformed block {height}: ")


other_typed_values = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)


@pytest.fixture(scope="module")
def example_blocks():
    return forged_dumps.example_ledger().blocks


def test_every_schema_has_an_example_that_appends(example_blocks):
    assert set(forged_dumps.EXAMPLES) == set(SCHEMAS)
    shapes = [payload_shape(entry.kind, entry.payload)
              for block in example_blocks for entry in block.entries]
    assert shapes == list(forged_dumps.EXAMPLES)
    assert load_verified(forged_dumps.frame(forged_dumps.wires(example_blocks)))[0].ok


def forged_payload_verdict(example_blocks, height, position, edit):
    """Verify the example dump after `edit(payload)` changed one entry's
    payload in place and that entry was signed again, so the payload is the
    dump's only fault."""
    block_wires = copy.deepcopy(forged_dumps.wires(example_blocks))
    entry = block_wires[height][5][position]
    edit(entry[2])
    forged_dumps.resign(entry)
    return load_verified(forged_dumps.frame(forged_dumps.rechain(block_wires)))[0]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_any_field_of_another_type_fails_at_its_block(example_blocks, data):
    block_wires = copy.deepcopy(forged_dumps.wires(example_blocks))
    height = data.draw(st.integers(0, len(block_wires) - 1))
    block = block_wires[height]
    # (container, index, whether the entry is signed again) of each header
    # field, each entry, each entry field and each payload value at any depth
    slots = [(block, i, None) for i in range(6)]
    for position, entry in enumerate(block[5]):
        slots.append((block[5], position, None))
        slots += [(entry, i, None) for i in range(4)]
        slots += [(container, key, entry)
                  for container, key in forged_dumps.payload_slots(entry[2])]
    container, index, resigned = data.draw(st.sampled_from(slots))
    original = container[index]
    container[index] = data.draw(
        other_typed_values.filter(lambda v: type(v) is not type(original)))
    if resigned is not None:
        forged_dumps.resign(resigned)
        forged_dumps.rechain(block_wires)
    result = load_verified(forged_dumps.frame(block_wires))[0]
    assert not result.ok
    assert result.failing_height == height


# For each type a payload holds, a value of another type; an int field gets a
# bool and a float field an int, which compare equal to values of its type.
OTHER_TYPED = {int: True, float: 1, bool: 1, str: b"x", list: "x", dict: []}


def test_every_payload_field_of_another_type_fails_at_its_block(example_blocks):
    cases = [(height, position, entry.kind, n)
             for height, block in enumerate(example_blocks)
             for position, entry in enumerate(block.entries)
             for n in range(len(forged_dumps.payload_slots(entry.payload)))]
    assert len(cases) > 100
    for height, position, kind, n in cases:
        def swap(payload):
            container, key = forged_dumps.payload_slots(payload)[n]
            container[key] = OTHER_TYPED[type(container[key])]

        result = forged_payload_verdict(example_blocks, height, position, swap)
        assert not result.ok
        assert result.failing_height == height
        assert result.reason.startswith(kind.value)


@pytest.mark.parametrize("shape, edit, reason", [
    ((EntryKind.POOL_EVENT, "gather_failed"),
     lambda p: p.update(event="gather_lost"),
     "POOL_EVENT payload.event 'gather_lost' is not a known variant"),
    ((EntryKind.JOB_ASSIGN, None), lambda p: p.pop("steps"),
     "JOB_ASSIGN payload: missing ['steps'], unknown []"),
    ((EntryKind.PROGRESS_PROOF, None), lambda p: p.update(note="x"),
     "PROGRESS_PROOF payload: missing [], unknown ['note']"),
    ((EntryKind.CHALLENGE, "opened"), lambda p: p.update(bond="2/4"),
     "CHALLENGE opened payload.bond: expected a token amount in lowest terms, got '2/4'"),
    ((EntryKind.REWARD_RECORD, None), lambda p: p["entries"][1].__setitem__(1, "1/0"),
     "REWARD_RECORD payload.entries[1][1]: expected a token amount in lowest terms, got '1/0'"),
    ((EntryKind.JOB_ASSIGN, None), lambda p: p["commitments"].update(carol="CD" * 32),
     "JOB_ASSIGN payload.commitments.carol: expected lowercase hex, got 'CDCD"),
    ((EntryKind.NODE_SPEC, "coordinator"), lambda p: p.update(role="auditor"),
     "NODE_SPEC payload.role 'auditor' is not a known variant"),
    # `int` refuses to convert this many digits
    ((EntryKind.NODE_SPEC, None), lambda p: p.update(balance="1" * 5000 + "/3"),
     "NODE_SPEC payload.balance: expected a token amount in lowest terms, got '111"),
], ids=["unknown_event", "missing_key", "extra_key", "unreduced_amount", "zero_denominator",
        "uppercase_hex", "unknown_role", "amount_too_long"])
def test_a_payload_the_protocol_cannot_apply_fails_at_its_block(
        example_blocks, shape, edit, reason):
    # `example_ledger` seals the two NODE_SPECs at height 1, then one example
    # per block.
    index = list(forged_dumps.EXAMPLES).index(shape)
    height, position = (1, index) if index < 2 else (index, 0)
    result = forged_payload_verdict(example_blocks, height, position, edit)
    assert not result.ok
    assert result.failing_height == height
    assert result.reason.startswith(reason)
    # A run cannot seal it either, and the ledger stays as it was.
    led = Ledger()
    led.blocks = list(example_blocks)
    payload = copy.deepcopy(forged_dumps.EXAMPLES[shape])
    edit(payload)
    with pytest.raises(LedgerError) as exc:
        led.append_entries(
            [sign_entry(shape[0], "mallory", payload, forged_dumps.MALLORY)], 100)
    assert str(exc.value).startswith(reason)
    assert led.blocks == list(example_blocks)


def str_fraction_writes(text: str) -> bool:
    try:
        return str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


@given(st.one_of(
    st.fractions().map(str),
    st.text("0123456789-+/. _", max_size=12),  # no "e": exponents would expand
))
@settings(max_examples=300, deadline=None)
def test_a_token_amount_is_a_string_str_fraction_writes(text):
    assert ledger._amount(text) == str_fraction_writes(text)


@given(st.one_of(
    st.binary(max_size=8).map(bytes.hex),
    st.text("0123456789abcdefABF x", max_size=8),
))
@settings(max_examples=300, deadline=None)
def test_hex_is_lowercase_and_whole_bytes(text):
    assert ledger._hex(text) == (re.fullmatch("(?:[0-9a-f]{2})*", text) is not None)


SIGNERS = {deed: derive_signer("test", deed) for deed in ("alice", "bob", "carol")}
# How an entry by `author` is made; `other` is a second signer it may borrow.
ENTRY_FAULTS = ("node_spec", "event", "wrong_key", "deed_mismatch", "rekey", "bad_key_hex")


def planned_entry(fault, author, other):
    signer = SIGNERS[author]
    if fault == "event":  # an unknown author until its NODE_SPEC is admitted
        return pool_event(author, signer)
    if fault == "wrong_key":
        return pool_event(author, SIGNERS[other])
    payload = example(EntryKind.NODE_SPEC, deed_id=author, verify_key=signer.verify_key.hex())
    if fault == "deed_mismatch":
        payload["deed_id"] = other
    elif fault == "rekey":  # self-certified with another signer's key
        signer = SIGNERS[other]
        payload["verify_key"] = signer.verify_key.hex()
    elif fault == "bad_key_hex":
        payload["verify_key"] = "not hex"
    return sign_entry(EntryKind.NODE_SPEC, author, payload, signer)


planned_batches = st.lists(
    st.lists(
        st.tuples(st.sampled_from(ENTRY_FAULTS), st.sampled_from(sorted(SIGNERS)),
                  st.sampled_from(sorted(SIGNERS))),
        min_size=1, max_size=3,
    ),
    min_size=1, max_size=4,
)


@given(planned_batches)
@settings(max_examples=60, deadline=None)
def test_append_and_verify_admit_the_same_entries(batches):
    led = Ledger()
    for timestamp, plan in enumerate(batches, start=1):
        batch = [planned_entry(*step) for step in plan]
        candidate = forged_dumps.sealed_without_checks(led.blocks, batch, timestamp)
        read = verify_blocks([*led.blocks, candidate])
        try:
            led.append_entries(batch, timestamp)
        except LedgerError as exc:
            assert not read.ok
            assert (read.failing_height, read.reason) == (candidate.height, str(exc))
        else:
            assert read.ok, read.reason
            assert led.head.digest == candidate.digest
