"""Acceptance gate: one test per release criterion.

Each test here maps to one line in the terminal summary (see conftest.py).
The reference scenario is the heavyweight fixture: 20 daily epochs, 10 nodes
in two regions, 15 jobs with mixed outcomes, 2 challenges, 2 injected proof
faults. It runs once per session and most criteria read from that run.
"""

import copy
import dataclasses
import random
import struct
import time
from collections import Counter
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import pytest

import plugin_corpus
from computepool.cli import load_verified
from computepool.crypto import derive_signer, digest
from computepool.encoding import encode
from computepool.ledger import DUMP_MAGIC, EntryKind, verify_blocks
from computepool.escrow import ChallengeVerdict, JobStatus
from computepool.pipeline import hash_sign_recheck, make_plugin_code, safety_check
from computepool.scenario import load_scenario, parse_scenario
from computepool.simnet import run_scenario
from computepool.tokenomics import NodeDeed, distribute_epoch_rewards, exact_sum

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="module")
def reference_run():
    scenario = load_scenario(SCENARIOS / "reference.yaml")
    started = time.perf_counter()
    result = run_scenario(scenario)
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.fixture(scope="module")
def clean_run(reference_run):
    """The same scenario with every injected proof fault removed."""
    result, _ = reference_run
    raw = copy.deepcopy(result.scenario.raw)
    for job in raw["jobs"]:
        job.pop("faults", None)
    return run_scenario(parse_scenario(raw))


@pytest.fixture(scope="module")
def demo_run():
    return run_scenario(load_scenario(SCENARIOS / "demo_trio.yaml"))


def random_active(rng, epoch, epoch_seconds):
    horizon = epoch_seconds * epoch
    nodes = []
    for i in range(rng.randint(1, 12)):
        alive = rng.randint(0, horizon)
        if i == 0:
            alive = max(1, alive)  # keep at least one node eligible
        nodes.append(
            NodeDeed(
                f"n{i:02d}",
                total_alive_seconds=alive,
                power_by_epoch={epoch: rng.uniform(-50.0, 50.0)},
            )
        )
    return nodes


def test_ac01_shares_normalize():
    rng = random.Random(99)
    for _ in range(200):
        epoch = rng.randint(1, 40)
        active = random_active(rng, epoch, 3600)
        pool = Fraction(rng.randint(1, 10**6), rng.choice([1, 3, 7]))
        alloc = distribute_epoch_rewards(pool, active, epoch, 3600)
        assert abs(sum(e.share for e in alloc.entries) - 1.0) <= 1e-9
        assert exact_sum(e.amount for e in alloc.entries) == pool


def decimal_shares(active, epoch, epoch_seconds):
    """Recompute shares at 50 significant digits, sharing no code with the
    float path beyond the input data."""
    getcontext().prec = 50
    horizon = Decimal(epoch_seconds) * Decimal(epoch)
    indexes = {}
    for a in active:
        alive = min(Decimal(1), Decimal(a.total_alive_seconds) / horizon)
        power = max(Decimal(-50), min(Decimal(50), Decimal(a.power_at(epoch))))
        indexes[a.deed_id] = power.exp() * alive
    total = sum(indexes.values())
    return {deed: value / total for deed, value in indexes.items()}


def test_ac02_oracle_equivalence():
    rng = random.Random(7)
    for _ in range(60):
        epoch = rng.randint(1, 30)
        active = random_active(rng, epoch, 7200)
        alloc = distribute_epoch_rewards(Fraction(977), active, epoch, 7200)
        oracle = decimal_shares(active, epoch, 7200)
        for entry in alloc.entries:
            assert abs(Decimal(entry.share) - oracle[entry.deed_id]) <= Decimal("1e-12")


def test_ac03_reference_run(reference_run):
    result, elapsed = reference_run
    assert elapsed < 10.0
    assert result.conservation_ok
    assert result.initial_total == result.final_total
    assert verify_blocks(result.ledger.blocks).ok
    assert result.scenario.epochs == 20
    assert len(result.scenario.nodes) == 10
    assert result.audit["jobs_submitted"] == 15
    assert result.audit["challenges_opened"] == 2


def test_ac04_conservation_identity(reference_run):
    result, _ = reference_run
    minted = sum((n.balance for n in result.scenario.nodes), Fraction(0))
    assert result.initial_total == minted
    assert result.final_total == minted
    bank = result.bank
    assert bank.escrow_pool == 0
    assert bank.reward_pool == 0
    pool = bank.pool_payload()
    assert pool["locked"] == [] and pool["bonds"] == []
    # No reward was clawed back: no job that settled, by finishing or by a
    # valid review, also lost an upheld challenge.
    entries = [e for _, e in result.ledger.entries()]
    settled = {
        e.payload["job"] for e in entries
        if (e.kind == EntryKind.JOB_STATUS and e.payload["status"] == "DONE")
        or (e.kind == EntryKind.POOL_EVENT and e.payload["event"] == "review_resolved"
            and e.payload["verdict"] == "WORK_VALID")
    }
    upheld = {
        e.payload["job"] for e in entries
        if e.kind == EntryKind.CHALLENGE and e.payload["phase"] == "resolved"
        and sum(e.payload["votes"].values()) * 2 > len(e.payload["votes"])
    }
    assert upheld and not settled & upheld
    # So every token paid out is a settled job's reward or a forfeited bond.
    assert bank.distributed_total == exact_sum([
        *(j.reward for j in bank.jobs.values() if j.status == JobStatus.SETTLED),
        *(c.bond for c in bank.challenges.values() if c.verdict == ChallengeVerdict.REJECTED),
    ])
    assert bank.registry.total_balance() == minted
    paid = exact_sum(e.amount for a in result.allocations for e in a.entries)
    assert paid == bank.distributed_total


def test_ac05_settlement_paths(reference_run):
    result, _ = reference_run
    statuses = Counter(j.status for j in result.bank.jobs.values())
    assert statuses[JobStatus.SETTLED] == 13
    assert statuses[JobStatus.REFUNDED] == 2

    # review found the work invalid
    assert result.bank.job("n06:1").status is JobStatus.REFUNDED
    # upheld challenge released the review lock early
    assert result.bank.job("n01:2").status is JobStatus.REFUNDED
    # rejected challenge forfeited the bond and the job still settled
    assert result.bank.job("n02:2").status is JobStatus.SETTLED
    verdicts = {cid: c.verdict.value for cid, c in result.bank.challenges.items()}
    assert verdicts == {"ch1": "UPHELD", "ch2": "REJECTED"}
    assert result.audit["jobs_done"] == 11
    assert result.audit["jobs_cancelled"] == 4
    assert result.audit["reviews_resolved"] == 3

    # the ledger's own entries tell the same story
    entries = [entry for _, entry in result.ledger.entries()]
    statuses = Counter(
        e.payload["status"] for e in entries if e.kind == EntryKind.JOB_STATUS
    )
    assert statuses["DONE"] == 11
    assert statuses["CANCELLED"] == 4
    credited = sum(
        (
            Fraction(amount)
            for e in entries
            if e.kind == EntryKind.REWARD_RECORD
            for _deed, amount, _share in e.payload["entries"]
        ),
        Fraction(0),
    )
    assert credited == result.bank.distributed_total
    phases = Counter(e.payload["phase"] for e in entries if e.kind == EntryKind.CHALLENGE)
    assert phases == {"opened": 2, "resolved": 2}


def test_ac06_tamper_detection(reference_run):
    result, _ = reference_run
    dump = result.ledger.dump()

    # walk the dump layout so each flip can be mapped to its block
    spans = []
    pos = len(DUMP_MAGIC)
    (count,) = struct.unpack_from(">I", dump, pos)
    pos += 4
    for height in range(count):
        (size,) = struct.unpack_from(">I", dump, pos)
        pos += 4
        spans.append((height, pos, pos + size))
        pos += size
    assert pos == len(dump)

    rng = random.Random(1234)
    inside_blocks = 0
    for _ in range(50):
        at = rng.randrange(len(dump))
        bad = bytearray(dump)
        bad[at] ^= rng.randrange(1, 256)
        res = load_verified(bytes(bad))[0]
        assert not res.ok, f"flip at byte {at} went undetected"
        for height, start, end in spans:
            if start <= at < end:
                assert res.failing_height == height, (
                    f"flip at byte {at} inside block {height} "
                    f"reported height {res.failing_height}"
                )
                inside_blocks += 1
                break
    assert inside_blocks >= 40  # framing bytes are a sliver of the dump


def share_at(result, epoch, deed_id):
    for alloc in result.allocations:
        if alloc.epoch == epoch:
            for entry in alloc.entries:
                if entry.deed_id == deed_id:
                    return entry.share
    raise AssertionError(f"no allocation entry for {deed_id} in epoch {epoch}")


def test_ac07_penalty_lowers_share(reference_run, clean_run):
    result, _ = reference_run
    assert result.audit["penalties"] == 2
    assert clean_run.audit["penalties"] == 0

    hits = []
    for block in result.ledger.blocks:
        for entry in block.entries:
            if (
                entry.kind is EntryKind.POOL_EVENT
                and entry.payload.get("event") == "proof_rejected"
            ):
                hits.append((entry.payload["worker"], int(entry.payload["epoch"])))
    assert len(hits) == 2
    assert sorted(w for w, _ in hits) == ["n04", "n08"]

    for worker, epoch in hits:
        punished = share_at(result, epoch, worker)
        unpunished = share_at(clean_run, epoch, worker)
        assert punished < unpunished
        assert punished > 0.0  # a penalty dilutes, it does not erase


def test_ac08_determinism_and_seed(reference_run):
    result, _ = reference_run
    scenario = load_scenario(SCENARIOS / "reference.yaml")
    again = run_scenario(scenario)
    assert again.ledger.dump() == result.ledger.dump()
    assert again.audit == result.audit

    reseeded = run_scenario(scenario, seed=43)
    assert reseeded.ledger.dump() != result.ledger.dump()
    juries = {cid: c.jury for cid, c in result.bank.challenges.items()}
    other = {cid: c.jury for cid, c in reseeded.bank.challenges.items()}
    assert set(juries) == set(other)
    assert juries != other


def test_ac09_three_worker_demo(demo_run):
    job = demo_run.bank.job("alpha:1")
    assert job.status is JobStatus.SETTLED
    assert set(job.workers) == {"worker-a", "worker-b", "worker-c"}

    assign = done = None
    for block in demo_run.ledger.blocks:
        for entry in block.entries:
            if entry.payload.get("job") != "alpha:1":
                continue
            if entry.kind is EntryKind.JOB_ASSIGN:
                assign = entry.payload
            elif entry.kind is EntryKind.JOB_STATUS and entry.payload.get("status") == "DONE":
                done = entry.payload
    assert assign is not None and done is not None

    # recompute by hand: counter source, running-sum serving, sum fold
    params = [(0, 1), (100, 2), (200, 3)]
    accs = []
    shards = []
    for index in sorted(i for _, i in assign["workers"]):
        start, stride = params[index]
        running = 0.0
        acc = 0.0
        for step in range(4):
            running += start + step * stride
            acc += running
        accs.append(acc)
        shards.append(encode(["job-result", index, acc]))
    assert accs == [10.0, 1020.0, 2030.0]
    aggregate = encode(shards)
    assert done["aggregate"] == digest(aggregate).hex()
    assert done["aggregate_size"] == len(aggregate)
    assert demo_run.bank.distributed_total == 300
    assert demo_run.conservation_ok


def test_ac10_plugin_vetting():
    # Formulas, the only user code a scenario carries: attribute access,
    # `__import__`, lambdas, comprehensions, strings, foreign calls, unknown
    # names and oversized formulas are refused; the shipped formula passes.
    assert len(plugin_corpus.UNSAFE_SNIPPETS) + len(plugin_corpus.SAFE_SNIPPETS) == 39
    for name, source in plugin_corpus.UNSAFE_SNIPPETS:
        verdict = safety_check(source)
        assert not verdict.safe, f"unsafe snippet {name} slipped through"
        assert verdict.reasons
    for name, source in plugin_corpus.SAFE_SNIPPETS:
        verdict = safety_check(source)
        assert verdict.safe, f"safe snippet {name} flagged: {verdict.reasons}"

    signer = derive_signer("acceptance", "author")
    base = plugin_corpus.SAFE_SNIPPETS[0][1]
    code = make_plugin_code(base, "author", signer)
    assert hash_sign_recheck(code, signer.verify_key) == (True, None)
    caught = 0
    for i in range(100):
        pos = i % len(base)
        swapped = chr((ord(base[pos]) - 32 + 1) % 95 + 32)
        mutated = base[:pos] + swapped + base[pos + 1:]
        assert mutated != base
        tampered = dataclasses.replace(code, source=mutated)
        ok, _ = hash_sign_recheck(tampered, signer.verify_key)
        if not ok:
            caught += 1
    assert caught == 100
