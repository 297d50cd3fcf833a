"""Worker ranking, progress chains, and result gathering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.crypto import derive_signer, digest
from computepool.distribution import (
    DistributionError,
    GatherError,
    InsufficientWorkersError,
    ProgressProof,
    ProgressTracker,
    assign_workers,
    chain_genesis,
    make_capability_commitment,
    make_result_shard,
    next_commitment,
    rank_candidates,
    reduce_gather,
    verify_capability_commitment,
    verify_progress,
)
from computepool.tokenomics import Capability


def test_covers_is_componentwise():
    big = Capability(cpu=4, gpu=True, gpu_units=2, memory=16)
    assert big.covers(Capability(cpu=4, memory=16))
    assert big.covers(Capability(cpu=1, gpu=True, gpu_units=2))
    assert not big.covers(Capability(cpu=5))
    assert not big.covers(Capability(gpu=True, gpu_units=3))
    assert not Capability(cpu=8, gpu=False).covers(Capability(cpu=1, gpu=True, gpu_units=1))


def test_rank_orders_by_score_then_id():
    candidates = {
        "slow": Capability(cpu=1),
        "gpu-box": Capability(cpu=2, gpu=True, gpu_units=2, memory=8),
        "twin-a": Capability(cpu=4),
        "twin-b": Capability(cpu=4),
    }
    ranked = rank_candidates(Capability(cpu=1), candidates)
    # gpu-box scores 2 + 4 * 2 + 0.25 * 8 = 12, twins score 4, slow scores 1
    assert [candidates[d].score() for d in ranked] == [12.0, 4.0, 4.0, 1.0]
    assert ranked == ["gpu-box", "twin-a", "twin-b", "slow"]


def test_rank_filters_to_covering_candidates():
    candidates = {"a": Capability(cpu=1), "b": Capability(cpu=8)}
    assert rank_candidates(Capability(cpu=2), candidates) == ["b"]
    assert rank_candidates(Capability(cpu=99), candidates) == []


def test_assign_workers_fills_slots_in_rank_order():
    candidates = {
        "w1": Capability(cpu=2),
        "w2": Capability(cpu=8),
        "w3": Capability(cpu=4),
    }
    ranked = rank_candidates(Capability(cpu=1), candidates)
    out = assign_workers("job:1", ranked, 2)
    assert out == ["w2", "w3"]  # slot i is list position i
    with pytest.raises(InsufficientWorkersError, match="need 4"):
        assign_workers("job:1", ranked, 4)


NODE_IDS = [f"n{i}" for i in range(8)]
# Small integer capabilities make equal scores common, so ties are exercised.
small_caps = st.builds(
    Capability,
    cpu=st.integers(0, 2),
    gpu=st.booleans(),
    gpu_units=st.integers(0, 1),
    memory=st.integers(0, 2),
)


@given(
    st.dictionaries(st.sampled_from(NODE_IDS), small_caps),
    small_caps,
    st.sets(st.sampled_from(NODE_IDS)),
    st.sampled_from(NODE_IDS),
)
@settings(max_examples=100, deadline=None)
def test_filtering_a_ranking_equals_ranking_the_filtered_candidates(
    candidates, requirement, up, sender
):
    eligible = {n for n in candidates if n in up and n != sender}
    filtered = [n for n in rank_candidates(requirement, candidates) if n in eligible]
    subset = {n: cap for n, cap in candidates.items() if n in eligible}
    assert filtered == rank_candidates(requirement, subset)


def test_capability_commitment_roundtrip():
    signer = derive_signer("t", "w")
    cap = Capability(cpu=2, memory=4)
    sig = make_capability_commitment("j:1", "w", cap, signer)
    assert verify_capability_commitment("j:1", "w", cap, signer.verify_key, sig)
    assert not verify_capability_commitment("j:2", "w", cap, signer.verify_key, sig)
    assert not verify_capability_commitment(
        "j:1", "w", Capability(cpu=3, memory=4), signer.verify_key, sig
    )


def make_chain(job="j:1", worker="w", n=5):
    head = chain_genesis(job, worker)
    proofs = []
    for link in range(1, n + 1):
        nonce = digest(f"{link}".encode())
        head = next_commitment(head, nonce)
        proofs.append(ProgressProof(job, worker, link, head, nonce))
    return proofs


def test_progress_chain_accepts_sequential_links():
    tracker = ProgressTracker()
    tracker.start("j:1", "w")
    for proof in make_chain():
        ok, reason = tracker.observe(proof)
        assert ok and reason is None
    assert tracker.head("j:1", "w")[1] == 5


def test_replayed_link_is_rejected():
    tracker = ProgressTracker()
    tracker.start("j:1", "w")
    proofs = make_chain()
    for p in proofs[:3]:
        tracker.observe(p)
    ok, reason = tracker.observe(proofs[1])
    assert not ok and "replayed link 2" in reason
    ok, reason = tracker.observe(proofs[2])
    assert not ok and "replayed" in reason
    # the chain head is unchanged, so the next honest link still lands
    assert tracker.observe(proofs[3]) == (True, None)


def test_skipping_ahead_is_rejected():
    tracker = ProgressTracker()
    tracker.start("j:1", "w")
    proofs = make_chain()
    ok, reason = tracker.observe(proofs[2])
    assert not ok and "skips ahead" in reason
    assert tracker.observe(proofs[0]) == (True, None)


def test_forged_commitment_is_rejected():
    tracker = ProgressTracker()
    tracker.start("j:1", "w")
    real = make_chain()[0]
    forged = ProgressProof(
        real.job, real.worker, real.link_index, digest(b"made up"), real.nonce
    )
    ok, reason = tracker.observe(forged)
    assert not ok and "commitment mismatch" in reason
    # forging a nonce breaks the commitment equation too
    forged2 = ProgressProof(
        real.job, real.worker, real.link_index, real.commitment, digest(b"other")
    )
    ok, reason = tracker.observe(forged2)
    assert not ok and "commitment mismatch" in reason
    assert tracker.observe(real) == (True, None)


def test_verify_progress_is_stateless():
    genesis = chain_genesis("j:1", "w")
    proof = make_chain()[0]
    assert verify_progress(proof, genesis, 0) == (True, None)
    assert verify_progress(proof, genesis, 0) == (True, None)
    ok, _ = verify_progress(proof, digest(b"wrong head"), 0)
    assert not ok


def test_tracker_requires_started_chain():
    tracker = ProgressTracker()
    with pytest.raises(DistributionError, match="no progress chain"):
        tracker.head("j:1", "w")


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_chain_never_accepts_wrong_position(n, claim):
    proofs = make_chain(n=n)
    tracker = ProgressTracker()
    tracker.start("j:1", "w")
    for p in proofs[:-1]:
        tracker.observe(p)
    last = proofs[-1]
    moved = ProgressProof(last.job, last.worker, claim, last.commitment, last.nonce)
    ok, _ = tracker.observe(moved)
    assert ok == (claim == n)


def gather_fixture(n=3):
    signers = {f"w{i}": derive_signer("g", f"w{i}") for i in range(n)}
    workers = [f"w{i}" for i in range(n)]
    shards = [
        make_result_shard("j:1", f"w{i}", i, f"payload-{i}".encode(), signers[f"w{i}"])
        for i in range(n)
    ]
    keys = {w: s.verify_key for w, s in signers.items()}
    return workers, shards, keys


def test_gather_is_order_insensitive_and_deterministic():
    workers, shards, keys = gather_fixture()
    agg1, dig1 = reduce_gather("j:1", workers, shards, keys)
    agg2, dig2 = reduce_gather("j:1", workers, list(reversed(shards)), keys)
    assert (agg1, dig1) == (agg2, dig2)
    assert dig1 == digest(agg1)


def test_gather_rejects_missing_duplicate_extra_and_foreign():
    workers, shards, keys = gather_fixture()
    with pytest.raises(GatherError, match="missing result shards"):
        reduce_gather("j:1", workers, shards[:2], keys)
    with pytest.raises(GatherError, match="duplicate shard"):
        reduce_gather("j:1", workers, shards + [shards[0]], keys)
    with pytest.raises(GatherError, match="unexpected shard"):
        reduce_gather("j:1", workers[:2], shards, keys)
    foreign = make_result_shard("j:2", "w0", 0, b"x", derive_signer("g", "w0"))
    with pytest.raises(GatherError, match="mixed into gather"):
        reduce_gather("j:1", workers, [foreign] + shards[1:], keys)


def test_gather_rejects_wrong_worker_and_bad_signature():
    workers, shards, keys = gather_fixture()
    imposter = make_result_shard("j:1", "w9", 0, b"x", derive_signer("g", "w9"))
    with pytest.raises(GatherError, match="signed by w9"):
        reduce_gather("j:1", workers, [imposter] + shards[1:], keys)
    wrong_key = make_result_shard("j:1", "w0", 0, b"x", derive_signer("g", "other"))
    with pytest.raises(GatherError, match="signature invalid"):
        reduce_gather("j:1", workers, [wrong_key] + shards[1:], keys)


def test_gather_rejects_tampered_payload():
    import dataclasses

    workers, shards, keys = gather_fixture()
    tampered = dataclasses.replace(shards[1], payload=b"swapped bytes")
    with pytest.raises(GatherError, match="digest mismatch"):
        reduce_gather("j:1", workers, [shards[0], tampered, shards[2]], keys)
    # fixing up the digest without re-signing still fails
    refit = dataclasses.replace(tampered, payload_digest=digest(b"swapped bytes"))
    with pytest.raises(GatherError, match="signature invalid"):
        reduce_gather("j:1", workers, [shards[0], refit, shards[2]], keys)
