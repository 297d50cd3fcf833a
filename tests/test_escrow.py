"""Escrow bank: job lifecycle, review locks, challenges, ledger entries,
conservation."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.escrow import (
    JURY_SIZE,
    ChallengeError,
    ChallengeVerdict,
    EscrowBank,
    EscrowError,
    InsufficientFundsError,
    JobLifecycleError,
    JobStatus,
    UnknownJobError,
)
from computepool.ledger import EntryKind, LedgerEntry
from computepool.tokenomics import NodeRegistry, UnknownDeedError


REVIEW_LOCK_SECONDS = 86400  # the scenario default
EPOCH_SECONDS = 3600
ACTIVE = [f"n{i}" for i in range(1, 9)]
SEED_HEX = "ab" * 32
# n1 sends, n2 and n3 work, n4 challenges: the jury comes from n5-n8.
JURY = random.Random(bytes.fromhex(SEED_HEX)).sample(["n5", "n6", "n7", "n8"], 3)


def make_bank(balances=None):
    reg = NodeRegistry()
    defaults = {f"n{i}": 1000 for i in range(1, 9)}
    for deed, bal in (balances or defaults).items():
        reg.register(deed, Fraction(bal))
    return EscrowBank(reg, REVIEW_LOCK_SECONDS, EPOCH_SECONDS)


# -- ledger facts, as the simulator records them ------------------------------

def entry(kind, payload):
    return LedgerEntry(kind, "coord", payload, b"")


def assign(job_id, *workers):
    return entry(EntryKind.JOB_ASSIGN, {
        "job": job_id, "pipeline": "p", "steps": 3, "epoch": 1,
        "workers": [[worker, index] for index, worker in enumerate(workers)],
        "commitments": {},
    })


def job_status(job_id, status, at=100, epoch=1):
    return entry(EntryKind.JOB_STATUS, {"job": job_id, "status": status, "at": at, "epoch": epoch})


def opened(job_id, bond="9", challenger="n4", seed=SEED_HEX, epoch=1):
    return entry(EntryKind.CHALLENGE, {
        "phase": "opened", "job": job_id, "challenger": challenger, "bond": bond,
        "seed": seed, "epoch": epoch, "at": 150,
    })


def resolved(challenge_id, job_id, votes):
    return entry(EntryKind.CHALLENGE, {
        "phase": "resolved", "challenge": challenge_id, "job": job_id, "votes": votes, "at": 160,
    })


def review(job_id, verdict="WORK_VALID", at=REVIEW_LOCK_SECONDS):
    return entry(EntryKind.POOL_EVENT,
                 {"event": "review_resolved", "job": job_id, "verdict": verdict, "at": at})


def reward_rows(*rows, pool="5"):
    return entry(EntryKind.REWARD_RECORD,
                 {"epoch": 1, "pool": pool, "entries": [[d, a, 0.5] for d, a in rows]})


def test_submit_funds_escrow_and_sequences_ids():
    bank = make_bank()
    j1 = bank.submit_job("n1:1", "n1", Fraction(100))
    j2 = bank.submit_job("n1:2", "n1", Fraction(50))
    j3 = bank.submit_job("n2:1", "n2", Fraction(10))
    assert (j1.job_id, j2.job_id, j3.job_id) == ("n1:1", "n1:2", "n2:1")
    assert (j1.sender, j3.sender) == ("n1", "n2")
    assert bank.registry.deed("n1").balance == 850
    assert bank.escrow_pool == 160
    assert j1.status == JobStatus.PENDING
    with pytest.raises(EscrowError, match="already submitted"):
        bank.submit_job("n1:2", "n1", Fraction(5))
    assert bank.registry.deed("n1").balance == 850


def test_submit_rejections_leave_state_untouched():
    bank = make_bank({"poor": 30})
    with pytest.raises(InsufficientFundsError):
        bank.submit_job("poor:1", "poor", Fraction(31))
    with pytest.raises(EscrowError):
        bank.submit_job("poor:1", "poor", Fraction(0))
    assert bank.registry.deed("poor").balance == 30
    assert bank.escrow_pool == 0
    assert bank.jobs == {}


def test_lifecycle_graph_is_enforced():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(100))
    with pytest.raises(JobLifecycleError):
        bank.apply(job_status(job.job_id, "DONE"))  # must go through IN_PROGRESS
    assert job.status == JobStatus.PENDING
    bank.apply(assign(job.job_id, "n2"))
    assert job.status == JobStatus.IN_PROGRESS
    assert job.workers == ["n2"]
    with pytest.raises(JobLifecycleError):
        bank.apply(assign(job.job_id, "n3"))
    with pytest.raises(UnknownJobError):
        bank.apply(assign("ghost:1", "n2"))


def test_settle_done_feeds_reward_pool():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(100))
    bank.apply(assign(job.job_id, "n2"))
    bank.apply(job_status(job.job_id, "DONE", at=500, epoch=2))
    assert job.status == JobStatus.SETTLED
    assert job.settled_epoch == 2
    assert bank.escrow_pool == 0
    assert bank.reward_pool == 100
    assert bank.registry.deed("n1").balance == 900
    assert bank.conservation_total() == 8000
    with pytest.raises(JobLifecycleError, match="not in progress"):
        bank.apply(job_status(job.job_id, "DONE", at=501))


def test_cancel_locks_for_review_and_early_resolve_fails():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(100))
    bank.apply(assign(job.job_id, "n2"))
    bank.apply(job_status(job.job_id, "CANCELLED", at=1000))
    assert job.status == JobStatus.LOCKED_FOR_REVIEW
    assert job.unlock_time == 1000 + REVIEW_LOCK_SECONDS
    assert bank.pool_payload()["locked"] == [[job.job_id, "100", job.unlock_time]]
    with pytest.raises(EscrowError, match="cannot resolve before"):
        bank.apply(review(job.job_id, at=1000))
    with pytest.raises(EscrowError, match="cannot resolve before"):
        bank.apply(review(job.job_id, at=job.unlock_time - 1))


def test_review_valid_pays_pool_invalid_refunds_sender():
    bank = make_bank()
    j1 = bank.submit_job("n1:1", "n1", Fraction(100))
    j2 = bank.submit_job("n1:2", "n1", Fraction(40))
    for j in (j1, j2):
        bank.apply(assign(j.job_id, "n2"))
        bank.apply(job_status(j.job_id, "CANCELLED", at=0))
    assert bank.apply(review(j1.job_id, "WORK_VALID")) is j1
    assert j1.status == JobStatus.SETTLED
    assert j1.settled_epoch == REVIEW_LOCK_SECONDS // EPOCH_SECONDS
    assert bank.reward_pool == 100
    assert bank.apply(review(j2.job_id, "WORK_INVALID")) is j2
    assert j2.status == JobStatus.REFUNDED
    assert bank.registry.deed("n1").balance == 1000 - 100  # only j1 stayed spent
    assert bank.pool_payload()["locked"] == []
    with pytest.raises(JobLifecycleError, match="not locked for review"):
        bank.apply(review(j2.job_id, "WORK_VALID"))


def locked_job(bank, sender="n1", reward=90, workers=("n2",)):
    job_id = f"{sender}:{len(bank.jobs) + 1}"
    job = bank.submit_job(job_id, sender, Fraction(reward))
    bank.apply(assign(job_id, *workers))
    bank.apply(job_status(job_id, "CANCELLED", at=0))
    return job


def test_pool_payload_lists_locks_by_sender_then_sequence_number():
    bank = make_bank({"s": 1000, "a": 1000, "w": 0})
    for _ in range(10):
        locked_job(bank, sender="s", reward=1, workers=("w",))
    locked_job(bank, sender="a", reward=1, workers=("w",))
    locked = [job_id for job_id, _amount, _unlock in bank.pool_payload()["locked"]]
    # a plain string sort would put s:10 before s:2
    assert locked == ["a:11"] + [f"s:{i}" for i in range(1, 11)]


def test_jury_draw_matches_seeded_lottery_and_excludes_parties():
    seed_a, seed_b = "aa" * 32, "bb" * 32
    bank = make_bank()
    job = locked_job(bank, sender="n1", workers=("n2", "n3"))
    ch = bank.apply(opened(job.job_id, seed=seed_a), ACTIVE)
    eligible = sorted(set(ACTIVE) - {"n1", "n2", "n3", "n4"})
    assert ch.jury == random.Random(bytes.fromhex(seed_a)).sample(eligible, 3)
    assert not {"n1", "n2", "n3", "n4"} & set(ch.jury)
    assert bank.registry.deed("n4").balance == 1000 - 9
    assert bank.pool_payload()["bonds"] == [[ch.challenge_id, "9"]]

    # same seed, same jury; the draw has no hidden state
    bank2 = make_bank()
    job2 = locked_job(bank2, sender="n1", workers=("n2", "n3"))
    ch2 = bank2.apply(opened(job2.job_id, seed=seed_a), ACTIVE)
    assert ch2.jury == ch.jury
    bank3 = make_bank()
    job3 = locked_job(bank3, sender="n1", workers=("n2", "n3"))
    ch3 = bank3.apply(opened(job3.job_id, seed=seed_b), ACTIVE)
    assert ch3.jury == random.Random(bytes.fromhex(seed_b)).sample(eligible, 3)


@pytest.mark.parametrize("seed_hex,eligible,jury", [
    ("00" * 32, ["a", "b", "c"], ["b", "c", "a"]),
    ("ab" * 32, ["n5", "n6", "n7", "n8"], ["n7", "n8", "n5"]),
    ("ff" * 32, [f"w{i}" for i in range(40)], ["w34", "w8", "w3"]),
    # the two draws of scenarios/reference.yaml at its own seed
    ("0386755e47e7ee7a09dc6227e9b352a60a7eef7d6524364c8b909104bc4fe704",
     ["n02", "n03", "n06", "n07", "n09", "n10"], ["n02", "n09", "n03"]),
    ("50deb8a2f19ba1ccca05c56077963fc2d4e96269ec7eb98cd1e26062318e1673",
     ["n03", "n04", "n05", "n09", "n10"], ["n03", "n09", "n05"]),
])
def test_the_jury_draw_is_pinned_across_python_releases(seed_hex, eligible, jury):
    """Python promises only that `random()` repeats across releases, not
    `sample`. A release that changes the draw fails here by name instead of
    silently moving every recorded jury and `audit.json`."""
    assert random.Random(bytes.fromhex(seed_hex)).sample(eligible, JURY_SIZE) == jury


def test_challenge_rejections():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(90))
    with pytest.raises(ChallengeError, match="not challengeable"):
        bank.apply(opened(job.job_id), ACTIVE)
    bank.apply(assign(job.job_id, "n2"))
    bank.apply(job_status(job.job_id, "CANCELLED", at=0))
    with pytest.raises(ChallengeError, match="bond must be positive"):
        bank.apply(opened(job.job_id, bond="0"), ACTIVE)
    with pytest.raises(InsufficientFundsError):
        bank.apply(opened(job.job_id, bond="2000"), ACTIVE)
    with pytest.raises(ChallengeError, match="eligible jurors"):
        bank.apply(opened(job.job_id), ["n1", "n2", "n4", "n5", "n6"])
    assert bank.challenges == {}
    assert bank.registry.deed("n4").balance == 1000


def test_challenge_window_closes_after_settlement_epoch():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(90))
    bank.apply(assign(job.job_id, "n2"))
    bank.apply(job_status(job.job_id, "DONE", at=0, epoch=2))
    with pytest.raises(ChallengeError, match="window closed"):
        bank.apply(opened(job.job_id, epoch=3), ACTIVE)
    ch = bank.apply(opened(job.job_id, epoch=2), ACTIVE)
    assert ch.verdict == ChallengeVerdict.PENDING


def test_upheld_challenge_on_locked_job_refunds_sender_and_bond():
    bank = make_bank()
    job = locked_job(bank, reward=90)
    ch = bank.apply(opened(job.job_id), ACTIVE)
    votes = {ch.jury[0]: True, ch.jury[1]: True, ch.jury[2]: False}
    resolved_ch = bank.apply(resolved(ch.challenge_id, ch.job_id, votes))
    assert resolved_ch is ch
    assert ch.verdict == ChallengeVerdict.UPHELD
    assert job.status == JobStatus.REFUNDED
    assert bank.registry.deed("n1").balance == 1000  # reward refunded
    assert bank.registry.deed("n4").balance == 1000  # bond returned
    pool = bank.pool_payload()
    assert pool["locked"] == [] and pool["bonds"] == []
    assert bank.reward_pool == 0


def test_rejected_challenge_forfeits_bond_to_pool():
    bank = make_bank()
    job = locked_job(bank, reward=90)
    ch = bank.apply(opened(job.job_id), ACTIVE)
    votes = {j: (i == 2) for i, j in enumerate(ch.jury)}
    bank.apply(resolved(ch.challenge_id, ch.job_id, votes))
    assert ch.verdict == ChallengeVerdict.REJECTED
    assert bank.registry.deed("n4").balance == 991
    assert bank.reward_pool == 9
    assert bank.pool_payload()["bonds"] == []  # the bond left escrow for the pool
    assert bank.conservation_total() == 8000
    # the job is still locked, and the review still waits for the lock to run out
    assert job.status == JobStatus.LOCKED_FOR_REVIEW
    with pytest.raises(EscrowError, match="cannot resolve before"):
        bank.apply(review(job.job_id, at=10))
    bank.apply(review(job.job_id, at=REVIEW_LOCK_SECONDS))
    assert bank.reward_pool == 99


def test_upheld_challenge_on_settled_job_claws_back_reward():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(90))
    bank.apply(assign(job.job_id, "n2"))
    bank.apply(job_status(job.job_id, "DONE", at=0, epoch=1))
    ch = bank.apply(opened(job.job_id, epoch=1), ACTIVE)
    bank.apply(resolved(ch.challenge_id, ch.job_id, {j: True for j in ch.jury}))
    assert ch.verdict == ChallengeVerdict.UPHELD
    assert job.status == JobStatus.REFUNDED
    assert bank.pool_payload() == {
        "escrow_pool": "0", "reward_pool": "0", "locked": [], "bonds": [],
        "distributed_total": "0",
    }
    assert bank.conservation_total() == 8000
    assert bank.registry.deed("n1").balance == 1000
    assert bank.registry.deed("n4").balance == 1000


def test_challenge_vote_bookkeeping():
    bank = make_bank()
    job = locked_job(bank)
    ch = bank.apply(opened(job.job_id), ACTIVE)
    with pytest.raises(ChallengeError, match="unknown challenge"):
        bank.apply(resolved("ch99", job.job_id, {}))
    with pytest.raises(ChallengeError, match="one vote per juror"):
        bank.apply(resolved(ch.challenge_id, ch.job_id, {ch.jury[0]: True}))
    with pytest.raises(ChallengeError, match="one vote per juror"):
        votes = {j: True for j in ch.jury}
        votes["n1"] = True
        bank.apply(resolved(ch.challenge_id, ch.job_id, votes))
    bank.apply(resolved(ch.challenge_id, ch.job_id, {j: False for j in ch.jury}))
    with pytest.raises(ChallengeError, match="already resolved"):
        bank.apply(resolved(ch.challenge_id, ch.job_id, {j: False for j in ch.jury}))


def test_pay_reward_guards_pool():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(50))
    bank.apply(assign(job.job_id, "n2"))
    bank.apply(job_status(job.job_id, "DONE", at=0))
    bank.apply(reward_rows(("n3", "20"), ("n4", "30"), pool="50"))
    assert bank.registry.deed("n3").balance == 1020
    assert bank.registry.deed("n4").balance == 1030
    assert (bank.reward_pool, bank.distributed_total) == (0, 50)
    with pytest.raises(EscrowError, match="exactly"):
        bank.apply(reward_rows(("n3", "1"), pool="1"))
    with pytest.raises(EscrowError, match="non-negative"):
        bank.apply(reward_rows(("n3", "1"), ("n4", "-1"), pool="0"))
    assert bank.registry.deed("n3").balance == 1020


# -- apply: one ledger entry, one change of state ---------------------------

def state(bank):
    """Everything `apply` may change: balances that moved off their opening
    1000, pool levels, the distributed total, jobs and challenges."""
    return {
        "moved": {d: deed.balance - 1000 for d, deed in bank.registry.deeds.items()
                  if deed.balance != 1000},
        "escrow_pool": bank.escrow_pool,
        "reward_pool": bank.reward_pool,
        "distributed_total": bank.distributed_total,
        "jobs": {j.job_id: (j.status, j.workers, j.settled_epoch, j.unlock_time)
                 for j in bank.jobs.values()},
        "challenges": {c.challenge_id: (c.challenger, c.bond, c.jury, c.verdict)
                       for c in bank.challenges.values()},
    }


def snapshot(bank):
    return copy.deepcopy(state(bank))


def funded(bank):
    bank.submit_job("n1:1", "n1", Fraction(5))


def running(bank):
    funded(bank)
    bank.apply(assign("n1:1", "n2", "n3"))


def settled(bank):
    running(bank)
    bank.apply(job_status("n1:1", "DONE", at=100, epoch=1))


def locked(bank):
    running(bank)
    bank.apply(job_status("n1:1", "CANCELLED", at=100, epoch=1))


def challenged(bank):
    locked(bank)
    bank.apply(opened("n1:1"), ACTIVE)


WORKERS = ["n2", "n3"]
UNLOCK = 100 + REVIEW_LOCK_SECONDS
APPLY_CASES = {
    "assign": (
        funded,
        assign("n1:1", "n2", "n3"),
        dict(moved={"n1": -5}, escrow_pool=5,
             jobs={"n1:1": (JobStatus.IN_PROGRESS, WORKERS, None, None)}),
    ),
    "done": (
        running,
        job_status("n1:1", "DONE", at=100, epoch=2),
        dict(moved={"n1": -5}, reward_pool=5,
             jobs={"n1:1": (JobStatus.SETTLED, WORKERS, 2, None)}),
    ),
    "cancelled": (
        running,
        job_status("n1:1", "CANCELLED", at=100, epoch=2),
        dict(moved={"n1": -5},
             jobs={"n1:1": (JobStatus.LOCKED_FOR_REVIEW, WORKERS, None, UNLOCK)}),
    ),
    "cancelled_before_assignment": (
        funded,
        job_status("n1:1", "CANCELLED", at=100, epoch=2),
        dict(jobs={"n1:1": (JobStatus.REFUNDED, [], None, None)}),
    ),
    "reward": (
        settled,
        reward_rows(("n2", "5/2"), ("n3", "5/2")),
        dict(moved={"n1": -5, "n2": Fraction(5, 2), "n3": Fraction(5, 2)}, distributed_total=5,
             jobs={"n1:1": (JobStatus.SETTLED, WORKERS, 1, None)}),
    ),
    "opened": (
        locked,
        opened("n1:1", bond="9/2"),
        dict(moved={"n1": -5, "n4": Fraction(-9, 2)},
             jobs={"n1:1": (JobStatus.LOCKED_FOR_REVIEW, WORKERS, None, UNLOCK)},
             challenges={"ch1": ("n4", Fraction(9, 2), JURY, ChallengeVerdict.PENDING)}),
    ),
    "review_valid": (
        locked,
        review("n1:1", "WORK_VALID", at=UNLOCK),
        dict(moved={"n1": -5}, reward_pool=5,
             jobs={"n1:1": (JobStatus.SETTLED, WORKERS, 25, UNLOCK)}),  # 86,500 s is in epoch 25
    ),
    "review_invalid": (
        locked,
        review("n1:1", "WORK_INVALID", at=UNLOCK),
        dict(jobs={"n1:1": (JobStatus.REFUNDED, WORKERS, None, UNLOCK)}),
    ),
    "resolved": (
        challenged,
        resolved("ch1", "n1:1", {JURY[0]: True, JURY[1]: True, JURY[2]: False}),
        # the sender has the reward back and the challenger the bond
        dict(jobs={"n1:1": (JobStatus.REFUNDED, WORKERS, None, UNLOCK)},
             challenges={"ch1": ("n4", Fraction(9), JURY, ChallengeVerdict.UPHELD)}),
    ),
}


@pytest.mark.parametrize("prepare, fact, expected", APPLY_CASES.values(), ids=APPLY_CASES)
def test_apply_moves_funds_as_its_entry_says(prepare, fact, expected):
    bank = make_bank()
    prepare(bank)
    changed = bank.apply(fact, ACTIVE)
    empty = dict(moved={}, escrow_pool=0, reward_pool=0, distributed_total=0, challenges={})
    assert state(bank) == {**empty, **expected}
    if fact.kind == EntryKind.REWARD_RECORD:
        assert changed is None
    elif fact.kind == EntryKind.CHALLENGE:
        assert changed is bank.challenges["ch1"]
    else:
        assert changed is bank.jobs["n1:1"]
    assert bank.conservation_total() == 8000


@pytest.mark.parametrize("prepare, fact, error, match", [
    (locked, review("ghost:1", at=UNLOCK), UnknownJobError, "unknown job ghost:1"),
    (running, review("n1:1", at=UNLOCK), JobLifecycleError, "not locked for review"),
    (locked, review("n1:1", at=UNLOCK - 1), EscrowError, "cannot resolve before"),
    (locked, review("n1:1", "WORK_MAYBE", at=UNLOCK), EscrowError, "unknown review verdict"),
], ids=["unknown_job", "not_locked", "before_unlock", "unknown_verdict"])
def test_a_refused_review_moves_no_funds(prepare, fact, error, match):
    bank = make_bank()
    prepare(bank)
    before = snapshot(bank), bank.conservation_total()
    with pytest.raises(error, match=match):
        bank.apply(fact)
    assert (snapshot(bank), bank.conservation_total()) == before


@pytest.mark.parametrize("at, epoch", [
    (24 * EPOCH_SECONDS, 24),
    (24 * EPOCH_SECONDS + 1, 25),
    (30 * EPOCH_SECONDS, 30),
    (30 * EPOCH_SECONDS + 1, 31),
])
def test_a_valid_review_settles_into_the_epoch_that_holds_its_time(at, epoch):
    """Epoch k spans ((k-1)·E, k·E]: a verdict at k·E settles into epoch k."""
    bank = make_bank()
    job = locked_job(bank)  # cancelled at 0, so the lock runs out at 24·E
    bank.apply(review(job.job_id, at=at))
    assert job.settled_epoch == epoch


@pytest.mark.parametrize("pay, error, match", [
    (lambda bank: bank.apply(reward_rows(("n2", "2"), ("ghost", "3"))),
     UnknownDeedError, "ghost"),
    (lambda bank: bank.apply(reward_rows(("n2", "3"), ("n3", "3"))), EscrowError, "exactly"),
    (lambda bank: bank.apply(reward_rows(("n2", "6"), ("n3", "-1"))), EscrowError, "non-negative"),
    (lambda bank: bank.apply(reward_rows(("n2", "2"), ("n3", "1"))), EscrowError, "exactly"),
    (lambda bank: bank.apply(reward_rows(("n2", "2"), ("n3", "2"), pool="4")),
     EscrowError, "exactly"),
    (lambda bank: bank.apply(reward_rows(("ghost", "5"))), UnknownDeedError, "ghost"),
], ids=["unknown_deed_last", "rows_over_pool", "negative_row", "rows_short_of_pool",
        "pool_is_not_the_reward_pool", "pay_unknown_deed"])
def test_a_reward_payout_is_all_or_nothing(pay, error, match):
    bank = make_bank()
    settled(bank)  # 5 tokens in the reward pool
    before = snapshot(bank), bank.conservation_total()
    with pytest.raises(error, match=match):
        pay(bank)
    assert (snapshot(bank), bank.conservation_total()) == before


@pytest.mark.parametrize("kind, payload", [
    (EntryKind.NODE_SPEC, {"deed_id": "n1", "verify_key": "00" * 32}),
    (EntryKind.PROGRESS_PROOF, {"job": "n1:1", "worker": "n2", "link": 1}),
    (EntryKind.POOL_EVENT, {"event": "jury_drawn", "challenge": "ch1", "job": "n1:1",
                            "jury": JURY}),
    (EntryKind.JOB_STATUS, {"job": "n1:1", "status": "IN_PROGRESS", "at": 100, "epoch": 1}),
    (EntryKind.CHALLENGE, {"phase": "appealed", "challenge": "ch1", "job": "n1:1"}),
], ids=["node_spec", "progress_proof", "pool_event", "in_progress", "unknown_phase"])
def test_apply_ignores_entries_that_move_no_funds(kind, payload):
    bank = make_bank()
    challenged(bank)
    before = snapshot(bank)
    assert bank.apply(entry(kind, payload), ACTIVE) is None
    assert snapshot(bank) == before


outcome_choice = st.sampled_from(["done", "valid", "invalid", "cancelled_before_assignment"])
upheld_votes = st.lists(st.booleans(), max_size=2)  # per challenge: upheld or rejected


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=200), outcome_choice, upheld_votes),
                min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_conservation_holds_across_any_job_history(steps):
    """Funds move only as the simulator moves them: `submit_job`, then
    ledger facts through `apply`, the review verdict once its lock runs out.
    Each step funds one job, then settles, locks or cancels it and opens its
    challenges; the verdicts and the review land one step later. The test
    keeps its own model of every job's status, the balances, open locks,
    pending bonds and the reward pool."""
    opening = {"s": 10**6, "c": 10**6, "j0": 0, "j1": 0, "j2": 0, "w": 0, "x": 0}
    bank = make_bank(opening)
    start = bank.conservation_total()
    balances = dict(opening)
    rewards: dict[str, Fraction] = {}
    statuses: dict[str, JobStatus] = {}
    locks: dict[str, int] = {}  # job id -> unlock time
    bonds: dict[str, Fraction] = {}  # challenge id -> bond
    pool = Fraction(0)
    jurors = ["c", "j0", "j1", "j2"]

    def check():
        assert bank.conservation_total() == start
        assert {j.job_id: j.status for j in bank.jobs.values()} == statuses
        assert {d: deed.balance for d, deed in bank.registry.deeds.items()} == balances
        assert bank.reward_pool == pool >= 0
        row = bank.pool_payload()
        by_seq = sorted(locks, key=lambda job_id: int(job_id.split(":")[1]))
        assert row["locked"] == [[j, str(rewards[j]), locks[j]] for j in by_seq]
        assert row["bonds"] == [[cid, str(bonds[cid])] for cid in sorted(bonds)]

    def refund(job_id):
        balances["s"] += rewards[job_id]
        statuses[job_id] = JobStatus.REFUNDED

    def land(verdicts, reviews):
        nonlocal pool
        for cid, job_id, upheld in verdicts:
            challenge = bank.challenges[cid]
            bank.apply(resolved(cid, job_id, {j: upheld for j in challenge.jury}))
            bond = bonds.pop(cid)
            if not upheld:
                pool += bond
            else:
                balances["c"] += bond
                if statuses[job_id] != JobStatus.REFUNDED:  # a job is refunded once
                    if locks.pop(job_id, None) is None:
                        pool -= rewards[job_id]
                    refund(job_id)
            check()
        for job_id, verdict in reviews:
            if job_id in locks:
                bank.apply(review(job_id, verdict, at=locks.pop(job_id)))
                if verdict == "WORK_VALID":
                    pool += rewards[job_id]
                    statuses[job_id] = JobStatus.SETTLED
                else:
                    refund(job_id)
                check()

    verdicts, reviews = [], []
    for now, (reward, outcome, upholds) in enumerate(steps):
        land(verdicts, reviews)
        verdicts, reviews = [], []
        job_id = f"s:{len(bank.jobs) + 1}"
        rewards[job_id] = Fraction(reward)
        bank.submit_job(job_id, "s", rewards[job_id])
        balances["s"] -= rewards[job_id]
        statuses[job_id] = JobStatus.PENDING
        check()
        if outcome == "cancelled_before_assignment":
            bank.apply(job_status(job_id, "CANCELLED", at=now))
            refund(job_id)
        else:
            bank.apply(assign(job_id, "w"))
            statuses[job_id] = JobStatus.IN_PROGRESS
            check()
        if outcome == "done":
            bank.apply(job_status(job_id, "DONE", at=now, epoch=1))
            pool += rewards[job_id]
            statuses[job_id] = JobStatus.SETTLED
        elif outcome in ("valid", "invalid"):
            bank.apply(job_status(job_id, "CANCELLED", at=now))
            locks[job_id] = now + REVIEW_LOCK_SECONDS
            statuses[job_id] = JobStatus.LOCKED_FOR_REVIEW
            reviews.append((job_id, "WORK_VALID" if outcome == "valid" else "WORK_INVALID"))
        check()
        for upheld in upholds:
            bond = rewards[job_id] / 10
            fact = opened(job_id, bond=str(bond), challenger="c", seed="5e" * 32, epoch=1)
            if outcome == "cancelled_before_assignment":
                with pytest.raises(ChallengeError, match="not challengeable"):
                    bank.apply(fact, jurors)
            else:
                ch = bank.apply(fact, jurors)
                bonds[ch.challenge_id] = bond
                balances["c"] -= bond
                verdicts.append((ch.challenge_id, job_id, upheld))
            check()
    land(verdicts, reviews)
    assert locks == {} and bonds == {}
    # drain whatever reached the reward pool and check one last time
    drained = bank.reward_pool
    bank.apply(reward_rows(("x", str(drained)), pool=str(drained)))
    balances["x"] += drained
    pool = Fraction(0)
    check()
