"""Escrow bank: job lifecycle, review locks, challenges, ledger entries,
conservation."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.escrow import (
    ChallengeError,
    ChallengeVerdict,
    EscrowBank,
    EscrowError,
    InsufficientFundsError,
    JobLifecycleError,
    JobStatus,
    ReviewVerdict,
    UnknownJobError,
)
from computepool.ledger import EntryKind, LedgerEntry
from computepool.tokenomics import NodeRegistry, UnknownDeedError


REVIEW_LOCK_SECONDS = 86400  # the scenario default


def make_bank(balances=None):
    reg = NodeRegistry()
    defaults = {f"n{i}": 1000 for i in range(1, 9)}
    for deed, bal in (balances or defaults).items():
        reg.register(deed, Fraction(bal))
    return EscrowBank(reg, REVIEW_LOCK_SECONDS)


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
        bank.settle_job(job.job_id, "DONE", now=0)  # must go through IN_PROGRESS
    assert job.status == JobStatus.PENDING
    bank.activate(job.job_id, ["n2"])
    assert job.status == JobStatus.IN_PROGRESS
    assert job.workers == ["n2"]
    with pytest.raises(JobLifecycleError):
        bank.activate(job.job_id, ["n3"])
    with pytest.raises(UnknownJobError):
        bank.activate("ghost:1", ["n2"])


def test_settle_done_feeds_reward_pool():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(100))
    bank.activate(job.job_id, ["n2"])
    bank.settle_job(job.job_id, "DONE", now=500, epoch=2)
    assert job.status == JobStatus.SETTLED
    assert job.settled_epoch == 2
    assert bank.escrow_pool == 0
    assert bank.reward_pool == 100
    assert bank.registry.deed("n1").balance == 900
    assert bank.conservation_total() == 8000
    with pytest.raises(JobLifecycleError, match="not in progress"):
        bank.settle_job(job.job_id, "DONE", now=501)


def test_settle_rejects_non_final_status():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(100))
    bank.activate(job.job_id, ["n2"])
    with pytest.raises(JobLifecycleError):
        bank.settle_job(job.job_id, "SETTLED", now=0)


def test_cancel_locks_for_review_and_early_resolve_fails():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(100))
    bank.activate(job.job_id, ["n2"])
    bank.settle_job(job.job_id, "CANCELLED", now=1000)
    assert job.status == JobStatus.LOCKED_FOR_REVIEW
    assert job.unlock_time == 1000 + REVIEW_LOCK_SECONDS
    assert bank.pool_payload()["locked"] == [[job.job_id, "100", job.unlock_time]]
    with pytest.raises(EscrowError, match="cannot resolve before"):
        bank.resolve_review(job.job_id, ReviewVerdict.WORK_VALID, now=1000)
    with pytest.raises(EscrowError):
        bank.resolve_review(job.job_id, ReviewVerdict.WORK_VALID,
                            now=job.unlock_time - 1)


def test_review_valid_pays_pool_invalid_refunds_sender():
    bank = make_bank()
    j1 = bank.submit_job("n1:1", "n1", Fraction(100))
    j2 = bank.submit_job("n1:2", "n1", Fraction(40))
    for j in (j1, j2):
        bank.activate(j.job_id, ["n2"])
        bank.settle_job(j.job_id, "CANCELLED", now=0)
    unlock = REVIEW_LOCK_SECONDS
    bank.resolve_review(j1.job_id, ReviewVerdict.WORK_VALID, now=unlock, epoch=3)
    assert j1.status == JobStatus.SETTLED
    assert bank.reward_pool == 100
    bank.resolve_review(j2.job_id, ReviewVerdict.WORK_INVALID, now=unlock)
    assert j2.status == JobStatus.REFUNDED
    assert bank.registry.deed("n1").balance == 1000 - 100  # only j1 stayed spent
    assert bank.pool_payload()["locked"] == []
    with pytest.raises(UnknownJobError):
        bank.resolve_review(j2.job_id, ReviewVerdict.WORK_VALID, now=unlock)


def locked_job(bank, sender="n1", reward=90, workers=("n2",)):
    job_id = f"{sender}:{len(bank.jobs) + 1}"
    job = bank.submit_job(job_id, sender, Fraction(reward))
    bank.activate(job.job_id, list(workers))
    bank.settle_job(job.job_id, "CANCELLED", now=0)
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
    bank = make_bank()
    job = locked_job(bank, sender="n1", workers=("n2", "n3"))
    active = [f"n{i}" for i in range(1, 9)]
    ch = bank.open_challenge("n4", job.job_id, Fraction(9), b"seed-a", active)
    eligible = sorted(set(active) - {"n1", "n2", "n3", "n4"})
    assert ch.jury == random.Random(b"seed-a").sample(eligible, 3)
    assert not {"n1", "n2", "n3", "n4"} & set(ch.jury)
    assert bank.registry.deed("n4").balance == 1000 - 9
    assert bank.pool_payload()["bonds"] == [[ch.challenge_id, "9"]]

    # same seed, same jury; the draw has no hidden state
    bank2 = make_bank()
    job2 = locked_job(bank2, sender="n1", workers=("n2", "n3"))
    ch2 = bank2.open_challenge("n4", job2.job_id, Fraction(9), b"seed-a", active)
    assert ch2.jury == ch.jury
    bank3 = make_bank()
    job3 = locked_job(bank3, sender="n1", workers=("n2", "n3"))
    ch3 = bank3.open_challenge("n4", job3.job_id, Fraction(9), b"seed-b", active)
    assert ch3.jury == random.Random(b"seed-b").sample(eligible, 3)


def test_challenge_rejections():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(90))
    active = [f"n{i}" for i in range(1, 9)]
    with pytest.raises(ChallengeError, match="not challengeable"):
        bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active)
    bank.activate(job.job_id, ["n2"])
    bank.settle_job(job.job_id, "CANCELLED", now=0)
    with pytest.raises(ChallengeError, match="bond must be positive"):
        bank.open_challenge("n4", job.job_id, Fraction(0), b"s", active)
    with pytest.raises(InsufficientFundsError):
        bank.open_challenge("n4", job.job_id, Fraction(2000), b"s", active)
    with pytest.raises(ChallengeError, match="eligible jurors"):
        bank.open_challenge("n4", job.job_id, Fraction(9), b"s",
                            ["n1", "n2", "n4", "n5", "n6"])


def test_challenge_window_closes_after_settlement_epoch():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(90))
    bank.activate(job.job_id, ["n2"])
    bank.settle_job(job.job_id, "DONE", now=0, epoch=2)
    active = [f"n{i}" for i in range(1, 9)]
    with pytest.raises(ChallengeError, match="window closed"):
        bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active, epoch=3)
    ch = bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active, epoch=2)
    assert ch.verdict == ChallengeVerdict.PENDING


def test_upheld_challenge_on_locked_job_refunds_sender_and_bond():
    bank = make_bank()
    job = locked_job(bank, reward=90)
    active = [f"n{i}" for i in range(1, 9)]
    ch = bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active)
    votes = {ch.jury[0]: True, ch.jury[1]: True, ch.jury[2]: False}
    resolved = bank.resolve_challenge(ch.challenge_id, votes)
    assert resolved.verdict == ChallengeVerdict.UPHELD
    assert job.status == JobStatus.REFUNDED
    assert bank.registry.deed("n1").balance == 1000  # reward refunded
    assert bank.registry.deed("n4").balance == 1000  # bond returned
    pool = bank.pool_payload()
    assert pool["locked"] == [] and pool["bonds"] == []
    assert bank.reward_pool == 0


def test_rejected_challenge_forfeits_bond_to_pool():
    bank = make_bank()
    job = locked_job(bank, reward=90)
    active = [f"n{i}" for i in range(1, 9)]
    ch = bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active)
    votes = {j: (i == 2) for i, j in enumerate(ch.jury)}
    resolved = bank.resolve_challenge(ch.challenge_id, votes)
    assert resolved.verdict == ChallengeVerdict.REJECTED
    assert bank.registry.deed("n4").balance == 991
    assert bank.reward_pool == 9
    assert bank.pool_payload()["bonds"] == []  # the bond left escrow for the pool
    assert bank.conservation_total() == 8000
    # the job is still locked; the ordinary review can now run at unlock time
    assert job.status == JobStatus.LOCKED_FOR_REVIEW
    bank.resolve_review(job.job_id, ReviewVerdict.WORK_VALID, now=REVIEW_LOCK_SECONDS)
    assert bank.reward_pool == 99


def test_rejected_verdict_allows_early_review_release():
    bank = make_bank()
    job = locked_job(bank, reward=90)
    active = [f"n{i}" for i in range(1, 9)]
    ch = bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active)
    bank.resolve_challenge(ch.challenge_id, {j: False for j in ch.jury})
    # a recorded verdict unlocks the review before the 24h timer
    bank.resolve_review(job.job_id, ReviewVerdict.WORK_VALID, now=10)
    assert job.status == JobStatus.SETTLED


def test_upheld_challenge_on_settled_job_claws_back_reward():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(90))
    bank.activate(job.job_id, ["n2"])
    bank.settle_job(job.job_id, "DONE", now=0, epoch=1)
    active = [f"n{i}" for i in range(1, 9)]
    ch = bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active, epoch=1)
    resolved = bank.resolve_challenge(ch.challenge_id, {j: True for j in ch.jury})
    assert resolved.verdict == ChallengeVerdict.UPHELD
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
    active = [f"n{i}" for i in range(1, 9)]
    ch = bank.open_challenge("n4", job.job_id, Fraction(9), b"s", active)
    with pytest.raises(ChallengeError, match="unknown challenge"):
        bank.resolve_challenge("ch99", {})
    with pytest.raises(ChallengeError, match="one vote per juror"):
        bank.resolve_challenge(ch.challenge_id, {ch.jury[0]: True})
    with pytest.raises(ChallengeError, match="one vote per juror"):
        votes = {j: True for j in ch.jury}
        votes["n1"] = True
        bank.resolve_challenge(ch.challenge_id, votes)
    bank.resolve_challenge(ch.challenge_id, {j: False for j in ch.jury})
    with pytest.raises(ChallengeError, match="already resolved"):
        bank.resolve_challenge(ch.challenge_id, {j: False for j in ch.jury})


def test_pay_reward_guards_pool():
    bank = make_bank()
    job = bank.submit_job("n1:1", "n1", Fraction(50))
    bank.activate(job.job_id, ["n2"])
    bank.settle_job(job.job_id, "DONE", now=0)
    bank.pay_rewards([("n3", Fraction(20))])
    assert bank.registry.deed("n3").balance == 1020
    assert bank.distributed_total == 20
    with pytest.raises(EscrowError, match="underflow"):
        bank.pay_rewards([("n3", Fraction(31))])
    with pytest.raises(EscrowError):
        bank.pay_rewards([("n3", Fraction(-1))])


# -- apply: one ledger entry, one bank method ------------------------------

ACTIVE = [f"n{i}" for i in range(1, 9)]
SEED_HEX = "ab" * 32
# n1 sends, n2 and n3 work, n4 challenges: the jury comes from n5-n8.
JURY = random.Random(bytes.fromhex(SEED_HEX)).sample(["n5", "n6", "n7", "n8"], 3)


def entry(kind, payload):
    return LedgerEntry(kind, "coord", payload, b"")


def snapshot(bank):
    """Everything `apply` may change: balances, pool levels, jobs, challenges
    and the distributed total."""
    state = {k: v for k, v in vars(bank).items() if k != "registry"}
    balances = {d: deed.balance for d, deed in bank.registry.deeds.items()}
    return copy.deepcopy((balances, bank.pool_payload(), state))


def running(bank):
    bank.submit_job("n1:1", "n1", Fraction(5))
    bank.activate("n1:1", ["n2", "n3"])


def settled(bank):
    running(bank)
    bank.settle_job("n1:1", "DONE", now=100, epoch=1)


def locked(bank):
    running(bank)
    bank.settle_job("n1:1", "CANCELLED", now=100, epoch=1)


def challenged(bank):
    locked(bank)
    bank.open_challenge("n4", "n1:1", Fraction(9), bytes.fromhex(SEED_HEX), ACTIVE, epoch=1)


def pay_both(bank):
    bank.pay_rewards([("n2", Fraction(5, 2)), ("n3", Fraction(5, 2))])


APPLY_CASES = {
    "assign": (
        lambda bank: bank.submit_job("n1:1", "n1", Fraction(5)),
        entry(EntryKind.JOB_ASSIGN, {
            "job": "n1:1", "pipeline": "p", "steps": 3, "epoch": 1,
            "workers": [["n2", 0], ["n3", 1]], "commitments": {},
        }),
        lambda bank: bank.activate("n1:1", ["n2", "n3"]),
    ),
    "done": (
        running,
        entry(EntryKind.JOB_STATUS,
              {"job": "n1:1", "status": "DONE", "at": 100, "epoch": 2, "aggregate": "00"}),
        lambda bank: bank.settle_job("n1:1", "DONE", now=100, epoch=2),
    ),
    "cancelled": (
        running,
        entry(EntryKind.JOB_STATUS,
              {"job": "n1:1", "status": "CANCELLED", "at": 100, "epoch": 2}),
        lambda bank: bank.settle_job("n1:1", "CANCELLED", now=100, epoch=2),
    ),
    "reward": (
        settled,
        entry(EntryKind.REWARD_RECORD,
              {"epoch": 1, "pool": "5", "entries": [["n2", "5/2", 0.5], ["n3", "5/2", 0.5]]}),
        pay_both,
    ),
    "opened": (
        locked,
        entry(EntryKind.CHALLENGE, {
            "phase": "opened", "job": "n1:1", "challenger": "n4", "bond": "9/2",
            "seed": SEED_HEX, "epoch": 1, "at": 150,
        }),
        lambda bank: bank.open_challenge(
            "n4", "n1:1", Fraction(9, 2), bytes.fromhex(SEED_HEX), ACTIVE, epoch=1
        ),
    ),
    "resolved": (
        challenged,
        entry(EntryKind.CHALLENGE, {
            "phase": "resolved", "challenge": "ch1", "job": "n1:1",
            "votes": {JURY[0]: True, JURY[1]: True, JURY[2]: False}, "at": 160,
        }),
        lambda bank: bank.resolve_challenge(
            "ch1", {JURY[0]: True, JURY[1]: True, JURY[2]: False}, 160
        ),
    ),
}


@pytest.mark.parametrize("prepare, fact, direct", APPLY_CASES.values(), ids=APPLY_CASES)
def test_apply_matches_the_direct_call(prepare, fact, direct):
    bank, twin = make_bank(), make_bank()
    prepare(bank)
    prepare(twin)
    before = snapshot(bank)
    changed = bank.apply(fact, ACTIVE)
    expected = direct(twin)
    assert snapshot(bank) != before
    assert snapshot(bank) == snapshot(twin)
    assert changed == expected
    if fact.kind == EntryKind.CHALLENGE:
        assert bank.challenges["ch1"].jury == JURY


def reward_rows(*rows, pool="5"):
    return entry(EntryKind.REWARD_RECORD,
                 {"epoch": 1, "pool": pool, "entries": [[d, a, 0.5] for d, a in rows]})


@pytest.mark.parametrize("pay, error, match", [
    (lambda bank: bank.apply(reward_rows(("n2", "2"), ("ghost", "3"))),
     UnknownDeedError, "ghost"),
    (lambda bank: bank.apply(reward_rows(("n2", "3"), ("n3", "3"))), EscrowError, "exactly"),
    (lambda bank: bank.apply(reward_rows(("n2", "6"), ("n3", "-1"))), EscrowError, "non-negative"),
    (lambda bank: bank.apply(reward_rows(("n2", "2"), ("n3", "1"))), EscrowError, "exactly"),
    (lambda bank: bank.apply(reward_rows(("n2", "2"), ("n3", "2"), pool="4")),
     EscrowError, "exactly"),
    (lambda bank: bank.pay_rewards([("ghost", Fraction(5))]), UnknownDeedError, "ghost"),
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
    (EntryKind.POOL_EVENT, {"event": "review_resolved", "job": "n1:1"}),
    (EntryKind.JOB_STATUS, {"job": "n1:1", "status": "IN_PROGRESS", "at": 100, "epoch": 1}),
    (EntryKind.CHALLENGE, {"phase": "appealed", "challenge": "ch1", "job": "n1:1"}),
], ids=["node_spec", "progress_proof", "pool_event", "in_progress", "unknown_phase"])
def test_apply_ignores_entries_that_move_no_funds(kind, payload):
    bank = make_bank()
    challenged(bank)
    before = snapshot(bank)
    assert bank.apply(entry(kind, payload), ACTIVE) is None
    assert snapshot(bank) == before


verdict_choice = st.sampled_from(["done", "valid", "invalid"])
upheld_votes = st.lists(st.booleans(), max_size=2)  # per challenge: upheld or rejected


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=200), verdict_choice, upheld_votes),
                min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_conservation_holds_across_any_job_history(steps):
    """Each step settles or locks one job and opens its challenges; the verdicts
    and the review land one step later. The test keeps its own model of open
    locks, pending bonds and the reward pool."""
    bank = make_bank({"s": 10**6, "c": 10**6, "j0": 0, "j1": 0, "j2": 0, "w": 0, "x": 0})
    start = bank.conservation_total()
    rewards: dict[str, Fraction] = {}
    locks: dict[str, int] = {}  # job id -> unlock time
    bonds: dict[str, Fraction] = {}  # challenge id -> bond
    refunded: set[str] = set()
    pool = Fraction(0)

    def check():
        assert bank.conservation_total() == start
        assert bank.reward_pool == pool >= 0
        row = bank.pool_payload()
        by_seq = sorted(locks, key=lambda job_id: int(job_id.split(":")[1]))
        assert row["locked"] == [[j, str(rewards[j]), locks[j]] for j in by_seq]
        assert row["bonds"] == [[cid, str(bonds[cid])] for cid in sorted(bonds)]

    def land(verdicts, reviews, now):
        nonlocal pool
        for cid, job_id, upheld in verdicts:
            bank.resolve_challenge(cid, {j: upheld for j in bank.challenges[cid].jury}, now)
            bond = bonds.pop(cid)
            if not upheld:
                pool += bond
            elif job_id not in refunded:  # an upheld verdict refunds a job once
                if locks.pop(job_id, None) is None:
                    pool -= rewards[job_id]
                refunded.add(job_id)
            check()
        for job_id, verdict in reviews:
            if job_id in locks:
                bank.resolve_review(job_id, verdict, now=locks.pop(job_id))
                if verdict == ReviewVerdict.WORK_VALID:
                    pool += rewards[job_id]
                else:
                    refunded.add(job_id)
                check()

    verdicts, reviews = [], []
    for now, (reward, outcome, upholds) in enumerate(steps):
        land(verdicts, reviews, now)
        verdicts, reviews = [], []
        job_id = f"s:{len(bank.jobs) + 1}"
        rewards[job_id] = Fraction(reward)
        bank.submit_job(job_id, "s", rewards[job_id])
        check()
        bank.activate(job_id, ["w"])
        if outcome == "done":
            bank.settle_job(job_id, "DONE", now=now, epoch=1)
            pool += rewards[job_id]
        else:
            bank.settle_job(job_id, "CANCELLED", now=now)
            locks[job_id] = now + REVIEW_LOCK_SECONDS
            verdict = (ReviewVerdict.WORK_VALID if outcome == "valid"
                       else ReviewVerdict.WORK_INVALID)
            reviews.append((job_id, verdict))
        check()
        for upheld in upholds:
            bond = rewards[job_id] / 10
            ch = bank.open_challenge("c", job_id, bond, b"s", ["c", "j0", "j1", "j2"], epoch=1)
            bonds[ch.challenge_id] = bond
            verdicts.append((ch.challenge_id, job_id, upheld))
            check()
    land(verdicts, reviews, len(steps))
    assert locks == {} and bonds == {}
    # drain whatever reached the reward pool and check one last time
    bank.pay_rewards([("x", bank.reward_pool)])
    pool = Fraction(0)
    check()
