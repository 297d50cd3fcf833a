"""Job funding, escrow release, review locks, and the challenge mechanism.

Funds move along a fixed lifecycle: a sender's balance funds the escrow pool
at submission; completion moves the job's reward from escrow to the reward
pool; cancellation locks it on the job itself until `Job.unlock_time`, when a
review releases it to the reward pool, or refunds the sender if the work is
found invalid (a job cancelled before assignment is refunded at once). A
challenge holds the bond its challenger posted until the jury decides: an
upheld verdict returns the bond and refunds the job's sender once, whether
the job is still locked or settled in the running epoch; a rejected verdict
forfeits the bond to the reward pool.

A job holds one of five statuses: PENDING once funded, IN_PROGRESS once its
workers are assigned, then LOCKED_FOR_REVIEW (cancelled) or SETTLED (done or
reviewed valid), and REFUNDED when its reward goes back to the sender.

The bank has two mutators. `submit_job` funds a job; `EscrowBank.apply` moves
funds on a recorded ledger fact, from assignment to the review verdict (a
`review_resolved` POOL_EVENT). Each of its branches reads the payload of one
entry shape, checks the status it starts from and sets the one it ends in.
The simulator hands each fund-moving fact to `apply` and records it only once
`apply` has acted on it, so every such entry in a ledger was applied once, in
ledger order, and one the bank refuses is never recorded; a replay of a dump
can apply the same entries. A `REWARD_RECORD` must pay out the whole reward pool,
exactly, or nothing moves.

Every mutation is atomic per call and the class never creates or destroys
tokens: deed balances + escrow pool + reward pool + the rewards of jobs locked
for review + the bonds of pending challenges is constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .ledger import EntryKind, LedgerEntry, payload_shape
from .tokenomics import NodeRegistry, exact_sum

JURY_SIZE = 3


class EscrowError(Exception):
    pass


class InsufficientFundsError(EscrowError):
    pass


class JobLifecycleError(EscrowError):
    pass


class UnknownJobError(EscrowError):
    pass


class ChallengeError(EscrowError):
    pass


class JobStatus(Enum):
    PENDING = "PENDING"
    IN_PROGRESS = "IN_PROGRESS"
    LOCKED_FOR_REVIEW = "LOCKED_FOR_REVIEW"
    SETTLED = "SETTLED"
    REFUNDED = "REFUNDED"


class ChallengeVerdict(Enum):
    PENDING = "PENDING"
    UPHELD = "UPHELD"
    REJECTED = "REJECTED"


@dataclass
class Job:
    job_id: str  # "sender:seq", the key every ledger payload and report uses
    sender: str
    reward: Fraction
    status: JobStatus = JobStatus.PENDING
    workers: list[str] = field(default_factory=list)
    settled_epoch: int | None = None
    unlock_time: int | None = None  # set when a cancellation locks the reward


@dataclass
class Challenge:
    challenge_id: str
    job_id: str
    challenger: str
    bond: Fraction
    jury: list[str]
    verdict: ChallengeVerdict = ChallengeVerdict.PENDING


def _sender_then_seq(job_id: str) -> tuple[str, int]:
    """Order job ids by sender, then by sequence as a number (a:2 before a:10)."""
    sender, _, seq = job_id.rpartition(":")
    return sender, int(seq)


class EscrowBank:
    """The public-chain pool machine: escrow, reward pool, locks, and bonds."""

    def __init__(self, registry: NodeRegistry, review_lock_seconds: int, epoch_seconds: int):
        self.registry = registry
        self.review_lock_seconds = review_lock_seconds
        self.epoch_seconds = epoch_seconds
        self.jobs: dict[str, Job] = {}
        self.challenges: dict[str, Challenge] = {}
        self.escrow_pool = Fraction(0)
        self.reward_pool = Fraction(0)
        # Bookkeeping only; not part of the conservation identity.
        self.distributed_total = Fraction(0)

    # -- job lifecycle -----------------------------------------------------

    def submit_job(self, job_id: str, sender: str, reward: Fraction) -> Job:
        """Fund a new job from its sender's balance into escrow.

        The id is the scenario's key "sender:seq". Rejection (duplicate id,
        insufficient balance, non-positive reward) leaves every pool and
        balance untouched.
        """
        reward = Fraction(reward)
        if job_id in self.jobs:
            raise JobLifecycleError(f"job {job_id} already submitted")
        if reward <= 0:
            raise EscrowError("job reward must be positive")
        deed = self.registry.deed(sender)
        if deed.balance < reward:
            raise InsufficientFundsError(
                f"{sender} balance {deed.balance} cannot fund reward {reward}"
            )
        self.registry.debit(sender, reward)
        self.escrow_pool += reward
        job = Job(job_id=job_id, sender=sender, reward=reward)
        self.jobs[job_id] = job
        return job

    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id}") from None

    def epoch_of(self, at_ms: int) -> int:
        """Epoch k holds ((k-1)·E, k·E], E the epoch length; time 0 is in epoch 1."""
        return max(1, -(-at_ms // (self.epoch_seconds * 1000)))

    # -- ledger facts ----------------------------------------------------------

    def apply(self, entry: LedgerEntry, active_ids: Iterable[str] = ()) -> Job | Challenge | None:
        """Move funds as one ledger entry says, and return the job or
        challenge it changed. With `submit_job`, this is the bank's only
        mutator. The entry's `payload_shape` picks the branch.

        `JOB_ASSIGN` starts a PENDING job. `JOB_STATUS` DONE moves a running
        job's reward to the reward pool; CANCELLED locks it for review until
        `at + review_lock_seconds`, or refunds the sender if the job never
        started. The `review_resolved` POOL_EVENT ends a lock that has run out
        by `at`. `CHALLENGE` opens (jurors drawn from `active_ids`) or
        resolves a challenge. `REWARD_RECORD` pays every row, or none if any
        row is invalid or the rows do not sum exactly to the record's `pool`,
        which must be the whole reward pool; it returns None. Any other shape
        changes nothing and returns None.
        """
        p = entry.payload
        shape = payload_shape(entry.kind, p)
        if shape == (EntryKind.JOB_ASSIGN, None):
            job = self.job(p["job"])
            if job.status != JobStatus.PENDING:
                raise JobLifecycleError(
                    f"job {job.job_id} cannot start (status {job.status.value})"
                )
            job.status = JobStatus.IN_PROGRESS
            job.workers = [worker for worker, _index in p["workers"]]
            return job
        if shape in ((EntryKind.JOB_STATUS, "DONE"), (EntryKind.JOB_STATUS, "CANCELLED")):
            job = self.job(p["job"])
            if job.status == JobStatus.PENDING and shape[1] == "CANCELLED":
                # No worker ever held it, so there is no work to review.
                self.escrow_pool -= job.reward
                self.registry.credit(job.sender, job.reward)
                job.status = JobStatus.REFUNDED
                return job
            if job.status != JobStatus.IN_PROGRESS:
                raise JobLifecycleError(
                    f"job {job.job_id} is not in progress (status {job.status.value})"
                )
            self.escrow_pool -= job.reward
            if shape[1] == "DONE":
                self.reward_pool += job.reward
                job.status = JobStatus.SETTLED
                job.settled_epoch = p["epoch"]
            else:
                job.unlock_time = p["at"] + self.review_lock_seconds
                job.status = JobStatus.LOCKED_FOR_REVIEW
            return job
        if shape == (EntryKind.POOL_EVENT, "review_resolved"):
            return self._release_review(p)
        if shape == (EntryKind.REWARD_RECORD, None):
            rows = [(deed_id, Fraction(amount)) for deed_id, amount, _share in p["entries"]]
            pool = Fraction(p["pool"])
            if pool != self.reward_pool or exact_sum(a for _deed_id, a in rows) != pool:
                raise EscrowError(
                    f"reward record for pool {pool} does not pay out the reward pool "
                    f"{self.reward_pool} exactly"
                )
            for deed_id, amount in rows:
                self.registry.deed(deed_id)
                if amount < 0:
                    raise EscrowError("reward amount must be non-negative")
            for deed_id, amount in rows:
                self.registry.credit(deed_id, amount)
            self.reward_pool = Fraction(0)
            self.distributed_total += pool
            return None
        if shape == (EntryKind.CHALLENGE, "opened"):
            return self._open_challenge(p, active_ids)
        if shape == (EntryKind.CHALLENGE, "resolved"):
            return self._resolve_challenge(p)
        return None

    def _release_review(self, p: dict) -> Job:
        """WORK_VALID settles the job into the epoch of `at`; WORK_INVALID refunds the sender."""
        job = self.job(p["job"])
        if job.status != JobStatus.LOCKED_FOR_REVIEW:
            raise JobLifecycleError(f"job {job.job_id} is {job.status.value}, not locked for review")
        if p["at"] < job.unlock_time:
            raise EscrowError(f"review for {job.job_id} cannot resolve before t={job.unlock_time}")
        if p["verdict"] == "WORK_VALID":
            self.reward_pool += job.reward
            job.status = JobStatus.SETTLED
            job.settled_epoch = self.epoch_of(p["at"] * 1000)
        elif p["verdict"] == "WORK_INVALID":
            self.registry.credit(job.sender, job.reward)
            job.status = JobStatus.REFUNDED
        else:
            raise EscrowError(f"unknown review verdict {p['verdict']!r} for job {job.job_id}")
        return job

    def _open_challenge(self, p: dict, active_ids: Iterable[str]) -> Challenge:
        """Escrow a challenger bond and draw a jury by seeded lottery.

        The jury excludes the challenger, the job sender, and the job's
        workers; the draw is a pure function of the seed, so replays pick the
        same jury.
        """
        job = self.job(p["job"])
        challenger, bond = p["challenger"], Fraction(p["bond"])
        if job.status not in (JobStatus.LOCKED_FOR_REVIEW, JobStatus.SETTLED):
            raise ChallengeError(
                f"job {job.job_id} is not challengeable (status {job.status.value})"
            )
        if job.status == JobStatus.SETTLED and job.settled_epoch != p["epoch"]:
            raise ChallengeError(
                f"job {job.job_id} settled in epoch {job.settled_epoch}; "
                f"challenge window closed"
            )
        if bond <= 0:
            raise ChallengeError("challenge bond must be positive")
        deed = self.registry.deed(challenger)
        if deed.balance < bond:
            raise InsufficientFundsError(
                f"{challenger} balance {deed.balance} cannot post bond {bond}"
            )
        excluded = {challenger, job.sender, *job.workers}
        eligible = sorted(set(active_ids) - excluded)
        if len(eligible) < JURY_SIZE:
            raise ChallengeError(f"only {len(eligible)} eligible jurors, need {JURY_SIZE}")
        jury = random.Random(bytes.fromhex(p["seed"])).sample(eligible, JURY_SIZE)

        self.registry.debit(challenger, bond)
        challenge = Challenge(
            challenge_id=f"ch{len(self.challenges) + 1}",  # challenges are never removed
            job_id=job.job_id,
            challenger=challenger,
            bond=bond,
            jury=jury,
        )
        self.challenges[challenge.challenge_id] = challenge
        return challenge

    def _resolve_challenge(self, p: dict) -> Challenge:
        """Apply jury votes (True = uphold). Majority uphold returns the bond
        and refunds the challenged job's reward to its sender, whether it is
        locked or settled, unless an earlier verdict already did; otherwise
        the bond is forfeited to the reward pool."""
        challenge_id, votes = p["challenge"], p["votes"]
        try:
            challenge = self.challenges[challenge_id]
        except KeyError:
            raise ChallengeError(f"unknown challenge {challenge_id}") from None
        if challenge.verdict != ChallengeVerdict.PENDING:
            raise ChallengeError(f"challenge {challenge_id} already resolved")
        if set(votes) != set(challenge.jury):
            raise ChallengeError(
                "need exactly one vote per juror: "
                f"expected {sorted(challenge.jury)}, got {sorted(votes)}"
            )
        upheld = sum(1 for v in votes.values() if v) * 2 > len(challenge.jury)
        challenge.verdict = ChallengeVerdict.UPHELD if upheld else ChallengeVerdict.REJECTED
        if not upheld:
            self.reward_pool += challenge.bond
            return challenge
        self.registry.credit(challenge.challenger, challenge.bond)
        job = self.jobs[challenge.job_id]
        if job.status != JobStatus.REFUNDED:
            if job.status == JobStatus.SETTLED:
                # The reward still sits in the reward pool, since the simulator
                # resolves a challenge before its epoch closes; claw it back.
                self.reward_pool -= job.reward
            self.registry.credit(job.sender, job.reward)
            job.status = JobStatus.REFUNDED
        return challenge

    # -- conservation ----------------------------------------------------------

    def _locked_jobs(self) -> list[Job]:
        return [j for j in self.jobs.values() if j.status == JobStatus.LOCKED_FOR_REVIEW]

    def _pending_challenges(self) -> list[Challenge]:
        return [c for c in self.challenges.values() if c.verdict == ChallengeVerdict.PENDING]

    def conservation_total(self) -> Fraction:
        """Tokens visible anywhere in the system; constant across every event."""
        return exact_sum([
            self.registry.total_balance(),
            self.escrow_pool,
            self.reward_pool,
            *(j.reward for j in self._locked_jobs()),
            *(c.bond for c in self._pending_challenges()),
        ])

    def pool_payload(self) -> dict:
        """Pool levels, review locks and pending bonds: one `pool.jsonl` row."""
        locked = sorted(self._locked_jobs(), key=lambda j: _sender_then_seq(j.job_id))
        bonds = sorted(self._pending_challenges(), key=lambda c: c.challenge_id)
        return {
            "escrow_pool": str(self.escrow_pool),
            "reward_pool": str(self.reward_pool),
            "locked": [[j.job_id, str(j.reward), j.unlock_time] for j in locked],
            "bonds": [[c.challenge_id, str(c.bond)] for c in bonds],
            "distributed_total": str(self.distributed_total),
        }
