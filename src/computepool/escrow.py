"""Job funding, escrow release, review locks, and the challenge mechanism.

Funds move along a fixed lifecycle: a sender's balance funds the escrow pool
at submission; completion moves the job's reward from escrow to the reward
pool; cancellation locks it on the job itself until `Job.unlock_time`, when a
review releases it to the reward pool, or refunds the sender if the work is
found invalid. A challenge holds the bond its challenger posted until the
jury decides: an upheld verdict returns the bond and refunds the job's sender
once, whether the job is still locked or settled in the running epoch; a
rejected verdict forfeits the bond to the reward pool.

A job holds one of five statuses: PENDING once funded, IN_PROGRESS once its
workers are assigned, then LOCKED_FOR_REVIEW (cancelled) or SETTLED (done or
reviewed valid), and REFUNDED when its reward goes back to the sender. Each
bank method checks the status it starts from and sets the one it ends in.

A recorded ledger fact moves funds through `EscrowBank.apply`, which reads
the entry's payload and calls the one method that kind of fact stands for.
The simulator calls it on each entry it records, and a replay of a dump can
call it on the same entries. A `REWARD_RECORD` must pay out the whole reward
pool, exactly, or nothing moves.

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

from .ledger import EntryKind, LedgerEntry
from .tokenomics import NodeRegistry, exact_sum

REVIEW_LOCK_SECONDS = 86400  # 24 hours of simulation time
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


class ReviewVerdict(Enum):
    WORK_VALID = "WORK_VALID"
    WORK_INVALID = "WORK_INVALID"


class ChallengeVerdict(Enum):
    PENDING = "PENDING"
    UPHELD = "UPHELD"
    REJECTED = "REJECTED"


@dataclass
class Job:
    job_id: str  # "sender:seq", the key every ledger payload and report uses
    sender: str
    reward: Fraction
    spec_name: str
    n_workers: int
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

    def __init__(self, registry: NodeRegistry, review_lock_seconds: int = REVIEW_LOCK_SECONDS):
        self.registry = registry
        self.review_lock_seconds = review_lock_seconds
        self.jobs: dict[str, Job] = {}
        self.challenges: dict[str, Challenge] = {}
        self.escrow_pool = Fraction(0)
        self.reward_pool = Fraction(0)
        # Bookkeeping only; not part of the conservation identity.
        self.distributed_total = Fraction(0)

    # -- job lifecycle -----------------------------------------------------

    def submit_job(
        self, job_id: str, sender: str, reward: Fraction, spec_name: str, n_workers: int
    ) -> Job:
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
        if n_workers < 1:
            raise EscrowError("n_workers must be at least 1")
        deed = self.registry.deed(sender)
        if deed.balance < reward:
            raise InsufficientFundsError(
                f"{sender} balance {deed.balance} cannot fund reward {reward}"
            )
        self.registry.debit(sender, reward)
        self.escrow_pool += reward
        job = Job(
            job_id=job_id,
            sender=sender,
            reward=reward,
            spec_name=spec_name,
            n_workers=n_workers,
        )
        self.jobs[job_id] = job
        return job

    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id}") from None

    def activate(self, job_id: str, workers: list[str]) -> Job:
        """Mark a funded job as running once its workers are assigned."""
        job = self.job(job_id)
        if job.status != JobStatus.PENDING:
            raise JobLifecycleError(
                f"job {job_id} cannot start (status {job.status.value})"
            )
        job.status = JobStatus.IN_PROGRESS
        job.workers = list(workers)
        return job

    def settle_job(self, job_id: str, outcome: str, now: int, epoch: int = 0) -> Job:
        """Release a running job's escrowed reward, as its `JOB_STATUS`
        outcome says.

        "DONE" moves the reward straight to the reward pool. "CANCELLED"
        locks it on the job for review until `now + review_lock_seconds`.
        """
        job = self.job(job_id)
        if outcome not in ("DONE", "CANCELLED"):
            raise JobLifecycleError(f"cannot settle to {outcome}")
        if job.status != JobStatus.IN_PROGRESS:
            raise JobLifecycleError(
                f"job {job_id} is not in progress (status {job.status.value})"
            )
        self.escrow_pool -= job.reward
        if outcome == "DONE":
            self.reward_pool += job.reward
            job.status = JobStatus.SETTLED
            job.settled_epoch = epoch
        else:
            job.unlock_time = now + self.review_lock_seconds
            job.status = JobStatus.LOCKED_FOR_REVIEW
        return job

    def resolve_review(self, job_id: str, verdict: ReviewVerdict, now: int, epoch: int = 0) -> None:
        """Release a review lock: valid work feeds the reward pool, invalid
        work refunds the sender. Early release requires a challenge verdict."""
        job = self.jobs.get(job_id)
        if job is None or job.status != JobStatus.LOCKED_FOR_REVIEW:
            raise UnknownJobError(f"no locked funds for job {job_id}")
        decided = any(
            c.job_id == job_id and c.verdict != ChallengeVerdict.PENDING
            for c in self.challenges.values()
        )
        if now < job.unlock_time and not decided:
            raise EscrowError(
                f"review for {job_id} cannot resolve before "
                f"t={job.unlock_time} without a challenge verdict"
            )
        if verdict == ReviewVerdict.WORK_VALID:
            self.reward_pool += job.reward
            job.status = JobStatus.SETTLED
            job.settled_epoch = epoch
        else:
            self.registry.credit(job.sender, job.reward)
            job.status = JobStatus.REFUNDED

    # -- challenges ----------------------------------------------------------

    def open_challenge(
        self,
        challenger: str,
        job_id: str,
        bond: Fraction,
        rng_seed: bytes,
        active_ids: Iterable[str],
        epoch: int = 0,
    ) -> Challenge:
        """Escrow a challenger bond and draw a jury by seeded lottery.

        The jury excludes the challenger, the job sender, and the job's
        workers; the draw is a pure function of the seed, so replays pick the
        same jury.
        """
        bond = Fraction(bond)
        job = self.job(job_id)
        if job.status not in (JobStatus.LOCKED_FOR_REVIEW, JobStatus.SETTLED):
            raise ChallengeError(
                f"job {job_id} is not challengeable (status {job.status.value})"
            )
        if job.status == JobStatus.SETTLED and job.settled_epoch != epoch:
            raise ChallengeError(
                f"job {job_id} settled in epoch {job.settled_epoch}; "
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
        jury = random.Random(rng_seed).sample(eligible, JURY_SIZE)

        self.registry.debit(challenger, bond)
        challenge = Challenge(
            challenge_id=f"ch{len(self.challenges) + 1}",  # challenges are never removed
            job_id=job_id,
            challenger=challenger,
            bond=bond,
            jury=jury,
        )
        self.challenges[challenge.challenge_id] = challenge
        return challenge

    def resolve_challenge(
        self, challenge_id: str, votes: dict[str, bool], now: int = 0
    ) -> Challenge:
        """Apply jury votes (True = uphold). Majority uphold returns the bond
        and refunds the challenged job's reward to its sender, unless an
        earlier verdict already did; otherwise the bond is forfeited to the
        reward pool."""
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
        challenge.verdict = (
            ChallengeVerdict.UPHELD if upheld else ChallengeVerdict.REJECTED
        )

        job = self.job(challenge.job_id)
        if upheld:
            self.registry.credit(challenge.challenger, challenge.bond)
            if job.status == JobStatus.LOCKED_FOR_REVIEW:
                self.resolve_review(job.job_id, ReviewVerdict.WORK_INVALID, now)
            elif job.status == JobStatus.SETTLED:
                # The reward still sits in the reward pool, since the caller
                # resolves a challenge before its epoch closes; claw it back.
                self.reward_pool -= job.reward
                self.registry.credit(job.sender, job.reward)
                job.status = JobStatus.REFUNDED
        else:
            self.reward_pool += challenge.bond
        return challenge

    # -- ledger facts ----------------------------------------------------------

    def apply(
        self, entry: LedgerEntry, active_ids: Iterable[str] = ()
    ) -> Job | Challenge | None:
        """Move funds as one ledger entry says, and return the job or
        challenge it changed.

        `JOB_ASSIGN` activates its job, `JOB_STATUS` DONE or CANCELLED
        settles it, and `CHALLENGE` opens (jurors drawn from `active_ids`)
        or resolves a challenge. `REWARD_RECORD` pays every row, or none if
        any row is invalid or the rows do not sum exactly to the record's
        `pool`, which must be the whole reward pool; it returns None. Any
        other entry changes nothing and returns None.
        """
        p = entry.payload
        if entry.kind == EntryKind.JOB_ASSIGN:
            return self.activate(p["job"], [worker for worker, _index in p["workers"]])
        if entry.kind == EntryKind.JOB_STATUS and p["status"] in ("DONE", "CANCELLED"):
            return self.settle_job(p["job"], p["status"], p["at"], epoch=p["epoch"])
        if entry.kind == EntryKind.REWARD_RECORD:
            rows = [(deed_id, Fraction(amount)) for deed_id, amount, _share in p["entries"]]
            pool = Fraction(p["pool"])
            if pool != self.reward_pool or exact_sum(a for _deed_id, a in rows) != pool:
                raise EscrowError(
                    f"reward record for pool {pool} does not pay out the reward pool "
                    f"{self.reward_pool} exactly"
                )
            self.pay_rewards(rows)
            return None
        if entry.kind == EntryKind.CHALLENGE and p["phase"] == "opened":
            return self.open_challenge(
                p["challenger"],
                p["job"],
                Fraction(p["bond"]),
                bytes.fromhex(p["seed"]),
                active_ids,
                epoch=p["epoch"],
            )
        if entry.kind == EntryKind.CHALLENGE and p["phase"] == "resolved":
            return self.resolve_challenge(p["challenge"], p["votes"], p["at"])
        return None

    # -- epoch distribution and conservation --------------------------------

    def pay_rewards(self, rows: list[tuple[str, Fraction]]) -> None:
        """Pay every (deed, amount) row from the reward pool, or none of them.

        Every deed must be known, no amount negative, and the rows together
        must fit in the pool; otherwise nothing moves.
        """
        for deed_id, amount in rows:
            self.registry.deed(deed_id)
            if amount < 0:
                raise EscrowError("reward amount must be non-negative")
        if self.reward_pool < exact_sum(amount for _deed_id, amount in rows):
            raise EscrowError("reward pool underflow")
        for deed_id, amount in rows:
            self.reward_pool -= amount
            self.registry.credit(deed_id, amount)
            self.distributed_total += amount

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
