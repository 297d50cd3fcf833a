"""Deterministic discrete-event simulation of the full protocol network.

The engine runs a scenario on a logical clock (integer milliseconds) with a
single priority-ordered event heap. Everything that looks random (message
drops, jury seeds) comes from labeled substreams of the run seed, and nothing
reads the wall clock, so one (scenario, seed) pair always produces the same
ledger bytes and the same reports.

Ordering at equal timestamps is fixed by an explicit priority tier per event
kind, with epoch closes last, so a close sees the tick's heartbeat (one event
for every node that is up) and every same-tick delivery and unlock.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .crypto import Signer, derive_signer, digest
from .distribution import (
    GatherError,
    InsufficientWorkersError,
    ProgressProof,
    ProgressTracker,
    ResultShard,
    assign_workers,
    chain_genesis,
    make_capability_commitment,
    make_result_shard,
    next_commitment,
    rank_candidates,
    reduce_gather,
)
from .encoding import encode
from .escrow import (
    Challenge,
    ChallengeError,
    EscrowBank,
    InsufficientFundsError,
    JobStatus,
    ReviewVerdict,
    UnknownJobError,
)
from .ledger import EntryKind, Ledger, LedgerEntry, sign_entry
from .pipeline import (
    ExpressionError,
    PipelineRun,
    PluginCode,
    hash_sign_recheck,
    make_plugin_code,
    safety_check,
)
from .scenario import COORDINATOR_ID, ChallengeSpec, JobSpec, NodeSpec, Scenario
from .tokenomics import (
    Capability,
    EpochConfig,
    NodeRegistry,
    NoEligibleNodesError,
    RewardAllocation,
    distribute_epoch_rewards,
)

PENALTY_POWER = 1.0  # declared power lost per rejected progress proof


class SimulationError(Exception):
    pass


# Priority tiers at equal timestamps; lower runs first. Epoch closes run last
# so the tick's heartbeat and same-tick deliveries and unlocks land inside it.
PRI_DELIVER = 0
PRI_NODE_FLIP = 1
PRI_HEARTBEAT = 2
PRI_ACTION = 4
PRI_REVIEW = 6
PRI_EPOCH_CLOSE = 9


def topic_matches(pattern: str, topic: str) -> bool:
    """MQTT-style match: '+' spans one level, trailing '#' spans the rest.

    Unused by the simulator, whose messages go point to point; kept because
    perfbench/tracing.py patches this name.
    """
    p_parts = pattern.split("/")
    t_parts = topic.split("/")
    for i, p in enumerate(p_parts):
        if p == "#":
            return i == len(p_parts) - 1
        if i >= len(t_parts):
            return False
        if p != "+" and p != t_parts[i]:
            return False
    return len(p_parts) == len(t_parts)


@dataclass
class MessageAudit:
    published: int = 0
    delivered: int = 0
    dropped: int = 0
    rejected: int = 0
    pending_at_end: int = 0

    def consistent(self) -> bool:
        return self.published == (
            self.delivered + self.dropped + self.rejected + self.pending_at_end
        )


@dataclass
class _WorkerTask:
    """One worker's side of a running job."""

    job: str
    worker: str
    run: PipelineRun  # its steps done are the links of the worker's chain
    head: bytes  # worker's own chain head
    pending_proofs: list[ProgressProof] = field(default_factory=list)
    last_sent: ProgressProof | None = None
    cancelled: bool = False
    result_sent: bool = False


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    ledger: Ledger
    bank: EscrowBank
    allocations: list[RewardAllocation]
    pool_timeline: list[dict]
    audit: dict
    messages: MessageAudit
    conservation_ok: bool
    initial_total: Fraction
    final_total: Fraction


class Simulation:
    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.epoch_ms = scenario.epoch_seconds * 1000
        self.horizon_ms = scenario.epochs * self.epoch_ms
        self.heartbeat_ms = scenario.heartbeat_seconds * 1000

        self.registry = NodeRegistry()
        self.bank = EscrowBank(
            self.registry,
            review_lock_seconds=scenario.review_lock_seconds,
        )
        self.ledger = Ledger()

        self._heap: list[tuple] = []  # (at, priority, seq, handler, args)
        self._seq = 0
        self._now = 0
        self._pending_entries: list[LedgerEntry] = []

        self._signers: dict[str, Signer] = {}
        self._node_specs: dict[str, NodeSpec] = {n.node_id: n for n in scenario.nodes}
        # Capabilities never change, so each distinct requirement is ranked
        # once; an assignment filters its list by who is up and who sent.
        capabilities = {n.node_id: n.capability for n in scenario.nodes}
        self._ranked: dict[Capability, list[str]] = {
            req: rank_candidates(req, capabilities, scenario.capability_weights)
            for req in {job.requirement for job in scenario.jobs}
        }
        self._up: dict[str, bool] = {}

        self._net_rng = random.Random(
            int.from_bytes(digest(self._seed_bytes() + b"|net"), "big")
        )

        self._tracker = ProgressTracker()
        self._proof_buffer: dict[tuple[str, str], dict[int, ProgressProof]] = {}
        # The result shards each assigned job's workers returned, by slot.
        self._shards: dict[str, dict[int, ResultShard]] = {}
        self._tasks: dict[tuple[str, str], _WorkerTask] = {}
        self._job_specs: dict[str, JobSpec] = {job.job_id: job for job in scenario.jobs}

        self.allocations: list[RewardAllocation] = []
        self.pool_timeline: list[dict] = []
        self.code_rechecks = 0  # the one audit counter no entry records
        self.messages = MessageAudit()
        self._in_flight = 0  # scheduled deliveries that have not run yet
        self._initial_total = Fraction(0)

    # -- plumbing ---------------------------------------------------------

    def _seed_bytes(self) -> bytes:
        return f"{self.scenario.name}|{self.seed}".encode()

    def _signer(self, node_id: str) -> Signer:
        if node_id not in self._signers:
            self._signers[node_id] = derive_signer(str(self.seed), node_id)
        return self._signers[node_id]

    def _schedule(self, at: int, priority: int, handler, *args) -> None:
        """Queue `handler(*args)` to run at logical time `at` (ms).

        Events run in (at, priority, seq) order: time first, then the PRI_*
        tier, then scheduling order, since `seq` grows by one per call. `seq`
        is unique, so the heap never compares handlers or arguments.
        """
        self._seq += 1
        heapq.heappush(self._heap, (at, priority, self._seq, handler, args))

    def _retry_later(self, handler, *args) -> None:
        """Run `handler(*args)` one heartbeat from now if the horizon allows."""
        retry = self._now + self.heartbeat_ms
        if retry <= self.horizon_ms:
            self._schedule(retry, PRI_ACTION, handler, *args)

    def _epoch_of(self, at_ms: int) -> int:
        return max(1, -(-at_ms // self.epoch_ms))

    def _record(self, kind: EntryKind, author: str, payload: dict) -> LedgerEntry:
        entry = sign_entry(kind, author, payload, self._signer(author))
        self._pending_entries.append(entry)
        return entry

    def _seal_tick(self) -> None:
        if self._pending_entries:
            self.ledger.append_entries(self._pending_entries, timestamp=self._now)
            self._pending_entries = []

    def _check_conservation(self) -> None:
        """Fail the run if tokens appeared or vanished, or a pool went negative."""
        bank = self.bank
        total = bank.conservation_total()
        if total != self._initial_total or bank.reward_pool < 0 or bank.escrow_pool < 0:
            raise SimulationError(
                f"token conservation broken at t={self._now}ms: total {total} "
                f"(initial {self._initial_total}), reward pool {bank.reward_pool}, "
                f"escrow pool {bank.escrow_pool}"
            )

    def _apply_entry(self, entry: LedgerEntry):
        """Move funds as a fresh entry says, then check conservation."""
        changed = self.bank.apply(entry)
        self._check_conservation()
        return changed

    # -- messages ---------------------------------------------------------------

    def _publish(self, to: str, handler, msg, sender: str) -> None:
        """One transmission attempt of `msg` to `to`, with one drop draw.

        A lost attempt is sent again one heartbeat later, inside the horizon.
        """
        self.messages.published += 1
        src = self._region_of(sender)
        dst = self._region_of(to)
        p_src = self.scenario.regions[src].drop_rate
        p_dst = self.scenario.regions[dst].drop_rate
        if self._net_rng.random() < 1.0 - (1.0 - p_src) * (1.0 - p_dst):
            self.messages.dropped += 1
            self._retry_later(self._publish, to, handler, msg, sender)
            return
        self._in_flight += 1
        latency = self._latency_ms(src, dst)
        self._schedule(self._now + latency, PRI_DELIVER, self._deliver, to, handler, msg, sender)

    def _deliver(self, to: str, handler, msg, sender: str) -> None:
        self._in_flight -= 1
        if not self._up[to]:
            self.messages.rejected += 1
            self._retry_later(self._publish, to, handler, msg, sender)
            return
        self.messages.delivered += 1
        handler(to, msg)

    def _region_of(self, node_id: str) -> str:
        if node_id == COORDINATOR_ID:
            return self._coord_region
        return self._node_specs[node_id].region

    def _latency_ms(self, src: str, dst: str) -> int:
        a = self.scenario.regions[src]
        if src == dst:
            return max(1, a.intra_latency_ms)
        b = self.scenario.regions[dst]
        return max(1, a.intra_latency_ms + a.inter_latency_ms + b.intra_latency_ms)

    # -- setup ------------------------------------------------------------------

    def _setup(self) -> None:
        scenario = self.scenario
        self._coord_region = sorted(scenario.regions)[0]

        coord_key = self._signer(COORDINATOR_ID).verify_key
        self.registry.register(COORDINATOR_ID)
        self._record(
            EntryKind.NODE_SPEC,
            COORDINATOR_ID,
            {
                "deed_id": COORDINATOR_ID,
                "verify_key": coord_key.hex(),
                "region": self._coord_region,
                "role": "coordinator",
            },
        )
        self._up[COORDINATOR_ID] = True

        for node in scenario.nodes:
            key = self._signer(node.node_id).verify_key
            self.registry.register(node.node_id, node.balance)
            self.registry.set_power(node.node_id, 1, node.power_for_epoch(1))
            self._up[node.node_id] = True
            self._record(
                EntryKind.NODE_SPEC,
                node.node_id,
                {
                    "deed_id": node.node_id,
                    "verify_key": key.hex(),
                    "region": node.region,
                    "capability": node.capability.to_payload(),
                    "balance": str(node.balance),
                },
            )
            flip = self._up.__setitem__
            for window in node.downtime:
                self._schedule(window.start * 1000, PRI_NODE_FLIP, flip, node.node_id, False)
                self._schedule(window.end * 1000, PRI_NODE_FLIP, flip, node.node_id, True)

        for t in range(self.heartbeat_ms, self.horizon_ms + 1, self.heartbeat_ms):
            self._schedule(t, PRI_HEARTBEAT, self._on_heartbeat)
        for epoch in range(1, scenario.epochs + 1):
            self._schedule(epoch * self.epoch_ms, PRI_EPOCH_CLOSE, self._on_epoch_close, epoch)

        for job in scenario.jobs:
            self._schedule(job.at * 1000, PRI_ACTION, self._on_job_arrival, job)
            if job.cancel_at is not None:
                self._schedule(job.cancel_at * 1000, PRI_ACTION, self._on_job_cancel, job.job_id)

        for ch in scenario.challenges:
            self._schedule(ch.at * 1000, PRI_ACTION, self._on_challenge_open, ch)

        self._seal_tick()
        self._initial_total = self.bank.conservation_total()

    # -- event handlers --------------------------------------------------------

    def _on_heartbeat(self) -> None:
        for node in self.scenario.nodes:
            if self._up[node.node_id]:
                self.registry.accrue_alive(node.node_id, self.scenario.heartbeat_seconds)

    def _on_job_arrival(self, spec: JobSpec) -> None:
        # User code is vetted before any funds move, so a rejected plugin
        # never strands tokens in escrow.
        user_code = spec.pipeline.user_code
        if user_code is not None:
            for source in user_code:
                code = make_plugin_code(source, spec.sender, self._signer(spec.sender))
                verdict = safety_check(code.source, self.scenario.safety_policy)
                if not verdict.safe:
                    self._record(
                        EntryKind.POOL_EVENT,
                        COORDINATOR_ID,
                        {
                            "event": "plugin_rejected",
                            "job": spec.job_id,
                            "sender": spec.sender,
                            "pipeline": spec.pipeline.name,
                            "reasons": list(verdict.reasons),
                        },
                    )
                    return
                ok, reason = hash_sign_recheck(code, self._signer(spec.sender).verify_key)
                self.code_rechecks += 1
                if not ok:
                    raise SimulationError(f"plugin recheck failed at submit: {reason}")

        try:
            self.bank.submit_job(
                spec.job_id, spec.sender, spec.reward, spec.pipeline.name, spec.pipeline.n_workers
            )
        except InsufficientFundsError:
            self._record(
                EntryKind.POOL_EVENT,
                COORDINATOR_ID,
                {
                    "event": "job_rejected",
                    "job": spec.job_id,
                    "sender": spec.sender,
                    "reason": "insufficient funds",
                },
            )
            return
        self._check_conservation()
        self._try_assign(spec.job_id)

    def _try_assign(self, job_id: str) -> None:
        spec = self._job_specs[job_id]
        ranked = [
            node_id
            for node_id in self._ranked[spec.requirement]
            if self._up[node_id] and node_id != spec.sender
        ]
        try:
            workers = assign_workers(job_id, ranked, spec.pipeline.n_workers)
        except InsufficientWorkersError:
            # Job stays PENDING; try again next tick if the horizon allows.
            self._retry_later(self._on_assign_retry, job_id)
            return

        commitments = {}
        for worker in workers:
            cap = self._node_specs[worker].capability
            commitments[worker] = make_capability_commitment(
                job_id, worker, cap, self._signer(worker)
            ).hex()
        entry = self._record(
            EntryKind.JOB_ASSIGN,
            COORDINATOR_ID,
            {
                "job": job_id,
                "pipeline": spec.pipeline.name,
                "steps": spec.steps,
                "epoch": self._epoch_of(self._now),
                "workers": [[worker, index] for index, worker in enumerate(workers)],
                "commitments": commitments,
            },
        )
        self.bank.apply(entry)  # moves no funds, so no conservation check
        self._shards[job_id] = {}
        user_code = spec.pipeline.user_code
        for index, worker in enumerate(workers):
            self._tracker.start(job_id, worker)
            code = None
            if user_code is not None:
                source = user_code[index]
                code = make_plugin_code(source, spec.sender, self._signer(spec.sender))
            self._publish(worker, self._on_assign_delivered, (job_id, index, code), COORDINATOR_ID)

    def _on_assign_retry(self, job_id: str) -> None:
        if self.bank.job(job_id).status == JobStatus.PENDING:
            self._try_assign(job_id)

    # -- worker side -----------------------------------------------------------

    def _on_assign_delivered(self, to: str, msg: tuple[str, int, PluginCode | None]) -> None:
        job_id, index, code = msg
        task_key = (job_id, to)
        if task_key in self._tasks:
            return  # duplicate delivery after a retransmit
        if code is not None:
            ok, reason = hash_sign_recheck(code, self._signer(code.author).verify_key)
            self.code_rechecks += 1
            if not ok:
                self._record(
                    EntryKind.POOL_EVENT,
                    COORDINATOR_ID,
                    {"event": "code_recheck_failed", "job": job_id, "reason": reason},
                )
                return
        spec = self._job_specs[job_id]
        task = self._tasks[task_key] = _WorkerTask(
            job=job_id,
            worker=to,
            run=PipelineRun(spec.pipeline, index),
            head=chain_genesis(job_id, to),
        )
        self._schedule(self._now + self.heartbeat_ms, PRI_ACTION, self._on_worker_step, task)

    def _on_worker_step(self, task: _WorkerTask) -> None:
        if task.cancelled or task.result_sent:
            return
        if not self._up[task.worker]:
            self._retry_later(self._on_worker_step, task)
            return
        try:
            step = task.run.step()
        except ExpressionError as exc:
            raise SimulationError(
                f"job {task.job}: worker {task.worker} failed at step {task.run.steps_done}: {exc}"
            ) from None
        commitment = next_commitment(task.head, step.nonce)
        proof = ProgressProof(
            job=task.job,
            worker=task.worker,
            link_index=step.step,
            commitment=commitment,
            nonce=step.nonce,
        )
        task.head = commitment
        task.pending_proofs.append(proof)

        spec = self._job_specs[task.job]
        fault = next(
            (
                f
                for f in spec.faults
                if f.worker_index == task.run.worker_index and f.step == step.step
            ),
            None,
        )
        if fault is not None:
            bad = self._make_faulty_proof(task, fault.kind)
            if bad is not None:
                self._publish(COORDINATOR_ID, self._on_proof_delivered, bad, task.worker)
        else:
            self._flush_proofs(task)

        if step.step < spec.steps:
            self._schedule(self._now + self.heartbeat_ms, PRI_ACTION, self._on_worker_step, task)
        else:
            # Flush any withheld links before the result ships.
            self._flush_proofs(task)
            shard = make_result_shard(
                task.job,
                task.worker,
                task.run.worker_index,
                task.run.result_payload(),
                self._signer(task.worker),
            )
            self._publish(COORDINATOR_ID, self._on_result_delivered, shard, task.worker)
            task.result_sent = True

    def _flush_proofs(self, task: _WorkerTask) -> None:
        for pending in task.pending_proofs:
            self._publish(COORDINATOR_ID, self._on_proof_delivered, pending, task.worker)
            task.last_sent = pending
        task.pending_proofs = []

    def _make_faulty_proof(self, task: _WorkerTask, kind: str) -> ProgressProof | None:
        job = task.job
        if kind == "replay":
            if task.last_sent is not None:
                return task.last_sent
            return ProgressProof(
                job=job,
                worker=task.worker,
                link_index=0,
                commitment=task.head,
                nonce=b"\x00" * 32,
            )
        link = task.run.steps_done
        forged_nonce = digest(encode(["forged", job, task.worker, link]))
        return ProgressProof(
            job=job,
            worker=task.worker,
            link_index=link,
            commitment=digest(b"forged" + forged_nonce),
            nonce=forged_nonce,
        )

    # -- coordinator side ----------------------------------------------------------

    def _running(self, job_id: str) -> bool:
        """Whether an assigned job has not settled yet."""
        return self.bank.jobs[job_id].status == JobStatus.IN_PROGRESS

    def _on_proof_delivered(self, _to: str, proof: ProgressProof) -> None:
        if not self._running(proof.job):
            return
        key = (proof.job, proof.worker)
        _, prior = self._tracker.head(proof.job, proof.worker)
        if proof.link_index > prior + 1:
            # Links can arrive out of order on a lossy network; reordering is
            # not cheating, so hold the proof until its predecessor lands.
            self._proof_buffer.setdefault(key, {})[proof.link_index] = proof
            return
        self._judge_proof(proof)
        buffered = self._proof_buffer.get(key, {})
        while True:
            _, prior = self._tracker.head(proof.job, proof.worker)
            queued = buffered.pop(prior + 1, None)
            if queued is None:
                break
            self._judge_proof(queued)

    def _judge_proof(self, proof: ProgressProof) -> None:
        ok, reason = self._tracker.observe(proof)
        epoch = self._epoch_of(self._now)
        if ok:
            self._record(
                EntryKind.PROGRESS_PROOF,
                proof.worker,
                dict(proof.to_payload(), epoch=epoch, verdict="accepted"),
            )
        else:
            new_power = self.registry.apply_penalty(
                proof.worker, epoch, PENALTY_POWER, current_epoch=epoch
            )
            self._record(
                EntryKind.POOL_EVENT,
                COORDINATOR_ID,
                {
                    "event": "proof_rejected",
                    "job": proof.job,
                    "worker": proof.worker,
                    "link": proof.link_index,
                    "reason": reason,
                    "penalty": PENALTY_POWER,
                    "power_after": new_power,
                    "epoch": epoch,
                },
            )

    def _on_result_delivered(self, _to: str, shard: ResultShard) -> None:
        if not self._running(shard.job):
            return
        shards = self._shards[shard.job]
        shards[shard.worker_index] = shard
        workers = self.bank.jobs[shard.job].workers
        if len(shards) < len(workers):
            return
        try:
            aggregate, agg_digest = reduce_gather(
                shard.job,
                workers,
                list(shards.values()),
                {worker: self._signer(worker).verify_key for worker in workers},
            )
        except GatherError as exc:
            self._record(
                EntryKind.POOL_EVENT,
                COORDINATOR_ID,
                {"event": "gather_failed", "job": shard.job, "reason": str(exc)},
            )
            return
        now_s = self._now // 1000
        entry = self._record(
            EntryKind.JOB_STATUS,
            COORDINATOR_ID,
            {
                "job": shard.job,
                "status": "DONE",
                "at": now_s,
                "epoch": self._epoch_of(self._now),
                "aggregate": agg_digest.hex(),
                "aggregate_size": len(aggregate),
            },
        )
        self._apply_entry(entry)

    def _on_job_cancel(self, job_id: str) -> None:
        job = self.bank.jobs.get(job_id)
        if job is None:
            self._record(
                EntryKind.POOL_EVENT,
                COORDINATOR_ID,
                {"event": "cancel_skipped", "job": job_id, "reason": "job rejected at submission"},
            )
            return
        if job.status != JobStatus.IN_PROGRESS:
            return  # finished before the scripted cancellation fired
        now_s = self._now // 1000
        entry = self._record(
            EntryKind.JOB_STATUS,
            COORDINATOR_ID,
            {
                "job": job_id,
                "status": "CANCELLED",
                "at": now_s,
                "epoch": self._epoch_of(self._now),
                "reason": "scripted_cancel",
            },
        )
        job = self._apply_entry(entry)
        self._schedule(job.unlock_time * 1000, PRI_REVIEW, self._on_review_unlock, job_id)
        for worker in job.workers:
            self._publish(worker, self._on_cancel_delivered, job_id, COORDINATOR_ID)

    def _on_cancel_delivered(self, to: str, job_id: str) -> None:
        task = self._tasks.get((job_id, to))
        if task is not None:
            task.cancelled = True

    def _on_review_unlock(self, job_id: str) -> None:
        if self.bank.jobs[job_id].status != JobStatus.LOCKED_FOR_REVIEW:
            return  # a challenge verdict resolved it early
        spec = self._job_specs[job_id]
        verdict = (
            ReviewVerdict.WORK_VALID if spec.review_verdict == "valid" else ReviewVerdict.WORK_INVALID
        )
        now_s = self._now // 1000
        self.bank.resolve_review(job_id, verdict, now_s, epoch=self._epoch_of(self._now))
        self._record(
            EntryKind.POOL_EVENT,
            COORDINATOR_ID,
            {
                "event": "review_resolved",
                "job": job_id,
                "verdict": verdict.value,
                "at": now_s,
            },
        )
        self._check_conservation()

    def _on_challenge_open(self, spec: ChallengeSpec) -> None:
        try:
            job = self.bank.job(spec.job_id)
        except UnknownJobError:
            return
        bond = spec.bond if spec.bond is not None else job.reward * self.scenario.bond_fraction
        seed = digest(
            self._seed_bytes() + b"|jury|" + spec.job_id.encode() + spec.challenger.encode()
        )
        entry = self._record(
            EntryKind.CHALLENGE,
            spec.challenger,
            {
                "phase": "opened",
                "job": spec.job_id,
                "challenger": spec.challenger,
                "bond": str(bond),
                "seed": seed.hex(),
                "epoch": self._epoch_of(self._now),
                "at": self._now // 1000,
            },
        )
        active_ids = [n for n, up in self._up.items() if up and n != COORDINATOR_ID]
        try:
            challenge = self.bank.apply(entry, active_ids)
        except (ChallengeError, InsufficientFundsError) as exc:
            challenge = None
            self._record(
                EntryKind.POOL_EVENT,
                COORDINATOR_ID,
                {"event": "challenge_rejected", "job": spec.job_id, "reason": str(exc)},
            )
        self._check_conservation()
        if challenge is None:
            return
        self._record(
            EntryKind.POOL_EVENT,
            COORDINATOR_ID,
            {
                "event": "jury_drawn",
                "challenge": challenge.challenge_id,
                "job": spec.job_id,
                "jury": list(challenge.jury),
            },
        )
        # Resolve inside the running epoch, before its close pays out the
        # reward pool that an upheld verdict on a settled job claws back from.
        epoch_close = self._epoch_of(self._now) * self.epoch_ms
        resolve_at = min(self._now + self.heartbeat_ms, epoch_close)
        self._schedule(resolve_at, PRI_ACTION, self._on_challenge_resolve, challenge, spec.votes)

    def _on_challenge_resolve(self, challenge: Challenge, votes_aligned: tuple[bool, ...]) -> None:
        if len(votes_aligned) != len(challenge.jury):
            raise SimulationError(
                f"challenge {challenge.challenge_id}: scenario provides "
                f"{len(votes_aligned)} votes for a jury of {len(challenge.jury)}"
            )
        votes = {juror: votes_aligned[i] for i, juror in enumerate(challenge.jury)}
        entry = self._record(
            EntryKind.CHALLENGE,
            COORDINATOR_ID,
            {
                "phase": "resolved",
                "challenge": challenge.challenge_id,
                "job": challenge.job_id,
                "votes": votes,
                "at": self._now // 1000,
            },
        )
        challenge = self._apply_entry(entry)
        self._record(
            EntryKind.POOL_EVENT,
            COORDINATOR_ID,
            {
                "event": "challenge_settled",
                "challenge": challenge.challenge_id,
                "verdict": challenge.verdict.value,
            },
        )

    def _on_epoch_close(self, epoch: int) -> None:
        cfg = EpochConfig(self.scenario.epoch_seconds, current_epoch=epoch)
        active = [self.registry.deed(n.node_id) for n in self.scenario.nodes]
        pool = self.bank.reward_pool
        try:
            allocation = distribute_epoch_rewards(pool, active, cfg) if pool > 0 else None
        except NoEligibleNodesError:
            allocation = None
        if allocation is not None:
            self.allocations.append(allocation)
            entry = self._record(
                EntryKind.REWARD_RECORD,
                COORDINATOR_ID,
                {
                    "epoch": epoch,
                    "pool": str(pool),
                    "entries": [
                        [e.deed_id, str(e.amount), e.share] for e in allocation.entries
                    ],
                },
            )
            self._apply_entry(entry)
        if epoch < self.scenario.epochs:
            for node in self.scenario.nodes:
                self.registry.set_power(
                    node.node_id, epoch + 1, node.power_for_epoch(epoch + 1)
                )
        self.pool_timeline.append(dict(self.bank.pool_payload(), epoch=epoch))
        self._check_conservation()

    # -- main loop -----------------------------------------------------------------

    def run(self) -> RunResult:
        self._setup()
        while self._heap:
            at, _pri, _seq, handler, args = heapq.heappop(self._heap)
            self._now = at
            handler(*args)
            if not self._heap or self._heap[0][0] != at:
                self._seal_tick()
        self._seal_tick()
        final_total = self.bank.conservation_total()
        self.messages.pending_at_end = self._in_flight
        return RunResult(
            scenario=self.scenario,
            seed=self.seed,
            ledger=self.ledger,
            bank=self.bank,
            allocations=self.allocations,
            pool_timeline=self.pool_timeline,
            audit=audit_counters(self.scenario, self.ledger, self.code_rechecks),
            messages=self.messages,
            conservation_ok=final_total == self._initial_total,
            initial_total=self._initial_total,
            final_total=final_total,
        )


# Entries of these kinds are counted by this payload field, the rest by kind.
# No pool event shares a name with a job status.
_COUNTED_FIELD = {EntryKind.POOL_EVENT: "event", EntryKind.JOB_STATUS: "status"}


def audit_counters(scenario: Scenario, ledger: Ledger, code_rechecks: int) -> dict:
    """The run's audit counters, counted from its sealed ledger.

    Four counters have no entry and come from the scenario. A run that
    returns has handled every scripted job arrival, challenge and epoch close
    exactly once: each job was submitted, and its user code vetted first;
    each challenge either drew a jury or failed; each close either recorded
    a `REWARD_RECORD` or was skipped. `code_rechecks` has no entry either,
    so the simulation counts it as it runs.
    """
    counts: Counter = Counter()
    for _block, entry in ledger.entries():
        tag = _COUNTED_FIELD.get(entry.kind)
        counts[entry.payload[tag] if tag else entry.kind] += 1
    return {
        "proofs_accepted": counts[EntryKind.PROGRESS_PROOF],
        "proofs_rejected": counts["proof_rejected"],
        "penalties": counts["proof_rejected"],
        "jobs_submitted": len(scenario.jobs),
        "jobs_rejected": counts["plugin_rejected"] + counts["job_rejected"],
        "jobs_done": counts["DONE"],
        "jobs_cancelled": counts["CANCELLED"],
        "reviews_resolved": counts["review_resolved"],
        "challenges_opened": counts["jury_drawn"],
        "challenges_failed": len(scenario.challenges) - counts["jury_drawn"],
        "code_rechecks": code_rechecks,
        "plugins_vetted": sum(job.pipeline.user_code is not None for job in scenario.jobs),
        "closes_skipped": scenario.epochs - counts[EntryKind.REWARD_RECORD],
    }


def run_scenario(scenario: Scenario, seed: int | None = None) -> RunResult:
    return Simulation(scenario, seed=seed).run()
