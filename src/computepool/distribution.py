"""Trustless job distribution: worker search, assignment, progress, gather.

Workers are ranked by capability fit, assigned to indexed worker slots, and
must prove forward progress with a hash-commitment chain. Each proof reveals
the nonce for exactly one new link; a verifier holding only the prior chain
head can check it without trusting the worker. Results come back as signed
shards that the coordinator folds in worker order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import Signer, digest, verify
from .encoding import encode
from .tokenomics import Capability


class DistributionError(Exception):
    pass


class InsufficientWorkersError(DistributionError):
    pass


class GatherError(DistributionError):
    pass


# -- capability commitments ----------------------------------------------------


def capability_commitment_bytes(job: str, worker: str, capability: Capability) -> bytes:
    return encode(["capability-commitment", job, worker, capability.to_payload()])


def make_capability_commitment(
    job: str, worker: str, capability: Capability, signer: Signer
) -> bytes:
    return signer.sign(capability_commitment_bytes(job, worker, capability))


def verify_capability_commitment(
    job: str, worker: str, capability: Capability, verify_key: bytes, signature: bytes
) -> bool:
    return verify(verify_key, capability_commitment_bytes(job, worker, capability), signature)


# -- worker search and assignment ----------------------------------------------


def rank_candidates(requirement: Capability, candidates: dict[str, Capability]) -> list[str]:
    """Workers whose declared capability covers the requirement, best first.

    Ties in weighted score break toward the lexicographically smaller deed id
    so rankings are stable across runs.
    """
    fit = [d for d, cap in candidates.items() if cap.covers(requirement)]
    fit.sort(key=lambda d: (-candidates[d].score(), d))
    return fit


def assign_workers(job: str, ranked: list[str], n: int) -> list[str]:
    """Fill `n` worker slots from a `rank_candidates` list, best first: slot
    i goes to the worker at list position i."""
    if len(ranked) < n:
        raise InsufficientWorkersError(
            f"job {job}: need {n} eligible workers, found {len(ranked)}"
        )
    return ranked[:n]


# -- progress proofs -------------------------------------------------------------


def chain_genesis(job: str, worker: str) -> bytes:
    return digest(encode(["progress-genesis", job, worker]))


def next_commitment(prev_commitment: bytes, nonce: bytes) -> bytes:
    return digest(prev_commitment + nonce)


@dataclass(frozen=True)
class ProgressProof:
    job: str
    worker: str
    link_index: int  # 1-based, strictly sequential per (job, worker)
    commitment: bytes
    nonce: bytes

    def to_payload(self) -> dict:
        return {
            "job": self.job,
            "worker": self.worker,
            "link": self.link_index,
            "commitment": self.commitment.hex(),
            "nonce": self.nonce.hex(),
        }


def verify_progress(
    proof: ProgressProof, prior_head: bytes, prior_index: int
) -> tuple[bool, str | None]:
    """Check one chain link against the verifier's view of the chain head."""
    if proof.link_index <= prior_index:
        return False, f"replayed link {proof.link_index} (chain is at {prior_index})"
    if proof.link_index != prior_index + 1:
        return False, (
            f"link {proof.link_index} skips ahead (chain is at {prior_index})"
        )
    if proof.commitment != next_commitment(prior_head, proof.nonce):
        return False, f"commitment mismatch at link {proof.link_index}"
    return True, None


class ProgressTracker:
    """Verifier-side chain state per (job, worker)."""

    def __init__(self) -> None:
        self._state: dict[tuple[str, str], tuple[bytes, int]] = {}

    def start(self, job: str, worker: str) -> None:
        self._state[(job, worker)] = (chain_genesis(job, worker), 0)

    def head(self, job: str, worker: str) -> tuple[bytes, int]:
        try:
            return self._state[(job, worker)]
        except KeyError:
            raise DistributionError(f"no progress chain for {worker} on {job}") from None

    def observe(self, proof: ProgressProof) -> tuple[bool, str | None]:
        """Verify a proof and, when valid, advance the tracked chain head."""
        head, index = self.head(proof.job, proof.worker)
        ok, reason = verify_progress(proof, head, index)
        if ok:
            self._state[(proof.job, proof.worker)] = (proof.commitment, proof.link_index)
        return ok, reason


# -- result gathering -------------------------------------------------------------


def result_signing_bytes(job: str, worker: str, worker_index: int, payload_digest: bytes) -> bytes:
    return encode(["result", job, worker, worker_index, payload_digest])


@dataclass(frozen=True)
class ResultShard:
    job: str
    worker: str
    worker_index: int
    payload: bytes
    payload_digest: bytes
    signature: bytes


def make_result_shard(
    job: str, worker: str, worker_index: int, payload: bytes, signer: Signer
) -> ResultShard:
    d = digest(payload)
    return ResultShard(
        job=job,
        worker=worker,
        worker_index=worker_index,
        payload=payload,
        payload_digest=d,
        signature=signer.sign(result_signing_bytes(job, worker, worker_index, d)),
    )


def reduce_gather(
    job: str,
    workers: list[str],
    shards: list[ResultShard],
    verify_keys: dict[str, bytes],
) -> tuple[bytes, bytes]:
    """Fold verified result shards into one aggregate, in worker-index order;
    `workers[i]` is the worker assigned slot i.

    Returns (aggregate_bytes, aggregate_digest). Any missing shard, digest
    mismatch, or bad signature aborts the whole gather.
    """
    by_index: dict[int, ResultShard] = {}
    for shard in shards:
        if shard.job != job:
            raise GatherError(f"shard for job {shard.job} mixed into gather for {job}")
        if shard.worker_index in by_index:
            raise GatherError(f"duplicate shard for worker index {shard.worker_index}")
        by_index[shard.worker_index] = shard
    expected = dict(enumerate(workers))
    missing = sorted(set(expected) - set(by_index))
    if missing:
        raise GatherError(f"job {job}: missing result shards for indexes {missing}")
    extra = sorted(set(by_index) - set(expected))
    if extra:
        raise GatherError(f"job {job}: unexpected shard indexes {extra}")
    payloads: list[bytes] = []
    for index in sorted(expected):
        shard = by_index[index]
        if shard.worker != expected[index]:
            raise GatherError(
                f"job {job}: shard index {index} signed by {shard.worker}, "
                f"assigned to {expected[index]}"
            )
        if digest(shard.payload) != shard.payload_digest:
            raise GatherError(f"job {job}: shard {index} payload digest mismatch")
        key = verify_keys.get(shard.worker)
        if key is None or not verify(
            key,
            result_signing_bytes(job, shard.worker, index, shard.payload_digest),
            shard.signature,
        ):
            raise GatherError(f"job {job}: shard {index} signature invalid")
        payloads.append(shard.payload)
    aggregate = encode(payloads)
    return aggregate, digest(aggregate)
