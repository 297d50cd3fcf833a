"""Run reports: canonical, byte-stable files describing one simulation run.

Every file is written with sorted keys and no incidental formatting, so the
same (scenario, seed) pair produces byte-identical output. Token amounts are
serialized as exact rational strings, never floats.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from .crypto import digest
from .escrow import _sender_then_seq
from .ledger import EntryKind
from .simnet import Simulation

MANIFEST = "manifest.json"
ALLOCATIONS = "allocations.jsonl"
POOL = "pool.jsonl"
JOBS = "jobs.jsonl"
AUDIT = "audit.json"
LEDGER = "ledger.bin"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(raw_scenario: dict) -> str:
    # The raw scenario may use integer mapping keys (epoch-indexed power),
    # which the wire codec rejects; canonical JSON stringifies them instead.
    return digest(canonical_json(raw_scenario).encode("utf-8")).hex()


def manifest_payload(result: Simulation) -> dict:
    ledger_bytes = result.ledger.dump()
    return {
        "scenario": result.scenario.name,
        "seed": result.seed,
        "config_digest": config_digest(result.scenario.raw),
        "version": __version__,
        "epochs": result.scenario.epochs,
        "epoch_seconds": result.scenario.epoch_seconds,
        "nodes": len(result.scenario.nodes),
        "jobs": len(result.scenario.jobs),
        "ledger_blocks": len(result.ledger.blocks),
        "ledger_digest": digest(ledger_bytes).hex(),
        "conservation_ok": result.conservation_ok,
        "total_tokens": str(result.final_total),
    }


def allocation_lines(result: Simulation) -> list[dict]:
    return [
        {
            "epoch": a.epoch,
            "pool": str(a.pool),
            "entries": [
                {
                    "deed": e.deed_id,
                    "share": e.share,
                    "amount": str(e.amount),
                    "power": e.power,
                    "alive_fraction": e.alive_fraction,
                }
                for e in a.entries
            ],
        }
        for a in result.allocations
    ]


def job_lines(result: Simulation) -> list[dict]:
    specs = {spec.job_id: spec for spec in result.scenario.jobs}
    lines = []
    for job in sorted(result.bank.jobs.values(), key=lambda j: _sender_then_seq(j.job_id)):
        spec = specs[job.job_id]
        lines.append(
            {
                "job": job.job_id,
                "sender": job.sender,
                "reward": str(job.reward),
                "pipeline": spec.pipeline.name,
                "n_workers": spec.n_workers,
                "status": job.status.value,
                "workers": list(job.workers),
                "settled_epoch": job.settled_epoch,
            }
        )
    return lines


def audit_payload(result: Simulation) -> dict:
    m = result.messages
    return {
        "counters": result.audit,
        "messages": {
            "published": m.published,
            "delivered": m.delivered,
            "dropped": m.dropped,
            "rejected": m.rejected,
            "pending_at_end": m.pending_at_end,
            "consistent": m.consistent(),
        },
        "challenges": [
            {
                "id": c.challenge_id,
                "job": c.job_id,
                "challenger": c.challenger,
                "jury": list(c.jury),
                "verdict": c.verdict.value,
            }
            for c in result.bank.challenges.values()
        ],
        "balances": {
            deed_id: str(deed.balance)
            for deed_id, deed in sorted(result.bank.registry.deeds.items())
        },
        "conservation": {
            "ok": result.conservation_ok,
            "initial_total": str(result.initial_total),
            "final_total": str(result.final_total),
        },
    }


def write_reports(result: Simulation, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    def write_text(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        paths[name] = path

    write_text(MANIFEST, canonical_json(manifest_payload(result)) + "\n")
    write_text(
        ALLOCATIONS,
        "".join(canonical_json(line) + "\n" for line in allocation_lines(result)),
    )
    write_text(
        POOL,
        "".join(canonical_json(line) + "\n" for line in result.pool_timeline),
    )
    write_text(JOBS, "".join(canonical_json(line) + "\n" for line in job_lines(result)))
    write_text(AUDIT, canonical_json(audit_payload(result)) + "\n")

    ledger_path = out / LEDGER
    ledger_path.write_bytes(result.ledger.dump())
    paths[LEDGER] = ledger_path
    return paths


def entry_records(blocks) -> list[dict]:
    """Flatten ledger blocks into inspectable records."""
    records = []
    for block in blocks:
        for position, entry in enumerate(block.entries):
            records.append(
                {
                    "height": block.height,
                    "position": position,
                    "timestamp_ms": block.timestamp,
                    "kind": entry.kind.value,
                    "author": entry.author,
                    "payload": entry.payload,
                }
            )
    return records


def _touches(record: dict, deed: str) -> bool:
    """Whether a record names `deed` as author, deed, worker or payee of a
    `REWARD_RECORD` row."""
    payload = record["payload"]
    if deed in (record["author"], payload.get("deed_id"), payload.get("worker")):
        return True
    return any(row[0] == deed for row in payload.get("entries", ()))


def filter_records(
    records: list[dict],
    epoch: int | None = None,
    deed: str | None = None,
    job: str | None = None,
) -> list[dict]:
    out = []
    for record in records:
        payload = record["payload"]
        if epoch is not None and payload.get("epoch") != epoch:
            continue
        if deed is not None and not _touches(record, deed):
            continue
        if job is not None and payload.get("job") != job:
            continue
        out.append(record)
    return out


def summarize_records(records: list[dict]) -> dict:
    by_kind: dict[str, int] = {kind.value: 0 for kind in EntryKind}
    for record in records:
        by_kind[record["kind"]] += 1
    return {
        "entries": len(records),
        "by_kind": {k: v for k, v in by_kind.items() if v},
    }
