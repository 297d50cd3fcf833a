"""Deterministic scenario generator for the benchmark workloads.

`generate_scenario` turns a handful of size knobs and a seed into a scenario
mapping that `computepool.scenario.parse_scenario` accepts; `to_yaml` renders
it.  The same arguments always give the same YAML text.  Balances are ample
and no challenge is scripted, so every generated scenario runs to completion.

`FLEET` and `PROOF_STORM` hold the sizes of the two generated workloads.
"""

from __future__ import annotations

import random

import yaml

# Pipelines every generated scenario carries.  `tri` is the 3-worker counter
# job; `duo` is the 2-worker job whose business fold is a vetted, signed
# `expr` plugin.
PIPELINES = {
    "tri": {
        "source": {"kind": "counter", "params": {"start": 0, "stride": 1}},
        "serving": [{"kind": "running_sum"}],
        "business": {"kind": "sum"},
    },
    "duo": {
        "source": {"kind": "hashnoise", "params": {"label": "load"}},
        "serving": [{"kind": "moving_average", "params": {"window": 3}}],
        "business": {"kind": "expr", "params": {"expr": "acc + max(x, 0.25)", "init": 0.0}},
    },
}

# Sizes of the generated workloads (see BENCHMARK.json for why each exists).
FLEET = dict(
    nodes=40,
    regions=2,
    epochs=10,
    epoch_seconds=3600,
    heartbeat_seconds=36,
    jobs=80,
    steps=4,
    workers=3,
    expr_share=0.1,
    cancel_share=0.2,
    fault_share=0.0,
    drop_rate=0.05,
    downtime_share=0.1,
)
PROOF_STORM = dict(
    nodes=12,
    regions=2,
    epochs=4,
    epoch_seconds=3600,
    heartbeat_seconds=360,
    jobs=24,
    steps=20,
    workers=3,
    expr_share=0.4,
    cancel_share=0.1,
    fault_share=0.05,
    drop_rate=0.02,
    downtime_share=0.0,
)


def generate_scenario(
    *,
    nodes: int,
    regions: int,
    epochs: int,
    epoch_seconds: int,
    heartbeat_seconds: int,
    jobs: int,
    steps: int,
    workers: int,
    cancel_share: float,
    fault_share: float,
    drop_rate: float,
    seed: int,
    expr_share: float = 0.0,
    downtime_share: float = 0.0,
    name: str = "generated",
) -> dict:
    """Return a scenario mapping.

    Jobs use `workers` workers on the `tri` pipeline, except an `expr_share`
    of them, which use the 2-worker `duo` plugin pipeline.  A `cancel_share`
    of jobs get a scripted cancellation two heartbeats after submission and a
    random review verdict; a `fault_share` get one forged or replayed proof.
    A `downtime_share` of nodes go down once for a few heartbeats.  Shares are
    exact counts (rounded) placed at random, so the seed moves which jobs and
    nodes are special but not how many, and run cost varies little by seed.
    Jobs are submitted during the first half of the horizon so most finish.
    """
    if nodes < workers + 1:
        raise ValueError(f"need more than {workers} nodes, got {nodes}")
    rng = random.Random(seed)
    horizon = epochs * epoch_seconds
    region_names = [f"r{i}" for i in range(regions)]
    node_ids = [f"n{i:03d}" for i in range(nodes)]

    def pick(share: float, population: int) -> set[int]:
        return set(rng.sample(range(population), round(share * population)))

    down_nodes = pick(downtime_share, nodes)
    expr_jobs = pick(expr_share, jobs)
    cancel_jobs = pick(cancel_share, jobs)
    fault_jobs = pick(fault_share, jobs)

    node_cfgs = []
    for i, node_id in enumerate(node_ids):
        cfg = {
            "id": node_id,
            "region": region_names[i % regions],
            "balance": 1000 * (jobs + 1),
            "capability": {"cpu": float(rng.randint(1, 16)), "memory": float(rng.randint(1, 64))},
            "power": round(rng.uniform(-1.0, 1.0), 3),
        }
        if i in down_nodes:
            start = rng.randrange(heartbeat_seconds, horizon // 2)
            cfg["downtime"] = [{"from": start, "to": start + heartbeat_seconds * rng.randint(2, 20)}]
        node_cfgs.append(cfg)

    submit_window = max(1, horizon // 2)
    times = sorted(rng.randrange(1, submit_window) for _ in range(jobs))
    job_cfgs = []
    for j, at in enumerate(times):
        expr = j in expr_jobs
        n_workers = 2 if expr else workers
        job = {
            "sender": rng.choice(node_ids),
            "at": at,
            "reward": rng.randint(10, 500),
            "pipeline": "duo" if expr else "tri",
            "n_workers": n_workers,
            "steps": steps,
        }
        if j in cancel_jobs:
            job["cancel_at"] = at + 2 * heartbeat_seconds
            job["review_verdict"] = rng.choice(["valid", "invalid"])
        if j in fault_jobs:
            job["faults"] = [
                {
                    "worker_index": rng.randrange(n_workers),
                    "step": rng.randint(1, steps),
                    "kind": rng.choice(["forge", "replay"]),
                }
            ]
        job_cfgs.append(job)

    return {
        "name": name,
        "seed": seed,
        "epochs": epochs,
        "epoch_seconds": epoch_seconds,
        "heartbeat_seconds": heartbeat_seconds,
        "review_lock_seconds": max(1, epoch_seconds // 2),
        "regions": {
            r: {"intra_latency_ms": 5, "inter_latency_ms": 40, "drop_rate": drop_rate}
            for r in region_names
        },
        "nodes": node_cfgs,
        "pipelines": PIPELINES,
        "jobs": job_cfgs,
    }


def to_yaml(scenario: dict) -> str:
    return yaml.safe_dump(scenario, sort_keys=False)
