"""End-to-end simulation behavior on small scenarios."""

import copy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.escrow import JobStatus
from computepool.ledger import EntryKind, verify_blocks
from computepool.scenario import load_scenario, parse_scenario
from computepool.simnet import PRI_HEARTBEAT, Simulation, run_scenario, topic_matches

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("pattern,topic,expected", [
    ("jobs/#", "jobs/n1/submit", True),
    ("jobs/#", "jobs", True),  # '#' also spans zero levels
    ("work/n1/#", "work/n1/assign", True),
    ("work/n1/#", "work/n2/assign", False),
    ("proofs/+/n1", "proofs/j1/n1", True),
    ("proofs/+/n1", "proofs/j1/n2", False),
    ("proofs/+/n1", "proofs/a/b/n1", False),
    ("a/b", "a/b", True),
    ("a/b", "a/b/c", False),
    ("a/+/c", "a/x/c", True),
    ("#", "anything/at/all", True),
    ("a/#/c", "a/b/c", False),  # '#' must be last
])
def test_topic_matches(pattern, topic, expected):
    assert topic_matches(pattern, topic) is expected


def two_region_scenario(**overrides):
    data = {
        "name": "small",
        "seed": 11,
        "epochs": 2,
        "epoch_seconds": 1200,
        "heartbeat_seconds": 12,
        "regions": {
            "eu": {"intra_latency_ms": 2, "inter_latency_ms": 20, "drop_rate": 0.0},
            "us": {"intra_latency_ms": 3, "inter_latency_ms": 25, "drop_rate": 0.0},
        },
        "nodes": [
            {"id": "sender", "region": "eu", "balance": 400},
            {"id": "w-eu", "region": "eu", "power": 0.5},
            {"id": "w-us", "region": "us", "power": 0.5},
            {"id": "w-idle", "region": "us", "power": 0.5},
        ],
        "pipelines": {
            "count": {
                "source": {"kind": "counter", "params": {"start": 1}},
                "serving": [{"kind": "running_sum"}],
                "business": {"kind": "sum"},
            }
        },
        "jobs": [
            {"sender": "sender", "at": 60, "reward": 100, "pipeline": "count",
             "n_workers": 2, "steps": 3},
        ],
    }
    data.update(overrides)
    return parse_scenario(data)


def test_small_run_settles_job_and_conserves_tokens():
    result = run_scenario(two_region_scenario())
    assert result.conservation_ok
    assert result.initial_total == result.final_total == 400
    assert result.audit["jobs_done"] == 1
    job = result.bank.job("sender:1")
    assert job.status == JobStatus.SETTLED
    # capability scores tie, so ranking falls back to lexicographic ids
    assert set(job.workers) == {"w-eu", "w-idle"}
    # escrow fully drained into rewards and distributed at epoch close
    assert result.bank.escrow_pool == 0
    assert result.bank.reward_pool == 0
    assert result.bank.distributed_total == 100
    assert result.messages.consistent()
    assert result.messages.dropped == 0
    assert verify_blocks(result.ledger.blocks).ok


def test_epochs_without_pool_close_silently():
    result = run_scenario(two_region_scenario())
    # the job settles in epoch 1; epoch 2 has an empty pool and no record
    assert [a.epoch for a in result.allocations] == [1]
    reward_entries = [
        e for _, e in result.ledger.entries() if e.kind == EntryKind.REWARD_RECORD
    ]
    assert len(reward_entries) == 1
    assert reward_entries[0].payload["epoch"] == 1


def test_run_is_deterministic_and_seed_sensitive():
    a = run_scenario(two_region_scenario())
    b = run_scenario(two_region_scenario())
    assert a.ledger.dump() == b.ledger.dump()
    assert a.allocations[0].entries == b.allocations[0].entries
    c = run_scenario(two_region_scenario(), seed=12)
    assert a.ledger.dump() != c.ledger.dump()


def test_lossy_fabric_retries_until_done_and_audits_every_message():
    sc = two_region_scenario(
        regions={
            "eu": {"intra_latency_ms": 2, "inter_latency_ms": 20, "drop_rate": 0.25},
            "us": {"intra_latency_ms": 3, "inter_latency_ms": 25, "drop_rate": 0.25},
        },
        seed=5,
    )
    result = run_scenario(sc)
    m = result.messages
    assert m.dropped > 0, "drop rate 0.25 on both regions must lose messages"
    assert m.consistent(), (m.published, m.delivered, m.dropped, m.rejected,
                            m.pending_at_end)
    # reliable retransmission still lands the job
    assert result.audit["jobs_done"] == 1
    assert result.conservation_ok
    assert verify_blocks(result.ledger.blocks).ok


def test_message_audit_flags_a_stray_publish_count():
    sim = Simulation(two_region_scenario())
    arrive = sim._on_job_arrival

    def arrive_and_miscount(spec):
        sim.messages.published += 1  # a publish that never sends anything
        arrive(spec)

    sim._on_job_arrival = arrive_and_miscount
    result = sim.run()
    assert result.messages.pending_at_end == 0
    assert not result.messages.consistent()


def test_node_id_prefix_does_not_receive_another_nodes_messages():
    # "a" is a path prefix of "a/b"; only the assigned "a/b" may get the job.
    sc = two_region_scenario(
        nodes=[
            {"id": "sender", "region": "eu", "balance": 400},
            {"id": "a", "region": "eu"},
            {"id": "a/b", "region": "eu", "capability": {"cpu": 8}},
        ],
        jobs=[
            {"sender": "sender", "at": 60, "reward": 100, "pipeline": "count",
             "n_workers": 1, "steps": 3},
        ],
    )
    result = run_scenario(sc)
    assert result.audit["jobs_done"] == 1
    assert result.bank.job("sender:1").workers == ["a/b"]
    assert result.messages.consistent()


def test_downtime_shrinks_alive_fraction_and_share():
    sc = two_region_scenario(
        nodes=[
            {"id": "sender", "region": "eu", "balance": 400},
            {"id": "steady", "region": "eu", "power": 0.5},
            {"id": "flaky", "region": "eu", "power": 0.5,
             "downtime": [{"from": 1200, "to": 2401}]},  # misses all of epoch 2
            {"id": "w-idle", "region": "us", "power": 0.5},
        ],
        jobs=[
            {"sender": "sender", "at": 1300, "reward": 100, "pipeline": "count",
             "n_workers": 2, "steps": 3},
        ],
    )
    result = run_scenario(sc)
    flaky = result.bank.registry.deed("flaky")
    steady = result.bank.registry.deed("steady")
    # flaky misses the 12 s heartbeat ticks from 1200 through 2400: 101 of them
    assert steady.total_alive_seconds - flaky.total_alive_seconds == 101 * 12
    alloc = result.allocations[-1]
    shares = {e.deed_id: e.share for e in alloc.entries}
    assert shares["flaky"] < shares["steady"]


@st.composite
def downtime_scenarios(draw):
    """1-3 nodes with sorted downtime windows, touching ones included.

    Window edges are often a heartbeat tick or an epoch close, and the
    heartbeat often does not divide the epoch.
    """
    epoch_seconds = draw(st.integers(10, 90))
    heartbeat = draw(st.integers(1, epoch_seconds))
    epochs = draw(st.integers(1, 3))
    horizon = epochs * epoch_seconds
    edge = st.one_of(
        st.integers(0, horizon // heartbeat + 1).map(lambda k: k * heartbeat),
        st.integers(0, epochs).map(lambda k: k * epoch_seconds),
        st.integers(0, horizon + heartbeat),
    )
    nodes = []
    for i in range(draw(st.integers(1, 3))):
        edges = sorted(draw(st.lists(edge, max_size=6)))
        windows = [{"from": a, "to": b} for a, b in zip(edges[::2], edges[1::2]) if a < b]
        nodes.append({"id": f"n{i}", "region": "eu", "downtime": windows})
    return {
        "name": "alive", "seed": 3, "epochs": epochs, "epoch_seconds": epoch_seconds,
        "heartbeat_seconds": heartbeat, "regions": {"eu": {}}, "nodes": nodes,
        "pipelines": {}, "jobs": [],
    }


@settings(max_examples=50, deadline=None)
@given(downtime_scenarios())
def test_alive_time_counts_the_ticks_outside_every_window(data):
    result = run_scenario(parse_scenario(data))
    heartbeat = data["heartbeat_seconds"]
    ticks = range(heartbeat, data["epochs"] * data["epoch_seconds"] + 1, heartbeat)
    for node in data["nodes"]:
        # a node is down over [from, to): it misses the tick at `from`, counts the one at `to`
        up = [t for t in ticks if not any(w["from"] <= t < w["to"] for w in node["downtime"])]
        assert result.bank.registry.deed(node["id"]).total_alive_seconds == heartbeat * len(up)


def test_setup_schedules_one_heartbeat_per_tick():
    sim = Simulation(two_region_scenario(heartbeat_seconds=7))  # 7 s does not divide 1200 s
    sim._setup()
    ticks = sorted(at for at, pri, *_ in sim._heap if pri == PRI_HEARTBEAT)
    assert ticks == list(range(7000, sim.horizon_ms + 1, 7000))


def test_unsafe_plugin_is_rejected_before_funding_and_keys_stay_aligned():
    sc = two_region_scenario(
        pipelines={
            "bad": {
                "source": {"kind": "counter"},
                "business": {"kind": "expr", "params": {"expr": "acc + eval"}},
            },
            "count": {
                "source": {"kind": "counter", "params": {"start": 1}},
                "business": {"kind": "sum"},
            },
        },
        jobs=[
            {"sender": "sender", "at": 60, "reward": 100, "pipeline": "bad",
             "n_workers": 1, "steps": 2},
            {"sender": "sender", "at": 90, "reward": 50, "pipeline": "count",
             "n_workers": 1, "steps": 2},
        ],
    )
    result = run_scenario(sc)
    assert result.audit["jobs_rejected"] == 1
    assert result.audit["jobs_done"] == 1
    # no tokens ever moved for the rejected job
    assert result.conservation_ok
    rejections = [
        e for _, e in result.ledger.entries()
        if e.kind == EntryKind.POOL_EVENT and e.payload.get("event") == "plugin_rejected"
    ]
    assert len(rejections) == 1
    assert rejections[0].payload["job"] == "sender:1"
    assert any("reflective" in r for r in rejections[0].payload["reasons"])
    # the follow-up job keeps its parse-time key sender:2
    done = result.bank.job("sender:2")
    assert done.status == JobStatus.SETTLED
    assert "sender:1" not in result.bank.jobs


def test_underfunded_job_is_rejected_and_later_job_runs():
    sc = two_region_scenario(
        nodes=[
            {"id": "sender", "region": "eu", "balance": 80},
            {"id": "w-eu", "region": "eu", "power": 0.5},
            {"id": "w-us", "region": "us", "power": 0.5},
            {"id": "w-idle", "region": "us", "power": 0.5},
        ],
        jobs=[
            {"sender": "sender", "at": 60, "reward": 500, "pipeline": "count",
             "n_workers": 1, "steps": 2},
            {"sender": "sender", "at": 90, "reward": 80, "pipeline": "count",
             "n_workers": 1, "steps": 2},
        ],
    )
    result = run_scenario(sc)
    assert result.audit["jobs_rejected"] == 1
    events = [
        e.payload for _, e in result.ledger.entries()
        if e.kind == EntryKind.POOL_EVENT and e.payload.get("event") == "job_rejected"
    ]
    assert events and events[0]["job"] == "sender:1"
    assert result.bank.job("sender:2").status == JobStatus.SETTLED
    assert result.conservation_ok


def test_injected_fault_drains_one_penalty():
    sc = two_region_scenario(
        jobs=[
            {"sender": "sender", "at": 60, "reward": 100, "pipeline": "count",
             "n_workers": 2, "steps": 3,
             "faults": [{"worker_index": 0, "step": 2, "kind": "forge"}]},
        ],
    )
    result = run_scenario(sc)
    assert result.audit["proofs_rejected"] == 1
    assert result.audit["penalties"] == 1
    rejected = [
        e.payload for _, e in result.ledger.entries()
        if e.kind == EntryKind.POOL_EVENT and e.payload.get("event") == "proof_rejected"
    ]
    assert len(rejected) == 1
    assert "commitment mismatch" in rejected[0]["reason"]
    # the job still completes: honest links resume after the bad one
    assert result.audit["jobs_done"] == 1
    assert result.conservation_ok


def test_cancel_and_review_refund_path():
    sc = two_region_scenario(
        epochs=3,
        epoch_seconds=43200,
        heartbeat_seconds=432,
        jobs=[
            {"sender": "sender", "at": 60, "reward": 100, "pipeline": "count",
             "n_workers": 2, "steps": 3000, "cancel_at": 4000,
             "review_verdict": "invalid"},
        ],
    )
    result = run_scenario(sc)
    assert result.audit["jobs_cancelled"] == 1
    assert result.audit["reviews_resolved"] == 1
    job = result.bank.job("sender:1")
    assert job.status == JobStatus.REFUNDED
    assert result.bank.registry.deed("sender").balance == 400
    assert result.conservation_ok


def test_demo_scenario_runs_end_to_end():
    result = run_scenario(load_scenario(SCENARIOS / "demo_trio.yaml"))
    assert result.conservation_ok
    assert result.audit["jobs_done"] == 1
    assert result.bank.distributed_total == 300
    assert verify_blocks(result.ledger.blocks).ok
    assert result.messages.consistent()


def test_review_unlocks_after_the_scenario_lock_length():
    sc = two_region_scenario(
        epochs=8,
        review_lock_seconds=7200,
        jobs=[
            {"sender": "sender", "at": 60, "reward": 100, "pipeline": "count",
             "n_workers": 2, "steps": 1000, "cancel_at": 600},
        ],
    )
    result = run_scenario(sc)
    payloads = [e.payload for _, e in result.ledger.entries()]
    cancelled = next(p for p in payloads if p.get("status") == "CANCELLED")
    resolved = next(p for p in payloads if p.get("event") == "review_resolved")
    assert cancelled["at"] == 600
    assert resolved["at"] == 600 + 7200
    assert result.pool_timeline[0]["locked"] == [["sender:1", "100", 7800]]
    assert result.bank.job("sender:1").status == JobStatus.SETTLED
    assert result.conservation_ok


def demo_with_challenges(*challenges):
    """demo_trio plus five idle jurors j0-j4, who challenge alpha:1 at the given times."""
    raw = copy.deepcopy(load_scenario(SCENARIOS / "demo_trio.yaml").raw)
    raw["nodes"] += [
        {"id": f"j{i}", "region": "local", "balance": 100, "capability": {"cpu": 1.0}}
        for i in range(5)
    ]
    raw["challenges"] = [
        {"challenger": who, "job": "alpha:1", "at": at, "votes": [True, True, True]}
        for who, at in challenges
    ]
    return parse_scenario(raw)


@pytest.mark.parametrize("challenges", [
    [("j0", 1000), ("j1", 1010)],  # the second verdict lands on a refunded job
    [("j0", 3590)],  # a heartbeat later would be after epoch 1 closes and pays out
], ids=["two upheld", "before the close"])
def test_upheld_challenge_on_settled_job_refunds_once_within_its_epoch(challenges):
    result = run_scenario(demo_with_challenges(*challenges))
    assert result.audit["challenges_opened"] == len(challenges)
    assert result.conservation_ok
    bank = result.bank
    assert bank.job("alpha:1").status == JobStatus.REFUNDED
    assert bank.clawback_total == 300
    assert bank.registry.deed("alpha").balance == 500
    assert all(bank.registry.deed(who).balance == 100 for who, _ in challenges)
    assert [row["reward_pool"] for row in result.pool_timeline] == ["0", "0"]
    assert result.allocations == []
