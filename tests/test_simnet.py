"""End-to-end simulation behavior on small scenarios."""

import copy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.escrow import EscrowBank, JobStatus
from computepool.ledger import EntryKind, payload_shape, verify_blocks
from computepool.scenario import load_scenario, parse_scenario
from computepool.simnet import (
    Simulation,
    SimulationError,
    run_scenario,
    topic_matches,
)
from computepool.tokenomics import NodeRegistry

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
    ("a/b/c", "a/b", False),
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


class AliveAtEachClose(Simulation):
    """Records each node's total alive seconds right after every epoch close."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.alive_after_close: dict[int, dict[str, int]] = {}

    def _on_epoch_close(self, epoch: int) -> None:
        super()._on_epoch_close(epoch)
        self.alive_after_close[epoch] = {
            node.node_id: self.registry.deed(node.node_id).total_alive_seconds
            for node in self.scenario.nodes
        }


@settings(max_examples=50, deadline=None)
@given(downtime_scenarios())
def test_each_epoch_close_has_credited_exactly_the_ticks_up_to_it(data):
    sim = AliveAtEachClose(parse_scenario(data))
    sim.run()
    heartbeat = data["heartbeat_seconds"]
    for epoch in range(1, data["epochs"] + 1):
        ticks = range(heartbeat, epoch * data["epoch_seconds"] + 1, heartbeat)
        assert sim.alive_after_close[epoch] == {
            node["id"]: heartbeat * sum(
                not any(w["from"] <= t < w["to"] for w in node["downtime"]) for t in ticks
            )
            for node in data["nodes"]
        }


@pytest.mark.parametrize("window,cancel_at,rejected", [
    # the assignment, sent at 100 s, lands at 101 s, the window's `from`: delivered
    ({"from": 101, "to": 200}, None, 0),
    # the cancel, sent at 109 s, lands at 110 s, the window's `to`: refused and sent again
    ({"from": 102, "to": 110}, 109, 1),
], ids=["lands_at_from", "lands_at_to"])
def test_a_delivery_sees_the_node_as_it_was_before_its_millisecond(window, cancel_at, rejected):
    job = {"sender": "sender", "at": 100, "reward": 100, "pipeline": "count",
           "n_workers": 1, "steps": 3}
    if cancel_at is not None:
        job["cancel_at"] = cancel_at
    sim = Simulation(two_region_scenario(
        regions={"eu": {"intra_latency_ms": 1000}},
        nodes=[
            {"id": "sender", "region": "eu", "balance": 400},
            {"id": "w", "region": "eu", "downtime": [window]},
        ],
        jobs=[job],
    ))
    sim.run()
    assert sim.messages.rejected == rejected
    assert sim.messages.consistent() and sim.messages.pending_at_end == 0
    assert sim._tasks["sender:1", "w"].cancelled == (cancel_at is not None)


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
    assert rejections[0].payload["reasons"] == ["unknown variable 'eval'"]
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


def test_cancel_before_assignment_refunds_the_sender():
    # Two of the three workers are down until 1000 s, so the job waits PENDING.
    sc = two_region_scenario(
        nodes=[
            {"id": "sender", "region": "eu", "balance": 400},
            {"id": "w-eu", "region": "eu", "power": 0.5, "downtime": [{"from": 0, "to": 1000}]},
            {"id": "w-us", "region": "us", "power": 0.5, "downtime": [{"from": 0, "to": 1000}]},
            {"id": "w-idle", "region": "us", "power": 0.5},
        ],
        jobs=[
            {"sender": "sender", "at": 10, "reward": 100, "pipeline": "count",
             "n_workers": 2, "steps": 3, "cancel_at": 500},
        ],
    )
    result = run_scenario(sc)
    job = result.bank.job("sender:1")
    assert (job.status, job.workers, job.unlock_time) == (JobStatus.REFUNDED, [], None)
    assert result.bank.registry.deed("sender").balance == 400
    assert result.bank.escrow_pool == 0
    assert result.audit["jobs_cancelled"] == 1
    assert result.audit["reviews_resolved"] == 0
    kinds = [(e.kind, e.payload.get("status")) for _, e in result.ledger.entries()]
    assert (EntryKind.JOB_STATUS, "CANCELLED") in kinds
    assert (EntryKind.JOB_ASSIGN, None) not in kinds  # retries stopped at the cancel
    assert result.conservation_ok


def test_a_job_no_node_can_serve_waits_without_retries():
    data = copy.deepcopy(load_scenario(SCENARIOS / "demo_trio.yaml").raw)
    data["jobs"].append({"sender": "alpha", "at": 240, "reward": 100, "pipeline": "spread",
                         "n_workers": 3, "steps": 4, "requirement": {"gpu": True}})
    retried = []

    class Recording(Simulation):
        def _retry_later(self, handler, *args):
            retried.append(handler.__name__)
            super()._retry_later(handler, *args)

    result = Recording(parse_scenario(data)).run()
    assert "_try_assign" not in retried
    assert result.bank.job("alpha:1").status == JobStatus.SETTLED
    job = result.bank.job("alpha:2")
    assert (job.status, job.workers) == (JobStatus.PENDING, [])
    assert result.bank.escrow_pool == 100
    assert result.conservation_ok


def test_an_assignment_asks_only_the_nodes_it_takes_whether_they_are_up():
    # Every node is up and capabilities tie, so the ranking is by id: sender,
    # w-eu, w-idle, w-us. The walk skips the sender without asking and stops
    # once it has the job's two workers.
    asked = []

    class Recording(Simulation):
        assigning = False

        def _is_up(self, node_id, at_ms):
            if self.assigning:
                asked.append(node_id)
            return super()._is_up(node_id, at_ms)

        def _try_assign(self, job_id):
            self.assigning = True
            super()._try_assign(job_id)
            self.assigning = False

    result = Recording(two_region_scenario()).run()
    assert result.bank.job("sender:1").workers == ["w-eu", "w-idle"]
    assert asked == ["w-eu", "w-idle"]


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


def test_nothing_runs_after_the_horizon():
    raw = copy.deepcopy(load_scenario(SCENARIOS / "demo_trio.yaml").raw)
    # 4 steps one 36 s heartbeat apart cannot finish in the 100 s left
    raw["jobs"].append(dict(raw["jobs"][0], at=7100, reward=100))
    sc = parse_scenario(raw)
    sim = Simulation(sc)
    result = sim.run()
    assert sim.horizon_ms == 7_200_000
    assert all(block.timestamp <= sim.horizon_ms for block in result.ledger.blocks)
    epochs = [e.payload["epoch"] for _, e in result.ledger.entries() if "epoch" in e.payload]
    assert max(epochs) == sc.epochs
    assert result.bank.job("alpha:2").status == JobStatus.IN_PROGRESS
    assert result.bank.escrow_pool == 100 and result.bank.reward_pool == 0
    assert result.pool_timeline[-1]["escrow_pool"] == "100"
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
    assert {c.bond for c in bank.challenges.values()} == {30}  # no bond set: a tenth of 300
    # alpha:1's 300 reached the reward pool once, by its one DONE entry, and
    # left it only by being clawed back: nothing was paid out.
    done = [e.payload["job"] for _, e in result.ledger.entries()
            if e.kind == EntryKind.JOB_STATUS and e.payload["status"] == "DONE"]
    assert done == ["alpha:1"] and bank.job("alpha:1").reward == 300
    assert bank.distributed_total == 0
    assert bank.registry.deed("alpha").balance == 500
    assert all(bank.registry.deed(who).balance == 100 for who, _ in challenges)
    assert [row["reward_pool"] for row in result.pool_timeline] == ["0", "0"]
    assert result.allocations == []


def test_a_challenge_after_its_window_leaves_only_its_rejection():
    # alpha:1 settles in epoch 1; at t=4000 s epoch 2 runs, so the window is
    # closed. The bank refuses the opening, so no CHALLENGE entry records it.
    result = run_scenario(demo_with_challenges(("j0", 4000)))
    (rejected,) = result.ledger.blocks[8].entries
    assert (rejected.kind, rejected.payload["event"]) == (
        EntryKind.POOL_EVENT, "challenge_rejected"
    )
    assert rejected.payload["reason"].endswith("challenge window closed")
    kinds = [e.kind for _, e in result.ledger.entries()]
    assert EntryKind.CHALLENGE not in kinds
    events = [e.payload.get("event") for _, e in result.ledger.entries()]
    assert "jury_drawn" not in events
    assert result.audit["challenges_failed"] == 1
    assert result.audit["challenges_opened"] == 0
    unchallenged = run_scenario(demo_with_challenges())
    j0 = result.bank.registry.deed("j0").balance
    assert j0 == unchallenged.bank.registry.deed("j0").balance  # no bond moved
    assert result.conservation_ok


def counters_scenario():
    """Three 100 s epochs with 10 s heartbeats. Up to t=200 s every node is
    down from each tick to one second after it, so none has any alive time
    before epoch 3; arrivals, challenges and worker steps fall between ticks.

    - sender:1 runs an unsafe `expr` plugin and is rejected at vetting.
    - sender:2 asks for more than the sender holds and is rejected unfunded.
    - sender:3 runs a safe `expr` plugin on worker `a` in epoch 2, three
      steps, with a forged proof at step 2: links 1-3 are accepted and the
      forgery is rejected. Its code is rechecked at submission and on delivery.
    - A challenge of sender:1 finds no job; `poor` cannot post its bond; j1's
      challenge of sender:3 draws j2, j3 and poor and is rejected.
    - Epoch 1 closes on an empty pool, epoch 2 on 110 tokens that no node is
      eligible for, and epoch 3 pays them out.
    """
    hb = 10
    down = [{"from": t, "to": t + 1} for t in range(hb, 201, hb)]
    nodes = [
        {"id": "a"}, {"id": "j1", "balance": 50}, {"id": "j2"}, {"id": "j3"},
        {"id": "poor", "balance": 5}, {"id": "sender", "balance": 400},
    ]
    return parse_scenario({
        "name": "counters",
        "seed": 5,
        "epochs": 3,
        "epoch_seconds": 100,
        "heartbeat_seconds": hb,
        "regions": {"eu": {"intra_latency_ms": 2, "inter_latency_ms": 20, "drop_rate": 0.0}},
        "nodes": [dict(node, region="eu", downtime=down) for node in nodes],
        "pipelines": {
            "unsafe": {"source": {"kind": "counter"},
                       "business": {"kind": "expr", "params": {"expr": "acc + eval"}}},
            "count": {"source": {"kind": "counter"}, "business": {"kind": "sum"}},
            "formula": {"source": {"kind": "counter", "params": {"start": 1}},
                        "business": {"kind": "expr", "params": {"expr": "acc + x", "init": 0.0}}},
        },
        "jobs": [
            {"sender": "sender", "at": 12, "reward": 100, "pipeline": "unsafe",
             "n_workers": 1, "steps": 2},
            {"sender": "sender", "at": 13, "reward": 500, "pipeline": "count",
             "n_workers": 1, "steps": 2},
            {"sender": "sender", "at": 102, "reward": 100, "pipeline": "formula",
             "n_workers": 1, "steps": 3,
             "faults": [{"worker_index": 0, "step": 2, "kind": "forge"}]},
        ],
        "challenges": [
            {"challenger": "j1", "job": "sender:1", "at": 50, "votes": [True] * 3},
            {"challenger": "poor", "job": "sender:3", "at": 150, "bond": 10,
             "votes": [True] * 3},
            {"challenger": "j1", "job": "sender:3", "at": 152, "bond": 10,
             "votes": [False] * 3},
        ],
    })


def test_every_audit_counter_matches_a_hand_count():
    result = run_scenario(counters_scenario())
    assert result.conservation_ok
    assert result.audit == {
        "proofs_accepted": 3,
        "proofs_rejected": 1,
        "penalties": 1,
        "jobs_submitted": 3,
        "jobs_rejected": 2,
        "jobs_done": 1,
        "jobs_cancelled": 0,
        "reviews_resolved": 0,
        "challenges_opened": 1,
        "challenges_failed": 2,
        "code_rechecks": 2,
        "plugins_vetted": 2,
        "closes_skipped": 2,
    }
    assert result.bank.job("sender:3").workers == ["a"]
    assert sorted(result.bank.challenges["ch1"].jury) == ["j2", "j3", "poor"]
    assert [row["reward_pool"] for row in result.pool_timeline] == ["0", "110", "0"]
    assert [a.epoch for a in result.allocations] == [3]


def test_a_challenge_of_an_unfunded_job_is_rejected_in_the_banks_words():
    result = run_scenario(counters_scenario())
    rejected = [e.payload for _, e in result.ledger.entries()
                if payload_shape(e.kind, e.payload) == (EntryKind.POOL_EVENT, "challenge_rejected")]
    assert rejected[0] == {
        "event": "challenge_rejected", "job": "sender:1", "reason": "unknown job sender:1",
    }
    assert [p["job"] for p in rejected] == ["sender:1", "sender:3"]  # then poor's bond


def test_a_cancel_after_its_job_finished_is_recorded_as_skipped():
    sc = two_region_scenario(jobs=[
        {"sender": "sender", "at": 60, "reward": 100, "pipeline": "count",
         "n_workers": 2, "steps": 3, "cancel_at": 1000},
    ])
    result = run_scenario(sc)
    assert result.bank.job("sender:1").status == JobStatus.SETTLED
    skipped = [(block.timestamp, e.payload) for block in result.ledger.blocks
               for e in block.entries if e.payload.get("event") == "cancel_skipped"]
    assert skipped == [(1_000_000, {
        "event": "cancel_skipped", "job": "sender:1", "reason": "job already finished",
    })]
    assert result.audit["jobs_done"] == 1 and result.audit["jobs_cancelled"] == 0
    assert result.conservation_ok


FUND_MOVING = {
    (EntryKind.JOB_STATUS, "DONE"),
    (EntryKind.JOB_STATUS, "CANCELLED"),
    (EntryKind.POOL_EVENT, "review_resolved"),
    (EntryKind.REWARD_RECORD, None),
    (EntryKind.CHALLENGE, "opened"),
    (EntryKind.CHALLENGE, "resolved"),
}


def test_conservation_is_checked_once_per_funding_and_per_fund_moving_entry(monkeypatch):
    totals = []
    conservation_total = EscrowBank.conservation_total

    def counting_total(bank):
        totals.append(bank)
        return conservation_total(bank)

    monkeypatch.setattr(EscrowBank, "conservation_total", counting_total)
    result = run_scenario(load_scenario(SCENARIOS / "reference.yaml"))
    moves = sum(payload_shape(e.kind, e.payload) in FUND_MOVING for _, e in result.ledger.entries())
    # One total at setup and one at the end; one check per funded job, and
    # one per entry the bank acts on to move funds. JOB_ASSIGN moves none.
    assert len(totals) == 2 + len(result.bank.jobs) + moves == 50


def test_every_fund_moving_entry_reaches_the_bank_once_in_ledger_order(monkeypatch):
    applied = []
    apply = EscrowBank.apply

    def recording_apply(bank, entry, *args, **kwargs):
        applied.append(entry)
        return apply(bank, entry, *args, **kwargs)

    monkeypatch.setattr(EscrowBank, "apply", recording_apply)
    result = run_scenario(load_scenario(SCENARIOS / "reference.yaml"))

    moves_funds = {
        (EntryKind.JOB_ASSIGN, None),
        (EntryKind.JOB_STATUS, "DONE"),
        (EntryKind.JOB_STATUS, "CANCELLED"),
        (EntryKind.POOL_EVENT, "review_resolved"),
        (EntryKind.REWARD_RECORD, None),
        (EntryKind.CHALLENGE, "opened"),
        (EntryKind.CHALLENGE, "resolved"),
    }
    recorded = [entry for _, entry in result.ledger.entries()
                if payload_shape(entry.kind, entry.payload) in moves_funds]
    assert any(e.kind == EntryKind.POOL_EVENT for e in recorded)  # reference has reviews
    assert len(recorded) > 30
    assert [id(e) for e in applied] == [id(e) for e in recorded]


def test_a_stray_fraction_of_a_token_breaks_conservation(monkeypatch):
    scenario = load_scenario(SCENARIOS / "reference.yaml")
    assert run_scenario(scenario).conservation_ok
    # 2**61 - 1 is prime, and no balance in the run has it as a denominator.
    # The stray rides on the run's second credit, n02's first reward, so
    # n02's balance gets denominator 2**54 * (2**61 - 1). n01 holds 2**56,
    # which that does not divide: only a sum over the lcm is exact here.
    stray = Fraction(1, 2**61 - 1)
    credits = []
    credit = NodeRegistry.credit

    def leaky_credit(self, deed_id, amount):
        credits.append(deed_id)
        credit(self, deed_id, amount + (stray if len(credits) == 2 else 0))

    monkeypatch.setattr(NodeRegistry, "credit", leaky_credit)
    with pytest.raises(SimulationError, match="token conservation broken") as broken:
        run_scenario(scenario)
    # The check reports the exact drift, not merely some inequality.
    minted = sum((n.balance for n in scenario.nodes), Fraction(0))
    assert f"total {minted + stray} (initial {minted})" in str(broken.value)
