"""Scenario parsing: defaults, derived fields, and path-anchored diagnostics."""

import copy
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from computepool.scenario import ScenarioError, load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def base_scenario():
    return {
        "name": "mini",
        "seed": 1,
        "epochs": 2,
        "epoch_seconds": 600,
        "regions": {"eu": {"intra_latency_ms": 2, "drop_rate": 0.1}},
        "nodes": [
            {"id": "a", "region": "eu", "balance": 100},
            {"id": "b", "region": "eu", "power": {0: 0.5, 10: 1.5}},
            {"id": "c", "region": "eu", "downtime": [{"from": 10, "to": 20}]},
        ],
        "pipelines": {
            "p": {
                "source": {"kind": "counter"},
                "business": {"kind": "sum"},
            }
        },
        "jobs": [
            {"sender": "a", "at": 30, "reward": 10, "pipeline": "p",
             "n_workers": 1, "steps": 2},
        ],
    }


def expect_error(data, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert fragment in str(err.value), str(err.value)


def test_minimal_scenario_parses_with_defaults():
    sc = parse_scenario(base_scenario())
    assert sc.name == "mini"
    assert sc.horizon == 1200
    assert sc.heartbeat_seconds == 6  # epoch_seconds / 100
    assert sc.review_lock_seconds == 86400
    assert sc.bond_fraction == Fraction(1, 10)
    assert sc.regions["eu"].inter_latency_ms == 10
    assert sc.nodes[0].balance == 100
    assert sc.nodes[2].downtime[0].end == 20
    assert sc.jobs[0].reward == 10
    assert sc.jobs[0].review_verdict == "valid"
    assert sc.challenges == ()


def test_power_schedule_listtail():
    sc = parse_scenario(base_scenario())
    node = sc.nodes[1]
    assert node.power_for_epoch(1) == 0.5
    assert node.power_for_epoch(9) == 0.5
    assert node.power_for_epoch(10) == 1.5
    # scalar power applies to every epoch
    assert sc.nodes[0].power_for_epoch(7) == 0.0


def test_unknown_and_missing_top_keys():
    data = base_scenario()
    data["extra_knob"] = 1
    expect_error(data, "unknown keys: ['extra_knob']")
    data = base_scenario()
    data["nodes"][0].update({1: "x", "zz": "y"})  # mixed key types still list
    expect_error(data, "nodes[0]: unknown keys: [1, 'zz']")
    data = base_scenario()
    data["safety_policy"] = {1: "x", "zz": "y"}
    expect_error(data, "safety_policy: unknown safety policy keys: [1, 'zz']")
    data = base_scenario()
    del data["regions"]
    expect_error(data, "missing required keys: ['regions']")


def test_token_amounts_reject_floats():
    data = base_scenario()
    data["jobs"][0]["reward"] = 9.5
    expect_error(data, "jobs[0].reward: token amounts must be integers or 'p/q'")
    data = base_scenario()
    data["jobs"][0]["reward"] = True
    expect_error(data, "jobs[0].reward: token amounts must be integers or 'p/q'")
    data = base_scenario()
    data["nodes"][0]["balance"] = True
    expect_error(data, "nodes[0].balance: token amounts must be integers or 'p/q'")
    data = base_scenario()
    data["bond_fraction"] = True
    expect_error(data, "bond_fraction: token amounts must be integers or 'p/q'")
    data = base_scenario()
    data["nodes"][0]["balance"] = "3/4"
    assert parse_scenario(data).nodes[0].balance == Fraction(3, 4)


def test_region_validation():
    data = base_scenario()
    data["regions"]["eu"]["drop_rate"] = 1.0
    expect_error(data, "regions.eu.drop_rate: must be in [0, 1)")
    data = base_scenario()
    data["nodes"][0]["region"] = "mars"
    expect_error(data, "nodes[0].region: unknown region 'mars'")
    data = base_scenario()
    data["regions"] = {}
    expect_error(data, "at least one region")
    data = base_scenario()
    data["regions"][1] = {}  # the coordinator's region is the first name in sorted order
    expect_error(data, "regions (key): expected a non-empty string, got 1")


def test_node_validation():
    data = base_scenario()
    data["nodes"][1]["id"] = "a"
    expect_error(data, "nodes[1].id: duplicate node id 'a'")
    data = base_scenario()
    data["nodes"][2]["downtime"][0]["to"] = 10
    expect_error(data, "nodes[2].downtime[0]: 'to' (10) must be after 'from' (10)")
    data = base_scenario()  # an inner window would bring the node back up too early
    data["nodes"][2]["downtime"] = [{"from": 120, "to": 600}, {"from": 200, "to": 300}]
    expect_error(data, "nodes[2].downtime[1]: starts before downtime[0] ends at 600")
    data = base_scenario()  # the path names the window as written, not in sorted order
    data["nodes"][2]["downtime"] = [{"from": 30, "to": 40}, {"from": 10, "to": 20}, {"from": 15, "to": 25}]
    expect_error(data, "nodes[2].downtime[2]: starts before downtime[1] ends at 20")
    data = base_scenario()  # windows that only touch stay legal, and are kept sorted
    data["nodes"][2]["downtime"] = [{"from": 20, "to": 30}, {"from": 10, "to": 20}]
    windows = parse_scenario(data).nodes[2].downtime
    assert [(d.start, d.end) for d in windows] == [(10, 20), (20, 30)]
    data = base_scenario()
    data["nodes"][0]["capability"] = {"cpu": -1}
    expect_error(data, "nodes[0].capability")


def test_job_validation():
    data = base_scenario()
    data["jobs"][0]["sender"] = "zz"
    expect_error(data, "jobs[0].sender: unknown node 'zz'")
    data = base_scenario()
    data["jobs"][0]["pipeline"] = "nope"
    expect_error(data, "jobs[0].pipeline: unknown pipeline 'nope'")
    data = base_scenario()
    data["jobs"][0]["cancel_at"] = 30
    expect_error(data, "jobs[0].cancel_at: must be after submission time 30")
    data = base_scenario()
    data["jobs"][0]["review_verdict"] = "maybe"
    expect_error(data, "jobs[0].review_verdict")


def test_jobs_must_be_time_ordered():
    data = base_scenario()
    data["jobs"].append(dict(data["jobs"][0], at=5))
    expect_error(data, "jobs[1].at: jobs must be listed in non-decreasing time order")


def test_pipeline_errors_carry_job_path():
    data = base_scenario()
    data["pipelines"]["p"]["source"]["params"] = [{"start": 0}, {"start": 1}]
    expect_error(data, "jobs[0].pipeline: source plugin 'counter' has 2 parameter sets")
    data = base_scenario()
    data["pipelines"]["p"]["business"]["kind"] = "median"
    expect_error(data, "unknown business plugin 'median'")


def test_fault_validation():
    data = base_scenario()
    data["jobs"][0]["faults"] = [{"worker_index": 1, "step": 1, "kind": "forge"}]
    expect_error(data, "jobs[0].faults[0].worker_index: must be < n_workers (1)")
    data = base_scenario()
    data["jobs"][0]["faults"] = [{"worker_index": 0, "step": 3, "kind": "forge"}]
    expect_error(data, "jobs[0].faults[0].step: must be <= steps (2)")
    data = base_scenario()
    data["jobs"][0]["faults"] = [{"worker_index": 0, "step": 1, "kind": "stall"}]
    expect_error(data, "jobs[0].faults[0].kind: must be 'replay' or 'forge'")


def test_challenge_validation():
    data = base_scenario()
    data["challenges"] = [
        {"at": 40, "challenger": "b", "job": "a:1", "votes": [True, False, True]}
    ]
    sc = parse_scenario(data)
    assert sc.challenges[0].job_id == "a:1"
    assert sc.challenges[0].bond is None
    assert sc.challenges[0].votes == (True, False, True)

    bad = copy.deepcopy(data)
    bad["challenges"][0]["job"] = "a:2"
    expect_error(bad, "challenges[0].job: no scenario job produces key 'a:2'")
    bad = copy.deepcopy(data)
    bad["challenges"][0]["votes"] = [1, 0, 1]
    expect_error(bad, "challenges[0].votes: votes must be booleans")
    bad = copy.deepcopy(data)
    bad["challenges"][0]["challenger"] = "zz"
    expect_error(bad, "challenges[0].challenger: unknown node 'zz'")


def test_job_ids_count_per_sender():
    data = base_scenario()
    data["jobs"] = [
        {"sender": "a", "at": 10, "reward": 5, "pipeline": "p", "n_workers": 1, "steps": 1},
        {"sender": "b", "at": 20, "reward": 5, "pipeline": "p", "n_workers": 1, "steps": 1},
        {"sender": "a", "at": 30, "reward": 5, "pipeline": "p", "n_workers": 1, "steps": 1},
    ]
    data["challenges"] = [
        {"at": 40, "challenger": "c", "job": "a:2", "votes": [True]}
    ]
    sc = parse_scenario(data)
    assert [job.job_id for job in sc.jobs] == ["a:1", "b:1", "a:2"]
    assert sc.challenges[0].job_id == "a:2"


def test_load_scenario_file_errors(tmp_path, monkeypatch):
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("nodes: [unclosed\n")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(bad)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)  # the pure-Python loader
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(bad)


def test_shipped_scenarios_parse_alike_without_libyaml(monkeypatch):
    paths = sorted(SCENARIOS.glob("*.yaml"))
    assert len(paths) == 2
    with_libyaml = [load_scenario(path).raw for path in paths]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [load_scenario(path).raw for path in paths] == with_libyaml


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(base_scenario()))
    sc = load_scenario(path)
    assert sc.name == "mini"
    assert len(sc.nodes) == 3
