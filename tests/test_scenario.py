"""Scenario parsing: defaults, derived fields, and path-anchored diagnostics."""

import copy
import re
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from computepool.pipeline import Expression, PipelineRun
from computepool.scenario import MAX_DEPTH, ScenarioError, load_scenario, parse_scenario
from computepool.tokenomics import Capability

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
    data["nodes"][0]["balance"] = "3/4"
    assert parse_scenario(data).nodes[0].balance == Fraction(3, 4)


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["nodes"][0].update(balance="abc"),
     "nodes[0].balance: not a token amount: 'abc'"),
    (lambda data: data["jobs"][0].update(reward=0), "jobs[0].reward: must be positive, got 0"),
    (lambda data: data.update(nodes=[]), "nodes: at least one node is required"),
], ids=["not_an_amount", "zero_reward", "no_nodes"])
def test_amounts_and_the_node_list_are_refused_by_name(edit, message):
    data = base_scenario()
    edit(data)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario(data)


NUMBER_FIELDS = {
    "nodes[0].power": lambda data, v: data["nodes"][0].update(power=v),
    "nodes[1].power[10]": lambda data, v: data["nodes"][1]["power"].update({10: v}),
    "nodes[0].capability.cpu": lambda data, v: data["nodes"][0].update(capability={"cpu": v}),
    "jobs[0].requirement.memory": lambda data, v: data["jobs"][0].update(requirement={"memory": v}),
    "regions.eu.drop_rate": lambda data, v: data["regions"]["eu"].update(drop_rate=v),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("path", list(NUMBER_FIELDS))
def test_numbers_must_be_finite(path, value):
    data = base_scenario()
    NUMBER_FIELDS[path](data, value)
    expect_error(data, f"{path}: expected a finite number")


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
    data = base_scenario()  # the one check on a deed's opening balance
    data["nodes"][0]["balance"] = "-1/2"
    expect_error(data, "nodes[0].balance: must be non-negative, got -1/2")


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


COUNTS = {
    "epochs": lambda data: data.update(epochs=0),
    "epoch_seconds": lambda data: data.update(epoch_seconds=0),
    "jobs[0].n_workers": lambda data: data["jobs"][0].update(n_workers=0),
    "jobs[0].steps": lambda data: data["jobs"][0].update(steps=0),
}


@pytest.mark.parametrize("path", list(COUNTS))
def test_counts_must_be_at_least_one(path):
    data = base_scenario()
    COUNTS[path](data)
    expect_error(data, f"{path}: must be >= 1, got 0")


def test_jobs_must_be_time_ordered():
    data = base_scenario()
    data["jobs"].append(dict(data["jobs"][0], at=5))
    expect_error(data, "jobs[1].at: jobs must be listed in non-decreasing time order")


def test_jobs_and_challenges_must_fall_inside_the_horizon():
    data = base_scenario()  # 2 epochs of 600 s
    data["jobs"].append(dict(data["jobs"][0], at=1200))
    data["challenges"] = [{"at": 1200, "challenger": "b", "job": "a:2", "votes": [True] * 3}]
    sc = parse_scenario(data)
    assert sc.jobs[1].at == sc.challenges[0].at == sc.horizon
    late_job = copy.deepcopy(data)
    late_job["jobs"][1]["at"] = 1201
    expect_error(late_job, "jobs[1].at: must be <= 1200, got 1201")
    late_challenge = copy.deepcopy(data)
    late_challenge["challenges"][0]["at"] = 9000
    expect_error(late_challenge, "challenges[0].at: must be <= 1200, got 9000")
    cancelled = copy.deepcopy(data)  # a cancellation at the horizon still runs
    cancelled["jobs"][0]["cancel_at"] = 1200
    assert parse_scenario(cancelled).jobs[0].cancel_at == sc.horizon
    cancelled["jobs"][0]["cancel_at"] = 9000
    expect_error(cancelled, "jobs[0].cancel_at: must be <= 1200, got 9000")


def test_pipeline_errors_carry_job_path():
    data = base_scenario()
    data["pipelines"]["p"]["source"]["params"] = [{"start": 0}, {"start": 1}]
    expect_error(data, "jobs[0].pipeline: plugin 'counter' has 2 parameter sets for 1 workers")
    data = base_scenario()
    data["pipelines"]["p"]["business"]["kind"] = "median"
    expect_error(data, "pipelines.p.business.kind: unknown plugin 'median'")


def test_an_unused_pipeline_is_checked():
    data = base_scenario()
    data["pipelines"]["unused"] = {
        "source": {"kind": "constant", "params": {"value": "abc"}},
        "business": {"kind": "nope"},
    }
    expect_error(data, "pipelines.unused.source.params.value: expected a number, got 'abc'")


def test_jobs_share_one_pipeline_and_compile_its_expr_once(monkeypatch):
    compiled = []
    original = Expression.__init__

    def counting_init(self, source):
        compiled.append(source)
        original(self, source)

    monkeypatch.setattr(Expression, "__init__", counting_init)
    data = base_scenario()
    data["pipelines"]["p"]["business"] = {"kind": "expr", "params": {"expr": "acc + x"}}
    data["jobs"] = [dict(data["jobs"][0], n_workers=workers) for workers in (1, 2, 3)]
    sc = parse_scenario(data)
    assert sc.jobs[0].pipeline is sc.jobs[1].pipeline is sc.jobs[2].pipeline
    assert [job.n_workers for job in sc.jobs] == [1, 2, 3]
    for job in sc.jobs:
        for worker in range(job.n_workers):
            run = PipelineRun(job.pipeline, worker)
            assert [run.step().acc for _ in range(3)] == [0.0, 1.0, 3.0]
    assert compiled == ["acc + x"]


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


@pytest.mark.parametrize("kinds", [("forge", "replay"), ("forge", "forge")], ids=["forge_replay", "forge_twice"])
def test_a_worker_takes_at_most_one_fault_per_step(kinds):
    data = base_scenario()
    data["jobs"][0]["faults"] = [{"worker_index": 0, "step": 2, "kind": kind} for kind in kinds]
    expect_error(data, "jobs[0].faults[1]: worker 0 already has a fault at step 2 (faults[0])")
    data["jobs"][0]["faults"][1]["step"] = 1  # another step of the same worker
    assert [fault.kind for fault in parse_scenario(data).jobs[0].faults] == list(kinds)


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


@pytest.mark.parametrize(
    "votes", [[], [True], [True, False], [True] * 4], ids=["none", "one", "two", "four"]
)
def test_a_challenge_gives_one_vote_per_juror(votes):
    data = base_scenario()
    data["challenges"] = [{"at": 40, "challenger": "b", "job": "a:1", "votes": votes}]
    expect_error(data, f"challenges[0].votes: need one vote per juror: 3, got {len(votes)}")


def test_job_ids_count_per_sender():
    data = base_scenario()
    data["jobs"] = [
        {"sender": "a", "at": 10, "reward": 5, "pipeline": "p", "n_workers": 1, "steps": 1},
        {"sender": "b", "at": 20, "reward": 5, "pipeline": "p", "n_workers": 1, "steps": 1},
        {"sender": "a", "at": 30, "reward": 5, "pipeline": "p", "n_workers": 1, "steps": 1},
    ]
    data["challenges"] = [
        {"at": 40, "challenger": "c", "job": "a:2", "votes": [True] * 3}
    ]
    sc = parse_scenario(data)
    assert [job.job_id for job in sc.jobs] == ["a:1", "b:1", "a:2"]
    assert sc.challenges[0].job_id == "a:2"


def _add_fault(data):
    data["jobs"][0]["faults"] = [{"worker_index": 0, "step": 1, "kind": "forge"}]
    return data["jobs"][0]["faults"][0]


def _add_challenge(data):
    data["challenges"] = [{"at": 40, "challenger": "b", "job": "a:1", "votes": [True] * 3}]
    return data["challenges"][0]


# Each mapping a scenario holds: its path in base_scenario(), how to find it
# there, a key it requires, a bad value for a key it may leave out, and how
# to find its spec with the defaults the parser fills in.
MAPPINGS = {
    "region": ("regions.eu", lambda data: data["regions"]["eu"], None,
               ("drop_rate", "x", "expected a number, got 'x'"),
               (lambda sc: sc.regions["eu"],
                {"intra_latency_ms": 1, "inter_latency_ms": 10, "drop_rate": 0.0})),
    "node": ("nodes[0]", lambda data: data["nodes"][0], "region",
             ("balance", "abc", "not a token amount: 'abc'"),
             (lambda sc: sc.nodes[0],
              {"balance": Fraction(0), "capability": Capability(), "power": {0: 0.0}, "downtime": ()})),
    "downtime": ("nodes[2].downtime[0]", lambda data: data["nodes"][2]["downtime"][0], "to", None, None),
    "job": ("jobs[0]", lambda data: data["jobs"][0], "steps",
            ("review_verdict", "maybe", "must be 'valid' or 'invalid', got 'maybe'"),
            (lambda sc: sc.jobs[0],
             {"requirement": Capability(), "cancel_at": None, "review_verdict": "valid", "faults": ()})),
    "fault": ("jobs[0].faults[0]", _add_fault, "kind", None, None),
    "challenge": ("challenges[0]", _add_challenge, "votes", ("bond", 0, "must be positive, got 0"),
                  (lambda sc: sc.challenges[0], {"bond": None})),
    "stage": ("pipelines.p.source", lambda data: data["pipelines"]["p"]["source"], "kind",
              ("params", 5, "expected a mapping, got int"),
              (lambda sc: sc.jobs[0].pipeline.source, {"params": {"start": 0.0, "stride": 1.0}})),
}


@pytest.mark.parametrize("name", list(MAPPINGS))
def test_every_mapping_is_read_by_its_rules(name):
    path, find, required, optional, defaults = MAPPINGS[name]
    data = base_scenario()
    find(data)["colour"] = "red"
    expect_error(data, f"{path}: unknown keys: ['colour']")
    if required is not None:
        data = base_scenario()
        del find(data)[required]
        expect_error(data, f"{path}: missing required keys: ['{required}']")
    if optional is not None:  # a value given for an optional key is read
        key, value, message = optional
        data = base_scenario()
        find(data)[key] = value
        expect_error(data, f"{path}.{key}: {message}")
    if defaults is not None:
        spec, want = defaults
        data = base_scenario()
        mapping = find(data)
        for key in want:
            mapping.pop(key, None)
        got = {key: getattr(spec(parse_scenario(data)), key) for key in want}
        assert got == want
        assert [type(value) for value in got.values()] == [type(value) for value in want.values()]


@pytest.mark.parametrize("via", ["parse_scenario", "load_scenario"])
def test_the_root_is_read_by_its_rules(tmp_path, via):
    """The root's own errors name its source; its fields' paths are bare."""
    path = tmp_path / "root.yaml"
    source = "scenario" if via == "parse_scenario" else str(path)

    def read(data):
        if via == "parse_scenario":
            return parse_scenario(data)
        path.write_text(yaml.safe_dump(data))
        return load_scenario(path)

    def error(data):
        with pytest.raises(ScenarioError) as err:
            read(data)
        return str(err.value)

    assert error([]) == f"{source}: expected a mapping, got list"
    assert error(dict(base_scenario(), colour="red")) == f"{source}: unknown keys: ['colour']"
    data = base_scenario()
    del data["regions"]
    assert error(data) == f"{source}: missing required keys: ['regions']"
    assert error(dict(base_scenario(), review_lock_seconds=0)) == "review_lock_seconds: must be >= 1, got 0"
    data = base_scenario()
    del data["nodes"][0]["id"]
    assert error(data) == "nodes[0]: missing required keys: ['id']"
    for epoch_seconds, heartbeat in [(50, 1), (600, 6), (12345, 123)]:
        sc = read(dict(base_scenario(), epoch_seconds=epoch_seconds))
        assert (sc.heartbeat_seconds, sc.review_lock_seconds, sc.challenges) == (heartbeat, 86400, ())


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


def nested(depth: int) -> str:
    """A scenario whose `name` is a list nested `depth` levels deep."""
    return yaml.safe_dump(dict(base_scenario(), name="@")).replace(
        "name: '@'", "name: " + "[" * (depth - 1) + "]" * (depth - 1)
    )


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_collections_may_nest_at_most_max_depth(tmp_path, monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "deep.yaml"
    path.write_text(nested(MAX_DEPTH))  # the top mapping is the first level
    with pytest.raises(ScenarioError, match=r"name: expected a non-empty string, got \[\[\["):
        load_scenario(path)
    for depth in (MAX_DEPTH + 1, 2_000):
        path.write_text(nested(depth))
        with pytest.raises(ScenarioError, match=f"deeper than {MAX_DEPTH} levels"):
            load_scenario(path)


def test_an_alias_counts_the_levels_it_repeats(tmp_path):
    # Each list holds the one before it, so the last is 2,000 levels deep
    # though no collection opens more than three levels down.
    chain = ", ".join(["&a0 [1]", *(f"&a{i} [*a{i - 1}]" for i in range(1, 2_000))])
    path = tmp_path / "alias.yaml"
    path.write_text(nested(2).replace("name: []", f"name: [{chain}]"))
    with pytest.raises(ScenarioError, match=f"deeper than {MAX_DEPTH} levels"):
        load_scenario(path)
    path.write_text(nested(2).replace("name: []", "name: [&a [[1]], *a, [*a]]"))
    with pytest.raises(ScenarioError, match="name: expected a non-empty string"):
        load_scenario(path)


LONG = 16 ** 4000  # about 4,800 decimal digits; str() prints at most 4,300


@pytest.mark.parametrize("change,path", [
    (lambda data: data["nodes"][1]["power"].update({LONG: 1.0}), "nodes[1].power (key)"),
    (lambda data: data.update(review_lock_seconds=LONG), "review_lock_seconds"),
    (lambda data: data["nodes"][2]["downtime"].append(LONG), "nodes[2].downtime[1]"),
])
def test_an_integer_too_long_to_print_is_refused_wherever_it_is(change, path):
    data = base_scenario()
    change(data)
    expect_error(data, f"{path}: integer has more than ")


def test_aliases_repeat_a_collection_without_walking_it_again(tmp_path):
    # Each list holds the one before it ten times: 10**8 lists if expanded.
    lists = ["&a0 [1]", *(f"&a{i} [{', '.join([f'*a{i - 1}'] * 10)}]" for i in range(1, 9))]
    path = tmp_path / "aliases.yaml"
    path.write_text(yaml.safe_dump(base_scenario()) + f"extra: [{', '.join(lists)}]\n")
    with pytest.raises(ScenarioError, match=re.escape("unknown keys: ['extra']")):
        load_scenario(path)


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
