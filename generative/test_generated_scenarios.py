"""Generated scenarios: every one is refused at parse time or runs clean,
each scripted challenge ends in one recorded verdict, listing its nodes in
reverse moves no balance, renaming them in order moves no balance, adding a
node that is down for the whole run moves no other balance, scaling every
amount scales every balance, and the CLI exits 0, 1 or 2 on each without a
traceback.

The strategy draws `perfbench/scenario_gen.py`'s size knobs and then makes
the scenario harder than the benchmark's: tight balances, rewards of a few
tokens (so epoch payouts under one token occur), short review locks, drop
rates up to 0.9, jobs no node can serve, scripted challenges with and
without a bond, and `expr` formulas that submission refuses. These examples
are slower than the tier-1 suite, so they live outside `tests/` and run on
their own, from the repository root:

    PYTHONPATH=src python -m pytest -q generative

`derandomize` fixes the examples, so every run draws the same scenarios.
"""

import contextlib
import copy
import io
import tempfile
from collections import Counter
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.cli import main
from computepool.escrow import JURY_SIZE
from computepool.ledger import EntryKind, load_blocks, payload_shape, verify_blocks
from computepool.report import write_reports
from computepool.scenario import ScenarioError, parse_scenario
from computepool.simnet import SimulationError, run_scenario
from perfbench.scenario_gen import generate_scenario, to_yaml

SHARES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
# The `duo` pipeline's formula: the generator's own, two that name a variable
# no fold binds, and one over the vet's cap of 512 syntax nodes.
FORMULAS = st.sampled_from(["acc + max(x, 0.25)", "acc + y", "acc + eval", "-x" + " + x" * 256])


@st.composite
def scenarios(draw) -> dict:
    workers = draw(st.integers(1, 3))
    epochs = draw(st.integers(1, 3))
    epoch_seconds = draw(st.integers(60, 600))
    data = generate_scenario(
        nodes=draw(st.integers(workers + 1, 10)),
        regions=draw(st.integers(1, 2)),
        epochs=epochs,
        epoch_seconds=epoch_seconds,
        heartbeat_seconds=draw(st.integers(max(1, epoch_seconds // 20), epoch_seconds // 4)),
        jobs=draw(st.integers(1, 6)),
        steps=draw(st.integers(1, 4)),
        workers=workers,
        cancel_share=draw(SHARES),
        fault_share=draw(SHARES),
        drop_rate=draw(st.sampled_from([0.0, 0.3, 0.6, 0.9])),
        expr_share=draw(SHARES),
        downtime_share=draw(SHARES),
        seed=draw(st.integers(0, 2**16)),
    )
    horizon = epochs * epoch_seconds
    node_ids = [node["id"] for node in data["nodes"]]
    if draw(st.booleans()):  # tight: some jobs, bonds or challenges go unfunded
        for node in data["nodes"]:
            node["balance"] = draw(st.integers(0, 600))
    if draw(st.integers(0, 3)) == 0:  # small: some epoch payouts are under one token
        for job in data["jobs"]:
            job["reward"] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        data["review_lock_seconds"] = draw(st.integers(1, epoch_seconds))
    job_ids, sent = [], {}
    for job in data["jobs"]:
        sent[job["sender"]] = sent.get(job["sender"], 0) + 1
        job_ids.append(f"{job['sender']}:{sent[job['sender']]}")
        if draw(st.integers(0, 9)) == 0:  # no node has a GPU
            job["requirement"] = {"gpu": True}
    data["challenges"] = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(job_ids) - 1))
        challenge = {
            # soon after the job is sent, while it may still be challengeable
            "at": min(horizon, data["jobs"][j]["at"] + draw(st.integers(0, epoch_seconds))),
            "challenger": draw(st.sampled_from(node_ids)),
            "job": job_ids[j],
            "votes": draw(st.lists(st.booleans(), min_size=JURY_SIZE, max_size=JURY_SIZE)),
        }
        if draw(st.booleans()):
            challenge["bond"] = draw(st.integers(1, 200))
        data["challenges"].append(challenge)
    data["pipelines"] = copy.deepcopy(data["pipelines"])  # the generator shares its own
    data["pipelines"]["duo"]["business"]["params"]["expr"] = draw(FORMULAS)
    return data


def run_and_report(data: dict, out: Path) -> dict[str, bytes]:
    sim = run_scenario(parse_scenario(yaml.safe_load(to_yaml(data))))
    assert sim.conservation_ok
    assert verify_blocks(load_blocks(sim.ledger.dump())).ok
    assert sim.messages.consistent()
    return {name: path.read_bytes() for name, path in write_reports(sim, out).items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenarios())
def test_generated_scenarios_conserve_verify_and_repeat(data):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            first = run_and_report(data, Path(tmp) / "first")
        except ScenarioError:
            return
        except SimulationError as exc:
            # A run may fail on its input; a broken conservation identity is a defect.
            assert "conservation" not in str(exc), exc
            return
        assert run_and_report(data, Path(tmp) / "again") == first


JURY_DRAWN = (EntryKind.POOL_EVENT, "jury_drawn")
CHALLENGE_REJECTED = (EntryKind.POOL_EVENT, "challenge_rejected")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios())
def test_each_scripted_challenge_ends_in_one_recorded_verdict(data):
    try:
        sim = run_scenario(parse_scenario(yaml.safe_load(to_yaml(data))))
    except (ScenarioError, SimulationError):
        return
    shapes, verdicts = Counter(), []
    for _, entry in sim.ledger.entries():
        shape = payload_shape(entry.kind, entry.payload)
        shapes[shape] += 1
        if shape in (JURY_DRAWN, CHALLENGE_REJECTED):
            verdicts.append(entry.payload["job"])
    # Challenges open in time order, those at one time in scenario order.
    assert verdicts == [c["job"] for c in sorted(data["challenges"], key=lambda c: c["at"])]
    # A refused opening leaves no CHALLENGE entry; a drawn jury always resolves.
    assert shapes[EntryKind.CHALLENGE, "opened"] == shapes[JURY_DRAWN]
    assert shapes[EntryKind.CHALLENGE, "resolved"] == shapes[JURY_DRAWN]


def final_balances(data: dict) -> dict | str:
    """Every deed's final balance, or the name of the error the run ends in."""
    try:
        sim = run_scenario(parse_scenario(yaml.safe_load(to_yaml(data))))
    except (ScenarioError, SimulationError) as exc:
        return type(exc).__name__
    return {deed_id: deed.balance for deed_id, deed in sim.registry.deeds.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenarios())
def test_the_order_of_nodes_moves_no_balance(data):
    # Float addition is not associative: shares summed in list order would
    # move balances by a few parts in 1e16.
    assert final_balances(dict(data, nodes=data["nodes"][::-1])) == final_balances(data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios(), st.booleans())
def test_renaming_every_node_in_order_moves_no_balance(data, alike):
    if alike:  # every ranking is then a tie, broken by id
        for node in data["nodes"]:
            node["capability"] = {"cpu": 4.0, "memory": 8.0}
    # A common prefix keeps the ids' order, and "node-" sorts after the
    # coordinator's "coord", as every generated id does.
    name = {node["id"]: f"node-{node['id']}" for node in data["nodes"]}
    renamed = copy.deepcopy(data)
    for node in renamed["nodes"]:
        node["id"] = name[node["id"]]
    for job in renamed["jobs"]:
        job["sender"] = name[job["sender"]]
    for challenge in renamed["challenges"]:
        challenge["challenger"] = name[challenge["challenger"]]
        sender, seq = challenge["job"].rsplit(":", 1)
        challenge["job"] = f"{name[sender]}:{seq}"
    want = final_balances(data)
    if isinstance(want, dict):
        want = {name.get(deed_id, deed_id): balance for deed_id, balance in want.items()}
    assert final_balances(renamed) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios())
def test_a_node_down_for_the_whole_run_moves_no_other_balance(data):
    # It outranks every node for every job it can serve, so each assignment
    # walks past it, and it has power to claim a share if it were credited.
    idle = {
        "id": "idle",
        "region": data["nodes"][0]["region"],
        "balance": 100,
        "capability": {"cpu": 64.0, "memory": 256.0},
        "power": 1.0,
        "downtime": [{"from": 0, "to": data["epochs"] * data["epoch_seconds"] + 1}],
    }
    want = final_balances(data)
    if isinstance(want, dict):
        want["idle"] = 100
    assert final_balances(dict(data, nodes=[*data["nodes"], idle])) == want


@settings(max_examples=120, deadline=None, derandomize=True)
@given(scenarios())
def test_scaling_every_amount_scales_every_balance(data):
    # Each payout is the pool times a float share, computed exactly, so a run
    # with every amount seven times larger moves seven times the tokens.
    scaled = copy.deepcopy(data)
    for node in scaled["nodes"]:
        node["balance"] *= 7
    for job in scaled["jobs"]:
        job["reward"] *= 7
    for challenge in scaled["challenges"]:
        if "bond" in challenge:
            challenge["bond"] *= 7
    want = final_balances(data)
    if isinstance(want, dict):
        want = {deed_id: 7 * balance for deed_id, balance in want.items()}
    assert final_balances(scaled) == want


@st.composite
def cli_cases(draw) -> tuple[dict, int | None]:
    """A scenario, and the index of a challenge given the wrong number of votes, if any."""
    data = draw(scenarios())
    wrong = None
    if data["challenges"] and draw(st.booleans()):
        wrong = draw(st.integers(0, len(data["challenges"]) - 1))
        data["challenges"][wrong]["votes"] = draw(
            st.lists(st.booleans(), max_size=JURY_SIZE + 2).filter(lambda v: len(v) != JURY_SIZE)
        )
    return data, wrong


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cli_cases())
def test_the_cli_exits_0_1_or_2_without_a_traceback(case):
    data, wrong = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(to_yaml(data), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if wrong is not None:
        assert code == 2 and f"challenges[{wrong}].votes" in err.getvalue()
