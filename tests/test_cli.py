"""CLI behavior: exit codes, output shape, verify and inspect flows."""

import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import forged_dumps
from computepool import simnet
from computepool.cli import main
from computepool.ledger import DUMP_MAGIC, EntryKind, load_blocks

MINI = {
    "name": "cli-mini",
    "seed": 5,
    "epochs": 1,
    "epoch_seconds": 900,
    "heartbeat_seconds": 9,
    "regions": {"r": {}},
    "nodes": [
        {"id": "s", "region": "r", "balance": 50},
        {"id": "w1", "region": "r"},
        {"id": "w2", "region": "r"},
    ],
    "pipelines": {"p": {"source": {"kind": "counter"}, "business": {"kind": "sum"}}},
    "jobs": [
        {"sender": "s", "at": 30, "reward": 20, "pipeline": "p",
         "n_workers": 2, "steps": 2},
    ],
}


@pytest.fixture()
def run_dir(tmp_path):
    scenario = tmp_path / "mini.yaml"
    scenario.write_text(yaml.safe_dump(MINI))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    return out


def test_run_prints_summary_and_writes_reports(tmp_path, capsys):
    scenario = tmp_path / "mini.yaml"
    scenario.write_text(yaml.safe_dump(MINI))
    out = tmp_path / "reports"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["scenario"] == "cli-mini"
    assert summary["seed"] == 5
    assert summary["jobs_done"] == 1
    assert summary["conservation_ok"] is True
    assert summary["out_dir"] == str(out)
    for name in ("manifest.json", "allocations.jsonl", "pool.jsonl",
                 "jobs.jsonl", "audit.json", "ledger.bin"):
        assert (out / name).exists(), name


def test_run_seed_override_changes_ledger(tmp_path):
    scenario = tmp_path / "mini.yaml"
    scenario.write_text(yaml.safe_dump(MINI))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scenario), "--out", str(a)]) == 0
    assert main(["run", "--scenario", str(scenario), "--seed", "6",
                 "--out", str(b)]) == 0
    assert (a / "ledger.bin").read_bytes() != (b / "ledger.bin").read_bytes()
    assert json.loads((b / "manifest.json").read_text())["seed"] == 6


def test_run_refuses_a_negative_seed_as_the_scenario_does(tmp_path, capsys):
    scenario = tmp_path / "mini.yaml"
    scenario.write_text(yaml.safe_dump(MINI))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--seed", "-5", "--out", str(out)]) == 2
    assert "--seed: must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()

    scenario.write_text(yaml.safe_dump(dict(MINI, seed=-1)))
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
    assert "seed: must be >= 0, got -1" in capsys.readouterr().err


def test_run_rejects_bad_scenario_with_usage_exit(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--scenario", str(missing)]) == 2
    assert "scenario error" in capsys.readouterr().err

    bad = dict(MINI, jobs=[dict(MINI["jobs"][0], reward=1.5)])
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "token amounts" in capsys.readouterr().err

    huge = dict(MINI, nodes=[dict(MINI["nodes"][0], power=10**400), *MINI["nodes"][1:]])
    path.write_text(yaml.safe_dump(huge))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "nodes[0].power: expected a finite number" in capsys.readouterr().err

    for value in (10**400, float("nan")):
        constant = {"source": {"kind": "constant", "params": {"value": value}},
                    "business": {"kind": "sum"}}
        path.write_text(yaml.safe_dump(dict(MINI, pipelines={"p": constant})))
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "pipelines.p.source.params.value: expected a finite number" in err
        assert "Traceback" not in err

    path.write_bytes(b"\xff\xfe" + yaml.safe_dump(MINI).encode("utf-16-le"))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read scenario {path}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old,new", [
    ("name: cli-mini", "name: 2001-13-45"),
    ("at: 30", "at: 2001-02-30"),
    ("seed: 5", "seed: !!int 'abc'"),
    ("seed: 5", "seed: !!float 'abc'"),
    ("name: cli-mini", "name: 2001-12-14t21:59:43.10+99:00"),
    ("balance: 50", "balance: " + "1" * 5001),
], ids=["month_13", "february_30", "int_tag", "float_tag", "offset_99_hours", "5001_digits"])
def test_a_value_yaml_cannot_construct_is_a_parse_error(tmp_path, capsys, old, new):
    text = yaml.safe_dump(MINI)
    assert old in text
    scenario = tmp_path / "unconstructable.yaml"
    scenario.write_text(text.replace(old, new, 1))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {scenario}: not valid YAML: ")
    assert "Traceback" not in err


LONG_HEX = "0x1" + "0" * 4000  # about 4,800 decimal digits; str() prints at most 4,300


@pytest.mark.parametrize("old,new,path", [
    ("seed: 5", f"seed: {LONG_HEX}", "seed"),
    ("balance: 50", f"balance: {LONG_HEX}", "nodes[0].balance"),
    ("name: cli-mini", f"name: {LONG_HEX}", "name"),
    ("epochs: 1", f"epochs: -{LONG_HEX}", "epochs"),
])
def test_an_integer_too_long_to_print_is_refused_at_its_path(tmp_path, capsys, old, new, path):
    text = yaml.safe_dump(MINI)
    assert old in text
    scenario = tmp_path / "long.yaml"
    scenario.write_text(text.replace(old, new, 1))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path}: integer has more than ")
    assert "Traceback" not in err


def test_deeply_nested_scenario_is_usage_error_not_a_crash(tmp_path):
    # libyaml's composer recurses in C: 40,000 levels overflow its stack and
    # kill the process, so the run happens in a child process.
    path = tmp_path / "deep.yaml"
    path.write_text("[" * 40_000)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "computepool.cli", "run", "--scenario", str(path),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert f"scenario error: {path}: collections nest deeper than 64 levels" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_aliased_value_is_refused_with_a_short_message(tmp_path, capsys):
    # Each list holds ten aliases of the one before: a few hundred bytes of
    # YAML whose full repr grows tenfold per level, 5.8 GB at nine levels.
    # Four levels (58 KB unbounded) come first, so a message that shows the
    # whole value fails the test before nine levels could exhaust memory.
    for levels in (4, 9):
        lists = ["&a0 [1]", *(f"&a{i} [{', '.join([f'*a{i - 1}'] * 10)}]" for i in range(1, levels))]
        path = tmp_path / "aliases.yaml"
        path.write_text(yaml.safe_dump(dict(MINI, name="@")).replace("'@'", f"[{', '.join(lists)}]"))
        start = time.perf_counter()
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "name: expected a non-empty string, got [[1], [[1]," in err
        assert len(err) < 500, len(err)


def test_verify_accepts_fresh_ledger(run_dir, capsys):
    assert main(["verify", str(run_dir / "ledger.bin")]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["ok"] is True
    assert report["blocks"] >= 2
    assert report["entries"] >= 4


def test_inspect_without_a_filter_prints_every_entry(run_dir, capsys):
    assert main(["verify", str(run_dir / "ledger.bin")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # verify prints only its verdict
    verdict = json.loads(lines[0])
    assert main(["inspect", str(run_dir / "ledger.bin")]) == 0
    records = capsys.readouterr().out.strip().splitlines()
    assert len(records) == verdict["entries"]
    kinds = {json.loads(line)["kind"] for line in records}
    assert "NODE_SPEC" in kinds and "JOB_STATUS" in kinds


def test_verify_flags_tampering_with_height(run_dir, capsys):
    data = bytearray((run_dir / "ledger.bin").read_bytes())
    data[len(data) // 2] ^= 0x40
    broken = run_dir / "broken.bin"
    broken.write_bytes(bytes(data))
    assert main(["verify", str(broken)]) == 1
    report = json.loads(capsys.readouterr().out.strip())
    assert report["ok"] is False
    assert "failing_height" in report and report["reason"]


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "ghost.bin")]) == 2
    assert "cannot read ledger" in capsys.readouterr().err


def test_inspect_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "ghost.bin")]) == 2
    assert "cannot read ledger" in capsys.readouterr().err


def test_inspect_filters_records(run_dir, capsys):
    assert main(["inspect", str(run_dir / "ledger.bin"), "--job", "s:1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(json.loads(line)["payload"]["job"] == "s:1" for line in lines)

    assert main(["inspect", str(run_dir / "ledger.bin"), "--epoch", "1",
                 "--format", "SUMMARY"]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["entries"] == sum(summary["by_kind"].values())

    assert main(["inspect", str(run_dir / "ledger.bin"), "--deed", "w1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines


def test_inspect_refuses_unverified_ledger(run_dir, capsys):
    data = bytearray((run_dir / "ledger.bin").read_bytes())
    data[-1] ^= 0x01
    broken = run_dir / "broken2.bin"
    broken.write_bytes(bytes(data))
    assert main(["inspect", str(broken)]) == 1
    assert "fails verification at height" in capsys.readouterr().err


def test_cancel_of_rejected_job_is_recorded_not_fatal(tmp_path, capsys):
    # The job cannot be funded, so its scripted cancel finds no job to stop.
    data = dict(
        MINI,
        nodes=[{"id": "a", "region": "r", "balance": 10}, {"id": "b", "region": "r"}],
        jobs=[{"sender": "a", "at": 10, "reward": 50, "pipeline": "p",
               "n_workers": 1, "steps": 1, "cancel_at": 20}],
    )
    scenario = tmp_path / "rejected-cancel.yaml"
    scenario.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["conservation_ok"] is True

    assert main(["inspect", str(out / "ledger.bin")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    events = [json.loads(line)["payload"] for line in lines
              if json.loads(line)["kind"] == "POOL_EVENT"]
    assert [e["event"] for e in events] == ["job_rejected", "cancel_skipped"]
    assert events[1]["job"] == "a:1" and events[1]["reason"]


def test_run_into_unwritable_out_is_usage_error(tmp_path, capsys):
    scenario = tmp_path / "mini.yaml"
    scenario.write_text(yaml.safe_dump(MINI))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    for out in (taken, taken / "reports"):
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot write reports" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("change, message", [
    # the ledger refuses to seal the entry
    ({"steps": "2"}, "JOB_ASSIGN payload.steps"),
    # the bank refuses to apply it
    ({"job": "ghost:1"}, "unknown job ghost:1"),
], ids=["ledger_error", "escrow_error"])
def test_a_simulator_fault_is_a_failed_run_not_a_traceback(
    tmp_path, capsys, monkeypatch, change, message
):
    record = simnet.Simulation._record

    def faulty_record(self, kind, author, payload):
        if kind == EntryKind.JOB_ASSIGN:
            payload = {**payload, **change}
        return record(self, kind, author, payload)

    monkeypatch.setattr(simnet.Simulation, "_record", faulty_record)
    scenario = tmp_path / "mini.yaml"
    scenario.write_text(yaml.safe_dump(MINI))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ")
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("expr,exit_code,message", [
    # refused when the scenario is parsed
    ("x +", 2, "pipelines.p.business.params.expr: expression does not parse"),
    ("x if", 2, "pipelines.p.business.params.expr: expression does not parse"),
    ("[x]", 2, "pipelines.p.business.params.expr: syntax List is not allowed"),
    # fail while a worker folds a step
    ("acc / (x - x)", 1, "job s:1: worker w1 failed at step 1"),
    ("x ** 5000.0", 1, "job s:1: worker w1 failed at step 2"),
    ("step ** 2000", 1, "job s:1: worker w1 failed at step 2"),
    # integer powers past the float range fail before they are built
    ("10 ** 10 ** 10", 1, "job s:1: worker w1 failed at step 1"),
    ("step ** step ** step", 1, "job s:1: worker w1 failed at step 5"),
    ("round(x, 0.5)", 1, "job s:1: worker w1 failed at step 1"),
    ("(x - 10) ** 0.5", 1, "job s:1: worker w1 failed at step 1"),  # a fractional exponent
])
def test_bad_expr_plugin_fails_cleanly(tmp_path, capsys, expr, exit_code, message):
    data = dict(
        MINI,
        pipelines={"p": {"source": {"kind": "counter", "params": {"start": 1}},
                         "business": {"kind": "expr", "params": {"expr": expr}}}},
        jobs=[dict(MINI["jobs"][0], steps=9)],
    )
    scenario = tmp_path / "expr.yaml"
    scenario.write_text(yaml.safe_dump(data))
    code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == exit_code
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr,name", [("acc + y", "y"), ("foo + 1", "foo")])
def test_a_formula_naming_an_unknown_variable_is_rejected_before_funding(tmp_path, capsys, expr, name):
    data = dict(
        MINI,
        pipelines={"p": {"source": {"kind": "counter"},
                         "business": {"kind": "expr", "params": {"expr": expr}}}},
    )
    scenario = tmp_path / "expr.yaml"
    scenario.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    entries = [entry for block in load_blocks((out / "ledger.bin").read_bytes())
               for entry in block.entries]
    rejected = [entry.payload for entry in entries if entry.payload.get("event") == "plugin_rejected"]
    assert len(rejected) == 1 and rejected[0]["reasons"] == [f"unknown variable {name!r}"]
    assert all(entry.kind is not EntryKind.JOB_ASSIGN for entry in entries)
    assert json.loads((out / "audit.json").read_text())["balances"]["s"] == "50"


def test_non_number_plugin_param_is_usage_error(tmp_path, capsys):
    data = dict(
        MINI,
        pipelines={"p": {"source": {"kind": "counter", "params": {"start": "abc"}},
                         "business": {"kind": "sum"}}},
    )
    scenario = tmp_path / "param.yaml"
    scenario.write_text(yaml.safe_dump(data))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "pipelines.p.source.params.start: expected a number, got 'abc'" in err
    assert "Traceback" not in err


def test_unread_plugin_key_is_usage_error(tmp_path, capsys):
    for source, message in [
        ({"kind": "counter", "params": {"strid": 5}},
         "pipelines.p.source.params: unknown keys: ['strid']"),
        ({"kind": "counter", "parms": {"stride": 5}},
         "pipelines.p.source: unknown keys: ['parms']"),
    ]:
        data = dict(MINI, pipelines={"p": {"source": source, "business": {"kind": "sum"}}})
        scenario = tmp_path / "stray.yaml"
        scenario.write_text(yaml.safe_dump(data))
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_a_second_fault_at_one_worker_step_is_usage_error(tmp_path, capsys):
    data = yaml.safe_load((Path(__file__).resolve().parents[1] / "scenarios" / "demo_trio.yaml").read_text())
    data["jobs"][0]["faults"] = [{"worker_index": 0, "step": 2, "kind": kind} for kind in ("forge", "replay")]
    scenario = tmp_path / "faults.yaml"
    scenario.write_text(yaml.safe_dump(data))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "jobs[0].faults[1]: worker 0 already has a fault at step 2 (faults[0])" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_coordinator_id_is_reserved(tmp_path, capsys):
    data = dict(MINI, nodes=MINI["nodes"][:2] + [{"id": "coord", "region": "r"}])
    scenario = tmp_path / "coord.yaml"
    scenario.write_text(yaml.safe_dump(data))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "nodes[2].id: 'coord' is reserved" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change,message", [
    # The formula vet's caps, capability weights and default challenge bond
    # are protocol constants; a scenario that sets one is refused.
    ({"safety_policy": {"max_nodes": 4096}}, "unknown keys: ['safety_policy']"),
    ({"capability_weights": {"gpu": 0.0}}, "unknown keys: ['capability_weights']"),
    ({"bond_fraction": "1/1000"}, "unknown keys: ['bond_fraction']"),
    ({"nodes": [dict(MINI["nodes"][0], capability={"gpu": "no"})] + MINI["nodes"][1:]},
     "nodes[0].capability.gpu: expected true or false, got 'no'"),
])
def test_hostile_policy_or_capability_value_is_usage_error(tmp_path, capsys, change, message):
    scenario = tmp_path / "hostile.yaml"
    scenario.write_text(yaml.safe_dump(dict(MINI, **change)))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_verify_refuses_nesting_past_the_stack(tmp_path, capsys):
    blob = b"L\x00\x00\x00\x01" * 5000 + b"N"
    deep = tmp_path / "deep.bin"
    deep.write_bytes(DUMP_MAGIC + struct.pack(">II", 1, len(blob)) + blob)
    assert main(["verify", str(deep)]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out.strip())
    assert report["ok"] is False and report["failing_height"] == 0
    assert "malformed block 0" in report["reason"]
    assert "Traceback" not in err


@pytest.mark.parametrize("forge", forged_dumps.FORGERIES)
def test_wrongly_typed_dump_field_exits_one_at_its_height(run_dir, capsys, forge):
    data, height = forge(load_blocks((run_dir / "ledger.bin").read_bytes()))
    forged = run_dir / "forged.bin"
    forged.write_bytes(data)

    assert main(["verify", str(forged)]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out.strip())
    assert report["ok"] is False and report["failing_height"] == height
    assert "Traceback" not in err

    assert main(["inspect", str(forged)]) == 1
    err = capsys.readouterr().err
    assert f"ledger fails verification at height {height}: malformed block" in err
    assert "Traceback" not in err


def assert_fails_at(path, height: int, reason: str, capsys) -> None:
    """`verify` and `inspect` of the dump at `path` exit 1 at `height`,
    naming `reason`, with no traceback."""
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out.strip())
    assert report["ok"] is False and report["failing_height"] == height
    assert reason in report["reason"]
    assert "Traceback" not in err
    for query in ([], ["--deed", "mallory"], ["--epoch", "1"], ["--format", "SUMMARY"]):
        assert main(["inspect", str(path), *query]) == 1, query
        out, err = capsys.readouterr()
        assert out == ""
        assert f"ledger fails verification at height {height}: {reason}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("kind,payload,field", forged_dumps.ODD_PAYLOADS.values(),
                         ids=forged_dumps.ODD_PAYLOADS.keys())
def test_odd_payload_values_print_without_traceback(tmp_path, capsys, kind, payload, field):
    path = tmp_path / "odd.bin"
    path.write_bytes(forged_dumps.signed_payload_dump(kind, payload))
    assert_fails_at(path, 2, field, capsys)


def test_inspect_epoch_filter_skips_a_bool_epoch(tmp_path, capsys):
    path = tmp_path / "bool-epoch.bin"
    payload = forged_dumps.example(EntryKind.POOL_EVENT, "proof_rejected", epoch=True)
    path.write_bytes(forged_dumps.signed_payload_dump(EntryKind.POOL_EVENT, payload))
    assert_fails_at(path, 2, "POOL_EVENT proof_rejected payload.epoch: expected int, got bool",
                    capsys)


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --scenario
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ledger.bin", "--format", "RECORDS"])  # only inspect prints entries
    assert exc.value.code == 2
