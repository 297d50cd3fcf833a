"""CLI behavior: exit codes, output shape, verify and inspect flows."""

import json
import struct

import pytest
import yaml

import forged_dumps
from computepool.cli import main
from computepool.ledger import DUMP_MAGIC, load_blocks

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


def test_run_rejects_bad_scenario_with_usage_exit(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--scenario", str(missing)]) == 2
    assert "scenario error" in capsys.readouterr().err

    bad = dict(MINI, jobs=[dict(MINI["jobs"][0], reward=1.5)])
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "token amounts" in capsys.readouterr().err


def test_verify_accepts_fresh_ledger(run_dir, capsys):
    assert main(["verify", str(run_dir / "ledger.bin")]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["ok"] is True
    assert report["blocks"] >= 2
    assert report["entries"] >= 4


def test_verify_records_format_prints_entries(run_dir, capsys):
    assert main(["verify", str(run_dir / "ledger.bin"), "--format", "RECORDS"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records, verdict = lines[:-1], json.loads(lines[-1])
    assert verdict["ok"] is True
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

    assert main(["verify", str(out / "ledger.bin"), "--format", "RECORDS"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["ok"] is True
    events = [json.loads(line)["payload"] for line in lines[:-1]
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


@pytest.mark.parametrize("expr,exit_code,message", [
    # refused when the scenario is parsed
    ("x +", 2, "jobs[0].pipeline"),
    ("x if", 2, "jobs[0].pipeline"),
    ("[x]", 2, "jobs[0].pipeline"),
    # fail while a worker folds a step
    ("foo + 1", 1, "job s:1: worker w1 failed at step 1"),
    ("acc / (x - x)", 1, "job s:1: worker w1 failed at step 1"),
    ("x ** 5000.0", 1, "job s:1: worker w1 failed at step 2"),
    ("step ** 2000", 1, "job s:1: worker w1 failed at step 2"),
    # integer powers past the float range fail before they are built
    ("10 ** 10 ** 10", 1, "job s:1: worker w1 failed at step 1"),
    ("step ** step ** step", 1, "job s:1: worker w1 failed at step 5"),
    ("round(x, 0.5)", 1, "job s:1: worker w1 failed at step 1"),
    ("(x - 10) ** 0.5", 1, "job s:1: worker w1 failed at step 1"),  # a complex result
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
    assert "jobs[0].pipeline: source plugin 'counter' (worker 0): param 'start'" in err
    assert "Traceback" not in err


def test_unread_plugin_key_is_usage_error(tmp_path, capsys):
    for source, message in [
        ({"kind": "counter", "params": {"strid": 5}},
         "jobs[0].pipeline: source plugin 'counter' (worker 0): unknown params: ['strid']"),
        ({"kind": "counter", "parms": {"stride": 5}},
         "jobs[0].pipeline: source plugin 'counter' has unknown keys: ['parms']"),
    ]:
        data = dict(MINI, pipelines={"p": {"source": source, "business": {"kind": "sum"}}})
        scenario = tmp_path / "stray.yaml"
        scenario.write_text(yaml.safe_dump(data))
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_coordinator_id_is_reserved(tmp_path, capsys):
    data = dict(MINI, nodes=MINI["nodes"][:2] + [{"id": "coord", "region": "r"}])
    scenario = tmp_path / "coord.yaml"
    scenario.write_text(yaml.safe_dump(data))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "nodes[2].id: 'coord' is reserved" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change,message", [
    ({"safety_policy": {"max_source_bytes": "abc"}},
     "safety_policy: max_source_bytes: expected an integer >= 1, got 'abc'"),
    ({"safety_policy": {"max_tokens": [1]}},
     "safety_policy: max_tokens: expected an integer >= 1, got [1]"),
    ({"safety_policy": {"max_tokens": True}},
     "safety_policy: max_tokens: expected an integer >= 1, got True"),
    ({"safety_policy": {"max_tokens": 0}},
     "safety_policy: max_tokens: expected an integer >= 1, got 0"),
    ({"safety_policy": {"import_allowlist": 5}},
     "safety_policy: import_allowlist: expected a list of module names, got 5"),
    ({"safety_policy": {"import_allowlist": "math"}},
     "safety_policy: import_allowlist: expected a list of module names, got 'math'"),
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


@pytest.mark.parametrize("payload,printed", forged_dumps.ODD_PAYLOADS.values(),
                         ids=forged_dumps.ODD_PAYLOADS.keys())
def test_odd_payload_values_print_without_traceback(tmp_path, capsys, payload, printed):
    path = tmp_path / "odd.bin"
    path.write_bytes(forged_dumps.signed_payload_dump(payload))

    assert main(["verify", str(path), "--format", "RECORDS"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out.splitlines()[-2])["payload"] == printed
    assert "Traceback" not in err

    for query in ([], ["--deed", "mallory"], ["--deed", "nobody"], ["--format", "SUMMARY"]):
        assert main(["inspect", str(path), *query]) == 0, query
        assert "Traceback" not in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --scenario
    assert exc.value.code == 2
