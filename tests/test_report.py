"""Report files: canonical digests, deterministic bytes, record filters."""

import json

from computepool.report import (
    config_digest,
    entry_records,
    filter_records,
    job_lines,
    manifest_payload,
    summarize_records,
    write_reports,
)
from computepool.scenario import parse_scenario
from computepool.simnet import run_scenario


def mini_scenario():
    return parse_scenario({
        "name": "report-mini",
        "seed": 3,
        "epochs": 1,
        "epoch_seconds": 900,
        "heartbeat_seconds": 9,
        "regions": {"r": {}},
        "nodes": [
            {"id": "s", "region": "r", "balance": 50},
            {"id": "w1", "region": "r", "power": {0: 0.1, 2: 0.4}},
            {"id": "w2", "region": "r"},
        ],
        "pipelines": {"p": {"source": {"kind": "counter"},
                            "business": {"kind": "sum"}}},
        "jobs": [
            {"sender": "s", "at": 30, "reward": 20, "pipeline": "p",
             "n_workers": 2, "steps": 2},
        ],
    })


def test_config_digest_ignores_key_order_and_accepts_int_keys():
    a = {"name": "x", "power": {0: 1.0, 4: 2.0}}
    b = {"power": {4: 2.0, 0: 1.0}, "name": "x"}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"name": "y", "power": {0: 1.0}})
    assert len(config_digest(a)) == 64


def test_manifest_reflects_run():
    result = run_scenario(mini_scenario())
    manifest = manifest_payload(result)
    assert manifest["scenario"] == "report-mini"
    assert manifest["seed"] == 3
    assert manifest["nodes"] == 3
    assert manifest["jobs"] == 1
    assert manifest["conservation_ok"] is True
    assert manifest["total_tokens"] == "50"
    assert manifest["ledger_blocks"] == len(result.ledger.blocks)
    assert len(manifest["ledger_digest"]) == 64


def test_write_reports_is_deterministic(tmp_path):
    result = run_scenario(mini_scenario())
    first = write_reports(result, tmp_path / "a")
    again = write_reports(run_scenario(mini_scenario()), tmp_path / "b")
    assert set(first) == {
        "manifest.json", "allocations.jsonl", "pool.jsonl",
        "jobs.jsonl", "audit.json", "ledger.bin",
    }
    for name, path in first.items():
        assert path.read_bytes() == again[name].read_bytes(), name

    manifest = json.loads(first["manifest.json"].read_text())
    assert manifest["conservation_ok"] is True
    job_rows = [json.loads(l) for l in first["jobs.jsonl"].read_text().splitlines()]
    assert job_rows[0]["job"] == "s:1"
    assert job_rows[0]["status"] == "SETTLED"


def test_job_lines_are_sorted_by_key():
    result = run_scenario(mini_scenario())
    lines = job_lines(result)
    assert lines == sorted(lines, key=lambda line: line["job"])


def test_job_lines_order_by_sender_then_sequence_number():
    data = mini_scenario().raw
    data["nodes"][0]["balance"] = 500
    data["jobs"] = [dict(data["jobs"][0], at=30 + i) for i in range(11)]
    lines = job_lines(run_scenario(parse_scenario(data)))
    assert [line["job"] for line in lines] == [f"s:{seq}" for seq in range(1, 12)]  # s:2 before s:10


def test_entry_records_and_filters():
    result = run_scenario(mini_scenario())
    records = entry_records(result.ledger.blocks)
    assert records, "a run always produces entries"
    assert all(
        set(r) == {"height", "position", "timestamp_ms", "kind", "author", "payload"}
        for r in records
    )

    only_job = filter_records(records, job="s:1")
    assert only_job and all(r["payload"]["job"] == "s:1" for r in only_job)

    only_w1 = filter_records(records, deed="w1")
    assert only_w1
    for r in only_w1:
        touches = {r["author"], r["payload"].get("deed_id"), r["payload"].get("worker")}
        touches.update(d for d, *_ in r["payload"].get("entries", []))
        assert "w1" in touches

    epoch_one = filter_records(records, epoch=1)
    assert epoch_one and all(r["payload"]["epoch"] == 1 for r in epoch_one)
    assert filter_records(records, epoch=99) == []

    summary = summarize_records(records)
    assert summary["entries"] == len(records)
    assert sum(summary["by_kind"].values()) == len(records)
    assert "NODE_SPEC" in summary["by_kind"]
