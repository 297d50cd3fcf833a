"""computepool benchmark: drives `computepool.cli.main` in-process.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Each workload repeats a closed-loop cycle with one client until `--seconds`
have passed: `run` a scenario, `verify` the ledger it wrote, then `inspect`
that ledger.  Every operation's output is checked; a failed check counts the
operation as failed.  After the timed loop the workload's anchor scenarios
run at their default seeds and their report digests are compared with
`pins.json`.

With `--trace 0` the last stdout line carries the end-to-end metrics (host
time, medians over the run).  With `--trace 1`, untraced and traced cycles
alternate; the traced ones give the per-layer metrics and the trace
cross-checks (raw host time, medians over traced cycles), and the spans go
to `.perfbench-out/spans-<workload>.jsonl`.  A detail line before the result
gives sample counts, the error rate and the unscaled medians; the same goes
to `.perfbench-out/result-<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import struct
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import yaml
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".perfbench-out"
PINS = Path(__file__).resolve().parent / "pins.json"

sys.path.insert(0, str(ROOT))
from perfbench.scenario_gen import FLEET, PROOF_STORM, generate_scenario, to_yaml  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402

REPORT_FILES = (
    "manifest.json", "allocations.jsonl", "pool.jsonl", "jobs.jsonl", "audit.json", "ledger.bin",
)
SETUP_REPEATS = 9
DEFAULT_SEED = 1
# The speed of a shared host drifts between runs by tens of percent.  Each
# operation is preceded by `calibrate()`, and reported times are multiplied by
# (CALIBRATION_REF / median calibration) ** CALIBRATION_WEIGHT: a control
# variate for host speed.  CALIBRATION_REF is the median calibration on the
# host that recorded the baseline (2 vCPU, Python 3.11.7, cryptography 48).
# The weight is the elasticity of program time to calibration time, which
# measured 0.4-0.8 across 30 runs there; a full correction (weight 1) widened
# the spread on some runs.  Raw medians stay in the detail line.
CALIBRATION_REF = 0.018
CALIBRATION_WEIGHT = 0.5
_CAL_KEY = Ed25519PrivateKey.from_private_bytes(bytes(32))


def _generated(size: dict, name: str):
    def make(seed: int) -> str:
        return to_yaml(generate_scenario(seed=seed, name=name, **size))
    return make


def _shipped(file_name: str):
    def make(seed: int) -> str:
        return (SCENARIOS / file_name).read_text(encoding="utf-8")
    return make


class Workload(NamedTuple):
    make: Callable[[int], str]  # benchmark seed -> scenario YAML
    seed_flag: bool  # pass the benchmark seed to `run --seed`
    queries_per_cycle: int
    min_queries: int  # inspect samples a run collects even past --seconds
    anchors: tuple[str, ...]  # checked against pins.json after the timed loop


_FLEET = _generated(FLEET, "fleet")
_PROOF_STORM = _generated(PROOF_STORM, "proof-storm")
_REFERENCE = _shipped("reference.yaml")

WORKLOADS = {
    "fleet": Workload(_FLEET, False, 1, 0, ("fleet", "demo_trio")),
    "proof-storm": Workload(_PROOF_STORM, False, 1, 0, ("proof-storm", "demo_trio")),
    "audit": Workload(_REFERENCE, True, 5, 100, ("reference", "demo_trio")),
}
# anchor -> (scenario maker, seed given to the maker)
ANCHORS = {
    "fleet": (_FLEET, DEFAULT_SEED),
    "proof-storm": (_PROOF_STORM, DEFAULT_SEED),
    "reference": (_REFERENCE, None),
    "demo_trio": (_shipped("demo_trio.yaml"), None),
}


def import_package():
    """Import computepool from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "computepool" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no computepool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import computepool.cli

    if Path(computepool.cli.__file__).resolve().parent != (SRC / "computepool").resolve():
        raise SystemExit(f"benchmark: imported computepool from {computepool.cli.__file__}")
    return computepool.cli.main


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, hashing and Ed25519 work.

    It touches no computepool code, so no change to the program moves it;
    only the speed of the host does.
    """
    start = time.perf_counter()
    table = {}
    for i in range(12000):
        key = "k%d" % (i & 255)
        table[key] = struct.pack(">I", i) + key.encode()
    blob = b"".join(table.values())
    public = _CAL_KEY.public_key()
    for i in range(24):
        message = hashlib.sha256(blob + bytes([i])).digest()
        public.verify(_CAL_KEY.sign(message), message)
    return time.perf_counter() - start


# -- expectations computed by the benchmark itself ----------------------------


def scenario_targets(raw: dict) -> list[tuple[str, str]]:
    """Every job key, deed id and epoch of a scenario, as inspect filters."""
    seq: Counter = Counter()
    jobs = []
    for job in raw["jobs"]:
        seq[job["sender"]] += 1
        jobs.append(("job", f"{job['sender']}:{seq[job['sender']]}"))
    deeds = [("deed", node["id"]) for node in raw["nodes"]] + [("deed", "coord")]
    epochs = [("epoch", str(e)) for e in range(1, raw["epochs"] + 1)]
    return jobs + deeds + epochs


def expected_alive_ticks(raw: dict) -> int:
    """Heartbeat ticks at which a node is up, summed over nodes.

    A node is up at tick t unless the last downtime flip at or before t took
    it down; flips at equal times apply in the order the windows are listed
    once sorted by start, down before up.
    """
    hb = raw.get("heartbeat_seconds", max(1, raw["epoch_seconds"] // 100))
    horizon = raw["epochs"] * raw["epoch_seconds"]
    total = 0
    for node in raw["nodes"]:
        flips = []
        for window in sorted(node.get("downtime", []), key=lambda w: w["from"]):
            flips += [(window["from"], False), (window["to"], True)]
        flips.sort(key=lambda f: f[0])
        up, k = True, 0
        for tick in range(hb, horizon + 1, hb):
            while k < len(flips) and flips[k][0] <= tick:
                up = flips[k][1]
                k += 1
            total += up
    return total


def count_matching(records: list[dict], flag: str, value: str) -> int:
    """Entries an `inspect --<flag> <value>` must return, written apart from
    `report.filter_records` so that the check does not grade itself."""
    n = 0
    for record in records:
        payload = record["payload"]
        if flag == "job":
            hit = payload.get("job") == value
        elif flag == "epoch":
            hit = payload.get("epoch") == int(value)
        else:
            touched = {record["author"], payload.get("deed_id"), payload.get("worker")}
            for row in payload.get("entries", []):
                touched.add(row[0])
            hit = value in touched
        n += hit
    return n


def file_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in REPORT_FILES
        if (out_dir / name).is_file()
    }


# -- the benchmark ----------------------------------------------------------


class Bench:
    def __init__(self, cli_main, workload: str, seed: int, work: Path, tracer=None):
        self.cli_main = cli_main
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {
            "setup": [], "run": [], "verify": [], "inspect": [], "calibration": []}
        self.traced_run_s: list[float] = []
        self.layer_rows: list[dict] = []
        self._ledgers: dict[str, list[dict]] = {}  # ledger sha256 -> entry records
        self._first_reports: dict[str, str] | None = None
        self._op = 0

    # -- operations ---------------------------------------------------------

    def cli(self, argv: list[str], traced: bool = False):
        """Time one CLI call; returns (seconds, exit code, stdout, op record)."""
        gc.collect()
        self.samples["calibration"].append(calibrate())
        out, err = io.StringIO(), io.StringIO()
        self._op += 1
        first = self.tracer.begin_op(self._op) if traced else 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    rc = self.tracer.span("cli.main", self.cli_main, argv)
                else:
                    rc = self.cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        op = None
        if traced:
            op = (first, len(self.tracer.spans), self.tracer.counts)
        self.attempted += 1
        return elapsed, rc, out.getvalue(), op

    def setup(self) -> tuple[Path, list, int]:
        """Write the scenario and plan the queries; returns (scenario, queries, alive ticks)."""
        path = self.work / "scenario.yaml"
        for _ in range(SETUP_REPEATS):
            self.samples["calibration"].append(calibrate())
            start = time.perf_counter()
            text = self.workload.make(self.seed)
            path.write_text(text, encoding="utf-8")
            raw = yaml.safe_load(text)
            groups: dict[tuple[str, str], list] = {}
            for flag, value in scenario_targets(raw):
                for fmt in ("SUMMARY", "RECORDS"):
                    groups.setdefault((flag, fmt), []).append((flag, value, fmt))
            rng = random.Random(self.seed)
            for group in groups.values():
                rng.shuffle(group)
            # Round-robin over the (filter, format) groups, so that every run,
            # however few queries it makes, asks the same mix of query kinds;
            # the seed only picks the targets.
            longest = max(len(group) for group in groups.values())
            targets = [g[i % len(g)] for i in range(longest) for g in groups.values()]
            alive_ticks = expected_alive_ticks(raw)
            self.samples["setup"].append(time.perf_counter() - start)
        return path, targets, alive_ticks

    def ledger_records(self, ledger: Path) -> list[dict]:
        from computepool.ledger import load_blocks
        from computepool.report import entry_records

        data = ledger.read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in self._ledgers:
            self._ledgers[key] = entry_records(load_blocks(data))
        return self._ledgers[key]

    def do_run(self, argv: list[str], out_dir: Path, traced: bool):
        seconds, rc, stdout, op = self.cli(argv, traced)
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            summary = {}
        if rc != 0 or summary.get("conservation_ok") is not True:
            self.failures.append(f"run {argv}: exit {rc!r}, summary {summary}")
            return seconds, None, op
        digests = file_digests(out_dir)
        if len(digests) != len(REPORT_FILES):
            self.failures.append(f"run {argv}: reports missing, found {sorted(digests)}")
            return seconds, None, op
        return seconds, (summary, digests), op

    def cycle(self, scenario: Path, alive_ticks: int, queries: list, traced: bool) -> int:
        """One run, one verify and this cycle's inspect queries; returns queries made."""
        out_dir = self.work / "run"
        ledger = out_dir / "ledger.bin"
        argv = ["run", "--scenario", str(scenario), "--out", str(out_dir)]
        if self.workload.seed_flag:
            argv += ["--seed", str(self.seed)]
        ops = []

        run_s, result, op = self.do_run(argv, out_dir, traced)
        (self.traced_run_s if traced else self.samples["run"]).append(run_s)
        ops.append(("run", op))
        if result is None:
            return 0
        summary, digests = result
        if self._first_reports is None:
            self._first_reports = digests
        elif digests != self._first_reports:
            self.failures.append("run: reports differ from the first run of the same scenario and seed")
        records = self.ledger_records(ledger)

        verify_s, rc, stdout, op = self.cli(["verify", str(ledger)], traced)
        self.samples["verify"].append(verify_s)
        ops.append(("verify", op))
        try:
            verdict = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            verdict = {}
        expected = {"ok": True, "blocks": summary["ledger_blocks"], "entries": len(records)}
        if rc != 0 or verdict != expected:
            self.failures.append(f"verify: exit {rc!r}, got {verdict}, expected {expected}")

        for flag, value, fmt in queries:
            argv = ["inspect", str(ledger), f"--{flag}", value, "--format", fmt]
            inspect_s, rc, stdout, op = self.cli(argv, traced)
            self.samples["inspect"].append(inspect_s)
            ops.append(("inspect", op))
            want = count_matching(records, flag, value)
            lines = stdout.splitlines()
            if fmt == "SUMMARY":
                try:
                    got = json.loads(lines[-1])
                    count = got["entries"] if sum(got["by_kind"].values()) == got["entries"] else None
                except (ValueError, IndexError, KeyError, TypeError, AttributeError):
                    count = None
            else:
                count = len(lines)
            if rc != 0 or count != want:
                self.failures.append(f"inspect --{flag} {value} --format {fmt}: exit {rc!r}, {count} != {want}")

        if traced:
            self.layer_rows.append(self.layer_row(ops, alive_ticks, summary, out_dir, len(records)))
        return len(queries)

    def layer_row(self, ops, alive_ticks: int, summary, out_dir: Path, entries: int) -> dict:
        """Per-layer metrics of one traced cycle, plus the trace cross-checks."""
        counts: Counter = Counter()
        for _, (_, _, c) in ops:
            counts.update(c)
        first, last = ops[0][1][0], ops[-1][1][1]
        total, self_s = self.tracer.durations(first, last)
        run_counts = ops[0][1][2]
        verify_counts = ops[1][1][2]
        inspects = [c for kind, (_, _, c) in ops if kind == "inspect"]

        checks = {
            "ledger.append_calls == blocks - 1": (
                run_counts["ledger.append"], summary["ledger_blocks"] - 1),
            "crypto.verify_calls during verify == entries": (
                verify_counts["crypto.verify"], entries),
            "ledger.dump_calls per run == 2": (run_counts["ledger.dump"], 2),
            "tokenomics.accrue_alive_calls == up heartbeat ticks": (
                run_counts["tokenomics.accrue_alive"], alive_ticks),
        }
        for name, (got, want) in checks.items():
            if got != want:
                self.failures.append(f"trace cross-check {name}: {got} != {want}")

        audit = json.loads((out_dir / "audit.json").read_text(encoding="utf-8"))["messages"]

        def ratio(a, b):
            return a / b if b else 0.0

        row = {
            "simnet.run_self_s": self_s["simnet.run"],
            "simnet.publish_calls": counts["simnet.publish"],
            "simnet.publish_s": total["simnet.publish"],
            "simnet.topic_matches_calls": counts["simnet.topic_matches"],
            "simnet.delivery_ratio": ratio(audit["delivered"], audit["published"]),
            "tokenomics.accrue_alive_calls": counts["tokenomics.accrue_alive"],
            "tokenomics.distribute_s": total["tokenomics.distribute"],
            "escrow.conservation_total_calls": counts["escrow.conservation_total"],
            "escrow.conservation_total_s": total["escrow.conservation_total"],
            "distribution.assign_workers_s": total["distribution.assign_workers"],
            "distribution.observe_calls": counts["distribution.observe"],
            "distribution.proof_accept_ratio": ratio(
                counts["distribution.observe_ok"], counts["distribution.observe"]),
            "pipeline.step_calls": counts["pipeline.step"],
            "pipeline.step_s": total["pipeline.step"],
            "pipeline.safety_check_s": total["pipeline.safety_check"],
            "pipeline.recheck_calls": counts["pipeline.recheck"],
            "pipeline.recheck_s": total["pipeline.recheck"],
            "encoding.encode_calls": counts["encoding.encode"],
            "encoding.encode_bytes": counts["encoding.encode_bytes"],
            "encoding.encode_s": total["encoding.encode"],
            "encoding.decode_s": total["encoding.decode"],
            "crypto.sign_calls": counts["crypto.sign"],
            "crypto.sign_s": total["crypto.sign"],
            "crypto.verify_calls": counts["crypto.verify"],
            "crypto.verify_s": total["crypto.verify"],
            "crypto.digest_calls": counts["crypto.digest"],
            "ledger.append_calls": counts["ledger.append"],
            "ledger.append_s": total["ledger.append"],
            "ledger.entries_per_block": ratio(
                counts["ledger.appended_entries"], counts["ledger.append"]),
            "ledger.dump_calls": counts["ledger.dump"],
            "ledger.dump_s": total["ledger.dump"],
            "ledger.load_calls": counts["ledger.load"],
            "ledger.load_s": total["ledger.load"],
            "ledger.verify_blocks_calls": counts["ledger.verify_blocks"],
            "ledger.verify_blocks_s": total["ledger.verify_blocks"],
            "ledger.verify_per_entry": ratio(
                sum(c["crypto.verify"] for c in inspects), entries * len(inspects)),
            "scenario.load_s": total["scenario.load"],
            "report.write_s": total["report.write"],
            "report.filter_s": total["report.entry_records"]
            + total["report.filter_records"]
            + total["report.summarize_records"],
        }
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        return row

    def check_anchors(self) -> None:
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        for name in self.workload.anchors:
            out_dir = self.work / f"anchor-{name}"
            scenario = self.work / f"anchor-{name}.yaml"
            make, seed = ANCHORS[name]
            scenario.write_text(make(seed), encoding="utf-8")
            _, result, _ = self.do_run(
                ["run", "--scenario", str(scenario), "--out", str(out_dir)], out_dir, False)
            if result is not None and result[1] != pins[name]:
                diff = sorted(k for k in pins[name] if pins[name][k] != result[1].get(k))
                self.failures.append(f"anchor {name}: report digests differ from pins.json in {diff}")


def anchor_digests(main, work: Path) -> dict:
    """Report digests of every anchor scenario at its default seed."""
    digests = {}
    for name, (make, seed) in ANCHORS.items():
        scenario, out_dir = work / f"{name}.yaml", work / name
        scenario.write_text(make(seed), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--scenario", str(scenario), "--out", str(out_dir)])
        if rc != 0:
            raise SystemExit(f"anchor {name} exited {rc}")
        digests[name] = file_digests(out_dir)
    return digests


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(bench: Bench, seconds: float) -> None:
    scenario, targets, alive_ticks = bench.setup()
    per_cycle, min_queries = bench.workload.queries_per_cycle, bench.workload.min_queries
    trace = bench.tracer is not None
    queries_done = 0
    cycles = 0
    start = time.perf_counter()
    while True:
        traced = trace and cycles % 2 == 1
        if traced:
            bench.tracer.install()
        try:
            picks = [targets[(queries_done + i) % len(targets)] for i in range(per_cycle)]
            queries_done += bench.cycle(scenario, alive_ticks, picks, traced)
        finally:
            if traced:
                bench.tracer.uninstall()
        cycles += 1
        # A run that fails makes no queries, so failures lift the sample floor.
        enough = queries_done >= min_queries or bench.failures
        if time.perf_counter() - start >= seconds and enough and (not trace or cycles >= 2):
            break


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = import_package()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"work-{tag}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(cli_main, args.workload, args.seed, work, Tracer() if args.trace else None)
    try:
        measure(bench, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bench.check_anchors()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    s = bench.samples
    scale = (CALIBRATION_REF / median(s["calibration"])) ** CALIBRATION_WEIGHT
    raw = {
        "setup_s": median(s["setup"]),
        "run_s": median(s["run"]),
        "verify_s": median(s["verify"]),
        "inspect_p50_ms": 1000 * median(s["inspect"]),
        "inspect_p90_ms": 1000 * p90(s["inspect"]),
    }
    if args.trace:
        metrics = {
            name: {"value": median([row[name] for row in bench.layer_rows]), "unit": _unit(name)}
            for name in bench.layer_rows[0]
        } if bench.layer_rows else {}
        metrics["trace.overhead_s"] = {
            "value": median(bench.traced_run_s) - raw["run_s"], "unit": "s"}
        bench.tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    else:
        metrics = {
            name: {"value": value * scale, "unit": name.rsplit("_", 1)[1]}
            for name, value in raw.items()
        }
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    # Each failed check is one failure; several checks can fail on one operation.
    failed = min(len(bench.failures), bench.attempted)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {k: len(v) for k, v in s.items()} | {"traced_run": len(bench.traced_run_s)},
        "error_rate": failed / max(1, bench.attempted),
        "host_scale": scale,
        "raw": raw,
        "failures": bench.failures[:20],
    }
    for failure in bench.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(detail | result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_entry", "_per_block")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
