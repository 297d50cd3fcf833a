"""Command line interface: run a scenario, verify a ledger dump, inspect it.

Exit codes: 0 on success, 1 when an operation fails (broken ledger, failed
run), 2 for usage and configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .escrow import EscrowError
from .ledger import LedgerBlock, LedgerError, VerifyResult, load_blocks, verify_blocks
from .report import (
    canonical_json,
    entry_records,
    filter_records,
    summarize_records,
    write_reports,
)
from .scenario import ScenarioError, load_scenario, parse_seed
from .simnet import SimulationError, run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
        seed = scenario.seed if args.seed is None else parse_seed(args.seed, "--seed")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_scenario(scenario, seed=seed)
    except (SimulationError, LedgerError, EscrowError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(f"runs/{scenario.name}-{result.seed}")
    try:
        write_reports(result, out_dir)
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 2
    summary = {
        "scenario": scenario.name,
        "seed": result.seed,
        "ledger_blocks": len(result.ledger.blocks),
        "jobs_done": result.audit["jobs_done"],
        "jobs_cancelled": result.audit["jobs_cancelled"],
        "proofs_rejected": result.audit["proofs_rejected"],
        "distributed_total": str(result.bank.distributed_total),
        "conservation_ok": result.conservation_ok,
        "out_dir": str(out_dir),
    }
    print(canonical_json(summary))
    if not result.conservation_ok:
        print("token conservation failed", file=sys.stderr)
        return 1
    return 0


def _read_dump(path: str) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return None


def load_verified(data: bytes) -> tuple[VerifyResult, list[LedgerBlock]]:
    """Parse and verify a dump once, as `verify` and `inspect` do; no blocks
    come back if parsing failed."""
    try:
        blocks = load_blocks(data)
    except LedgerError as exc:
        return VerifyResult(False, exc.height, str(exc)), []
    return verify_blocks(blocks), blocks


def _cmd_verify(args: argparse.Namespace) -> int:
    data = _read_dump(args.ledger)
    if data is None:
        return 2
    result, _ = load_verified(data)
    report = {
        "ok": result.ok,
        "blocks": result.blocks,
        "entries": result.entries,
    }
    if not result.ok:
        report["failing_height"] = result.failing_height
        report["reason"] = result.reason
    print(canonical_json(report))
    return 0 if result.ok else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    data = _read_dump(args.ledger)
    if data is None:
        return 2
    verdict, blocks = load_verified(data)
    if not verdict.ok:
        print(
            f"ledger fails verification at height {verdict.failing_height}: "
            f"{verdict.reason}",
            file=sys.stderr,
        )
        return 1
    records = filter_records(
        entry_records(blocks), epoch=args.epoch, deed=args.deed, job=args.job
    )
    if args.format == "SUMMARY":
        print(canonical_json(summarize_records(records)))
    else:
        for record in records:
            print(canonical_json(record))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="computepool",
        description="Deterministic simulator of an escrow-backed compute pool protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write reports")
    p_run.add_argument("--scenario", required=True, help="path to a scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="report directory (default runs/<name>-<seed>)")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="verify a ledger dump end to end")
    p_verify.add_argument("ledger", help="path to ledger.bin")
    p_verify.set_defaults(fn=_cmd_verify)

    p_inspect = sub.add_parser("inspect", help="query entries of a verified ledger dump")
    p_inspect.add_argument("ledger", help="path to ledger.bin")
    p_inspect.add_argument("--epoch", type=int, default=None, help="filter by epoch number")
    p_inspect.add_argument("--deed", default=None, help="filter by deed id")
    p_inspect.add_argument("--job", default=None, help="filter by job key SENDER:SEQ")
    p_inspect.add_argument(
        "--format", choices=("RECORDS", "SUMMARY"), default="RECORDS",
        help="RECORDS prints matching entries as JSON lines; SUMMARY aggregates them",
    )
    p_inspect.set_defaults(fn=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
