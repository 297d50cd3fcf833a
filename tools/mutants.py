"""Mutation gate: every row's seeded bug must make its named tests fail.

    python3 tools/mutants.py

Each row of `MUTANTS` names a file, an exact `old` string that occurs in it
once, the `new` string that replaces it, and the pytest ids that must fail
once it does. For each row the tool copies the repository's files (those git
tracks, plus new ones it does not ignore) to a temporary directory, applies
the edit there and runs only those ids, one pytest process at a time. It
first runs every id on an unedited copy, since a test that already fails
kills nothing.

Exit status 0: every mutant was killed. 1: a mutant survived (some listed
id passed), a row's `old` string no longer occurs exactly once (a refactor
must update the row), or a listed id does not pass unedited.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "jobs_rejected forgets unfunded jobs",
        "src/computepool/simnet.py",
        'counts["plugin_rejected"] + counts["job_rejected"]',
        'counts["plugin_rejected"]',
        (
            "tests/test_simnet.py::test_underfunded_job_is_rejected_and_later_job_runs",
            "tests/test_simnet.py::test_every_audit_counter_matches_a_hand_count",
        ),
    ),
    Mutant(
        "closes_skipped off by one",
        "src/computepool/simnet.py",
        '"closes_skipped": scenario.epochs - counts[EntryKind.REWARD_RECORD],',
        '"closes_skipped": scenario.epochs - counts[EntryKind.REWARD_RECORD] - 1,',
        ("tests/test_simnet.py::test_every_audit_counter_matches_a_hand_count",),
    ),
    Mutant(
        "code rechecks on delivery go uncounted",
        "src/computepool/simnet.py",
        "ok, reason = hash_sign_recheck(code, self._signer(code.author).verify_key)\n"
        "            self.code_rechecks += 1\n",
        "ok, reason = hash_sign_recheck(code, self._signer(code.author).verify_key)\n",
        ("tests/test_simnet.py::test_every_audit_counter_matches_a_hand_count",),
    ),
    Mutant(
        "a REWARD_RECORD's rows need not sum to its pool",
        "src/computepool/escrow.py",
        "if pool != self.reward_pool or exact_sum(a for _deed_id, a in rows) != pool:",
        "if pool != self.reward_pool:",
        ("tests/test_escrow.py::test_a_reward_payout_is_all_or_nothing[rows_short_of_pool]",),
    ),
    Mutant(
        "a REWARD_RECORD's pool need not be the reward pool",
        "src/computepool/escrow.py",
        "if pool != self.reward_pool or exact_sum(a for _deed_id, a in rows) != pool:",
        "if exact_sum(a for _deed_id, a in rows) != pool:",
        (
            "tests/test_escrow.py::test_a_reward_payout_is_all_or_nothing"
            "[pool_is_not_the_reward_pool]",
        ),
    ),
    Mutant(
        "node flips run after the heartbeat",
        "src/computepool/simnet.py",
        "PRI_NODE_FLIP = 1\n",
        "PRI_NODE_FLIP = 3\n",
        (
            "tests/test_simnet.py::test_alive_time_counts_the_ticks_outside_every_window",
            "tests/test_simnet.py::test_every_audit_counter_matches_a_hand_count",
        ),
    ),
    Mutant(
        "a stray fraction of a token on every credit",
        "src/computepool/tokenomics.py",
        "        self.deed(deed_id).balance += amount\n",
        "        self.deed(deed_id).balance += amount + Fraction(1, 2**61 - 1)\n",
        (
            "tests/test_simnet.py::test_small_run_settles_job_and_conserves_tokens",
            "tests/test_escrow.py::test_conservation_holds_across_any_job_history",
        ),
    ),
    Mutant(
        "the ledger accepts any signature",
        "src/computepool/ledger.py",
        '        valid, else the reason."""\n',
        '        valid, else the reason."""\n        return None\n',
        (
            "tests/test_ledger.py::test_append_rejects_wrong_key_signature",
            "tests/test_ledger.py::test_node_spec_must_self_certify",
        ),
    ),
    Mutant(
        "the heartbeat stops one tick before the horizon",
        "src/computepool/simnet.py",
        "range(self.heartbeat_ms, self.horizon_ms + 1, self.heartbeat_ms)",
        "range(self.heartbeat_ms, self.horizon_ms, self.heartbeat_ms)",
        ("tests/test_simnet.py::test_downtime_shrinks_alive_fraction_and_share",),
    ),
    Mutant(
        "an invalid review refunds without marking the job REFUNDED",
        "src/computepool/escrow.py",
        "\n            job.status = JobStatus.REFUNDED\n",
        "\n",
        ("tests/test_escrow.py::test_review_valid_pays_pool_invalid_refunds_sender",),
    ),
    Mutant(
        "a clawed-back settled job is not marked REFUNDED",
        "src/computepool/escrow.py",
        "\n                job.status = JobStatus.REFUNDED\n",
        "\n",
        ("tests/test_escrow.py::test_upheld_challenge_on_settled_job_claws_back_reward",),
    ),
    Mutant(
        "a job that is not PENDING can be activated again",
        "src/computepool/escrow.py",
        "        if job.status != JobStatus.PENDING:\n"
        "            raise JobLifecycleError(\n"
        '                f"job {job_id} cannot start (status {job.status.value})"\n'
        "            )\n",
        "",
        ("tests/test_escrow.py::test_lifecycle_graph_is_enforced",),
    ),
    Mutant(
        "settle_job takes any outcome string",
        "src/computepool/escrow.py",
        '        if outcome not in ("DONE", "CANCELLED"):\n'
        '            raise JobLifecycleError(f"cannot settle to {outcome}")\n',
        "",
        ("tests/test_escrow.py::test_settle_rejects_non_final_status",),
    ),
    Mutant(
        "a boolean passes as a token amount",
        "src/computepool/scenario.py",
        "if isinstance(value, (bool, float)):",
        "if isinstance(value, float):",
        ("tests/test_scenario.py::test_token_amounts_reject_floats",),
    ),
    Mutant(
        "decoded strings are not interned",
        "src/computepool/encoding.py",
        "_intern = sys.intern\n",
        "_intern = str\n",
        ("tests/test_ledger.py::test_a_loaded_dump_holds_one_object_per_distinct_string",),
    ),
    Mutant(
        "sealed entries keep a second copy of their payload bytes",
        "src/computepool/ledger.py",
        "    for entry in entries:\n"
        '        entry.__dict__.pop("payload_bytes", None)\n',
        "",
        ("tests/test_ledger.py::test_stored_payload_bytes_keep_every_byte",),
    ),
    Mutant(
        "framing a sealed entry stores its payload bytes again",
        "src/computepool/ledger.py",
        "            payload_bytes = encode(self.payload)\n",
        '            payload_bytes = self.__dict__["payload_bytes"] = encode(self.payload)\n',
        ("tests/test_ledger.py::test_stored_payload_bytes_keep_every_byte",),
    ),
)


def repo_files() -> list[str]:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    return [name for name in listed.split("\0") if name and (ROOT / name).is_file()]


def copy_repo(dest: Path) -> None:
    for name in repo_files():
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)


def failed_ids(tree: Path, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """Run `tests` in `tree`; return pytest's exit code and the failed ids."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    return proc.returncode, failed


def killed(test_id: str, failed: set[str]) -> bool:
    """A listed id is killed if it, or one of its parametrized cases, failed."""
    return any(f == test_id or f.startswith(test_id + "[") for f in failed)


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_repo(clean)
        for m in MUTANTS:
            found = (clean / m.path).read_text(encoding="utf-8").count(m.old)
            if found != 1:
                problems.append(f"stale row {m.name!r}: `old` occurs {found} times in {m.path}")
        every_id = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, failed = failed_ids(clean, every_id)
        if code != 0:
            problems.append(f"unedited tests do not pass (pytest exit {code}): {sorted(failed)}")
        if problems:
            print("\n".join(problems))
            return 1

        for i, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{i}"
            shutil.copytree(clean, tree)
            target = tree / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                              encoding="utf-8")
            code, failed = failed_ids(tree, m.tests)
            survivors = [t for t in m.tests if not killed(t, failed)]
            if code != 1 or survivors:
                problems.append(
                    f"survived: {m.name!r} (pytest exit {code}); passing: {survivors}"
                )
                print(f"SURVIVED  {m.name}")
            else:
                print(f"killed    {m.name}")
            shutil.rmtree(tree)
    if problems:
        print("\n".join(problems))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
