"""Mutation gate: every row's seeded bug must make its named tests fail.

    python3 tools/mutants.py

Each row of `MUTANTS` names a file, an exact `old` string that occurs in it
once, the `new` string that replaces it, and the pytest ids that must fail
once it does. For each row the tool copies the repository's files (those git
tracks, plus new ones it does not ignore) to a temporary directory, applies
the edit there and runs only those ids, one pytest process at a time, under
the root `conftest.py`'s `mutants` hypothesis profile: a property fails as
soon as it finds an example, unshrunk. It first runs every id on an unedited
copy, since a test that already fails kills nothing. It prints each row's
time, and the whole run must end within `BUDGET_S`, well inside CI's
15-minute limit on the job.

Exit status 0: every mutant was killed. 1: a mutant survived (some listed
id passed), a row's `old` string no longer occurs exactly once (a refactor
must update the row), a row's edit leaves a Python file that does not
compile, a listed id does not pass unedited, or the run took longer than
`BUDGET_S`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
BUDGET_S = 600  # the whole run; CI gives the job 15 minutes


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
        'events("plugin_rejected") + events("job_rejected")',
        'events("plugin_rejected")',
        (
            "tests/test_simnet.py::test_underfunded_job_is_rejected_and_later_job_runs",
            "tests/test_simnet.py::test_every_audit_counter_matches_a_hand_count",
        ),
    ),
    Mutant(
        "closes_skipped off by one",
        "src/computepool/simnet.py",
        '"closes_skipped": scenario.epochs - counts[EntryKind.REWARD_RECORD, None],',
        '"closes_skipped": scenario.epochs - counts[EntryKind.REWARD_RECORD, None] - 1,',
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
        "a heartbeat tick sees the node as it was before that tick's window edges",
        "src/computepool/simnet.py",
        "                if self._is_up(node.node_id, tick):\n",
        "                if self._is_up(node.node_id, tick - 1):\n",
        (
            "tests/test_simnet.py::test_alive_time_counts_the_ticks_outside_every_window",
            "tests/test_simnet.py::test_each_epoch_close_has_credited_exactly_the_ticks_up_to_it",
            "tests/test_simnet.py::test_every_audit_counter_matches_a_hand_count",
        ),
    ),
    Mutant(
        "a delivery sees the node after the window edges of its own millisecond",
        "src/computepool/simnet.py",
        "self._is_up(to, self._now - 1)",
        "self._is_up(to, self._now)",
        ("tests/test_simnet.py::test_a_delivery_sees_the_node_as_it_was_before_its_millisecond",),
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
        "the ledger accepts any signature on a payload of the right shape",
        "src/computepool/ledger.py",
        "        return reason\n    if entry.kind == EntryKind.NODE_SPEC:\n",
        "        return reason\n    return None\n    if entry.kind == EntryKind.NODE_SPEC:\n",
        (
            "tests/test_ledger.py::test_append_rejects_wrong_key_signature",
            "tests/test_ledger.py::test_node_spec_must_self_certify",
        ),
    ),
    Mutant(
        "a CHALLENGE resolved payload goes unchecked",
        "src/computepool/ledger.py",
        "    reason = _mismatch(schema, payload)\n",
        '    reason = None if shape == (EntryKind.CHALLENGE, "resolved") else '
        "_mismatch(schema, payload)\n",
        ("tests/test_ledger.py::test_every_payload_field_of_another_type_fails_at_its_block",),
    ),
    Mutant(
        "a bool passes as an int",
        "src/computepool/ledger.py",
        "        if type(value) is rule:\n",
        "        if isinstance(value, rule):\n",
        (
            "tests/test_ledger.py::test_every_payload_field_of_another_type_fails_at_its_block",
            "tests/test_cli.py::test_inspect_epoch_filter_skips_a_bool_epoch",
        ),
    ),
    Mutant(
        "any string passes as a token amount",
        "src/computepool/ledger.py",
        '    """a token amount in lowest terms"""\n',
        '    """a token amount in lowest terms"""\n    return True\n',
        (
            "tests/test_ledger.py::test_a_payload_the_protocol_cannot_apply_fails_at_its_block"
            "[unreduced_amount]",
            "tests/test_ledger.py::test_a_payload_the_protocol_cannot_apply_fails_at_its_block"
            "[zero_denominator]",
        ),
    ),
    Mutant(
        "a payload may hold keys its schema does not list",
        "src/computepool/ledger.py",
        "        elif value.keys() != rule.keys():\n",
        "        elif not rule.keys() <= value.keys():\n",
        (
            "tests/test_ledger.py::test_a_payload_the_protocol_cannot_apply_fails_at_its_block"
            "[extra_key]",
        ),
    ),
    Mutant(
        "a batch's keys are committed before the batch is admitted",
        "src/computepool/ledger.py",
        "ChainMap(added, self._keys)",
        "self._keys",
        ("tests/test_ledger.py::test_failed_batch_leaves_no_trace",),
    ),
    Mutant(
        "a pool event records only its name",
        "src/computepool/simnet.py",
        'COORDINATOR_ID, {"event": event, **fields})',
        'COORDINATOR_ID, {"event": event})',
        ("tests/test_golden.py::test_report_digests_are_pinned",),
    ),
    Mutant(
        "nothing runs at the horizon itself: no last epoch close",
        "src/computepool/simnet.py",
        "        if at > self.horizon_ms:\n",
        "        if at >= self.horizon_ms:\n",
        ("tests/test_simnet.py::test_downtime_shrinks_alive_fraction_and_share",),
    ),
    Mutant(
        "events run after the horizon",
        "src/computepool/simnet.py",
        "        if at > self.horizon_ms:\n            return\n",
        "",
        ("tests/test_simnet.py::test_nothing_runs_after_the_horizon",),
    ),
    Mutant(
        "an epoch close credits the ticks of [(e-1)·E, e·E), one tick early",
        "src/computepool/simnet.py",
        "range(((epoch - 1) * self.epoch_ms // hb + 1) * hb, epoch * self.epoch_ms + 1, hb)",
        "range(((epoch - 1) * self.epoch_ms // hb) * hb, epoch * self.epoch_ms + 1 - hb, hb)",
        (
            "tests/test_simnet.py::test_each_epoch_close_has_credited_exactly_the_ticks_up_to_it",
            "tests/test_simnet.py::test_downtime_shrinks_alive_fraction_and_share",
        ),
    ),
    Mutant(
        "an invalid review refunds without marking the job REFUNDED",
        "src/computepool/escrow.py",
        '        elif p["verdict"] == "WORK_INVALID":\n'
        "            self.registry.credit(job.sender, job.reward)\n"
        "            job.status = JobStatus.REFUNDED\n",
        '        elif p["verdict"] == "WORK_INVALID":\n'
        "            self.registry.credit(job.sender, job.reward)\n",
        (
            "tests/test_escrow.py::test_review_valid_pays_pool_invalid_refunds_sender",
            "tests/test_escrow.py::test_apply_moves_funds_as_its_entry_says[review_invalid]",
        ),
    ),
    Mutant(
        "an upheld verdict refunds without marking the job REFUNDED",
        "src/computepool/escrow.py",
        "                self.reward_pool -= job.reward\n"
        "            self.registry.credit(job.sender, job.reward)\n"
        "            job.status = JobStatus.REFUNDED\n",
        "                self.reward_pool -= job.reward\n"
        "            self.registry.credit(job.sender, job.reward)\n",
        (
            "tests/test_escrow.py::test_upheld_challenge_on_settled_job_claws_back_reward",
            "tests/test_escrow.py::test_upheld_challenge_on_locked_job_refunds_sender_and_bond",
        ),
    ),
    Mutant(
        "a job that is not PENDING can be activated again",
        "src/computepool/escrow.py",
        "            if job.status != JobStatus.PENDING:\n"
        "                raise JobLifecycleError(\n"
        '                    f"job {job.job_id} cannot start (status {job.status.value})"\n'
        "                )\n",
        "",
        ("tests/test_escrow.py::test_lifecycle_graph_is_enforced",),
    ),
    Mutant(
        "a review_resolved entry moves no funds",
        "src/computepool/escrow.py",
        'if shape == (EntryKind.POOL_EVENT, "review_resolved"):',
        'if shape == (EntryKind.POOL_EVENT, "review_settled"):',
        (
            "tests/test_escrow.py::test_apply_moves_funds_as_its_entry_says[review_valid]",
            "tests/test_escrow.py::test_conservation_holds_across_any_job_history",
            "tests/test_acceptance.py::test_ac05_settlement_paths",
        ),
    ),
    Mutant(
        "apply does not refund a job cancelled before assignment",
        "src/computepool/escrow.py",
        '            if job.status == JobStatus.PENDING and shape[1] == "CANCELLED":\n',
        "            if False:\n",
        (
            "tests/test_escrow.py::test_apply_moves_funds_as_its_entry_says"
            "[cancelled_before_assignment]",
            "tests/test_escrow.py::test_conservation_holds_across_any_job_history",
            "tests/test_simnet.py::test_cancel_before_assignment_refunds_the_sender",
        ),
    ),
    Mutant(
        "a scripted cancel passes over a job that is still PENDING",
        "src/computepool/simnet.py",
        "        if job.status not in (JobStatus.PENDING, JobStatus.IN_PROGRESS):\n",
        "        if job.status != JobStatus.IN_PROGRESS:\n",
        ("tests/test_simnet.py::test_cancel_before_assignment_refunds_the_sender",),
    ),
    Mutant(
        "a review resolves before its lock runs out",
        "src/computepool/escrow.py",
        '        if p["at"] < job.unlock_time:\n',
        "        if False:\n",
        (
            "tests/test_escrow.py::test_cancel_locks_for_review_and_early_resolve_fails",
            "tests/test_escrow.py::test_rejected_challenge_forfeits_bond_to_pool",
            "tests/test_escrow.py::test_a_refused_review_moves_no_funds[before_unlock]",
        ),
    ),
    Mutant(
        "run lets a LedgerError escape",
        "src/computepool/cli.py",
        "    except (SimulationError, LedgerError, EscrowError) as exc:\n",
        "    except (SimulationError, EscrowError) as exc:\n",
        (
            "tests/test_cli.py::test_a_simulator_fault_is_a_failed_run_not_a_traceback"
            "[ledger_error]",
        ),
    ),
    Mutant(
        "run --seed passes over the scenario's seed rule",
        "src/computepool/cli.py",
        'else parse_seed(args.seed, "--seed")',
        "else args.seed",
        ("tests/test_cli.py::test_run_refuses_a_negative_seed_as_the_scenario_does",),
    ),
    Mutant(
        "a boolean passes as a token amount",
        "src/computepool/scenario.py",
        "if isinstance(value, (bool, float)):",
        "if isinstance(value, float):",
        ("tests/test_scenario.py::test_token_amounts_reject_floats",),
    ),
    Mutant(
        "non-finite scenario numbers are accepted",
        "src/computepool/scenario.py",
        "    if not math.isfinite(number):\n"
        '        _fail(path, f"expected a finite number, got {_show(value)}")\n',
        "",
        (
            "tests/test_scenario.py::test_numbers_must_be_finite",
            "tests/test_pipeline.py::test_number_params_must_be_finite",
        ),
    ),
    Mutant(
        "an unused pipeline is not checked",
        "src/computepool/scenario.py",
        '    root = _fields(data, "", _ROOT, source)\n',
        '    root = _fields(dict(data, pipelines={\n'
        '        name: stages for name, stages in data["pipelines"].items()\n'
        '        if any(job.get("pipeline") == name for job in data["jobs"])}), "", _ROOT, source)\n',
        ("tests/test_scenario.py::test_an_unused_pipeline_is_checked",),
    ),
    Mutant(
        "root key errors drop the source",
        "src/computepool/scenario.py",
        "    where = path or source\n",
        "    where = path\n",
        (
            "tests/test_scenario.py::test_the_root_is_read_by_its_rules[parse_scenario]",
            "tests/test_scenario.py::test_the_root_is_read_by_its_rules[load_scenario]",
        ),
    ),
    Mutant(
        "the heartbeat default ignores epoch_seconds",
        "src/computepool/scenario.py",
        'max(1, root["epoch_seconds"] // 100)',
        "max(1, 3600 // 100)",
        (
            "tests/test_scenario.py::test_the_root_is_read_by_its_rules[parse_scenario]",
            "tests/test_scenario.py::test_the_root_is_read_by_its_rules[load_scenario]",
        ),
    ),
    Mutant(
        "a duplicate fault is accepted",
        "src/computepool/scenario.py",
        "            if k != j:\n",
        "            if False:\n",
        (
            "tests/test_scenario.py::test_a_worker_takes_at_most_one_fault_per_step[forge_replay]",
            "tests/test_scenario.py::test_a_worker_takes_at_most_one_fault_per_step[forge_twice]",
            "tests/test_cli.py::test_a_second_fault_at_one_worker_step_is_usage_error",
        ),
    ),
    Mutant(
        "a params list of the wrong length is accepted",
        "src/computepool/scenario.py",
        "if isinstance(stage.params, tuple) and len(stage.params) != n_workers:",
        "if False:",
        (
            "tests/test_scenario.py::test_pipeline_errors_carry_job_path",
            "tests/test_pipeline.py::test_parse_pipeline_diagnostics",
        ),
    ),
    Mutant(
        "cancel_at past the horizon is accepted",
        "src/computepool/scenario.py",
        '_int(cancel_at, f"{path}.cancel_at", maximum=horizon)',
        "cancel_at",
        ("tests/test_scenario.py::test_jobs_and_challenges_must_fall_inside_the_horizon",),
    ),
    Mutant(
        "an optional field's reader is skipped",
        "src/computepool/scenario.py",
        "            rule = rule[1]\n",
        "            rule = lambda value, path: value\n",
        ("tests/test_scenario.py::test_every_mapping_is_read_by_its_rules",),
    ),
    Mutant(
        "a negative opening balance is accepted",
        "src/computepool/scenario.py",
        "    if not positive and amount < 0:\n",
        "    if False:\n",
        ("tests/test_scenario.py::test_node_validation",),
    ),
    Mutant(
        "a scenario that is not UTF-8 raises out of load_scenario",
        "src/computepool/scenario.py",
        "    except (OSError, UnicodeDecodeError) as exc:\n",
        "    except OSError as exc:\n",
        ("tests/test_cli.py::test_run_rejects_bad_scenario_with_usage_exit",),
    ),
    Mutant(
        "a value PyYAML cannot construct raises out of load_scenario",
        "src/computepool/scenario.py",
        "    except (yaml.YAMLError, ValueError) as exc:",
        "    except yaml.YAMLError as exc:",
        ("tests/test_cli.py::test_a_value_yaml_cannot_construct_is_a_parse_error",),
    ),
    Mutant(
        "an integer too long to print reaches the readers",
        "src/computepool/scenario.py",
        '        _refuse_long_ints(data, "", source, set())\n',
        "        pass\n",
        (
            "tests/test_cli.py::test_an_integer_too_long_to_print_is_refused_at_its_path",
            "tests/test_scenario.py::test_an_integer_too_long_to_print_is_refused_wherever_it_is",
        ),
    ),
    Mutant(
        "a mapping key too long to print is formatted unchecked",
        "src/computepool/scenario.py",
        '            _refuse_long_ints(key, f"{path or source} (key)", source, seen)\n',
        "",
        ("tests/test_scenario.py::test_an_integer_too_long_to_print_is_refused_wherever_it_is",),
    ),
    Mutant(
        "a root key too long to print is named as if no file held it",
        "src/computepool/scenario.py",
        'f"{path or source} (key)"',
        "f\"{path or 'scenario'} (key)\"",
        ("tests/test_scenario.py::test_a_root_key_too_long_to_print_is_refused_at_its_file",),
    ),
    Mutant(
        "collections nest without bound",
        "src/computepool/scenario.py",
        "        if len(stack) - 1 + stack[-1][1] > MAX_DEPTH:\n",
        "        if False:\n",
        (
            "tests/test_cli.py::test_deeply_nested_scenario_is_usage_error_not_a_crash",
            "tests/test_scenario.py::test_collections_may_nest_at_most_max_depth",
            "tests/test_scenario.py::test_an_alias_counts_the_levels_it_repeats",
        ),
    ),
    Mutant(
        "the nesting bound refuses MAX_DEPTH itself",
        "src/computepool/scenario.py",
        "        if len(stack) - 1 + stack[-1][1] > MAX_DEPTH:\n",
        "        if len(stack) - 1 + stack[-1][1] >= MAX_DEPTH:\n",
        ("tests/test_scenario.py::test_collections_may_nest_at_most_max_depth",),
    ),
    Mutant(
        "an alias counts as one level",
        "src/computepool/scenario.py",
        "            stack[-1][1] = max(stack[-1][1], heights.get(event.anchor, 0))\n",
        "            pass\n",
        ("tests/test_scenario.py::test_an_alias_counts_the_levels_it_repeats",),
    ),
    Mutant(
        "a GPU unit scores like a CPU unit",
        "src/computepool/tokenomics.py",
        "CPU_WEIGHT, GPU_WEIGHT, MEMORY_WEIGHT = 1.0, 4.0, 0.25",
        "CPU_WEIGHT, GPU_WEIGHT, MEMORY_WEIGHT = 1.0, 1.0, 0.25",
        ("tests/test_distribution.py::test_rank_orders_by_score_then_id",),
    ),
    Mutant(
        "a challenge with no bond posts a fifth of the reward",
        "src/computepool/simnet.py",
        "BOND_FRACTION = Fraction(1, 10)",
        "BOND_FRACTION = Fraction(1, 5)",
        ("tests/test_simnet.py::test_upheld_challenge_on_settled_job_refunds_once_within_its_epoch",),
    ),
    Mutant(
        "an assignment no node can take is retried every heartbeat",
        "src/computepool/simnet.py",
        "            if len(fit) - (spec.sender in fit) >= spec.n_workers:\n",
        "            if True:\n",
        ("tests/test_simnet.py::test_a_job_no_node_can_serve_waits_without_retries",),
    ),
    Mutant(
        "a formula may hold only five syntax nodes",
        "src/computepool/pipeline.py",
        "MAX_NODES = 512  #",
        "MAX_NODES = 5  #",
        ("tests/test_pipeline.py::test_safety_policy_caps",),
    ),
    Mutant(
        "the vet lets an unknown variable through",
        "src/computepool/pipeline.py",
        '    reasons.extend(f"unknown variable {name!r}" for name in sorted(expression.names.difference(VARIABLES)))\n',
        "",
        (
            "tests/test_pipeline.py::test_only_the_folds_variables_may_be_named",
            "tests/test_cli.py::test_a_formula_naming_an_unknown_variable_is_rejected_before_funding",
            "tests/test_simnet.py::test_unsafe_plugin_is_rejected_before_funding_and_keys_stay_aligned",
            "tests/test_acceptance.py::test_ac10_plugin_vetting",
        ),
    ),
    Mutant(
        "float `**` goes back to libm",
        "src/computepool/pipeline.py",
        "    result, square, n = 1.0, float(base), abs(int(exp))\n",
        "    return float(base) ** exp\n",
        ("tests/test_pipeline.py::test_a_float_power_is_the_same_on_every_machine",),
    ),
    Mutant(
        "decode takes the fraction tag again",
        "src/computepool/encoding.py",
        '    raise EncodingError(f"unknown tag byte',
        '    if tag == ord("Q"):\n'
        "        from fractions import Fraction\n"
        "        num, offset = _decode_at(data, offset)\n"
        "        den, offset = _decode_at(data, offset)\n"
        "        return Fraction(num, den), offset\n"
        '    raise EncodingError(f"unknown tag byte',
        (
            "tests/test_encoding.py::test_decode_rejects_the_retired_null_and_fraction_tags",
            "tests/test_cli.py::test_wrongly_typed_dump_field_exits_one_at_its_height",
        ),
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
        "        for entry in entries:\n"
        '            entry.__dict__.pop("payload_bytes", None)\n',
        "",
        ("tests/test_ledger.py::test_stored_payload_bytes_keep_every_byte",),
    ),
    Mutant(
        "verify skips the re-sealed root comparison",
        "src/computepool/ledger.py",
        "                if block.root != root:\n",
        "                if False:\n",
        ("tests/test_ledger.py::test_tamper_in_last_block_reports_last_height[root]",),
    ),
    Mutant(
        "framing a sealed entry stores its payload bytes again",
        "src/computepool/ledger.py",
        "            payload_bytes = encode(self.payload)\n",
        '            payload_bytes = self.__dict__["payload_bytes"] = encode(self.payload)\n',
        ("tests/test_ledger.py::test_stored_payload_bytes_keep_every_byte",),
    ),
    Mutant(
        "exp is the platform's libm exp",
        "src/computepool/tokenomics.py",
        "    return float(_EXP_CONTEXT.exp(Decimal(x)))\n",
        "    return math.exp(x)\n",
        ("tests/test_tokenomics.py::test_exp_is_correctly_rounded_on_every_machine",),
    ),
    Mutant(
        "each row is paid in whole tokens and the rest as residue",
        "src/computepool/tokenomics.py",
        "        deed: pool_snapshot * Fraction(share) if share > 0.0 else Fraction(0)\n",
        "        deed: Fraction(int(pool_snapshot * Fraction(share))) if share > 0.0 "
        "else Fraction(0)\n",
        ("generative/test_generated_scenarios.py::test_scaling_every_amount_scales_every_balance",),
    ),
    Mutant(
        "ranking ties are broken by a hash of the id",
        "src/computepool/distribution.py",
        "    fit.sort(key=lambda d: (-candidates[d].score(), d))\n",
        "    fit.sort(key=lambda d: (-candidates[d].score(), digest(d.encode())))\n",
        ("generative/test_generated_scenarios.py::test_renaming_every_node_in_order_moves_no_balance",),
    ),
    Mutant(
        "an epoch close credits a node inside a downtime window",
        "src/computepool/simnet.py",
        "                if self._is_up(node.node_id, tick):\n",
        "                if True:\n",
        (
            "generative/test_generated_scenarios.py::"
            "test_a_node_down_for_the_whole_run_moves_no_other_balance",
        ),
    ),
    Mutant(
        "sum the shares in scenario order",
        "src/computepool/tokenomics.py",
        "    total = sum(indexes[deed] for deed in sorted(indexes))\n",
        "    total = sum(indexes.values())\n",
        ("generative/test_generated_scenarios.py::test_the_order_of_nodes_moves_no_balance",),
    ),
    Mutant(
        "rows under one token are paid as residue",
        "src/computepool/tokenomics.py",
        "    residue = pool_snapshot - exact_sum(amounts.values())\n",
        "    amounts = {d: a if a >= 1 else Fraction(0) for d, a in amounts.items()}\n"
        "    residue = pool_snapshot - exact_sum(amounts.values())\n",
        ("generative/test_generated_scenarios.py::test_scaling_every_amount_scales_every_balance",),
    ),
    Mutant(
        "the opened entry is queued before apply",
        "src/computepool/simnet.py",
        "        changed = self.bank.apply(entry, active_ids)\n"
        "        self._pending_entries.append(entry)\n",
        "        self._pending_entries.append(entry)\n"
        "        changed = self.bank.apply(entry, active_ids)\n",
        (
            "tests/test_simnet.py::test_a_challenge_after_its_window_leaves_only_its_rejection",
            "generative/test_generated_scenarios.py::"
            "test_each_scripted_challenge_ends_in_one_recorded_verdict",
        ),
    ),
    Mutant(
        "_apply skips the conservation check",
        "src/computepool/simnet.py",
        "        self._pending_entries.append(entry)\n        self._check_conservation()\n",
        "        self._pending_entries.append(entry)\n",
        # The stray-credit test still fails the run: the next funding's check sees it.
        ("tests/test_simnet.py::test_conservation_is_checked_once_per_funding_and_per_fund_moving_entry",),
    ),
    Mutant(
        "a challenge of an unfunded job returns silently",
        "src/computepool/simnet.py",
        "    def _on_challenge_open(self, spec: ChallengeSpec) -> None:\n",
        "    def _on_challenge_open(self, spec: ChallengeSpec) -> None:\n"
        "        if spec.job_id not in self.bank.jobs:\n"
        "            return\n",
        (
            "tests/test_simnet.py::test_a_challenge_of_an_unfunded_job_is_rejected_in_the_banks_words",
            "tests/test_simnet.py::test_every_audit_counter_matches_a_hand_count",
            "generative/test_generated_scenarios.py::"
            "test_each_scripted_challenge_ends_in_one_recorded_verdict",
        ),
    ),
    Mutant(
        "a late cancel returns silently",
        "src/computepool/simnet.py",
        '            self._pool_event("cancel_skipped", job=job_id, reason="job already finished")\n',
        "",
        ("tests/test_simnet.py::test_a_cancel_after_its_job_finished_is_recorded_as_skipped",),
    ),
    Mutant(
        "the parser accepts any vote count",
        "src/computepool/scenario.py",
        "        if len(votes) != JURY_SIZE:\n",
        "        if False:\n",
        (
            "tests/test_scenario.py::test_a_challenge_gives_one_vote_per_juror",
            "generative/test_generated_scenarios.py::test_the_cli_exits_0_1_or_2_without_a_traceback",
        ),
    ),
    Mutant(
        "a forfeited bond never reaches the reward pool",
        "src/computepool/escrow.py",
        "            self.reward_pool += challenge.bond\n",
        "",
        ("generative/test_generated_scenarios.py::test_generated_scenarios_conserve_verify_and_repeat",),
    ),
    Mutant(
        "load_blocks accepts a truncated header",
        "src/computepool/ledger.py",
        '        raise LedgerError("truncated dump header")\n',
        "        return []\n",
        ("tests/test_ledger.py::test_a_malformed_dump_is_refused_at_its_block[truncated_header]",),
    ),
    Mutant(
        "an empty chain verifies",
        "src/computepool/ledger.py",
        '    if not blocks:\n        return VerifyResult(False, 0, "empty chain")\n',
        "",
        ("tests/test_ledger.py::test_an_empty_chain_does_not_verify",),
    ),
    Mutant(
        "an entry whose payload is not a map is admitted by its first check",
        "src/computepool/ledger.py",
        '        return f"{kind.value} payload is {type(payload).__name__}, not a map"\n',
        "        return None\n",
        ("tests/test_ledger.py::test_an_entry_whose_payload_is_not_a_map_is_refused",),
    ),
    Mutant(
        "the assignment walk asks every ranked node whether it is up",
        "src/computepool/simnet.py",
        "        ranked = list(islice(up, spec.n_workers))\n",
        "        ranked = list(up)\n",
        ("tests/test_simnet.py::test_an_assignment_asks_only_the_nodes_it_takes_whether_they_are_up",),
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
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *tests],
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


def stale(m: Mutant, text: str) -> str | None:
    """Why row `m` cannot apply to `text`, its file's unedited contents, if it cannot."""
    found = text.count(m.old)
    if found != 1:
        return f"stale row {m.name!r}: `old` occurs {found} times in {m.path}"
    if m.path.endswith(".py"):
        try:
            compile(text.replace(m.old, m.new), m.path, "exec")
        except SyntaxError as exc:
            return f"stale row {m.name!r}: its edit of {m.path} does not compile: {exc}"
    return None


def main() -> int:
    problems = []
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_repo(clean)
        for m in MUTANTS:
            problem = stale(m, (clean / m.path).read_text(encoding="utf-8"))
            if problem:
                problems.append(problem)
        every_id = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, failed = failed_ids(clean, every_id)
        if code != 0:
            problems.append(f"unedited tests do not pass (pytest exit {code}): {sorted(failed)}")
        if problems:
            print("\n".join(problems))
            return 1

        for i, m in enumerate(MUTANTS):
            row_started = time.monotonic()
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
                outcome = "SURVIVED"
            else:
                outcome = "killed"
            print(f"{outcome:<9} {time.monotonic() - row_started:6.1f} s  {m.name}", flush=True)
            shutil.rmtree(tree)
    elapsed = time.monotonic() - started
    if elapsed > BUDGET_S:
        problems.append(f"the run took {elapsed:.0f} s, over its budget of {BUDGET_S} s")
    if problems:
        print("\n".join(problems))
        return 1
    print(f"all {len(MUTANTS)} mutants killed in {elapsed:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
