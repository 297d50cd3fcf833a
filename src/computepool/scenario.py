"""Scenario files: the full description of one simulation run.

A scenario is YAML. Validation is fail-fast and every diagnostic names the
path of the offending field (for example `nodes[2].balance`), so a bad file
points at itself.
"""

from __future__ import annotations

import dataclasses
import math
import reprlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

import yaml

from .escrow import JURY_SIZE
from .pipeline import (
    BUSINESS,
    SERVING,
    SOURCES,
    Expression,
    ExpressionError,
    PipelineSpec,
    StagePlan,
)
from .tokenomics import Capability


# The pool coordinator's deed id; no scenario node may take it.
COORDINATOR_ID = "coord"


class ScenarioError(Exception):
    pass


def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}")


# An offending value is shown cut down: a few hundred bytes of YAML aliases
# can stand for a value whose full repr runs to gigabytes.
_REPR = reprlib.Repr()
_REPR.maxlevel = 3
_REPR.maxlist = _REPR.maxdict = 4
_REPR.maxstring = _REPR.maxother = 40
_SHOW_CHARS = 200  # characters of an offending value a message shows


def _show(value) -> str:
    text = _REPR.repr(value)
    return text if len(text) <= _SHOW_CHARS else text[: _SHOW_CHARS - 3] + "..."


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _sequence(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {_show(value)}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {value}")
    return value


def parse_seed(value, path: str) -> int:
    """A run seed, from a scenario or the command line: an integer >= 0."""
    return _int(value, path, minimum=0)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {_show(value)}")
    try:
        number = float(value)
    except OverflowError:
        _fail(path, "expected a finite number, got an integer too large for a float")
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {_show(value)}")
    return number


def _fraction(value, path: str, positive: bool = False) -> Fraction:
    try:
        if isinstance(value, (bool, float)):
            _fail(path, "token amounts must be integers or 'p/q' strings, not "
                  f"{type(value).__name__}s")
        amount = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        _fail(path, f"not a token amount: {_show(value)}")
    if positive and amount <= 0:
        _fail(path, f"must be positive, got {amount}")
    if not positive and amount < 0:
        _fail(path, f"must be non-negative, got {amount}")
    return amount


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {_show(value)}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a non-empty string, got {_show(value)}")
    return value


def _expression(value, path: str) -> Expression:
    try:
        return Expression(_string(value, path))
    except ExpressionError as exc:
        _fail(path, str(exc))


def _one_of(value, path: str, choices: tuple):
    if value not in choices:
        _fail(path, f"must be {' or '.join(map(repr, choices))}, got {_show(value)}")
    return value


_nonnegative = partial(_int, minimum=0)

# How `_fields` reads a value by the type of its rule; an int is a count >= 1.
_READERS = {
    bool: _bool,
    int: partial(_int, minimum=1),
    float: _number,
    str: _string,
    Expression: _expression,
}


def _fields(value, path: str, rules: dict, source: str = "") -> dict:
    """Read a mapping by its rules, one per key it may hold. A rule is the
    key's default, the type of a value it requires, a reader `(value, path)
    -> value` for a value it requires, or `(default, reader)`. A default or a
    type is read by its type's entry in `_READERS`. Defaults are filled in
    unread. A key's path is `path.key`, but the scenario's root is read at
    path "": there a key's path is the bare key (`epochs`, `nodes[0]`), and
    the root's own errors name `source`, the file it came from."""
    where = path or source
    cfg = _mapping(value, where)
    missing = {key for key, rule in rules.items() if callable(rule)} - set(cfg)
    if missing:
        _fail(where, f"missing required keys: {sorted(missing)}")
    unknown = set(cfg) - set(rules)
    if unknown:
        _fail(where, f"unknown keys: {sorted(unknown, key=str)}")
    fields = {key: rule[0] if isinstance(rule, tuple) else rule for key, rule in rules.items()}
    for key in cfg:
        rule = rules[key]
        if isinstance(rule, tuple):
            rule = rule[1]
        read = _READERS.get(rule, rule) if callable(rule) else _READERS[type(rule)]
        fields[key] = read(cfg[key], f"{path}.{key}" if path else key)
    return fields


def _each(value, path: str, read) -> tuple:
    """A list, whose items `read` reads."""
    return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(_sequence(value, path)))


def _named(value, path: str, read) -> dict:
    """A mapping from non-empty string names to values `read` reads."""
    return {_string(name, f"{path} (key)"): read(item, f"{path}.{name}")
            for name, item in _mapping(value, path).items()}


_CAPABILITY = {f.name: f.default for f in dataclasses.fields(Capability)}


def _capability(value, path: str) -> Capability:
    cap = Capability(**_fields(value, path, _CAPABILITY))
    if cap.cpu < 0 or cap.gpu_units < 0 or cap.memory < 0:
        _fail(path, "capability components must be non-negative")
    return cap


def _plugin(value, path: str, table: dict) -> str:
    if not isinstance(value, str) or value not in table:
        _fail(path, f"unknown plugin {_show(value)}")
    return value


def _stage(value, path: str, table: dict) -> StagePlan:
    """A plugin stage; its `params` are read by the rules of its `kind`."""
    stage = _fields(value, path, {"kind": partial(_plugin, table=table), "params": ({}, lambda v, _: v)})
    kind, params = stage["kind"], stage["params"]
    factory, rules = table[kind]
    if isinstance(params, list):  # one set per worker
        params = tuple(_fields(p, f"{path}.params[{i}]", rules) for i, p in enumerate(params))
    else:
        params = _fields(params, f"{path}.params", rules)
    return StagePlan(kind=kind, factory=factory, params=params)


@dataclass(frozen=True)
class RegionSpec:
    intra_latency_ms: int
    inter_latency_ms: int
    drop_rate: float


@dataclass(frozen=True)
class DowntimeSpec:
    start: int
    end: int


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    region: str
    balance: Fraction
    capability: Capability
    power: dict[int, float]  # epoch -> declared power; key 0 is the default
    downtime: tuple[DowntimeSpec, ...]

    def power_for_epoch(self, epoch: int) -> float:
        return self.power.get(epoch, self.power.get(0, 0.0))


@dataclass(frozen=True)
class FaultSpec:
    worker_index: int
    step: int
    kind: str  # "replay" or "forge"


@dataclass(frozen=True)
class JobSpec:
    job_id: str  # "sender:seq", seq counting the sender's jobs in list order
    sender: str
    at: int
    reward: Fraction
    pipeline: PipelineSpec  # shared by every job that names it
    n_workers: int
    steps: int
    requirement: Capability
    cancel_at: int | None
    review_verdict: str  # "valid" or "invalid", applied when the lock expires
    faults: tuple[FaultSpec, ...]


@dataclass(frozen=True)
class ChallengeSpec:
    at: int
    challenger: str
    job_id: str
    bond: Fraction | None
    votes: tuple[bool, ...]  # one per juror, in the order the jury is drawn


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    epochs: int
    epoch_seconds: int
    heartbeat_seconds: int
    review_lock_seconds: int
    regions: dict[str, RegionSpec]
    nodes: tuple[NodeSpec, ...]
    jobs: tuple[JobSpec, ...]
    challenges: tuple[ChallengeSpec, ...] = ()
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def horizon(self) -> int:
        return self.epochs * self.epoch_seconds


def _drop_rate(value, path: str) -> float:
    drop = _number(value, path)
    if not 0.0 <= drop < 1.0:
        _fail(path, f"must be in [0, 1), got {drop}")
    return drop


def _power(value, path: str) -> dict[int, float]:
    if not isinstance(value, dict):
        return {0: _number(value, path)}
    return {_nonnegative(k, f"{path}[{k!r}]"): _number(v, f"{path}[{k!r}]") for k, v in value.items()}


def _votes(value, path: str) -> tuple[bool, ...]:
    votes = _sequence(value, path)
    if not all(isinstance(v, bool) for v in votes):
        _fail(path, "votes must be booleans (true = uphold)")
    return tuple(votes)


# The rules `_fields` reads each scenario mapping by.
_PIPELINE = {
    "source": partial(_stage, table=SOURCES),
    "serving": ((), partial(_each, read=partial(_stage, table=SERVING))),
    "business": partial(_stage, table=BUSINESS),
}
_REGION = {
    "intra_latency_ms": (1, _nonnegative),
    "inter_latency_ms": (10, _nonnegative),
    "drop_rate": (0.0, _drop_rate),
}
_WINDOW = {"from": _nonnegative, "to": int}
_NODE = {
    "id": str,
    "region": str,
    "balance": (Fraction(0), _fraction),
    "capability": (Capability(), _capability),
    "power": ({0: 0.0}, _power),
    "downtime": ((), partial(_each, read=partial(_fields, rules=_WINDOW))),
}
_FAULT = {"worker_index": _nonnegative, "step": int, "kind": partial(_one_of, choices=("replay", "forge"))}
_JOB = {
    "sender": str,
    "at": _nonnegative,
    "reward": partial(_fraction, positive=True),
    "pipeline": str,
    "n_workers": int,
    "steps": int,
    "requirement": (Capability(), _capability),
    "cancel_at": (None, _nonnegative),
    "review_verdict": ("valid", partial(_one_of, choices=("valid", "invalid"))),
    "faults": ((), partial(_each, read=lambda item, path: FaultSpec(**_fields(item, path, _FAULT)))),
}
_CHALLENGE = {
    "at": _nonnegative,
    "challenger": str,
    "job": str,
    "votes": _votes,
    "bond": (None, partial(_fraction, positive=True)),
}
_ROOT = {
    "name": str,
    "seed": parse_seed,
    "epochs": int,
    "epoch_seconds": int,
    "heartbeat_seconds": (None, int),  # filled in from epoch_seconds
    "review_lock_seconds": 86400,
    "regions": partial(_named, read=lambda item, path: RegionSpec(**_fields(item, path, _REGION))),
    "nodes": partial(_each, read=partial(_fields, rules=_NODE)),
    "pipelines": partial(_named, read=partial(_fields, rules=_PIPELINE)),
    "jobs": partial(_each, read=partial(_fields, rules=_JOB)),
    "challenges": ((), partial(_each, read=partial(_fields, rules=_CHALLENGE))),
}


def _refuse_long_ints(value, path: str, source: str, seen: set[int]) -> None:
    """Refuse an integer with more digits than `str()` prints (Python's
    `int_max_str_digits`) at its path, before any reader formats it; a root
    key's path names `source`, as `_fields` does. Each collection is walked
    once, however many aliases repeat it."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            _fail(path, f"integer has more than {sys.get_int_max_str_digits()} digits")
    elif isinstance(value, (dict, list)) and id(value) not in seen:
        seen.add(id(value))
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _refuse_long_ints(key, f"{path or source} (key)", source, seen)
            inner = (f"{path}.{key}" if path else key) if isinstance(key, str) else f"{path}[{key!r}]"
            _refuse_long_ints(item, inner, source, seen)


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    """Read the whole scenario by its rules, then check how its fields relate."""
    if isinstance(data, dict):  # any other root is refused at `source`
        _refuse_long_ints(data, "", source, set())
    root = _fields(data, "", _ROOT, source)
    horizon = root["epochs"] * root["epoch_seconds"]  # nothing runs after it
    root["heartbeat_seconds"] = root["heartbeat_seconds"] or max(1, root["epoch_seconds"] // 100)
    regions = root["regions"]
    if not regions:
        _fail("regions", "at least one region is required")

    nodes: dict[str, NodeSpec] = {}
    for i, node in enumerate(root["nodes"]):
        path = f"nodes[{i}]"
        node_id = node.pop("id")
        if node_id == COORDINATOR_ID:
            _fail(f"{path}.id", f"{COORDINATOR_ID!r} is reserved for the pool coordinator")
        if node_id in nodes:
            _fail(f"{path}.id", f"duplicate node id {node_id!r}")
        if node["region"] not in regions:
            _fail(f"{path}.region", f"unknown region {node['region']!r}")
        # Windows may touch but not overlap; they are kept sorted by start.
        downtime = [DowntimeSpec(window["from"], window["to"]) for window in node["downtime"]]
        for j, window in enumerate(downtime):
            if window.end <= window.start:
                _fail(f"{path}.downtime[{j}]", f"'to' ({window.end}) must be after 'from' ({window.start})")
        order = sorted(range(len(downtime)), key=lambda j: downtime[j].start)
        for prev, j in zip(order, order[1:]):
            if downtime[j].start < downtime[prev].end:
                _fail(f"{path}.downtime[{j}]", f"starts before downtime[{prev}] ends at {downtime[prev].end}")
        node["downtime"] = tuple(downtime[j] for j in order)
        nodes[node_id] = NodeSpec(node_id=node_id, **node)
    if not nodes:
        _fail("nodes", "at least one node is required")

    pipelines = {name: PipelineSpec(name=name, **stages) for name, stages in root.pop("pipelines").items()}
    jobs: list[JobSpec] = []
    job_seq: dict[str, int] = {}
    last_at = 0
    for i, job in enumerate(root["jobs"]):
        path = f"jobs[{i}]"
        sender, at, n_workers = job["sender"], job["at"], job["n_workers"]
        if sender not in nodes:
            _fail(f"{path}.sender", f"unknown node {sender!r}")
        _int(at, f"{path}.at", maximum=horizon)
        # Job ids are sender:sequence and sequence follows submission time,
        # so the list must already be in time order.
        if at < last_at:
            _fail(f"{path}.at", f"jobs must be listed in non-decreasing time order")
        last_at = at
        pipeline = pipelines.get(job["pipeline"])
        if pipeline is None:
            _fail(f"{path}.pipeline", f"unknown pipeline {job['pipeline']!r}")
        for stage in (pipeline.source, *pipeline.serving, pipeline.business):
            if isinstance(stage.params, tuple) and len(stage.params) != n_workers:
                _fail(
                    f"{path}.pipeline",
                    f"plugin {stage.kind!r} has {len(stage.params)} parameter sets "
                    f"for {n_workers} workers",
                )
        cancel_at = job["cancel_at"]
        if cancel_at is not None:
            _int(cancel_at, f"{path}.cancel_at", maximum=horizon)
            if cancel_at <= at:
                _fail(f"{path}.cancel_at", f"must be after submission time {at}")
        first: dict[tuple[int, int], int] = {}  # (worker, step) -> its fault's index
        for j, fault in enumerate(job["faults"]):
            if fault.worker_index >= n_workers:
                _fail(f"{path}.faults[{j}].worker_index", f"must be < n_workers ({n_workers})")
            if fault.step > job["steps"]:
                _fail(f"{path}.faults[{j}].step", f"must be <= steps ({job['steps']})")
            k = first.setdefault((fault.worker_index, fault.step), j)
            if k != j:
                _fail(f"{path}.faults[{j}]", f"worker {fault.worker_index} already has a fault "
                      f"at step {fault.step} (faults[{k}])")
        job_seq[sender] = job_seq.get(sender, 0) + 1
        jobs.append(JobSpec(job_id=f"{sender}:{job_seq[sender]}", **dict(job, pipeline=pipeline)))

    job_ids = {job.job_id for job in jobs}
    challenges: list[ChallengeSpec] = []
    for i, challenge in enumerate(root["challenges"]):
        path = f"challenges[{i}]"
        challenger, job_id, votes = challenge["challenger"], challenge.pop("job"), challenge["votes"]
        if challenger not in nodes:
            _fail(f"{path}.challenger", f"unknown node {challenger!r}")
        if job_id not in job_ids:
            _fail(f"{path}.job", f"no scenario job produces key {job_id!r}")
        if len(votes) != JURY_SIZE:
            _fail(f"{path}.votes", f"need one vote per juror: {JURY_SIZE}, got {len(votes)}")
        _int(challenge["at"], f"{path}.at", maximum=horizon)
        challenges.append(ChallengeSpec(job_id=job_id, **challenge))

    return Scenario(
        **dict(root, nodes=tuple(nodes.values()), jobs=tuple(jobs), challenges=tuple(challenges)),
        raw=data,
    )


# Deepest collection nesting a scenario may hold, an alias counted as what it
# repeats; the shipped ones hold 6. PyYAML's composer recurses, in C or Python.
MAX_DEPTH = 64


def _check_depth(text: str, path: Path, loader) -> None:
    heights: dict[str | None, int] = {}  # anchor -> levels its node nests
    stack = [[None, 0]]  # per open collection: its anchor, its tallest child
    for event in yaml.parse(text, Loader=loader):  # the event parser iterates
        if isinstance(event, yaml.CollectionStartEvent):
            stack.append([event.anchor, 0])
        elif isinstance(event, yaml.CollectionEndEvent):
            anchor, tallest = stack.pop()
            heights[anchor] = tallest + 1
            stack[-1][1] = max(stack[-1][1], tallest + 1)
        elif isinstance(event, yaml.AliasEvent):
            stack[-1][1] = max(stack[-1][1], heights.get(event.anchor, 0))
        if len(stack) - 1 + stack[-1][1] > MAX_DEPTH:
            raise ScenarioError(f"{path}: collections nest deeper than {MAX_DEPTH} levels")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    # libyaml's parser when PyYAML was built with it: same results, ~7x faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        _check_depth(text, path, loader)
        data = yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:  # PyYAML's constructors raise ValueError
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from None
    return parse_scenario(data, str(path))
