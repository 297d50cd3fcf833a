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


def _check_keys(value: dict, path: str, required: set[str], optional: set[str]) -> None:
    missing = required - set(value)
    if missing:
        _fail(path, f"missing required keys: {sorted(missing)}")
    unknown = set(value) - required - optional
    if unknown:
        _fail(path, f"unknown keys: {sorted(unknown, key=str)}")


def _expression(value, path: str) -> Expression:
    try:
        return Expression(_string(value, path))
    except ExpressionError as exc:
        _fail(path, str(exc))


# How `_fields` reads a value, by the type of its rule; an int is a count >= 1.
_READERS = {
    bool: _bool,
    int: lambda value, path: _int(value, path, minimum=1),
    float: _number,
    str: _string,
    Expression: _expression,
}


def _fields(value, path: str, rules: dict) -> dict:
    """Read a mapping by its rules: each rule is the field's default, or the
    type of a value the field requires. Defaults are filled in unread."""
    cfg = _mapping(value, path)
    required = {key for key, rule in rules.items() if isinstance(rule, type)}
    _check_keys(cfg, path, required, set(rules) - required)
    fields = dict(rules)
    for key in cfg:
        rule = rules[key]
        read = _READERS[rule if key in required else type(rule)]
        fields[key] = read(cfg[key], f"{path}.{key}")
    return fields


_CAPABILITY = {f.name: f.default for f in dataclasses.fields(Capability)}


def _capability(value, path: str) -> Capability:
    cap = Capability(**_fields(value, path, _CAPABILITY))
    if cap.cpu < 0 or cap.gpu_units < 0 or cap.memory < 0:
        _fail(path, "capability components must be non-negative")
    return cap


def _stage(value, path: str, table: dict) -> StagePlan:
    cfg = _mapping(value, path)
    _check_keys(cfg, path, {"kind"}, {"params"})
    kind = cfg["kind"]
    plugin = table.get(kind) if isinstance(kind, str) else None
    if plugin is None:
        _fail(f"{path}.kind", f"unknown plugin {_show(kind)}")
    factory, rules = plugin
    params = cfg.get("params", {})
    if isinstance(params, list):  # one set per worker
        params = tuple(_fields(p, f"{path}.params[{i}]", rules) for i, p in enumerate(params))
    else:
        params = _fields(params, f"{path}.params", rules)
    return StagePlan(kind=kind, factory=factory, params=params)


def _pipeline(name: str, value, path: str) -> PipelineSpec:
    cfg = _mapping(value, path)
    _check_keys(cfg, path, {"source", "business"}, {"serving"})
    serving = _sequence(cfg.get("serving", []), f"{path}.serving")
    return PipelineSpec(
        name=name,
        source=_stage(cfg["source"], f"{path}.source", SOURCES),
        serving=tuple(_stage(s, f"{path}.serving[{i}]", SERVING) for i, s in enumerate(serving)),
        business=_stage(cfg["business"], f"{path}.business", BUSINESS),
    )


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


_TOP_KEYS_REQUIRED = {"name", "seed", "epochs", "epoch_seconds", "regions", "nodes", "pipelines", "jobs"}
_TOP_KEYS_OPTIONAL = {"heartbeat_seconds", "review_lock_seconds", "challenges"}


def _refuse_long_ints(value, path: str, seen: set[int]) -> None:
    """Refuse an integer with more digits than `str()` prints (Python's
    `int_max_str_digits`) at its path, before any reader formats it. Each
    collection is walked once, however many aliases repeat it."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            _fail(path, f"integer has more than {sys.get_int_max_str_digits()} digits")
    elif isinstance(value, (dict, list)) and id(value) not in seen:
        seen.add(id(value))
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _refuse_long_ints(key, f"{path or 'scenario'} (key)", seen)
            inner = (f"{path}.{key}" if path else key) if isinstance(key, str) else f"{path}[{key!r}]"
            _refuse_long_ints(item, inner, seen)


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    root = _mapping(data, source)
    _refuse_long_ints(root, "", set())
    _check_keys(root, source, _TOP_KEYS_REQUIRED, _TOP_KEYS_OPTIONAL)

    name = _string(root["name"], "name")
    seed = parse_seed(root["seed"], "seed")
    epochs = _int(root["epochs"], "epochs", minimum=1)
    epoch_seconds = _int(root["epoch_seconds"], "epoch_seconds", minimum=1)
    horizon = epochs * epoch_seconds  # nothing runs after it
    heartbeat = _int(
        root.get("heartbeat_seconds", max(1, epoch_seconds // 100)),
        "heartbeat_seconds",
        minimum=1,
    )
    review_lock = _int(root.get("review_lock_seconds", 86400), "review_lock_seconds", minimum=1)

    regions: dict[str, RegionSpec] = {}
    for rname, rcfg in _mapping(root["regions"], "regions").items():
        _string(rname, "regions (key)")
        path = f"regions.{rname}"
        cfg = _mapping(rcfg, path)
        _check_keys(cfg, path, set(), {"intra_latency_ms", "inter_latency_ms", "drop_rate"})
        drop = _number(cfg.get("drop_rate", 0.0), f"{path}.drop_rate")
        if not 0.0 <= drop < 1.0:
            _fail(f"{path}.drop_rate", f"must be in [0, 1), got {drop}")
        regions[rname] = RegionSpec(
            intra_latency_ms=_int(cfg.get("intra_latency_ms", 1), f"{path}.intra_latency_ms", 0),
            inter_latency_ms=_int(cfg.get("inter_latency_ms", 10), f"{path}.inter_latency_ms", 0),
            drop_rate=drop,
        )
    if not regions:
        _fail("regions", "at least one region is required")

    nodes: list[NodeSpec] = []
    seen_ids: set[str] = set()
    for i, ncfg in enumerate(_sequence(root["nodes"], "nodes")):
        path = f"nodes[{i}]"
        cfg = _mapping(ncfg, path)
        _check_keys(cfg, path, {"id", "region"}, {"balance", "capability", "power", "downtime"})
        node_id = _string(cfg["id"], f"{path}.id")
        if node_id == COORDINATOR_ID:
            _fail(f"{path}.id", f"{COORDINATOR_ID!r} is reserved for the pool coordinator")
        if node_id in seen_ids:
            _fail(f"{path}.id", f"duplicate node id {node_id!r}")
        seen_ids.add(node_id)
        region = _string(cfg["region"], f"{path}.region")
        if region not in regions:
            _fail(f"{path}.region", f"unknown region {region!r}")
        power_cfg = cfg.get("power", 0.0)
        power: dict[int, float] = {}
        if isinstance(power_cfg, dict):
            for k, v in power_cfg.items():
                epoch = _int(k, f"{path}.power[{k!r}]", minimum=0)
                power[epoch] = _number(v, f"{path}.power[{k!r}]")
        else:
            power[0] = _number(power_cfg, f"{path}.power")
        downtime: list[DowntimeSpec] = []
        for j, dcfg in enumerate(_sequence(cfg.get("downtime", []), f"{path}.downtime")):
            dpath = f"{path}.downtime[{j}]"
            d = _mapping(dcfg, dpath)
            _check_keys(d, dpath, {"from", "to"}, set())
            start = _int(d["from"], f"{dpath}.from", minimum=0)
            end = _int(d["to"], f"{dpath}.to", minimum=1)
            if end <= start:
                _fail(dpath, f"'to' ({end}) must be after 'from' ({start})")
            downtime.append(DowntimeSpec(start, end))
        order = sorted(range(len(downtime)), key=lambda j: downtime[j].start)
        for prev, j in zip(order, order[1:]):
            if downtime[j].start < downtime[prev].end:
                _fail(f"{path}.downtime[{j}]", f"starts before downtime[{prev}] ends at {downtime[prev].end}")
        nodes.append(
            NodeSpec(
                node_id=node_id,
                region=region,
                balance=_fraction(cfg.get("balance", 0), f"{path}.balance"),
                capability=_capability(cfg.get("capability", {}), f"{path}.capability"),
                power=power,
                downtime=tuple(downtime[j] for j in order),
            )
        )
    if not nodes:
        _fail("nodes", "at least one node is required")
    node_ids = {n.node_id for n in nodes}

    pipelines = {
        _string(pname, "pipelines (key)"): _pipeline(pname, pcfg, f"pipelines.{pname}")
        for pname, pcfg in _mapping(root["pipelines"], "pipelines").items()
    }

    jobs: list[JobSpec] = []
    job_seq: dict[str, int] = {}
    last_at = 0
    for i, jcfg in enumerate(_sequence(root["jobs"], "jobs")):
        path = f"jobs[{i}]"
        cfg = _mapping(jcfg, path)
        _check_keys(
            cfg,
            path,
            {"sender", "at", "reward", "pipeline", "n_workers", "steps"},
            {"requirement", "cancel_at", "review_verdict", "faults"},
        )
        sender = _string(cfg["sender"], f"{path}.sender")
        if sender not in node_ids:
            _fail(f"{path}.sender", f"unknown node {sender!r}")
        at = _int(cfg["at"], f"{path}.at", minimum=0, maximum=horizon)
        # Job ids are sender:sequence and sequence follows submission time,
        # so the list must already be in time order.
        if at < last_at:
            _fail(f"{path}.at", f"jobs must be listed in non-decreasing time order")
        last_at = at
        n_workers = _int(cfg["n_workers"], f"{path}.n_workers", minimum=1)
        steps = _int(cfg["steps"], f"{path}.steps", minimum=1)
        pipeline_name = _string(cfg["pipeline"], f"{path}.pipeline")
        pipeline = pipelines.get(pipeline_name)
        if pipeline is None:
            _fail(f"{path}.pipeline", f"unknown pipeline {pipeline_name!r}")
        for stage in (pipeline.source, *pipeline.serving, pipeline.business):
            if isinstance(stage.params, tuple) and len(stage.params) != n_workers:
                _fail(
                    f"{path}.pipeline",
                    f"plugin {stage.kind!r} has {len(stage.params)} parameter sets "
                    f"for {n_workers} workers",
                )
        cancel_at = None
        if "cancel_at" in cfg:
            cancel_at = _int(cfg["cancel_at"], f"{path}.cancel_at", minimum=0, maximum=horizon)
            if cancel_at <= at:
                _fail(f"{path}.cancel_at", f"must be after submission time {at}")
        review_verdict = cfg.get("review_verdict", "valid")
        if review_verdict not in ("valid", "invalid"):
            _fail(f"{path}.review_verdict", f"must be 'valid' or 'invalid', got {_show(review_verdict)}")
        faults: list[FaultSpec] = []
        for j, fcfg in enumerate(_sequence(cfg.get("faults", []), f"{path}.faults")):
            fpath = f"{path}.faults[{j}]"
            f = _mapping(fcfg, fpath)
            _check_keys(f, fpath, {"worker_index", "step", "kind"}, set())
            widx = _int(f["worker_index"], f"{fpath}.worker_index", minimum=0)
            if widx >= n_workers:
                _fail(f"{fpath}.worker_index", f"must be < n_workers ({n_workers})")
            fstep = _int(f["step"], f"{fpath}.step", minimum=1)
            if fstep > steps:
                _fail(f"{fpath}.step", f"must be <= steps ({steps})")
            kind = f["kind"]
            if kind not in ("replay", "forge"):
                _fail(f"{fpath}.kind", f"must be 'replay' or 'forge', got {_show(kind)}")
            faults.append(FaultSpec(widx, fstep, kind))
        job_seq[sender] = job_seq.get(sender, 0) + 1
        jobs.append(
            JobSpec(
                job_id=f"{sender}:{job_seq[sender]}",
                sender=sender,
                at=at,
                reward=_fraction(cfg["reward"], f"{path}.reward", positive=True),
                pipeline=pipeline,
                n_workers=n_workers,
                steps=steps,
                requirement=_capability(cfg.get("requirement", {}), f"{path}.requirement"),
                cancel_at=cancel_at,
                review_verdict=review_verdict,
                faults=tuple(faults),
            )
        )

    job_ids = {job.job_id for job in jobs}
    challenges: list[ChallengeSpec] = []
    for i, ccfg in enumerate(_sequence(root.get("challenges", []), "challenges")):
        path = f"challenges[{i}]"
        cfg = _mapping(ccfg, path)
        _check_keys(cfg, path, {"at", "challenger", "job", "votes"}, {"bond"})
        challenger = _string(cfg["challenger"], f"{path}.challenger")
        if challenger not in node_ids:
            _fail(f"{path}.challenger", f"unknown node {challenger!r}")
        job_id = _string(cfg["job"], f"{path}.job")
        if job_id not in job_ids:
            _fail(f"{path}.job", f"no scenario job produces key {job_id!r}")
        votes = _sequence(cfg["votes"], f"{path}.votes")
        if not all(isinstance(v, bool) for v in votes):
            _fail(f"{path}.votes", "votes must be booleans (true = uphold)")
        if len(votes) != JURY_SIZE:
            _fail(f"{path}.votes", f"need one vote per juror: {JURY_SIZE}, got {len(votes)}")
        bond = _fraction(cfg["bond"], f"{path}.bond", positive=True) if "bond" in cfg else None
        challenges.append(
            ChallengeSpec(
                at=_int(cfg["at"], f"{path}.at", minimum=0, maximum=horizon),
                challenger=challenger,
                job_id=job_id,
                bond=bond,
                votes=tuple(votes),
            )
        )

    return Scenario(
        name=name,
        seed=seed,
        epochs=epochs,
        epoch_seconds=epoch_seconds,
        heartbeat_seconds=heartbeat,
        review_lock_seconds=review_lock,
        regions=regions,
        nodes=tuple(nodes),
        jobs=tuple(jobs),
        challenges=tuple(challenges),
        raw=root,
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
