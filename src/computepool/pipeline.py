"""Worker pipeline runtime: sources, serving stubs, business folds, vetting.

A pipeline is source -> zero or more serving stubs -> one business fold, with
per-worker parameter sets. User-supplied business logic is a small arithmetic
expression language parsed with `ast` against a node whitelist; it is never
handed to eval. Before any user code runs it must pass a static safety vet
(token-class deny policy over the raw source) and a hash-plus-signature
recheck at every hop that moves the code between parties.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field

from .crypto import Signer, digest, verify
from .encoding import encode


class PipelineError(Exception):
    pass


class ExpressionError(PipelineError):
    pass


SOURCE_KINDS = ("counter", "hashnoise", "constant")
SERVING_KINDS = ("identity", "running_sum", "moving_average", "threshold")
BUSINESS_KINDS = ("sum", "max", "expr")


# -- static safety vetting -------------------------------------------------------

_FILESYSTEM_TOKENS = frozenset(
    {"open", "os", "pathlib", "shutil", "tempfile", "glob", "io", "fileinput"}
)
_PROCESS_TOKENS = frozenset(
    {"subprocess", "multiprocessing", "popen", "system", "fork", "spawn", "kill", "signal"}
)
_NETWORK_TOKENS = frozenset(
    {"socket", "urllib", "http", "requests", "ftplib", "smtplib", "asyncio", "ssl"}
)
_REFLECTIVE_TOKENS = frozenset(
    {
        "eval",
        "exec",
        "compile",
        "__import__",
        "getattr",
        "setattr",
        "delattr",
        "globals",
        "locals",
        "vars",
        "type",
        "super",
        "breakpoint",
        "input",
        "memoryview",
        "ctypes",
    }
)

_TOKEN_CLASSES = (
    ("filesystem", _FILESYSTEM_TOKENS),
    ("process control", _PROCESS_TOKENS),
    ("network", _NETWORK_TOKENS),
    ("reflective evaluation", _REFLECTIVE_TOKENS),
)


@dataclass(frozen=True)
class SafetyPolicy:
    max_source_bytes: int = 4096
    max_tokens: int = 512
    import_allowlist: tuple[str, ...] = ("math",)

    @classmethod
    def from_config(cls, cfg: dict) -> "SafetyPolicy":
        unknown = set(cfg) - {"max_source_bytes", "max_tokens", "import_allowlist"}
        if unknown:
            raise PipelineError(f"unknown safety policy keys: {sorted(unknown)}")
        return cls(
            max_source_bytes=int(cfg.get("max_source_bytes", 4096)),
            max_tokens=int(cfg.get("max_tokens", 512)),
            import_allowlist=tuple(cfg.get("import_allowlist", ("math",))),
        )


@dataclass(frozen=True)
class SafetyVerdict:
    safe: bool
    reasons: tuple[str, ...] = ()


def safety_check(source: str, policy: SafetyPolicy = SafetyPolicy()) -> SafetyVerdict:
    """Static vet of plugin source. Collects every violation, never executes.

    The check is a deny policy over token classes, so it is deterministic and
    conservative: anything it cannot tokenize is unsafe.
    """
    reasons: list[str] = []
    raw = source.encode("utf-8")
    if len(raw) > policy.max_source_bytes:
        reasons.append(
            f"source is {len(raw)} bytes, policy allows {policy.max_source_bytes}"
        )
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError) as exc:
        reasons.append(f"source does not tokenize: {exc}")
        return SafetyVerdict(False, tuple(reasons))
    significant = [
        t for t in tokens
        if t.type not in (tokenize.ENCODING, tokenize.NEWLINE, tokenize.NL, tokenize.ENDMARKER)
    ]
    if len(significant) > policy.max_tokens:
        reasons.append(
            f"source has {len(significant)} tokens, policy allows {policy.max_tokens}"
        )
    allowed_import_root: bool = False
    error_lines: set[int] = set()
    for pos, tok in enumerate(significant):
        if tok.type == tokenize.ERRORTOKEN:
            # older tokenizers emit error tokens instead of raising
            if tok.start[0] not in error_lines:
                error_lines.add(tok.start[0])
                reasons.append(f"line {tok.start[0]}: source does not lex cleanly")
            continue
        if tok.type != tokenize.NAME:
            continue
        word = tok.string
        line = tok.start[0]
        if word in ("import", "from"):
            root = None
            for later in significant[pos + 1:]:
                if later.type == tokenize.NAME and later.string not in ("import",):
                    root = later.string
                    break
            if word == "import" and allowed_import_root:
                allowed_import_root = False  # `from X import Y` with allowed X
                continue
            if root is not None and root in policy.import_allowlist:
                if word == "from":
                    allowed_import_root = True
                continue
            reasons.append(
                f"line {line}: import of {root!r} is outside the allowlist"
                if root is not None
                else f"line {line}: bare {word} statement"
            )
            continue
        for label, deny in _TOKEN_CLASSES:
            if word in deny:
                reasons.append(f"line {line}: {label} token {word!r}")
        if word.startswith("__") and word.endswith("__") and len(word) > 4:
            reasons.append(f"line {line}: dunder access {word!r}")
    return SafetyVerdict(not reasons, tuple(reasons))


# -- signed plugin code -----------------------------------------------------------


def plugin_signing_bytes(author: str, code_hash: bytes) -> bytes:
    return encode(["plugin-code", author, code_hash])


@dataclass(frozen=True)
class PluginCode:
    source: str
    code_hash: bytes
    author: str
    signature: bytes


def make_plugin_code(source: str, author: str, signer: Signer) -> PluginCode:
    code_hash = digest(source.encode("utf-8"))
    return PluginCode(
        source=source,
        code_hash=code_hash,
        author=author,
        signature=signer.sign(plugin_signing_bytes(author, code_hash)),
    )


def hash_sign_recheck(code: PluginCode, verify_key: bytes) -> tuple[bool, str | None]:
    """Re-derive the hash and re-verify the author signature at a hop."""
    actual = digest(code.source.encode("utf-8"))
    if actual != code.code_hash:
        return False, "plugin source does not match its committed hash"
    if not verify(verify_key, plugin_signing_bytes(code.author, code.code_hash), code.signature):
        return False, f"plugin signature by {code.author} is invalid"
    return True, None


# -- expression language -----------------------------------------------------------

_ALLOWED_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}
_ALLOWED_COMPARES = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}
_ALLOWED_CALLS = {"min": min, "max": max, "abs": abs, "round": round}


class Expression:
    """Arithmetic expression over named variables, parsed once, never eval'd."""

    def __init__(self, source: str):
        self.source = source
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"expression does not parse: {exc}") from None
        self._validate(tree.body)
        self._tree = tree.body

    def _validate(self, node: ast.AST) -> None:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, bool)):
                raise ExpressionError(
                    f"literal of type {type(node.value).__name__} is not allowed"
                )
            return
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Load):
                raise ExpressionError("names may only be read")
            return
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise ExpressionError(f"operator {type(node.op).__name__} is not allowed")
            self._validate(node.left)
            self._validate(node.right)
            return
        if isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.UAdd, ast.USub, ast.Not)):
                raise ExpressionError(f"operator {type(node.op).__name__} is not allowed")
            self._validate(node.operand)
            return
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._validate(value)
            return
        if isinstance(node, ast.Compare):
            for op in node.ops:
                if type(op) not in _ALLOWED_COMPARES:
                    raise ExpressionError(f"comparison {type(op).__name__} is not allowed")
            self._validate(node.left)
            for comp in node.comparators:
                self._validate(comp)
            return
        if isinstance(node, ast.IfExp):
            self._validate(node.test)
            self._validate(node.body)
            self._validate(node.orelse)
            return
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _ALLOWED_CALLS
                or node.keywords
            ):
                raise ExpressionError("only min/max/abs/round calls are allowed")
            for arg in node.args:
                self._validate(arg)
            return
        raise ExpressionError(f"syntax {type(node).__name__} is not allowed")

    def evaluate(self, env: dict[str, float]) -> float:
        try:
            return self._eval(self._tree, env)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ExpressionError(f"expression failed: {exc}") from None

    def _eval(self, node: ast.AST, env: dict[str, float]):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            try:
                return env[node.id]
            except KeyError:
                raise ExpressionError(f"unknown variable {node.id!r}") from None
        if isinstance(node, ast.BinOp):
            op = _ALLOWED_BINOPS[type(node.op)]
            return op(self._eval(node.left, env), self._eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            value = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                return -value
            if isinstance(node.op, ast.UAdd):
                return +value
            return not value
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                result = True
                for child in node.values:
                    result = self._eval(child, env)
                    if not result:
                        return result
                return result
            result = False
            for child in node.values:
                result = self._eval(child, env)
                if result:
                    return result
            return result
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            for op, comp in zip(node.ops, node.comparators):
                right = self._eval(comp, env)
                if not _ALLOWED_COMPARES[type(op)](left, right):
                    return False
                left = right
            return True
        if isinstance(node, ast.IfExp):
            branch = node.body if self._eval(node.test, env) else node.orelse
            return self._eval(branch, env)
        if isinstance(node, ast.Call):
            fn = _ALLOWED_CALLS[node.func.id]  # type: ignore[union-attr]
            return fn(*(self._eval(a, env) for a in node.args))
        raise ExpressionError(f"syntax {type(node).__name__} is not allowed")


# -- pipeline plan ------------------------------------------------------------------


@dataclass(frozen=True)
class StagePlan:
    stage: str
    kind: str
    per_worker_params: tuple[dict, ...]

    def params_for(self, worker_index: int) -> dict:
        return self.per_worker_params[worker_index]


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    n_workers: int
    source: StagePlan
    serving: tuple[StagePlan, ...]
    business: StagePlan


def _resolve_stage(stage: str, cfg: dict, n_workers: int, kinds: tuple[str, ...]) -> StagePlan:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise PipelineError(f"{stage} stage needs a mapping with a 'kind'")
    kind = cfg["kind"]
    if kind not in kinds:
        raise PipelineError(f"unknown {stage} plugin {kind!r}")
    params = cfg.get("params", {})
    if isinstance(params, list):
        if len(params) != n_workers:
            raise PipelineError(
                f"{stage} plugin {kind!r} has {len(params)} parameter sets "
                f"for {n_workers} workers"
            )
        per_worker = tuple(dict(p) for p in params)
    elif isinstance(params, dict):
        per_worker = tuple(dict(params) for _ in range(n_workers))
    else:
        raise PipelineError(f"{stage} params must be a mapping or a per-worker list")
    _validate_params(stage, kind, per_worker)
    return StagePlan(stage=stage, kind=kind, per_worker_params=per_worker)


def _validate_params(stage: str, kind: str, per_worker: tuple[dict, ...]) -> None:
    for i, params in enumerate(per_worker):
        if kind == "constant" and "value" not in params:
            raise PipelineError(f"constant source (worker {i}) needs a 'value'")
        if kind == "moving_average":
            window = params.get("window", 0)
            if not isinstance(window, int) or window < 1:
                raise PipelineError(
                    f"moving_average (worker {i}) needs an integer window >= 1"
                )
        if kind == "threshold" and "limit" not in params:
            raise PipelineError(f"threshold stub (worker {i}) needs a 'limit'")
        if kind == "expr":
            expr = params.get("expr")
            if not isinstance(expr, str) or not expr.strip():
                raise PipelineError(f"expr business (worker {i}) needs an 'expr' string")
            try:
                Expression(expr)
            except ExpressionError as exc:
                raise PipelineError(f"expr business (worker {i}): {exc}") from None


def parse_pipeline(name: str, cfg: dict, n_workers: int) -> PipelineSpec:
    if n_workers < 1:
        raise PipelineError("pipeline needs at least one worker")
    unknown = set(cfg) - {"source", "serving", "business"}
    if unknown:
        raise PipelineError(f"pipeline {name!r} has unknown stages: {sorted(unknown)}")
    if "source" not in cfg or "business" not in cfg:
        raise PipelineError(f"pipeline {name!r} needs 'source' and 'business' stages")
    serving_cfg = cfg.get("serving", [])
    if not isinstance(serving_cfg, list):
        raise PipelineError("serving must be a list of stubs")
    return PipelineSpec(
        name=name,
        n_workers=n_workers,
        source=_resolve_stage("source", cfg["source"], n_workers, SOURCE_KINDS),
        serving=tuple(
            _resolve_stage("serving", s, n_workers, SERVING_KINDS) for s in serving_cfg
        ),
        business=_resolve_stage("business", cfg["business"], n_workers, BUSINESS_KINDS),
    )


# -- execution ----------------------------------------------------------------------


def _source_value(kind: str, params: dict, worker_index: int, step: int) -> float:
    if kind == "counter":
        return float(params.get("start", 0)) + (step - 1) * float(params.get("stride", 1))
    if kind == "hashnoise":
        label = str(params.get("label", "noise"))
        h = digest(encode([label, worker_index, step]))
        return int.from_bytes(h[:8], "big") / 2**64
    if kind == "constant":
        return float(params["value"])
    raise PipelineError(f"unknown source plugin {kind!r}")


class _ServingStub:
    def __init__(self, kind: str, params: dict):
        self.kind = kind
        self.params = params
        self.total = 0.0
        self.window: list[float] = []

    def apply(self, value: float) -> float:
        if self.kind == "identity":
            return value
        if self.kind == "running_sum":
            self.total += value
            return self.total
        if self.kind == "moving_average":
            self.window.append(value)
            size = int(self.params["window"])
            if len(self.window) > size:
                del self.window[0]
            return sum(self.window) / len(self.window)
        if self.kind == "threshold":
            return 1.0 if value >= float(self.params["limit"]) else 0.0
        raise PipelineError(f"unknown serving plugin {self.kind!r}")


class _BusinessFold:
    def __init__(self, kind: str, params: dict):
        self.kind = kind
        self.params = params
        if kind == "sum":
            self.acc: float = float(params.get("init", 0.0))
        elif kind == "max":
            self.acc = float(params.get("init", float("-inf")))
        elif kind == "expr":
            self.acc = float(params.get("init", 0.0))
            self.expression = Expression(params["expr"])
        else:
            raise PipelineError(f"unknown business plugin {kind!r}")

    def fold(self, value: float, step: int, worker_index: int) -> float:
        if self.kind == "sum":
            self.acc += value
        elif self.kind == "max":
            self.acc = max(self.acc, value)
        else:
            result = self.expression.evaluate(
                {"x": value, "acc": self.acc, "step": step, "worker": worker_index}
            )
            try:
                self.acc = float(result)
            except OverflowError as exc:  # an int result past the float range
                raise ExpressionError(f"expression failed: {exc}") from None
        return self.acc


@dataclass(frozen=True)
class StepResult:
    step: int
    value: float
    acc: float
    payload: bytes
    nonce: bytes


@dataclass
class PipelineRun:
    """One worker's live pipeline: deterministic state machine over steps."""

    spec: PipelineSpec
    worker_index: int
    steps_done: int = 0
    _serving: list[_ServingStub] = field(default_factory=list, init=False)
    _business: _BusinessFold | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.worker_index < self.spec.n_workers:
            raise PipelineError(
                f"worker index {self.worker_index} outside 0..{self.spec.n_workers - 1}"
            )
        self._serving = [
            _ServingStub(plan.kind, plan.params_for(self.worker_index))
            for plan in self.spec.serving
        ]
        self._business = _BusinessFold(
            self.spec.business.kind, self.spec.business.params_for(self.worker_index)
        )

    def step(self) -> StepResult:
        self.steps_done += 1
        step = self.steps_done
        value = _source_value(
            self.spec.source.kind,
            self.spec.source.params_for(self.worker_index),
            self.worker_index,
            step,
        )
        for stub in self._serving:
            value = stub.apply(value)
        assert self._business is not None
        acc = self._business.fold(value, step, self.worker_index)
        return StepResult(
            step=step,
            value=value,
            acc=acc,
            payload=encode(acc),
            nonce=digest(encode([self.worker_index, step, acc])),
        )

    @property
    def acc(self) -> float:
        assert self._business is not None
        return self._business.acc

    def result_payload(self) -> bytes:
        return encode(["job-result", self.worker_index, self.acc])
