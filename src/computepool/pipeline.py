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
import math
import operator
import sys
import tokenize
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .crypto import Signer, digest, verify
from .encoding import encode


class ExpressionError(Exception):
    pass


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


# Fixed for every run: no scenario can loosen the check.
MAX_SOURCE_BYTES = 4096
MAX_TOKENS = 512
IMPORT_ALLOWLIST = ("math",)  # module roots an `import` may name


@dataclass(frozen=True)
class SafetyVerdict:
    safe: bool
    reasons: tuple[str, ...] = ()


def _import_roots(tokens: list, start: int, every: bool) -> list[str]:
    """The first name after an `import` or `from` keyword and, with `every`, after
    each comma up to the statement's end: `import a.b as c, d` names `a`, `d`."""
    roots, wanted = [], True
    for tok in tokens[start:]:
        if tok.type == tokenize.NEWLINE or tok.exact_type == tokenize.SEMI:
            break
        if every and tok.exact_type == tokenize.COMMA:
            wanted = True
        elif wanted and tok.type == tokenize.NAME and tok.string != "import":
            roots.append(tok.string)
            wanted = False
    return roots


def safety_check(source: str) -> SafetyVerdict:
    """Static vet of plugin source. Collects every violation, never executes.

    The check is a deny policy over token classes, so it is deterministic and
    conservative: anything it cannot tokenize is unsafe.
    """
    reasons: list[str] = []
    raw = source.encode("utf-8")
    if len(raw) > MAX_SOURCE_BYTES:
        reasons.append(f"source is {len(raw)} bytes, policy allows {MAX_SOURCE_BYTES}")
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError) as exc:
        reasons.append(f"source does not tokenize: {exc}")
        return SafetyVerdict(False, tuple(reasons))
    significant = [
        t for t in tokens
        if t.type not in (tokenize.ENCODING, tokenize.NEWLINE, tokenize.NL, tokenize.ENDMARKER)
    ]
    if len(significant) > MAX_TOKENS:
        reasons.append(f"source has {len(significant)} tokens, policy allows {MAX_TOKENS}")
    in_from = False  # inside a `from X import ...` statement, which checks X only
    error_lines: set[int] = set()
    for pos, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE or tok.exact_type == tokenize.SEMI:
            in_from = False
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
            if word == "import" and in_from:
                continue
            in_from = word == "from"
            roots = _import_roots(tokens, pos + 1, every=word == "import")
            if not roots:
                reasons.append(f"line {line}: bare {word} statement")
            bad = [root for root in roots if root not in IMPORT_ALLOWLIST]
            reasons.extend(f"line {line}: import of {root!r} is outside the allowlist" for root in bad)
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

# `**` takes a whole exponent and gives the same bits on every machine. An int
# to an int power >= 0 is exact, but a result of 2 ** max_exp or more cannot
# become the float accumulator, so it fails before it is built: `10 ** 10 **
# 10` would take billions of digits. Any other power is a float, raised by
# repeated squaring rather than by libm's `pow`.
_POW_LIMIT_BITS = sys.float_info.max_exp


def _pow(base, exp):
    if isinstance(exp, float) and not exp.is_integer():
        raise ExpressionError(f"expression failed: exponent {exp!r} is not a whole number")
    if isinstance(base, int) and isinstance(exp, int) and exp >= 0:
        # |base| ** exp >= 2 ** ((bit_length - 1) * exp), so that bound refuses
        # the huge powers unbuilt; what passes has under 2 * max_exp bits.
        if (abs(base).bit_length() - 1) * exp < _POW_LIMIT_BITS:
            result = base ** exp
            if abs(result).bit_length() <= _POW_LIMIT_BITS:
                return result
        raise ExpressionError(f"expression failed: integer power reaches 2 ** {_POW_LIMIT_BITS}")
    result, square, n = 1.0, float(base), abs(int(exp))
    while n:
        if n & 1:
            result *= square
        square *= square
        n >>= 1
    if exp < 0:
        result = 1.0 / result
    if math.isinf(result) and math.isfinite(base):
        raise ExpressionError("expression failed: float power overflows")
    return result


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: _pow,
}
_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Not: operator.not_}
_COMPARES = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}
_CALLS = {"min": min, "max": max, "abs": abs, "round": round}


def _lookup(table: dict, op: ast.AST, what: str):
    try:
        return table[type(op)]
    except KeyError:
        raise ExpressionError(f"{what} {type(op).__name__} is not allowed") from None


def _compile(node: ast.AST) -> Callable[[dict], object]:
    """Check one node against the whitelist and return its `env -> value`."""
    if isinstance(node, ast.Constant):
        value = node.value
        if not isinstance(value, (int, float, bool)):
            raise ExpressionError(f"literal of type {type(value).__name__} is not allowed")
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id

        def load(env):
            try:
                return env[name]
            except KeyError:
                raise ExpressionError(f"unknown variable {name!r}") from None

        return load
    if isinstance(node, ast.BinOp):
        binop = _lookup(_BINOPS, node.op, "operator")
        left, right = _compile(node.left), _compile(node.right)
        return lambda env: binop(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        unop = _lookup(_UNARYOPS, node.op, "operator")
        operand = _compile(node.operand)
        return lambda env: unop(operand(env))
    if isinstance(node, ast.BoolOp):
        stop = isinstance(node.op, ast.Or)  # `or` stops at a truthy value, `and` at a falsy one
        *heads, last = [_compile(value) for value in node.values]

        def short_circuit(env):
            for part in heads:
                value = part(env)
                if bool(value) is stop:
                    return value
            return last(env)

        return short_circuit
    if isinstance(node, ast.Compare):
        ops = [_lookup(_COMPARES, op, "comparison") for op in node.ops]
        first = _compile(node.left)
        links = list(zip(ops, [_compile(comp) for comp in node.comparators]))

        def chain(env):
            left = first(env)
            for compare, comparator in links:
                right = comparator(env)
                if not compare(left, right):
                    return False
                left = right
            return True

        return chain
    if isinstance(node, ast.IfExp):
        test, body, orelse = _compile(node.test), _compile(node.body), _compile(node.orelse)
        return lambda env: body(env) if test(env) else orelse(env)
    if isinstance(node, ast.Call):
        fn = _CALLS.get(node.func.id) if isinstance(node.func, ast.Name) else None
        if fn is None or node.keywords:
            raise ExpressionError("only min/max/abs/round calls are allowed")
        args = [_compile(arg) for arg in node.args]
        return lambda env: fn(*[arg(env) for arg in args])
    raise ExpressionError(f"syntax {type(node).__name__} is not allowed")


class Expression:
    """Arithmetic expression over named variables, parsed once, never eval'd."""

    def __init__(self, source: str):
        self.source = source
        try:
            self._evaluate = _compile(ast.parse(source, mode="eval").body)
        except (SyntaxError, ValueError) as exc:  # ValueError: a NUL byte in the source
            raise ExpressionError(f"expression does not parse: {exc}") from None
        except RecursionError:
            raise ExpressionError("expression nests too deeply") from None

    def evaluate(self, env: dict[str, float]):
        try:
            return self._evaluate(env)
        except (ArithmeticError, TypeError, ValueError, RecursionError) as exc:
            # e.g. 1 / 0, round(x, 0.5), round(nan)
            raise ExpressionError(f"expression failed: {exc}") from None


# -- plugins ------------------------------------------------------------------------
#
# One table per stage maps a plugin kind to its factory and its param rules.
# The scenario reader's `_fields` reads params as it reads every mapping: a
# rule is a default, the type of a required value, a reader `(value, path) ->
# value` for a required value, or `(default, reader)`. By type, a float is a
# finite number, an int a count >= 1, a str a non-empty string and an
# Expression a formula, compiled once. Defaults are filled in unread, so a
# factory takes one worker's complete params and its index and returns its
# plugin: a source `step -> value`, a serving stub `value -> value`, or a
# business fold `(init, (acc, value, step) -> acc)`.


def _counter(params: dict, worker: int):
    start, stride = params["start"], params["stride"]
    return lambda step: start + (step - 1) * stride


def _hashnoise(params: dict, worker: int):
    label = params["label"]
    return lambda step: int.from_bytes(digest(encode([label, worker, step]))[:8], "big") / 2**64


def _constant(params: dict, worker: int):
    value = params["value"]
    return lambda step: value


def _running_sum(params: dict, worker: int):
    total = 0.0

    def apply(value):
        nonlocal total
        total += value
        return total

    return apply


def _moving_average(params: dict, worker: int):
    window: deque[float] = deque(maxlen=params["window"])

    def apply(value):
        window.append(value)
        return sum(window) / len(window)

    return apply


def _threshold(params: dict, worker: int):
    limit = params["limit"]
    return lambda value: 1.0 if value >= limit else 0.0


def _sum(params: dict, worker: int):
    return params["init"], lambda acc, value, step: acc + value


def _max(params: dict, worker: int):
    return params["init"], lambda acc, value, step: max(acc, value)


def _expr(params: dict, worker: int):
    expression = params["expr"]

    def fold(acc, value, step):
        result = expression.evaluate({"x": value, "acc": acc, "step": step, "worker": worker})
        try:
            return float(result)
        except OverflowError as exc:  # an int past the float range
            raise ExpressionError(f"expression failed: {exc}") from None

    return params["init"], fold


# kind -> (factory, param rules); any other param is refused
SOURCES = {
    "counter": (_counter, {"start": 0.0, "stride": 1.0}),
    "hashnoise": (_hashnoise, {"label": "noise"}),
    "constant": (_constant, {"value": float}),
}
SERVING = {
    "running_sum": (_running_sum, {}),
    "moving_average": (_moving_average, {"window": int}),
    "threshold": (_threshold, {"limit": float}),
}
BUSINESS = {
    "sum": (_sum, {"init": 0.0}),
    "max": (_max, {"init": float("-inf")}),
    "expr": (_expr, {"expr": Expression, "init": 0.0}),
}


# -- pipeline plan ------------------------------------------------------------------


@dataclass(frozen=True)
class StagePlan:
    kind: str
    factory: Callable
    params: dict | tuple[dict, ...]  # one set for every worker, or one per worker

    def params_for(self, worker_index: int) -> dict:
        if isinstance(self.params, tuple):
            return self.params[worker_index]
        return self.params

    def make(self, worker_index: int):
        """A fresh plugin for one worker."""
        return self.factory(self.params_for(worker_index), worker_index)


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    source: StagePlan
    serving: tuple[StagePlan, ...]
    business: StagePlan

    def user_code(self, n_workers: int) -> tuple[str, ...] | None:
        """Each worker's user-supplied formula, or None if the pipeline runs no user code."""
        if self.business.kind != "expr":
            return None
        return tuple(self.business.params_for(w)["expr"].source for w in range(n_workers))


# -- execution ----------------------------------------------------------------------


@dataclass(frozen=True)
class StepResult:
    step: int
    value: float
    acc: float
    nonce: bytes


class PipelineRun:
    """One worker's live pipeline: deterministic state machine over steps."""

    def __init__(self, spec: PipelineSpec, worker_index: int):
        self.worker_index = worker_index
        self.steps_done = 0
        self._source = spec.source.make(worker_index)
        self._serving = [plan.make(worker_index) for plan in spec.serving]
        self.acc, self._fold = spec.business.make(worker_index)

    def step(self) -> StepResult:
        self.steps_done += 1
        step = self.steps_done
        value = self._source(step)
        for apply in self._serving:
            value = apply(value)
        self.acc = acc = self._fold(self.acc, value, step)
        return StepResult(
            step=step,
            value=value,
            acc=acc,
            nonce=digest(encode([self.worker_index, step, acc])),
        )

    def result_payload(self) -> bytes:
        return encode(["job-result", self.worker_index, self.acc])
