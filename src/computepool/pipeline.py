"""Worker pipeline runtime: sources, serving stubs, business folds, vetting.

A pipeline is source -> zero or more serving stubs -> one business fold, with
per-worker parameter sets. User-supplied business logic is a small arithmetic
expression language parsed with `ast` against a node whitelist; it is never
handed to eval. At submission `safety_check` vets each formula by the same
whitelist, and a hash-plus-signature recheck runs at every hop that moves the
code between parties.
"""

from __future__ import annotations

import ast
import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .crypto import Signer, digest, verify
from .encoding import encode


class ExpressionError(Exception):
    pass


# -- vetting user code -----------------------------------------------------------

# Fixed for every run: no scenario can loosen the check.
MAX_SOURCE_BYTES = 4096
MAX_NODES = 512  # syntax nodes: the `ast.expr` nodes of a formula's tree
VARIABLES = ("x", "acc", "step", "worker")  # what a business fold binds, in order


@dataclass(frozen=True)
class SafetyVerdict:
    safe: bool
    reasons: tuple[str, ...] = ()


def safety_check(source: str) -> SafetyVerdict:
    """Vet a formula before it runs: it must compile through the expression
    whitelist, name no variable a fold does not bind and stay within the
    caps. Collects every violation and never evaluates anything."""
    reasons: list[str] = []
    size = len(source.encode("utf-8"))
    if size > MAX_SOURCE_BYTES:
        reasons.append(f"source is {size} bytes, policy allows {MAX_SOURCE_BYTES}")
    try:
        expression = Expression(source)
    except ExpressionError as exc:
        return SafetyVerdict(False, (*reasons, str(exc)))
    if expression.size > MAX_NODES:
        reasons.append(f"formula has {expression.size} syntax nodes, policy allows {MAX_NODES}")
    reasons.extend(f"unknown variable {name!r}" for name in sorted(expression.names.difference(VARIABLES)))
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


def _compile(node: ast.AST, names: list[str]) -> Callable[[dict], object]:
    """Check one node against the whitelist and return its `env -> value`.
    Each variable the node reads is appended to `names`."""
    if isinstance(node, ast.Constant):
        value = node.value
        if not isinstance(value, (int, float, bool)):
            raise ExpressionError(f"literal of type {type(value).__name__} is not allowed")
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id
        names.append(name)

        def load(env):
            try:
                return env[name]
            except KeyError:
                raise ExpressionError(f"unknown variable {name!r}") from None

        return load
    if isinstance(node, ast.BinOp):
        binop = _lookup(_BINOPS, node.op, "operator")
        left, right = _compile(node.left, names), _compile(node.right, names)
        return lambda env: binop(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        unop = _lookup(_UNARYOPS, node.op, "operator")
        operand = _compile(node.operand, names)
        return lambda env: unop(operand(env))
    if isinstance(node, ast.BoolOp):
        stop = isinstance(node.op, ast.Or)  # `or` stops at a truthy value, `and` at a falsy one
        *heads, last = [_compile(value, names) for value in node.values]

        def short_circuit(env):
            for part in heads:
                value = part(env)
                if bool(value) is stop:
                    return value
            return last(env)

        return short_circuit
    if isinstance(node, ast.Compare):
        ops = [_lookup(_COMPARES, op, "comparison") for op in node.ops]
        first = _compile(node.left, names)
        links = list(zip(ops, [_compile(comp, names) for comp in node.comparators]))

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
        test, body, orelse = _compile(node.test, names), _compile(node.body, names), _compile(node.orelse, names)
        return lambda env: body(env) if test(env) else orelse(env)
    if isinstance(node, ast.Call):
        fn = _CALLS.get(node.func.id) if isinstance(node.func, ast.Name) else None
        if fn is None or node.keywords:
            raise ExpressionError("only min/max/abs/round calls are allowed")
        args = [_compile(arg, names) for arg in node.args]
        return lambda env: fn(*[arg(env) for arg in args])
    raise ExpressionError(f"syntax {type(node).__name__} is not allowed")


class Expression:
    """Arithmetic expression over named variables, parsed once, never eval'd.
    `names` holds the variables it reads and `size` its syntax nodes."""

    def __init__(self, source: str):
        self.source = source
        names: list[str] = []
        try:
            tree = ast.parse(source, mode="eval").body
            self._evaluate = _compile(tree, names)
        except (SyntaxError, ValueError) as exc:  # ValueError: a NUL byte in the source
            raise ExpressionError(f"expression does not parse: {exc}") from None
        except RecursionError:
            raise ExpressionError("expression nests too deeply") from None
        self.names = frozenset(names)
        self.size = sum(isinstance(node, ast.expr) for node in ast.walk(tree))

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
        result = expression.evaluate(dict(zip(VARIABLES, (value, acc, step, worker))))
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
