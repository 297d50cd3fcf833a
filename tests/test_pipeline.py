"""Plugin vetting, the expression language, and pipeline execution."""

import ast
import dataclasses
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from computepool.crypto import derive_signer, digest
from computepool.encoding import encode
from computepool.pipeline import (
    Expression,
    ExpressionError,
    PipelineRun,
    hash_sign_recheck,
    make_plugin_code,
    safety_check,
)
from computepool.scenario import ScenarioError, parse_scenario
from plugin_corpus import SAFE_SNIPPETS, UNSAFE_SNIPPETS


@pytest.mark.parametrize("label,source", UNSAFE_SNIPPETS, ids=[l for l, _ in UNSAFE_SNIPPETS])
def test_unsafe_snippets_are_flagged(label, source):
    verdict = safety_check(source)
    assert not verdict.safe
    assert verdict.reasons


@pytest.mark.parametrize("label,source", SAFE_SNIPPETS, ids=[l for l, _ in SAFE_SNIPPETS])
def test_safe_snippets_pass(label, source):
    verdict = safety_check(source)
    assert verdict.safe, verdict.reasons


def test_safety_check_collects_every_violation():
    source = 'import os\neval("x")\nsocket.create_connection(addr)\n'
    verdict = safety_check(source)
    assert not verdict.safe
    text = "\n".join(verdict.reasons)
    assert "filesystem" in text
    assert "reflective" in text
    assert "network" in text
    assert len(verdict.reasons) >= 3


@pytest.mark.parametrize("source,safe", [
    ("import math, numpy", False),
    ("import math as m, json", False),
    ("import math, \\\n    os.path", False),
    ("raise E from math\nimport numpy", False),
    ("import\nmath", False),
    ("import math, math as m", True),
    ("from math import sqrt, floor", True),
])
def test_every_module_an_import_statement_names_is_checked(source, safe):
    assert safety_check(source).safe is safe


def test_safety_policy_caps():
    # 4,096 bytes and 512 tokens pass; one byte or one token more does not.
    comment = "#" + "x" * 4095
    assert safety_check(comment).safe
    assert safety_check(comment + "x").reasons == ("source is 4097 bytes, policy allows 4096",)
    at_cap = "-x" + " + x" * 255
    assert safety_check(at_cap).safe
    assert safety_check("-" + at_cap).reasons == ("source has 513 tokens, policy allows 512",)


def test_source_that_does_not_tokenize_is_unsafe():
    verdict = safety_check("s = '''never closed\n")
    assert not verdict.safe
    assert len(verdict.reasons) == 1
    assert re.fullmatch(r"source does not tokenize: .*EOF in multi-line string.*",
                        verdict.reasons[0])


def test_plugin_code_recheck_accepts_honest_code():
    signer = derive_signer("plug", "author")
    code = make_plugin_code("acc = acc + x\n", "author", signer)
    assert code.code_hash == digest(b"acc = acc + x\n")
    assert hash_sign_recheck(code, signer.verify_key) == (True, None)


def test_plugin_tampering_is_always_caught():
    signer = derive_signer("plug", "author")
    base = "def fold(acc, x):\n    return acc + max(x, 0.25)\n"
    code = make_plugin_code(base, "author", signer)
    caught = 0
    for i in range(100):
        pos = i % len(base)
        swapped = chr((ord(base[pos]) - 32 + 1) % 95 + 32)
        mutated = base[:pos] + swapped + base[pos + 1:]
        assert mutated != base
        tampered = dataclasses.replace(code, source=mutated)
        ok, reason = hash_sign_recheck(tampered, signer.verify_key)
        if not ok:
            caught += 1
    assert caught == 100


def test_plugin_rehash_without_resign_fails():
    signer = derive_signer("plug", "author")
    code = make_plugin_code("acc = acc + x\n", "author", signer)
    mutated = "acc = acc - x\n"
    refit = dataclasses.replace(
        code, source=mutated, code_hash=digest(mutated.encode())
    )
    ok, reason = hash_sign_recheck(refit, signer.verify_key)
    assert not ok and "signature" in reason
    # and a signature from someone else's key fails even on honest code
    other = derive_signer("plug", "other")
    ok, _ = hash_sign_recheck(code, other.verify_key)
    assert not ok


def test_expression_arithmetic_and_calls():
    e = Expression("acc + max(x, 0.25)")
    assert e.evaluate({"acc": 1.0, "x": 0.1}) == 1.25
    assert e.evaluate({"acc": 1.0, "x": 2.0}) == 3.0
    assert Expression("-x ** 2").evaluate({"x": 3.0}) == -9.0
    assert Expression("7 // 2 + 7 % 2").evaluate({}) == 4
    assert Expression("round(abs(-2.675), 1)").evaluate({}) == 2.7


def test_expression_conditionals_and_chains():
    e = Expression("x if step > 3 else acc")
    assert e.evaluate({"x": 9.0, "acc": 1.0, "step": 4}) == 9.0
    assert e.evaluate({"x": 9.0, "acc": 1.0, "step": 3}) == 1.0
    assert Expression("1 < x < 5").evaluate({"x": 3}) is True
    assert Expression("1 < x < 5").evaluate({"x": 7}) is False
    # short-circuit: the division never runs when x is zero
    assert Expression("x > 0 and 10 / x").evaluate({"x": 0}) is False
    assert Expression("x > 0 and 10 / x").evaluate({"x": 4}) == 2.5


def test_expression_rejects_foreign_syntax():
    for bad in [
        "lambda x: x",
        "x.denominator",
        "values[0]",
        "sorted(xs)",
        "max(x, key=abs)",
        "'text'",
        "[1, 2]",
        "x @ y",
        "x << 2",
        "f(",
        "x\0",
    ]:
        with pytest.raises(ExpressionError):
            Expression(bad)
    with pytest.raises(ExpressionError, match="nests too deeply"):
        Expression("-" * 5000 + "x")


def test_expression_runtime_errors_are_wrapped():
    with pytest.raises(ExpressionError, match="unknown variable"):
        Expression("x + y").evaluate({"x": 1.0})
    with pytest.raises(ExpressionError, match="expression failed"):
        Expression("1 / x").evaluate({"x": 0})
    with pytest.raises(ExpressionError, match="expression failed"):
        Expression("x ** x").evaluate({"x": 1e308})
    # refused before the 16-million-bit integer is built
    with pytest.raises(ExpressionError, match="integer power reaches 2 \\*\\* 1024"):
        Expression("2 ** 2 ** 24").evaluate({})
    with pytest.raises(ExpressionError, match="integer power"):
        Expression("(-2) ** 1025").evaluate({})
    assert Expression("2 ** 1023 + (-2) ** 1023").evaluate({}) == 0
    for src in ["round(x, 0.5)", "round(x * 0.0 * 1e400)", "min(x)"]:
        with pytest.raises(ExpressionError, match="expression failed"):
            Expression(src).evaluate({"x": 1.5})
    with pytest.raises(ExpressionError, match="exponent 0.5 is not a whole number"):
        Expression("x ** 0.5").evaluate({"x": 4.0})
    with pytest.raises(ExpressionError, match="float power overflows"):
        Expression("10.0 ** 400").evaluate({})
    with pytest.raises(ExpressionError, match="float power overflows"):
        Expression("x ** -2").evaluate({"x": 1e-160})  # 1e-320 is subnormal; its inverse is not
    with pytest.raises(ExpressionError, match="division by zero"):
        Expression("x ** -1").evaluate({"x": 0.0})


# `**` raises a float by repeated squaring, the same on every machine. In each
# finite row glibc's `pow`, which rounds once, gives another last bit.
@pytest.mark.parametrize("source, x, expected", [
    ("x ** 7", 0.3, "0x1.caa5ab1fd3dadp-13"),
    ("x ** 7.0", 0.3, "0x1.caa5ab1fd3dadp-13"),  # a whole float exponent is an integer one
    ("x ** 11", -1.3, "-0x1.1ebee3c5fc101p+4"),
    ("x ** 1000", 1.0001, "0x1.1aec1e81e6d7ep+0"),
    ("10.0 ** 23", 0.0, "0x1.52d02c7e14af6p+76"),
    ("x ** -15", 1.1, "0x1.ea4660f7b42bdp-3"),  # the inverse of the positive power
    ("7 ** -20", 0.0, "0x1.ce5e856164d56p-57"),  # an int base, a negative exponent
    ("x ** 3", math.inf, "inf"),  # a base that is not finite may give one
])
def test_a_float_power_is_the_same_on_every_machine(source, x, expected):
    assert Expression(source).evaluate({"x": x}).hex() == expected


# Fully parenthesised sources over the whitelist. `**` only raises a leaf to
# 0..3 and int leaves are small, so no value nears the integer power bound and
# Python's own evaluation is a faithful reference.
_LEAVES = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["x", "acc", "step", "True"]),
)
_ATOMS = st.one_of(
    _LEAVES,
    st.builds("({} ** {})".format, _LEAVES, st.integers(0, 3)),
)


def _grow(children):
    return st.one_of(
        st.builds(
            "({} {} {})".format,
            children, st.sampled_from(["+", "-", "*", "/", "//", "%", "and", "or"]), children,
        ),
        st.builds("({}{})".format, st.sampled_from(["-", "+", "not "]), children),
        st.builds(
            lambda first, rest: "(" + first + "".join(f" {op} {c}" for op, c in rest) + ")",
            children,
            st.lists(
                st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), children),
                min_size=1, max_size=3,
            ),
        ),
        st.builds("({1} if {0} else {2})".format, children, children, children),
        st.builds(
            lambda fn, args: f"{fn}({', '.join(args)})",
            st.sampled_from(["min", "max"]), st.lists(children, min_size=2, max_size=3),
        ),
        st.builds("abs({})".format, children),
        st.builds("round({})".format, children),
        st.builds("round({}, {})".format, children, st.integers(-2, 3)),
    )


_SOURCES = st.recursive(_ATOMS, _grow, max_leaves=8)
# Small whole values make ties, so `<` versus `<=` shows; any float may follow.
_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats())
_ENVS = st.fixed_dictionaries({"x": _VALUES, "acc": _VALUES, "step": st.integers(1, 5)})
_PYTHON_CALLS = {"__builtins__": {"min": min, "max": max, "abs": abs, "round": round}}


def _reference_pow(base, exp):
    """The language's `**` for the whole exponents above: an int base is raised
    exactly, a float one by multiplying, and a finite float that overflows fails."""
    if isinstance(base, int):
        return base ** exp
    result = 1.0
    for _ in range(exp):
        result *= base
    if math.isinf(result) and math.isfinite(base):
        raise OverflowError("float power overflows")
    return result


class _PowAsCall(ast.NodeTransformer):
    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.Call(ast.Name("pow_", ast.Load()), [node.left, node.right], [])


def _python_eval(source: str, env: dict):
    """Python's evaluation of `source`, with `**` by the language's rule."""
    tree = ast.fix_missing_locations(_PowAsCall().visit(ast.parse(source, mode="eval")))
    return eval(compile(tree, "<reference>", "eval"), dict(_PYTHON_CALLS, pow_=_reference_pow), dict(env))


def _outcome(fn):
    try:
        return ("value", fn())
    except (ArithmeticError, TypeError, ValueError, ExpressionError):
        return ("failed", None)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


@given(_SOURCES, _ENVS)
@example("(x < x <= 1)", {"x": 1.0, "acc": 0.0, "step": 1})  # a tie
@example("((-5 % 3) + (5 // -3) + (x % -2))", {"x": 3.0, "acc": 0.0, "step": 1})
@example("((acc and x) or step)", {"x": 0.0, "acc": 2.0, "step": 3})
@example("(x ** 3)", {"x": -1.01, "acc": 0.0, "step": 1})  # libm's `pow` rounds once
@settings(max_examples=150, deadline=None)
def test_expression_matches_python_evaluation(source, env):
    expression = Expression(source)
    ours = _outcome(lambda: expression.evaluate(env))
    python = _outcome(lambda: _python_eval(source, env))
    assert ours[0] == python[0], (source, env, ours, python)
    assert _same(ours[1], python[1]), (source, env, ours, python)


def scenario(cfg, n_workers=1, name="p"):
    """A one-job scenario that runs pipeline `cfg` on `n_workers` workers."""
    return {
        "name": "pipeline", "seed": 1, "epochs": 1, "epoch_seconds": 60,
        "regions": {"r": {}},
        "nodes": [{"id": "s", "region": "r"}],
        "pipelines": {name: cfg},
        "jobs": [{"sender": "s", "at": 0, "reward": 1, "pipeline": name,
                  "n_workers": n_workers, "steps": 1}],
    }


def plan(cfg, n_workers=1, name="p"):
    return parse_scenario(scenario(cfg, n_workers, name)).jobs[0].pipeline


def test_counter_running_sum_fold():
    spec = plan({
        "source": {"kind": "counter", "params": {"start": 0, "stride": 1}},
        "serving": [{"kind": "running_sum"}],
        "business": {"kind": "sum"},
    })
    run = PipelineRun(spec, 0)
    accs = [run.step().acc for _ in range(4)]
    # sources 0,1,2,3 -> running sums 0,1,3,6 -> folded 0,1,4,10
    assert accs == [0.0, 1.0, 4.0, 10.0]
    assert run.result_payload() == encode(["job-result", 0, 10.0])


def test_threshold_and_moving_average_stubs():
    spec = plan({
        "source": {"kind": "counter", "params": {"start": 3, "stride": 2}},
        "serving": [{"kind": "threshold", "params": {"limit": 5}}],
        "business": {"kind": "sum"},
    })
    run = PipelineRun(spec, 0)
    values = [run.step().value for _ in range(3)]  # sources 3, 5, 7
    assert values == [0.0, 1.0, 1.0]

    spec = plan({
        "source": {"kind": "constant", "params": {"value": 4.0}},
        "serving": [{"kind": "moving_average", "params": {"window": 2}}],
        "business": {"kind": "max"},
    })
    run = PipelineRun(spec, 0)
    for _ in range(3):
        assert run.step().value == 4.0
    assert run.acc == 4.0


def test_per_worker_params_select_by_index():
    spec = plan({
        "source": {"kind": "counter",
                   "params": [{"start": 0}, {"start": 100, "stride": 2}]},
        "business": {"kind": "sum"},
    }, n_workers=2)
    r0, r1 = PipelineRun(spec, 0), PipelineRun(spec, 1)
    assert r0.step().value == 0.0
    assert r1.step().value == 100.0
    assert r1.step().value == 102.0


def test_hashnoise_is_deterministic_and_bounded():
    spec = plan({
        "source": {"kind": "hashnoise", "params": {"label": "t"}},
        "business": {"kind": "sum"},
    })
    a = [PipelineRun(spec, 0).step().value for _ in range(3)]
    assert a[0] == a[1] == a[2]
    assert 0.0 <= a[0] < 1.0
    other_label = plan({
        "source": {"kind": "hashnoise", "params": {"label": "u"}},
        "business": {"kind": "sum"},
    })
    assert PipelineRun(other_label, 0).step().value != a[0]


def test_expr_business_fold_matches_manual_fold():
    spec = plan({
        "source": {"kind": "counter", "params": {"start": -2, "stride": 1}},
        "business": {"kind": "expr", "params": {"expr": "acc + max(x, 0.25)"}},
    })
    run = PipelineRun(spec, 0)
    acc = 0.0
    for step in range(1, 6):
        x = float(-2 + (step - 1))
        acc = acc + max(x, 0.25)
        assert run.step().acc == acc


def test_an_expr_fold_that_leaves_the_float_range_fails():
    # Each power is under 2 ** 1024, so `**` builds it; their sum is not, and
    # cannot become the float accumulator.
    spec = plan({
        "source": {"kind": "counter"},
        "business": {"kind": "expr", "params": {"expr": "2 ** 1023 + 2 ** 1023"}},
    })
    with pytest.raises(ExpressionError, match="expression failed: int too large to convert to float"):
        PipelineRun(spec, 0).step()


def test_runs_are_deterministic():
    spec = plan({
        "source": {"kind": "hashnoise", "params": {"label": "d"}},
        "serving": [{"kind": "running_sum"}],
        "business": {"kind": "expr", "params": {"expr": "acc + x * 0.5"}},
    })
    first = [PipelineRun(spec, 0).step() for _ in range(1)]
    a, b = PipelineRun(spec, 0), PipelineRun(spec, 0)
    for _ in range(5):
        ra, rb = a.step(), b.step()
        assert ra == rb
    assert a.result_payload() == b.result_payload()


def test_parse_pipeline_diagnostics():
    for cfg, n_workers, message in [
        ({"source": {"kind": "counter"}, "business": {"kind": "sum"}, "extra": {}}, 1,
         "pipelines.p: unknown keys: ['extra']"),
        ({"source": {"kind": "counter"}}, 1,
         "pipelines.p: missing required keys: ['business']"),
        ({"source": {"kind": "uniform"}, "business": {"kind": "sum"}}, 1,
         "pipelines.p.source.kind: unknown plugin 'uniform'"),
        ({"source": {"kind": "counter", "params": [{}, {}]}, "business": {"kind": "sum"}}, 3,
         "jobs[0].pipeline: plugin 'counter' has 2 parameter sets for 3 workers"),
        ({"source": {"kind": "constant"}, "business": {"kind": "sum"}}, 1,
         "pipelines.p.source.params: missing required keys: ['value']"),
        ({"source": {"kind": "counter"},
          "serving": [{"kind": "moving_average", "params": {"window": 0}}],
          "business": {"kind": "sum"}}, 1,
         "pipelines.p.serving[0].params.window: must be >= 1, got 0"),
        ({"source": {"kind": "counter"}, "serving": [{"kind": "threshold"}],
          "business": {"kind": "sum"}}, 1,
         "pipelines.p.serving[0].params: missing required keys: ['limit']"),
        ({"source": {"kind": "counter"}, "business": {"kind": "expr", "params": {"expr": "  "}}}, 1,
         "pipelines.p.business.params.expr: expression does not parse"),
        ({"source": {"kind": "counter"}, "serving": {"kind": "identity"},
          "business": {"kind": "sum"}}, 1,
         "pipelines.p.serving: expected a list, got dict"),
        ({"source": {"kind": ["counter"]}, "business": {"kind": "sum"}}, 1,
         "pipelines.p.source.kind: unknown plugin ['counter']"),
        ({"source": {"kind": "counter", "params": [1, 2]}, "business": {"kind": "sum"}}, 2,
         "pipelines.p.source.params[0]: expected a mapping, got int"),
        ({"source": {"kind": "counter"}, "business": {"kind": "sum"}, "extra": {}, 1: {}}, 1,
         "pipelines.p: unknown keys: [1, 'extra']"),
    ]:
        with pytest.raises(ScenarioError, match=re.escape(message)):
            plan(cfg, n_workers)
    # every numeric param must be a number, not a string, list or bool
    for stage_cfg, message in [
        ({"source": {"kind": "counter", "params": {"start": "abc"}}},
         "pipelines.p.source.params.start: expected a number, got 'abc'"),
        ({"source": {"kind": "counter", "params": [{}, {"stride": True}]}},
         "pipelines.p.source.params[1].stride: expected a number, got True"),
        ({"source": {"kind": "constant", "params": {"value": [1]}}},
         "pipelines.p.source.params.value: expected a number, got [1]"),
        ({"source": {"kind": "hashnoise", "params": {"label": 7}}},
         "pipelines.p.source.params.label: expected a non-empty string, got 7"),
        ({"serving": [{"kind": "threshold", "params": {"limit": "high"}}]},
         "pipelines.p.serving[0].params.limit: expected a number, got 'high'"),
        ({"serving": [{"kind": "moving_average", "params": {"window": True}}]},
         "pipelines.p.serving[0].params.window: expected an integer, got True"),
        ({"business": {"kind": "sum", "params": {"init": "oops"}}},
         "pipelines.p.business.params.init: expected a number, got 'oops'"),
        ({"business": {"kind": "max", "params": {"init": False}}},
         "pipelines.p.business.params.init: expected a number, got False"),
        ({"business": {"kind": "expr", "params": {"expr": "acc + x", "init": "0"}}},
         "pipelines.p.business.params.init: expected a number, got '0'"),
        ({"business": {"kind": "expr", "params": {"expr": 5}}},
         "pipelines.p.business.params.expr: expected a non-empty string, got 5"),
        # a key or param no plugin reads is refused by name, not silently defaulted
        ({"source": {"kind": "counter", "params": {"strid": 5}}},
         "pipelines.p.source.params: unknown keys: ['strid']"),
        ({"source": {"kind": "counter", "params": [{}, {"start": 1, 2: 3}]}},
         "pipelines.p.source.params[1]: unknown keys: [2]"),
        ({"source": {"kind": "counter", "parms": {"stride": 5}}},
         "pipelines.p.source: unknown keys: ['parms']"),
        ({"serving": [{"kind": "running_sum", "params": {"window": 3}}]},
         "pipelines.p.serving[0].params: unknown keys: ['window']"),
        ({"serving": [{"kind": "threshold", "params": {"limit": 1}, "window": 3}]},
         "pipelines.p.serving[0]: unknown keys: ['window']"),
        ({"business": {"kind": "sum", "params": {"expr": "acc + x"}}},
         "pipelines.p.business.params: unknown keys: ['expr']"),
        ({"business": {"kind": "expr", "params": {"expr": "acc + x", "int": 1}}},
         "pipelines.p.business.params: unknown keys: ['int']"),
    ]:
        cfg = {"source": {"kind": "counter"}, "business": {"kind": "sum"}, **stage_cfg}
        with pytest.raises(ScenarioError, match=re.escape(message)):
            plan(cfg, n_workers=2)


NUMBER_PARAMS = {
    "value": lambda v: {"source": {"kind": "constant", "params": {"value": v}}},
    "start": lambda v: {"source": {"kind": "counter", "params": {"start": v}}},
    "limit": lambda v: {"serving": [{"kind": "threshold", "params": {"limit": v}}]},
    "init": lambda v: {"business": {"kind": "max", "params": {"init": v}}},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("param", list(NUMBER_PARAMS))
def test_number_params_must_be_finite(param, value):
    cfg = {"source": {"kind": "counter"}, "business": {"kind": "sum"}, **NUMBER_PARAMS[param](value)}
    with pytest.raises(ScenarioError,
                       match=rf"^pipelines\.p\..+\.params\.{param}: expected a finite number"):
        plan(cfg)


def test_max_starts_from_minus_infinity():
    spec = plan({"source": {"kind": "counter", "params": {"start": -5, "stride": -1}},
                 "business": {"kind": "max"}})
    run = PipelineRun(spec, 0)
    assert run.acc == -math.inf
    assert [run.step().acc for _ in range(2)] == [-5.0, -5.0]


def test_worker_index_bounds():
    data = scenario({"source": {"kind": "counter"}, "business": {"kind": "sum"}}, n_workers=2)
    for index, message in [(2, "must be < n_workers (2)"), (-1, "must be >= 0, got -1")]:
        data["jobs"][0]["faults"] = [{"worker_index": index, "step": 1, "kind": "forge"}]
        with pytest.raises(ScenarioError,
                           match=re.escape(f"jobs[0].faults[0].worker_index: {message}")):
            parse_scenario(data)
