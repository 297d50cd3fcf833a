"""Line coverage gate: every line of a `src/computepool` function body runs.

    python3 tools/coverage.py

Imports every module of the package with a `sys.settrace` line tracer
installed, so a function that runs only at import (a factory called to build
a module-level table) counts as run. Then it runs the tier-1 suite and
`generative` in this process, with the tracer installed around each test
(its setup, call and teardown). Then, still traced, it runs `run`, `verify`
and five `inspect` queries through `computepool.cli.main` on `reference` and `demo_trio` at
seed 1, and on perfbench's `fleet` and `proof-storm` generated at seed 1.
CLI tests that start a subprocess are not traced.

A line counts if a statement or an `except` clause inside a function body
starts on it and it compiles to bytecode; module and class bodies run at
import and are not checked. Every such line must run, or have a row in `ALLOWLIST`. A row is
keyed by file, enclosing function and the line's exact text (stripped of
indentation), and gives the reason the line may stay unrun. Allowlist a line
only when no input can reach it yet and the code must stay: a signature
check, or a guard a planned fault will trip. Delete a line that no input can
reach and nothing needs; test a line some input can reach.

Exit status 0: every line ran or is allowlisted. 1: a line never ran and no
row names it, a row is stale (its text is not in its function, or the line
now runs), a test failed, or a CLI run did not exit 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import types
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "computepool"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.scenario_gen import FLEET, PROOF_STORM, generate_scenario, to_yaml  # noqa: E402


@dataclass(frozen=True)
class Allowed:
    path: str  # relative to src/computepool
    function: str
    text: str
    reason: str


ALLOWLIST = (
    Allowed(
        "simnet.py", "Simulation._on_job_arrival",
        'raise SimulationError(f"plugin recheck failed at submit: {reason}")',
        "rechecks a signature the sender made a few lines earlier; signature "
        "checks are never removed, and no fault reaches this one",
    ),
    Allowed(
        "simnet.py", "Simulation._on_assign_delivered",
        'self._pool_event("code_recheck_failed", job=job_id, reason=reason)',
        "no shipped fault tampers with plugin code in transit; a planned "
        "fault kind will reach it",
    ),
    Allowed(
        "simnet.py", "Simulation._on_assign_delivered", "return",
        "as above: the exit after code_recheck_failed",
    ),
    Allowed(
        "simnet.py", "Simulation._on_result_delivered",
        "except GatherError as exc:",
        "no shipped fault forges a result shard; a planned fault kind will "
        "reach it",
    ),
    Allowed(
        "simnet.py", "Simulation._on_result_delivered",
        'self._pool_event("gather_failed", job=shard.job, reason=str(exc))',
        "as above: gather_failed",
    ),
    Allowed(
        "simnet.py", "Simulation._on_result_delivered", "return",
        "as above: the exit after gather_failed",
    ),
    Allowed(
        "cli.py", "_cmd_run", 'print("token conservation failed", file=sys.stderr)',
        "the mid-run conservation check raises first; reachable once the final "
        "verdict comes from a full scan independent of a running index",
    ),
    Allowed(
        "cli.py", "_cmd_run", "return 1",
        "as above: the exit after the conservation failure",
    ),
    Allowed(
        "ledger.py", "_mismatch", "return None",
        "every caller tests a type rule inline before calling, so a value that "
        "fits a type rule never gets here",
    ),
)


def _statement_lines(tree: ast.Module) -> dict[int, str]:
    """Line -> dotted name of the innermost function whose body has a
    statement or an `except` clause starting on that line (a nested `def`
    runs in its parent)."""
    lines: dict[int, str] = {}

    def visit(node: ast.AST, scope: tuple[str, ...], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, (ast.stmt, ast.ExceptHandler)):
                lines[child.lineno] = ".".join(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name), True)
            elif isinstance(child, ast.ClassDef):
                visit(child, (*scope, child.name), False)
            else:
                visit(child, scope, in_function)

    visit(tree, (), False)
    return lines


def _bytecode_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _bytecode_lines(const)
    return lines


def executable_lines(path: Path) -> dict[int, str]:
    """Line -> enclosing function, for every checked line of a module."""
    source = path.read_text(encoding="utf-8")
    statements = _statement_lines(ast.parse(source))
    compiled = _bytecode_lines(compile(source, str(path), "exec"))
    return {line: fn for line, fn in statements.items() if line in compiled}


class LineTracer:
    """Records (file, line) of every line run in a frame of the package."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.ran: set[tuple[str, int]] = set()

    def trace(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(self.prefix):
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self.trace)
        try:
            yield
        finally:
            sys.settrace(None)


class _TracePlugin:
    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    def pytest_configure(self, config):
        # Imported here, after pytest has set up its assertion rewriting.
        from hypothesis import HealthCheck, Phase, settings

        # Hypothesis's explain phase installs a tracer of its own. Fixed
        # examples make the lines that run the same on every run. Tracing
        # slows examples down, which must not fail a deadline or a health
        # check.
        settings.register_profile(
            "coverage", phases=[p for p in Phase if p is not Phase.explain],
            derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow],
        )
        settings.load_profile("coverage")

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        with self.tracer.installed():
            yield


def import_package(tracer: LineTracer) -> None:
    """Import every module of the package, traced. Nothing may import it
    before, or its import-time lines would go unrecorded."""
    with tracer.installed():
        for path in sorted(PACKAGE.glob("*.py")):
            importlib.import_module(f"computepool.{path.stem}")


def run_tests(tracer: LineTracer) -> int:
    """Tier-1 and `generative`, each test traced; pytest's exit code."""
    return pytest.main(
        ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
         str(ROOT / "tests"), str(ROOT / "generative")],
        plugins=[_TracePlugin(tracer)],
    )


def run_cli(tracer: LineTracer, work: Path) -> list[str]:
    """Run, verify and inspect each scenario, traced; the commands that did
    not exit 0."""
    from computepool import cli

    scenarios = {
        name: (ROOT / "scenarios" / f"{name}.yaml", ["--seed", "1"])
        for name in ("reference", "demo_trio")
    }
    for name, size in {"fleet": FLEET, "proof-storm": PROOF_STORM}.items():
        path = work / f"{name}.yaml"
        path.write_text(to_yaml(generate_scenario(seed=1, name=name, **size)), "utf-8")
        scenarios[name] = (path, [])
    failed = []

    def command(*argv: str) -> None:
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            failed.append(f"{' '.join(argv)} exited {code}")

    for name, (path, seed) in scenarios.items():
        out = work / name
        command("run", "--scenario", str(path), *seed, "--out", str(out))
        ledger = str(out / "ledger.bin")
        command("verify", ledger)
        first_job = json.loads((out / "jobs.jsonl").read_text().splitlines()[0])
        for query in ([], ["--deed", first_job["sender"]], ["--job", first_job["job"]],
                      ["--epoch", "1"], ["--format", "SUMMARY"]):
            command("inspect", ledger, *query)
    return failed


def unrun_lines(tracer: LineTracer) -> list[str]:
    """A line for each never-run line no row allows, and for each stale row.

    A row allows the one never-run line of its text in its function; if
    several such lines never run, the row allows none of them."""
    unrun: dict[tuple[str, str, str], list[int]] = {}
    present = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, function in executable_lines(path).items():
            key = (path.name, function, source[line - 1].strip())
            present.add(key)
            if (str(path), line) not in tracer.ran:
                unrun.setdefault(key, []).append(line)
    problems = []
    for row in ALLOWLIST:
        key = (row.path, row.function, row.text)
        if len(unrun.get(key, ())) == 1:
            del unrun[key]
        elif key not in unrun:
            state = "now runs" if key in present else "is gone"
            problems.append(f"stale row: {row.text!r} in {row.path} {row.function} {state}")
    never = sorted((name, line, function, text)
                   for (name, function, text), lines in unrun.items() for line in lines)
    problems += [f"never run: {name}:{line} in {function}: {text}"
                 for name, line, function, text in never]
    return problems


def main() -> int:
    tracer = LineTracer()
    import_package(tracer)
    code = run_tests(tracer)
    with tempfile.TemporaryDirectory(prefix="coverage-") as tmp:
        problems = run_cli(tracer, Path(tmp))
    if code != 0:
        problems.append(f"tests failed (pytest exit {code})")
    problems += unrun_lines(tracer)
    print("\n".join(problems) if problems else
          f"every line ran, apart from {len(ALLOWLIST)} allowlisted")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
