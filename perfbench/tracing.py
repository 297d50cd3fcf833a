"""Spans and counters recorded around the package's layers, from outside it.

`Tracer.install` swaps wrappers in for the public functions of each module,
and `Tracer.uninstall` puts the originals back, so untraced work runs the
unmodified code.  Modules bind `encode`, `verify`, `load_blocks` and the like
with `from .x import y`, so a function is patched in every module that binds
it, not only where it is defined.  `encode` recurses through its own module
global, which stays unpatched, so only outermost calls are seen.

Each span is `(name, start_ns, end_ns, parent_index, op_id)`; spans stay in
memory until `write_spans`.  Functions called tens of thousands of times per
run (`topic_matches`, `accrue_alive`, `digest`) are counted, not spanned, so
their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "cli", "scenario", "simnet", "distribution", "pipeline", "escrow",
    "tokenomics", "ledger", "encoding", "crypto", "report",
)


def _targets():
    """(owner, attribute, span or count name, kind) for every patched binding."""
    from computepool import (
        cli, crypto, distribution, escrow, ledger, pipeline, report, simnet, tokenomics,
    )

    targets = [
        (simnet.Simulation, "run", "simnet.run", "span"),
        (simnet.Simulation, "_publish", "simnet.publish", "span"),
        (simnet, "topic_matches", "simnet.topic_matches", "count"),
        (tokenomics.NodeRegistry, "accrue_alive", "tokenomics.accrue_alive", "count"),
        (simnet, "distribute_epoch_rewards", "tokenomics.distribute", "span"),
        (escrow.EscrowBank, "conservation_total", "escrow.conservation_total", "span"),
        (simnet, "assign_workers", "distribution.assign_workers", "span"),
        (distribution.ProgressTracker, "observe", "distribution.observe", "observe"),
        (pipeline.PipelineRun, "step", "pipeline.step", "span"),
        (simnet, "safety_check", "pipeline.safety_check", "span"),
        (simnet, "hash_sign_recheck", "pipeline.recheck", "span"),
        (ledger, "decode", "encoding.decode", "span"),
        (crypto.Signer, "sign", "crypto.sign", "span"),
        (ledger.Ledger, "append_entries", "ledger.append", "append"),
        (ledger.Ledger, "dump", "ledger.dump", "span"),
        (cli, "load_scenario", "scenario.load", "span"),
        (cli, "write_reports", "report.write", "span"),
        (cli, "entry_records", "report.entry_records", "span"),
        (cli, "filter_records", "report.filter_records", "span"),
        (cli, "summarize_records", "report.summarize_records", "span"),
    ]
    for module in (ledger, distribution, pipeline, simnet):
        targets.append((module, "encode", "encoding.encode", "encode"))
    for module in (ledger, distribution, pipeline):
        targets.append((module, "verify", "crypto.verify", "span"))
    for module in (crypto, ledger, distribution, pipeline, simnet, report):
        targets.append((module, "digest", "crypto.digest", "count"))
    for module in (ledger, cli):
        targets.append((module, "load_blocks", "ledger.load", "span"))
        targets.append((module, "verify_blocks", "ledger.verify_blocks", "span"))
    return targets


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        self.counts[name] += 1
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def begin_op(self, op_id: int) -> int:
        """Start an operation; returns the index of its first span."""
        self._op = op_id
        self.counts = Counter()
        return len(self.spans)

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        if kind == "count":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
        elif kind == "encode":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = tracer.span(name, fn, *args, **kwargs)
                tracer.counts["encoding.encode_bytes"] += len(out)
                return out
        elif kind == "observe":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                ok, reason = tracer.span(name, fn, *args, **kwargs)
                tracer.counts["distribution.observe_ok"] += bool(ok)
                return ok, reason
        elif kind == "append":
            @functools.wraps(fn)
            def wrapper(ledger, entries, *args, **kwargs):
                tracer.counts["ledger.appended_entries"] += len(entries)
                return tracer.span(name, fn, ledger, entries, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis ----------------------------------------------------------

    def durations(self, first: int, last: int) -> tuple[Counter, Counter]:
        """Total and self seconds per span name over spans[first:last]."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _op in self.spans[first:last]:
            total[name] += end - start
            if parent >= first:
                child[parent] += end - start
        self_ns: Counter = Counter()
        for index in range(first, last):
            name, start, end, _parent, _op = self.spans[index]
            self_ns[name] += end - start - child[index]
        return (
            Counter({k: v / 1e9 for k, v in total.items()}),
            Counter({k: v / 1e9 for k, v in self_ns.items()}),
        )

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
