"""Shared vetting corpus: `expr` formulas with known-good and known-bad labels.

The unsafe list must be refused with zero misses; the safe list exercises the
same vetter for false positives, and each of its formulas evaluates. Kept in
one place so the unit tests and the acceptance gate vet the identical corpus.
"""

UNSAFE_SNIPPETS = [
    ("import-os", "os.getpid()"),
    ("open-read", 'open("/etc/passwd").read()'),
    ("shutil-import", '__import__("shutil").rmtree(x)'),
    ("subprocess", 'subprocess.run(["ls"])'),
    ("os-system", 'os.system("echo pwned")'),
    ("signal-alarm", "signal.alarm(1)"),
    ("socket-import", '__import__("socket").socket()'),
    ("urllib-fetch", "urllib.request.urlopen(x)"),
    ("requests-import", '__import__("requests").get(x)'),
    ("eval-call", 'eval("2 + 2")'),
    ("exec-call", "exec(x)"),
    ("dunder-import", '__import__("os")'),
    ("getattr-probe", 'getattr(x, "real")'),
    ("mro-walk", "x.__class__"),
    ("unterminated", '"never closed'),
    ("lambda", "(lambda: acc)()"),
    ("comprehension", "[x for x in (acc, step)]"),
    ("string-literal", "'acc'"),
    ("foreign-call", "pow(x, 2)"),
    ("unknown-name", "acc + y"),
    ("bare-builtin", "max + 1"),
    ("dunder-name", "acc + __class__"),
    ("oversized-source", "acc" + " " * 4094),
    ("oversized-tree", "-x" + " + x" * 256),
]

SAFE_SNIPPETS = [
    ("shipped", "acc + max(x, 0.25)"),
    ("loop-sum", "acc + x * 0.5"),
    ("fold-fn", "acc + max(x, 0.0)"),
    ("mean", "(acc * (step - 1) + x) / step"),
    ("ternary", "1.0 if x > 0.75 else 0.0"),
    ("round-abs", "round(abs(acc - 3.7), 1)"),
    ("commented", "acc + x  # running total"),
    ("clamp", "min(max(x, 0.0), 1.0)"),
    ("doubling", "acc * 2.0 if acc < 100.0 else acc"),
    ("squares", "acc + x ** 2"),
    ("ema", "0.2 * x + (1 - 0.2) * acc"),
    ("per-worker", "acc + x * (worker + 1)"),
    ("even-steps", "acc + (x if step % 2 == 0 and 0 < x < 1 else 0)"),
    ("at-source-cap", "acc" + " " * 4093),
    ("at-tree-cap", "-x" + " + x" * 255),
]
