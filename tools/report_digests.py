"""Print the sha256 of all six report files over a fixed set of runs.

    python3 tools/report_digests.py > digests.txt

Runs `demo_trio` and `reference` at their default seed and at seeds 42-44,
and the benchmark's generated `fleet` and `proof-storm` scenarios at
generator seeds 1-3. Each output line is `<run> <file> <sha256>`, so two
checkouts can be compared with `cmp`: a refactor that keeps behaviour prints
the same bytes. It imports the package from this checkout's `src/` and only
reads `perfbench/scenario_gen.py`.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from computepool.report import write_reports  # noqa: E402
from computepool.scenario import load_scenario  # noqa: E402
from computepool.simnet import run_scenario  # noqa: E402
from scenario_gen import FLEET, PROOF_STORM, generate_scenario, to_yaml  # noqa: E402

SHIPPED_SEEDS = (42, 43, 44)  # run after the scenario's own seed
GENERATED = {"fleet": FLEET, "proof-storm": PROOF_STORM}
GENERATED_SEEDS = (1, 2, 3)


def runs(work: Path):
    """(label, scenario path, seed override) for every run, in print order."""
    for name in ("demo_trio", "reference"):
        path = ROOT / "scenarios" / f"{name}.yaml"
        for seed in dict.fromkeys((load_scenario(path).seed, *SHIPPED_SEEDS)):
            yield f"{name}@{seed}", path, seed
    for name, size in GENERATED.items():
        for seed in GENERATED_SEEDS:
            path = work / f"{name}-{seed}.yaml"
            path.write_text(to_yaml(generate_scenario(seed=seed, name=name, **size)), "utf-8")
            yield f"{name}@{seed}", path, None


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, path, seed in runs(work):
            out = work / label
            paths = write_reports(run_scenario(load_scenario(path), seed=seed), out)
            for fname in sorted(paths):
                sha = hashlib.sha256(paths[fname].read_bytes()).hexdigest()
                print(f"{label} {fname} {sha}", flush=True)


if __name__ == "__main__":
    main()
