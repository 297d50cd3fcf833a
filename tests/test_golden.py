"""Golden digests: the six report files of the shipped scenarios, byte for byte.

Refactors of the simulator must not change a single output byte. This test
pins the sha256 of every report file for `demo_trio` and `reference`, each at
its default seed and at seed 43, and names the file that changed on failure.

To re-pin on purpose (a change whose point is a new report or ledger format),
run `PYTHONPATH=src python tests/test_golden.py` and paste the table it prints
over `GOLDEN`, then say in the change log why the bytes moved.
"""

import hashlib
from pathlib import Path

import pytest

from computepool.report import write_reports
from computepool.scenario import load_scenario
from computepool.simnet import run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    ("demo_trio", 7): {
        "allocations.jsonl": "9aa1f3bb67f81fea35558fe1d75c426120e7bafcbf58057b7ce2e49933f6982c",
        "audit.json": "fb1b52be2496ebe09d9fb086422306c99b1c8a7d7d522d7feb4786c713868cec",
        "jobs.jsonl": "816407a71d5cb9eda43fcf125bb7ffbe72b0d22b7795ccf30f737b2de070e0b6",
        "ledger.bin": "76ac0124bc3d141cf8a2f08c123090a6e5707dc20e4a4afe002ba09739e83fba",
        "manifest.json": "91d655ff2b7950b37a329e8a03344df0978757d9526617257dd5d87808aac509",
        "pool.jsonl": "cfd41de8570416c11cdfddc124d3547ab4fbc4b34c6491026fd3e5b208fdb0be",
    },
    ("demo_trio", 43): {
        "allocations.jsonl": "9aa1f3bb67f81fea35558fe1d75c426120e7bafcbf58057b7ce2e49933f6982c",
        "audit.json": "fb1b52be2496ebe09d9fb086422306c99b1c8a7d7d522d7feb4786c713868cec",
        "jobs.jsonl": "816407a71d5cb9eda43fcf125bb7ffbe72b0d22b7795ccf30f737b2de070e0b6",
        "ledger.bin": "4a6c05cf09f9607d3a27893818a7257e8b4447f095f84214e410200201d39b91",
        "manifest.json": "6cfdcf3a2890024bea6158a89fb9ec251f311175823db0fabba12748a951736d",
        "pool.jsonl": "cfd41de8570416c11cdfddc124d3547ab4fbc4b34c6491026fd3e5b208fdb0be",
    },
    ("reference", 42): {
        "allocations.jsonl": "6f866b51c5e51b10f65a21ff3b8c4115883b2ebd5ebf215476b19011e5a17550",
        "audit.json": "fc252f89ba333a6e0215ca3d330dd32909bd6098ae91cabfc7625f87148bbfd2",
        "jobs.jsonl": "08cf3bc23f1bd332dc4e7c6e1a4939ba7b40cb813da0e875496d993b1201cce4",
        "ledger.bin": "ce1065791ee3265040a16202bc9f558cc913f8990983eca1b4b23dd71e219bc4",
        "manifest.json": "c3e2e3b8cf0bb9f530b6c8d0aafeae791de47062ff32337452aa106dc4a60e2e",
        "pool.jsonl": "c22eb4896146795c55cc1739331fca1de7810e1a475426500120672cb64da200",
    },
    ("reference", 43): {
        "allocations.jsonl": "6f866b51c5e51b10f65a21ff3b8c4115883b2ebd5ebf215476b19011e5a17550",
        "audit.json": "7396137ca6e4d1dc32e54e319da80a6e9baa78c0d4e8749b9921006e90b17954",
        "jobs.jsonl": "08cf3bc23f1bd332dc4e7c6e1a4939ba7b40cb813da0e875496d993b1201cce4",
        "ledger.bin": "ff1b407cbaec9b102bf4305b386d5023cd26304db0bedd089c08df9cf36a46a3",
        "manifest.json": "ba4f92acb46ff593ef514591b13797a282a33fdac177c66bda9bc91baeb6841f",
        "pool.jsonl": "c22eb4896146795c55cc1739331fca1de7810e1a475426500120672cb64da200",
    },
}


def report_digests(name: str, seed: int, out_dir: Path) -> dict[str, str]:
    result = run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"), seed=seed)
    paths = write_reports(result, out_dir)
    return {fname: hashlib.sha256(path.read_bytes()).hexdigest() for fname, path in paths.items()}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_report_digests_are_pinned(name, seed, tmp_path):
    got = report_digests(name, seed, tmp_path)
    assert sorted(got) == sorted(GOLDEN[name, seed])
    changed = [fname for fname in sorted(got) if got[fname] != GOLDEN[name, seed][fname]]
    assert not changed, f"{name} seed {seed}: report bytes changed in {changed}"


if __name__ == "__main__":
    import tempfile

    for name, seed in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            digests = report_digests(name, seed, Path(tmp))
        print(f"    ({name!r}, {seed}): {{")
        for fname, value in sorted(digests.items()):
            print(f"        {fname!r}: {value!r},")
        print("    },")
