"""Rewrite pins.json with the report digests the current code produces.

    python3 perfbench/pin.py

Run it only when a change is meant to alter reports; the benchmark fails
every anchor whose digests differ from the pinned ones.
"""

import json
import shutil
import sys

from run import OUT, PINS, anchor_digests, import_package

if __name__ == "__main__":
    work = OUT / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        digests = anchor_digests(import_package(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
