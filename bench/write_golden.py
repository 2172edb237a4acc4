"""Regenerate ``golden.json`` from the code under test.

The golden file pins every verdict, spectrum, gap and node count the
workloads produce, so a run fails on any change to them.  Regenerate it
only in a change that is meant to move those values (a new search that
visits other nodes, say), and say so in that change.  Refuses to write
when an independent re-check of a witness fails.  From the repository
root::

    PYTHONPATH=src python3 bench/write_golden.py
"""

from __future__ import annotations

import json
import sys

from sample import GOLDEN
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    for name, make in WORKLOADS.items():
        records = {}
        for job in make(0):
            result = job.run()
            problems = job.verify(result)
            if problems:
                print(f"{name} {job.key}: {problems}", file=sys.stderr)
                return 1
            records[job.key] = job.observe(result)
        golden[name] = dict(sorted(records.items()))
        print(f"{name}: {len(records)} records", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
