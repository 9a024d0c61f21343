"""Record the seed-0 reference values that every seed-0 run is checked
against.  Run from the repository root, on the commit whose outputs are
the reference:

    python3 perfbench/record.py

It runs each workload's operation once at seed 0, requires the workload's
own checks to pass, and writes perfbench/expected_seed0.json.
"""

import json
import os
import sys
import tempfile

import run  # pins BLAS threads before numpy is imported
from workloads import EXPECTED_PATH, WORKLOADS


def main() -> int:
    nct = run.import_library()
    record = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        for name, cls in WORKLOADS.items():
            wl = cls(0, workdir)
            wl.prepare(nct.cli)
            out = wl.op(nct)
            bad = wl.check(out)
            if bad:
                sys.exit(f"{name}: {bad}")
            record[name] = wl.fields(out)
            print(f"{name}: {len(record[name])} fields", flush=True)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
