"""Record the output fingerprints that the benchmark checks every unit against.

Usage, from the root of a checkout:

    python3 perfbench/record.py [--workload NAME ...] [--sets 0 1 ...]

For each workload and input set it writes to ``perfbench/reference.json``:
epoch 0's ``loss_h`` for the training workloads, and MPSNR and SAM of every
region in the pool for ``eval_region``. Existing entries for other sets are
kept. Re-record only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import threads

threads.pin()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (after the thread pin and the path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS))
    parser.add_argument("--sets", nargs="*", type=int, default=range(workloads.INPUT_SETS))
    args = parser.parse_args(argv)

    path = workloads.REFERENCE_PATH
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in args.workload:
        wl = workloads.WORKLOADS[name]
        entries = table.setdefault(name, [None] * workloads.INPUT_SETS)
        for s in args.sets:
            work_dir = ROOT / ".perfbench" / f"record-{os.getpid()}"
            try:
                state = wl.setup(wl.inputs(s, work_dir), s)
                entries[s] = wl.record(state, s)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name} set {s}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
