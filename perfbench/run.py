"""lkcanet benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {distill_probe,train_wide,eval_region,all} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics for S seconds;
with ``--trace 1`` it measures S/2 seconds untraced and S/2 seconds with
every layer wrapped, and reports the per-layer metrics and the tracing
overhead. The last line of standard output is the result as one JSON
object; the lines before it are the same figures for people, the
environment, and details such as the tail percentile and its sample count.

The library is imported from ``src/`` of the checkout, never from an
installed copy; without it the run exits with code 2. Generated inputs live
in ``.perfbench/`` of the checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import threads

threads.pin()  # before numpy is imported, directly or through lkcanet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("distill_probe", "train_wide", "eval_region")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": threads.BLAS_THREADS,
        "blas_thread_env": threads.pinned_env(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def _human(name: str, seed: int, trace: bool, result: dict) -> list[str]:
    d = result["details"]
    lines = [f"{name}  seed {seed} (input set {d['input_set']})  trace {int(trace)}"]
    na = set(result["not_applicable"])
    for metric, (value, unit) in result["metrics"].items():
        shown = "n/a" if metric in na else f"{value:.6g} {unit}"
        note = "  (computed from shapes)" if metric.endswith("im2col_mb") else ""
        if metric == "step_s.tail":
            t = d["step_s.tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} units)"
        lines.append(f"  {metric:<36} {shown}{note}")
    lines.append(f"  {'fail_rate':<36} {d['fail_rate']:.6g} ratio  "
                 f"({result['failed']}/{result['attempted']} units)")
    if trace:
        rec = d["flop_reconciliation"]
        status = "ok" if not rec["mismatches"] else "FAILED: " + "; ".join(rec["mismatches"])
        lines.append(f"  flop reconciliation over {rec['forwards']} forwards: {status}")
    lines.extend(f"  error: {e}" for e in d["errors"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs the three in turn, for people; each prints its own result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lkcanet" / "__init__.py").is_file():
        print(f"error: no lkcanet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lkcanet

    if Path(lkcanet.__file__).resolve().parent != SRC / "lkcanet":
        print(f"error: lkcanet was imported from {lkcanet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        work_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
        try:
            result = workloads.run(name, args.seed, args.seconds, bool(args.trace), work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may still use it
                work_dir.parent.rmdir()

        for line in _human(name, args.seed, bool(args.trace), result):
            print(line)
        print(json.dumps({"environment": environment(), "not_applicable": result["not_applicable"],
                          "details": result["details"]}, sort_keys=True))
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
