"""dicebayes benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload tables|slice-quad|query-stream \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports wall_s, setup_s,
peak_rss_mb, query_p50_s and query_p90_s; --trace 1 reports the per-layer
metrics of a traced round and trace.overhead_s. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tables", "slice-quad", "query-stream")
TIME_LIMIT_S = 170.0      # the whole run, set-up included


def child_env(root: Path) -> dict:
    """Environment of the workload process and the interpreters it starts: the
    program from ./src, one BLAS thread, no seed taken from the caller's
    environment."""
    env = dict(os.environ)
    env.pop("DICEBAYES_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "dicebayes" / "__init__.py").is_file():
        print("error: run from the root of a dicebayes checkout (no src/dicebayes here)",
              file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=child_env(root), capture_output=True, text=True,
                              timeout=max(TIME_LIMIT_S - (time.perf_counter() - started), 1.0))
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish within {TIME_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: workload {args.workload} exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in result["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)

    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "query_p50_s": "s",
             "query_p90_s": "s", "trace.overhead_s": "s"}
    metrics = {name: {"value": value,
                      "unit": units.get(name, "s" if name.endswith("_s") else "count")}
               for name, value in result["metrics"].items()}
    print(f"{args.workload}, seed {args.seed}: " + ", ".join(
        f"round of {r['wall_s']:.3f} s wall at slowdown {r['slowdown']:.3f}"
        for r in result["rounds"]), file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
