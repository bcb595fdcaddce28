"""Campaign benchmark for the SymPLFIED reproduction.

Runs one of four pinned workloads (see ``perfbench/README.md``) in fresh
processes, checks every injection's verdict against the pinned
``perfbench/reference.json`` and prints each metric by name and unit.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tcas-memory-sweep --seed 1 \\
        --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45   # every workload
    python3 perfbench/run.py --workload tcas-memory-sweep --record

``--record`` pins the verdicts of a workload's sample into
``reference.json``; it refuses to overwrite a pin that disagrees.

Exit status: 0 when every verdict matches, 1 when any injection failed or
a check did not hold, 2 when the checkout has no ``src/repro`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up is measured this many times per run, each in a fresh process
#: (the measuring process is one of them); the median is reported.  Half
#: of the set-up-only processes run before the measurement and half after,
#: so the samples span the run rather than one moment of the host's drift.
SETUP_RUNS = 5
#: Every run, set-up included, must end within this many seconds.
RUN_BUDGET_S = 170.0


def metric_table() -> Tuple[Dict[str, str], Dict[str, str]]:
    """End-to-end and per-layer metric names with units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    return ({m["name"]: m["unit"] for m in config["end_to_end"]},
            {m["name"]: m["unit"] for m in config["per_layer"]})


def child_env(scratch: str) -> Dict[str, str]:
    env = dict(os.environ)
    # Spawned distributed workers inherit this: without src on the path
    # every worker dies on import and the coordinator spends its whole
    # restart budget.
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    # Fixed string hashing, so fingerprint hash collisions (and with them
    # the structural-compare count) repeat exactly from run to run.
    env["PYTHONHASHSEED"] = "0"
    # Broker queues and any other temporary files stay in the checkout.
    env["TMPDIR"] = scratch
    return env


def run_child(args: List[str], scratch: str, deadline: float) -> dict:
    """Run child.py in its own process group; return its JSON line."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--scratch", scratch] + args
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=child_env(scratch), cwd=ROOT,
                               start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return {"problems": [f"child {' '.join(args)} timed out"]}
    finally:
        # Distributed workers share the child's process group; none may
        # outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"problems": [f"child {' '.join(args)} exited with "
                             f"{process.returncode}"]}
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: str) -> dict:
    """One run of one workload; returns the contract's result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    end_to_end, per_layer = metric_table()
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    setups: List[float] = []
    problems: List[str] = []

    def set_up_only(count: int) -> None:
        for _ in range(count):
            result = run_child(common + ["--mode", "setup"], scratch,
                               deadline)
            problems.extend(result.get("problems", []))
            if "setup_s" in result:
                setups.append(result["setup_s"])

    extra = 0 if trace else SETUP_RUNS - 1
    set_up_only(extra // 2)
    result = run_child(common + ["--mode", "trace" if trace else "measure"],
                       scratch, deadline)
    problems += result.get("problems", [])
    if "setup_s" in result:
        setups.append(result["setup_s"])
    set_up_only(extra - extra // 2)

    measured = dict(result.get("per_layer" if trace else "end_to_end", {}))
    if not trace and setups:
        measured["setup_s"] = statistics.median(setups)
    wanted = per_layer if trace else end_to_end
    missing = [metric for metric in wanted if metric not in measured]
    if missing and not problems:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    attempted = result.get("attempted", WORKLOADS[name].sample)
    failed = result.get("failed", attempted)
    print(f"workload {name}: seed {seed}, {result.get('passes', 0)} passes, "
          f"{attempted} injections attempted, {failed} failed")
    if setups and not trace:
        print(f"  set-up samples (s): "
              f"{' '.join(f'{value:.3f}' for value in setups)}")
    for metric, unit in wanted.items():
        print(f"  {metric:40s} {measured.get(metric, 0.0):14.6g} {unit}")
    if result.get("counts"):
        print("  counts per pass: " + " ".join(
            f"{key}={value}" for key, value in result["counts"].items()))
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {metric: {"value": measured.get(metric, 0.0),
                             "unit": unit}
                    for metric, unit in wanted.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders each pass's injections (the sample "
                             "itself is pinned per workload)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record", action="store_true",
                        help="pin the workload's verdicts in reference.json")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload]
        if args.record:
            status = 0
            for name in names:
                result = run_child(["--workload", name, "--mode", "record"],
                                   scratch, time.monotonic() + 600)
                for problem in result.get("problems", []):
                    print(f"{name}: {problem}", file=sys.stderr)
                    status = 1
            return status
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), scratch)
                   for name in names}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))  # only if no other run uses it
        except OSError:
            pass
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
