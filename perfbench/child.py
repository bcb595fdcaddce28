"""One benchmark process: set up a workload, then measure it.

Run by ``run.py`` in a fresh interpreter, with ``src`` on ``PYTHONPATH``.
Set-up is timed from this module's first line, before ``repro`` is
imported.  The last line of standard output is one JSON object.

Modes:

* ``setup``: set up and report the set-up time only;
* ``measure``: untraced passes for ``--seconds``, end-to-end metrics;
* ``trace``: one untraced and one traced pass, per-layer metrics;
* ``record``: one pass in plan order, written to ``reference.json``.
"""

import time

CHILD_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import workloads  # noqa: E402
from layers import Tracer, peak_rss_mb  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# Layers measured once, during set-up; the traced pass does not re-run them.
SETUP_LAYERS = ("programs.load_s", "programs.golden_s", "machine.decode_s",
                "machine.decode_rss_mb", "faults.plan_s",
                "faults.plan_rss_mb", "faults.planned",
                "core.campaign.init_s")

# Reported on every workload; zero where the distributed backend is unused.
DISTRIBUTED_LAYERS = (
    "distributed.publish_s", "distributed.first_unit_s",
    "distributed.first_result_s", "distributed.worker_busy_s",
    "distributed.worker_utilisation", "distributed.worker_idle_s",
    "distributed.coordinator_idle_s", "distributed.complete_s",
    "distributed.shutdown_s", "distributed.requeued", "distributed.restarts")


def reference_key(spec: workloads.WorkloadSpec) -> str:
    return f"{spec.reference}/seed={spec.sample_seed}"


def load_reference() -> Dict[str, dict]:
    try:
        with open(REFERENCE) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def orders(seed: int, size: int):
    """Endless seeded permutations of the plan, one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order


def verify(bench: workloads.Bench, passes: List[workloads.PassResult],
           problems: List[str]) -> Dict[str, int]:
    """Check every pass's verdicts against the pinned reference."""
    size = len(bench.specs)
    attempted = size * len(passes)
    reference = load_reference().get(reference_key(bench.spec))
    if reference is None:
        problems.append(f"no pinned reference {reference_key(bench.spec)!r}")
    elif reference["plan"] != workloads.plan_digest(bench.specs):
        problems.append("the planned sample differs from the pinned plan")
    if problems:
        return {"attempted": attempted, "failed": attempted}
    pinned = reference["verdicts"]
    failed = 0
    for number, result in enumerate(passes, 1):
        if result.error:
            problems.append(f"pass {number}: {result.error}")
        mismatched = [index for index, verdict in result.verdicts.items()
                      if pinned[index] != verdict]
        for index in mismatched[:5]:
            problems.append(
                f"pass {number}: {bench.specs[index].label()}: verdict "
                f"{result.verdicts[index]!r}, pinned {pinned[index]!r}")
        failed += len(mismatched) + size - len(result.verdicts)
    # Work counts are a pure function of the plan; any difference between
    # passes is nondeterminism, reported and never averaged.
    for result in passes[1:]:
        for name, value in result.counts.items():
            if value != passes[0].counts[name]:
                problems.append(f"nondeterministic count {name}: "
                                f"{passes[0].counts[name]} vs {value}")
    return {"attempted": attempted, "failed": failed}


def end_to_end(bench: workloads.Bench,
               passes: List[workloads.PassResult]) -> Dict[str, float]:
    """Figures pooled over the run's passes: every injection's time to
    verdict in every pass, and all injections over all pass walls."""
    spec = bench.spec
    latencies = [seconds * 1e3 for result in passes
                 for seconds in result.latencies.values()]
    activated = passes[0].counts["activated"]
    completed = (activated if spec.engine == "concrete"
                 else passes[0].counts["completed"])
    self_rss = peak_rss_mb()
    worker_rss = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                  / 1024.0 if spec.engine == "distributed" else self_rss)
    return {
        "injections_per_s": (sum(r.counts["injections"] for r in passes)
                             / sum(r.wall_s for r in passes)),
        "injection_p50_ms": statistics.median(latencies),
        "injection_tail_ms": statistics.quantiles(
            latencies, n=100)[spec.tail_percentile - 1],
        "decided_share": completed / activated,
        "peak_rss_mb": self_rss,
        "worker_peak_rss_mb": worker_rss,
    }


def check_tail(bench: workloads.Bench, result: workloads.PassResult,
               problems: List[str]) -> None:
    """A tail percentile needs at least ten injections beyond it."""
    beyond = len(result.latencies) * (100 - bench.spec.tail_percentile) / 100
    if beyond < 10:
        problems.append(f"p{bench.spec.tail_percentile} of "
                        f"{len(result.latencies)} timed injections has only "
                        f"{beyond:g} beyond it")


def distributed_layers(result: workloads.PassResult,
                       events: List[dict], counters: Dict[str, float],
                       workers: int) -> Dict[str, float]:
    """The distributed layer's figures from repro.obs spans and counters.

    ``worker.chunk`` spans are used for worker busy time: they close before
    the result is published, so each ships with its own chunk, whereas a
    ``worker.unit`` span only ships with the worker's next result.
    """

    def spans(name: str) -> List[dict]:
        return [event for event in events
                if event.get("type") == "span" and event["name"] == name]

    chunks = spans("worker.chunk")
    busy = sum(event["duration"] for event in chunks)
    started = result.distributed["started_wall"]
    first_start = min((e["ts"] - e["duration"] for e in chunks),
                      default=started)
    last_end = max((e["ts"] for e in chunks), default=started)
    return {
        "distributed.publish_s": sum(e["duration"]
                                     for e in spans("broker.publish")),
        "distributed.first_unit_s": first_start - started,
        "distributed.first_result_s": result.first_result_s,
        "distributed.worker_busy_s": busy,
        "distributed.worker_utilisation": busy / (workers * result.wall_s),
        # Worker idle polls after the queue drains never ship upstream, so
        # idleness is measured as the gaps in the workers' chunk spans
        # between the first chunk starting and the last one ending.
        "distributed.worker_idle_s": (workers * (last_end - first_start)
                                      - busy),
        "distributed.coordinator_idle_s":
            counters.get("coordinator.idle.wait_seconds", 0.0),
        "distributed.complete_s": sum(e["duration"]
                                      for e in spans("broker.complete")),
        "distributed.shutdown_s": result.shutdown_s,
        "distributed.requeued": result.distributed["requeued"],
        "distributed.restarts": result.distributed["restarts"],
    }


def traced_pass(bench: workloads.Bench, tracer: Tracer, order: List[int]):
    """Run one pass with every layer wrapped; return it and its layers."""
    from repro import obs

    distributed = bench.spec.engine == "distributed"
    tracer.reset()
    tracer.install()
    if distributed:
        obs.configure()  # spans stay in memory until the pass ends
    try:
        result = bench.run_pass(order)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(result.wall_s)
    if distributed:
        hub = obs.get()
        events = hub.snapshot(drain=True).events
        figures = distributed_layers(result, events, hub.merged_counters(),
                                     bench.spec.workers)
        obs.finalize()
        layers.update(figures)
        # The coordinator only publishes, spawns, waits and merges; its
        # unattributed time is what is left after the distributed spans.
        waited = (figures["distributed.publish_s"]
                  + figures["distributed.coordinator_idle_s"]
                  + figures["distributed.shutdown_s"]
                  + layers["core.outcomes.classify_s"])
        layers["trace.unattributed_s"] = max(0.0, result.wall_s - waited)
        layers["trace.unattributed_share"] = (layers["trace.unattributed_s"]
                                              / result.wall_s)
    else:
        layers.update(dict.fromkeys(DISTRIBUTED_LAYERS, 0.0))
    return result, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "record"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    bench = workloads.Bench(workloads.WORKLOADS[args.workload], args.scratch)
    setup_s = time.perf_counter() - CHILD_START
    out: Dict[str, object] = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    problems: List[str] = []
    golden_problem = bench.check_golden()
    if golden_problem:
        problems.append(golden_problem)
    permutations = orders(args.seed, len(bench.specs))

    if args.mode == "record":
        result = bench.run_pass(range(len(bench.specs)))
        if result.error:
            problems.append(result.error)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference = load_reference()
        entry = {"plan": workloads.plan_digest(bench.specs),
                 "verdicts": [result.verdicts[index]
                              for index in range(len(bench.specs))]}
        key = reference_key(bench.spec)
        if key in reference and reference[key] != entry:
            print(f"{args.workload} disagrees with the pinned {key!r}; "
                  f"remove it first to re-pin", file=sys.stderr)
            return 1
        reference[key] = entry
        with open(REFERENCE, "w") as handle:
            json.dump(reference, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(json.dumps(out))
        return 0

    if args.mode == "trace":
        setup_layers = tracer.layer_metrics(0.0)
        tracer.uninstall()
        baseline = bench.run_pass(next(permutations))
        traced, layers = traced_pass(bench, tracer, next(permutations))
        layers.update({name: setup_layers[name] for name in SETUP_LAYERS})
        layers["trace.campaign_s"] = traced.wall_s
        layers["trace.overhead"] = traced.wall_s / baseline.wall_s
        passes = [baseline, traced]
        out["per_layer"] = layers
    else:
        passes = []
        measure_start = time.perf_counter()
        while True:
            passes.append(bench.run_pass(next(permutations)))
            elapsed = time.perf_counter() - measure_start
            # Whole passes only; start another while half of one still fits.
            if (passes[-1].error
                    or elapsed + passes[-1].wall_s / 2 > args.seconds):
                break
        check_tail(bench, passes[0], problems)
        if not any(result.error for result in passes):
            out["end_to_end"] = end_to_end(bench, passes)

    out.update(verify(bench, passes, problems))
    out["passes"] = len(passes)
    out["counts"] = passes[0].counts
    out["problems"] = problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
