"""Unified workload driver (``repro bench`` / ``benchmarks/run_workloads.py``).

One standardized entry point over the factorial/tcas/replace campaign
matrix, in the mould of the Continuous-Memory-Profiler exemplar's
``run_workload.sh``:

* **trajectory mode** (default): run a pinned matrix of campaigns — each
  entry in a fresh subprocess so wall clock and peak RSS are per-entry —
  and emit a schema-versioned ``BENCH_<sha>.json`` trajectory point
  (wall-clock, injections/sec, peak RSS, cache hit rates, outcome
  aggregates).  CI commits one point per merge to
  ``benchmarks/data/trajectory/`` and ``benchmarks/check_bench_trajectory.
  py`` gates regressions against the last committed point.
* **equivalence mode** (``--expect-identical``): run the same campaign
  through several backends (pool, distributed, TCP broker variants,
  ``--results`` store-backed view, worker-kill recovery) and diff the
  normalized ``repro analyze`` outputs against the serial baseline — the
  single entry point that replaced the ad-hoc diff pipelines in the
  ``smoke-fault-matrix`` and ``smoke-network`` CI jobs.

The matrix entries pin every input (sample seed, caps, backend) so two
runs of the same tree measure the same work; only machine speed moves the
numbers.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

#: Bump when the BENCH json layout changes incompatibly.
SCHEMA_VERSION = 1

_NORMALIZE_DROP_CONTAINS = ("elapsed seconds",)
_NORMALIZE_DROP_PREFIXES = ("workers", "backend")


def _entry(entry_id: str, workload: str, fault_model: Optional[str],
           query: str, **options) -> Dict[str, object]:
    entry: Dict[str, object] = {"id": entry_id, "workload": workload,
                                "fault_model": fault_model, "query": query,
                                "backend": "serial"}
    entry.update(options)
    return entry


def _interp_entry(entry_id: str, workload: str, engine: str, dispatch: str,
                  repeats: int) -> Dict[str, object]:
    """An interpreter-throughput entry: repeated golden runs, no campaign.

    *engine* is ``concrete`` (``run_concrete`` loop) or ``symbolic``
    (``Executor.step`` loop); *dispatch* is ``decoded`` (the pre-decoded
    dispatch tables) or ``legacy`` (the original string-dispatch path).
    The decoded/legacy pairs make the hot-path speedup a first-class
    trajectory metric instead of a one-off measurement.
    """
    return {"id": entry_id, "mode": "interp", "workload": workload,
            "engine": engine, "dispatch": dispatch, "repeats": repeats}


#: Pinned campaign matrices.  ``ci`` is the per-PR trajectory matrix —
#: small enough for a CI job, wide enough to cover every workload, every
#: fault model, and the streaming ``--results`` path (whose 1x/10x pair is
#: the measured peak-RSS-stays-flat check).
MATRICES: Dict[str, List[Dict[str, object]]] = {
    "smoke": [
        _entry("factorial-register-errout-12", "factorial", "register",
               "err-output", max_injections=12),
    ],
    "ci": [
        _entry("factorial-register-errout", "factorial", "register",
               "err-output", sample=6, seed=7, max_states=5000),
        _entry("factorial-control-errout", "factorial", "control",
               "err-output", sample=6, seed=7, max_states=5000),
        _entry("factorial-operand-errout", "factorial", "operand",
               "err-output", sample=6, seed=7, max_states=5000),
        _entry("tcas-memory-latent", "tcas", "memory", "latent-err",
               sample=6, seed=7, max_states=5000),
        _entry("replace-register-errout", "replace", "register",
               "err-output", sample=4, seed=7, max_states=4000),
        _entry("replace-results-stream-1x", "replace", "register",
               "err-output", max_injections=4, max_states=2500,
               results=True),
        _entry("replace-results-stream-10x", "replace", "register",
               "err-output", max_injections=40, max_states=2500,
               results=True),
        _interp_entry("interp-concrete-decoded", "replace", "concrete",
                      "decoded", repeats=40),
        _interp_entry("interp-concrete-legacy", "replace", "concrete",
                      "legacy", repeats=40),
        _interp_entry("interp-symbolic-decoded", "replace", "symbolic",
                      "decoded", repeats=4),
        _interp_entry("interp-symbolic-legacy", "replace", "symbolic",
                      "legacy", repeats=4),
    ],
}
MATRICES["full"] = MATRICES["ci"] + [
    _entry("factorial-register-errout-pool", "factorial", "register",
           "err-output", sample=6, seed=7, max_states=5000,
           backend="pool", workers=2),
    _entry("tcas-memory-latent-pool", "tcas", "memory", "latent-err",
           sample=6, seed=7, max_states=5000, backend="pool", workers=2),
]


def resolve_sha(explicit: Optional[str] = None) -> str:
    """The commit identity stamped into the BENCH filename and payload."""
    if explicit:
        return explicit[:12]
    env = os.environ.get("GITHUB_SHA")
    if env:
        return env[:12]
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "local"


# ----------------------------------------------------------- entry execution

def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def execute_interp_entry(entry: Dict[str, object]) -> Dict[str, object]:
    """Run one interpreter-throughput entry and return its record.

    Times *repeats* golden runs of the workload — one warm-up run first, so
    one-time decode/specialisation cost stays out of the measured window —
    and reports instructions/second.  ``engine == "concrete"`` drives the
    ``run_concrete``/``run_concrete_legacy`` loop; ``engine == "symbolic"``
    steps an :class:`~repro.machine.executor.Executor` (with
    ``legacy_dispatch`` selected by the entry) through the fault-free path.
    """
    from ..machine.executor import (ExecutionConfig, Executor, run_concrete,
                                    run_concrete_legacy)
    from ..programs import load_workload

    workload = load_workload(str(entry["workload"]))
    engine = str(entry.get("engine", "concrete"))
    dispatch = str(entry.get("dispatch", "decoded"))
    repeats = int(entry.get("repeats") or 10)
    max_steps = workload.recommended_max_steps

    if engine == "concrete":
        run_fn = run_concrete_legacy if dispatch == "legacy" else run_concrete

        def run_once() -> int:
            state = workload.initial_state()
            run_fn(workload.program, state, workload.detectors, max_steps)
            return state.steps
    elif engine == "symbolic":
        executor = Executor(
            workload.program, workload.detectors,
            ExecutionConfig(max_steps=max_steps,
                            legacy_dispatch=(dispatch == "legacy")))

        def run_once() -> int:
            state = workload.initial_state()
            while state.is_running:
                successors = executor.step(state)
                if len(successors) != 1:
                    raise RuntimeError(
                        f"golden run forked into {len(successors)} states")
                state = successors[0]
            return state.steps
    else:
        raise ValueError(f"interp entry engine must be concrete or "
                         f"symbolic, got {engine!r}")

    run_once()  # warm-up: decode + superblock compile before the clock
    instructions = 0
    started = time.perf_counter()
    for _ in range(repeats):
        instructions += run_once()
    wall_clock = time.perf_counter() - started
    return {
        "id": entry["id"],
        "mode": "interp",
        "workload": entry["workload"],
        "engine": engine,
        "dispatch": dispatch,
        "repeats": repeats,
        "instructions": instructions,
        "wall_clock_seconds": wall_clock,
        "instructions_per_second": (instructions / wall_clock
                                    if wall_clock > 0 else 0.0),
        "max_rss_kb": _peak_rss_kb(),
    }


def execute_entry(entry: Dict[str, object]) -> Dict[str, object]:
    """Run one matrix entry in-process and return its benchmark record.

    Meant to run inside a fresh subprocess (see :func:`run_entry`) so that
    ``ru_maxrss`` — a high-water mark — measures this entry alone.
    """
    if entry.get("mode") == "interp":
        return execute_interp_entry(entry)
    from ..parallel.spec import CacheSpec, QuerySpec
    from ..programs import load_workload

    workload = load_workload(str(entry["workload"]),
                             isa=entry.get("isa") or None)
    campaign, query = workload.campaign(
        kind=str(entry["query"]),
        fault_model=entry.get("fault_model"),
        max_states_per_injection=int(entry.get("max_states") or 20_000))
    golden = workload.golden_output()
    injections = campaign.plan_injections(
        sample=entry.get("sample"), seed=entry.get("seed"))
    if entry.get("max_injections"):
        injections = injections[:int(entry["max_injections"])]

    backend = str(entry.get("backend", "serial"))
    workers = int(entry.get("workers", 1))
    if backend == "serial":
        from ..core.campaign import SerialExecutionStrategy
        cache = CacheSpec().build()
        strategy = SerialExecutionStrategy(result_cache=cache)
        cache_statistics = lambda: cache.statistics  # noqa: E731
    elif backend == "pool":
        from ..parallel import ParallelConfig, ParallelExecutionStrategy
        printed = [item for item in golden if isinstance(item, int)]
        query_spec = QuerySpec.predefined(
            str(entry["query"]), golden_output=golden,
            expected_value=printed[-1] if printed else None)
        inner = ParallelExecutionStrategy(
            query_spec, ParallelConfig(workers=workers))
        strategy = inner
        cache_statistics = lambda: inner.cache_statistics  # noqa: E731
    else:
        raise ValueError(f"bench entry backend must be serial or pool, "
                         f"got {backend!r}")

    store = None
    store_path = None
    if entry.get("results"):
        from .recording import RecordingStrategy
        from .store import SqliteResultStore
        store_path = os.path.join(tempfile.mkdtemp(prefix="repro-bench-"),
                                  "results.sqlite")
        store = SqliteResultStore(store_path)
        strategy = RecordingStrategy(
            strategy, store, golden_output=golden,
            meta={"workload": workload.name, "bench_entry": entry["id"]})

    started = time.perf_counter()
    result = campaign.run(query, injections=injections, strategy=strategy)
    wall_clock = time.perf_counter() - started

    if store is not None:
        aggregates = strategy.aggregates
    else:
        from .aggregates import OutcomeAggregates
        aggregates = OutcomeAggregates.from_campaign_result(result, golden)
    stats = cache_statistics()
    record: Dict[str, object] = {
        "id": entry["id"],
        "workload": entry["workload"],
        "fault_model": entry.get("fault_model"),
        "query": entry["query"],
        "backend": backend,
        "workers": workers,
        "results_store": bool(entry.get("results")),
        "injections": len(injections),
        "wall_clock_seconds": wall_clock,
        "injections_per_second": (len(injections) / wall_clock
                                  if wall_clock > 0 else 0.0),
        "max_rss_kb": _peak_rss_kb(),
        "cache": (None if stats is None else {
            "lookups": stats.lookups,
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
        }),
        "aggregates": aggregates.as_dict(),
    }
    if store is not None:
        store.close()
    return record


def run_entry(entry: Dict[str, object],
              timeout: float = 900.0) -> Dict[str, object]:
    """Run one entry in a fresh subprocess and return its record."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.results.bench",
         "--run-entry", json.dumps(entry)],
        capture_output=True, text=True, timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(
            f"bench entry {entry['id']} failed "
            f"(exit {completed.returncode}):\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_matrix(matrix: str, sha: str,
               only: Optional[Sequence[str]] = None,
               timeout: float = 900.0) -> Dict[str, object]:
    """Run a pinned matrix, one subprocess per entry; return the BENCH doc."""
    entries = MATRICES[matrix]
    if only:
        unknown = set(only) - {str(entry["id"]) for entry in entries}
        if unknown:
            raise SystemExit(f"unknown bench entry ids: {sorted(unknown)}")
        entries = [entry for entry in entries if entry["id"] in set(only)]
    records = []
    for entry in entries:
        print(f"bench: {entry['id']} ...", flush=True)
        record = run_entry(entry, timeout=timeout)
        if record.get("mode") == "interp":
            print(f"bench: {entry['id']}: "
                  f"{record['instructions']} instructions in "
                  f"{record['wall_clock_seconds']:.2f}s "
                  f"({record['instructions_per_second']:,.0f} instr/s, "
                  f"{record['engine']}/{record['dispatch']})", flush=True)
        else:
            print(f"bench: {entry['id']}: "
                  f"{record.get('injections')} injections in "
                  f"{record['wall_clock_seconds']:.2f}s "
                  f"({record.get('injections_per_second', 0.0):.2f}/s, "
                  f"rss {record.get('max_rss_kb')} kB)", flush=True)
        records.append(record)
    return {
        "schema_version": SCHEMA_VERSION,
        "sha": sha,
        "matrix": matrix,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "entries": records,
    }


# ------------------------------------------------------- equivalence checks

def normalize_output(text: str) -> str:
    """Strip timing/backend-identity lines — the same normalization the CI
    smoke jobs used (``grep -v "elapsed seconds" -e "^workers" -e
    "^backend"``); everything left must be byte-identical across backends."""
    kept = []
    for line in text.splitlines():
        if any(token in line for token in _NORMALIZE_DROP_CONTAINS):
            continue
        if line.startswith(_NORMALIZE_DROP_PREFIXES):
            continue
        kept.append(line)
    return "\n".join(kept) + "\n"


class _TcpBroker:
    """A ``repro broker`` subprocess bound to a free port."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "broker", "--listen",
             "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if "broker listening on " not in line:
            self.stop()
            raise RuntimeError(f"broker failed to start: {line!r}")
        self.url = line.split("broker listening on ", 1)[1].strip()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.process.kill()
                self.process.wait()


def _spawn_worker(queue: str, lease_seconds: Optional[float] = None,
                  ) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro", "worker", "--queue", queue,
               "--max-idle", "120"]
    if lease_seconds is not None:
        command += ["--lease-seconds", str(lease_seconds)]
    return subprocess.Popen(command, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _stop_workers(workers: Sequence[subprocess.Popen]) -> None:
    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
    for worker in workers:
        try:
            worker.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            worker.kill()
            worker.wait()


def _sweep_argv(args: argparse.Namespace) -> List[str]:
    argv = [sys.executable, "-m", "repro", "analyze",
            "--workload", args.workload, "--query", args.query]
    if args.fault_model:
        argv += ["--fault-model", args.fault_model]
    if getattr(args, "burst_k", None) is not None:
        argv += ["--burst-k", str(args.burst_k)]
    if getattr(args, "isa", None):
        argv += ["--isa", args.isa]
    if args.sample is not None:
        argv += ["--sample", str(args.sample)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.max_injections is not None:
        argv += ["--max-injections", str(args.max_injections)]
    if args.max_states is not None:
        argv += ["--max-states", str(args.max_states)]
    return argv


def _run_analyze(argv: List[str], timeout: float) -> str:
    completed = subprocess.run(argv, capture_output=True, text=True,
                               timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(f"analyze failed (exit {completed.returncode}): "
                           f"{' '.join(argv)}\n{completed.stderr}")
    return completed.stdout


def _run_variant(variant: str, args: argparse.Namespace, scratch: str,
                 timeout: float) -> str:
    """Run one backend variant of the sweep and return its raw stdout."""
    base = _sweep_argv(args)
    if variant == "serial":
        return _run_analyze(base, timeout)
    if variant == "pool":
        return _run_analyze(base + ["--backend", "pool", "--workers", "2"],
                            timeout)
    if variant == "distributed":
        return _run_analyze(
            base + ["--backend", "distributed", "--workers", "2"], timeout)
    if variant == "results":
        # Serial sweep streamed into a store: proves the store-backed lazy
        # CampaignResult prints byte-identically to the in-memory one.
        path = os.path.join(scratch, "results-variant.sqlite")
        if os.path.exists(path):
            os.unlink(path)
        return _run_analyze(base + ["--results", path], timeout)
    if variant in ("tcp", "tcp-task", "tcp-kill"):
        broker = _TcpBroker()
        workers: List[subprocess.Popen] = []
        killer = None
        try:
            extra = ["--backend", "distributed", "--workers", "0",
                     "--queue", broker.url]
            if variant == "tcp-task":
                extra += ["--granularity", "task"]
            lease = 3.0 if variant == "tcp-kill" else None
            if variant == "tcp-kill":
                extra += ["--lease-seconds", "3"]
            workers = [_spawn_worker(broker.url, lease_seconds=lease)
                       for _ in range(2)]
            if variant == "tcp-kill":
                # SIGKILL one worker mid-campaign; the expired lease must
                # requeue its claim onto the survivor.
                import threading
                victim = workers[0]
                killer = threading.Timer(2.0, victim.kill)
                killer.start()
            return _run_analyze(base + extra, timeout)
        finally:
            if killer is not None:
                killer.cancel()
            _stop_workers(workers)
            broker.stop()
    raise SystemExit(f"unknown --expect-identical backend variant "
                     f"{variant!r}")


def run_expect_identical(args: argparse.Namespace) -> int:
    """Backend-equivalence gate: every variant must match serial exactly."""
    variants = [name.strip() for name in args.backends.split(",")
                if name.strip()]
    scratch = tempfile.mkdtemp(prefix="repro-bench-eq-")
    isa_note = f" isa={args.isa}" if getattr(args, "isa", None) else ""
    print(f"expect-identical: workload={args.workload} "
          f"query={args.query} fault_model={args.fault_model}{isa_note} "
          f"variants={variants}", flush=True)
    baseline = normalize_output(
        _run_variant("serial", args, scratch, args.timeout))
    failures = []
    for variant in variants:
        started = time.perf_counter()
        output = normalize_output(
            _run_variant(variant, args, scratch, args.timeout))
        elapsed = time.perf_counter() - started
        if output == baseline:
            print(f"  {variant:<12} identical ({elapsed:.1f}s)", flush=True)
            continue
        failures.append(variant)
        print(f"  {variant:<12} DIFFERS from the serial baseline:",
              flush=True)
        diff = difflib.unified_diff(
            baseline.splitlines(keepends=True),
            output.splitlines(keepends=True),
            fromfile="serial", tofile=variant)
        sys.stdout.writelines(diff)
    if failures:
        print(f"FAIL: backends not identical to serial: {failures}",
              file=sys.stderr)
        return 1
    print("all backends identical to the serial baseline")
    return 0


# ------------------------------------------------------------------ the CLI

def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", default="ci", choices=sorted(MATRICES),
                        help="pinned campaign matrix to run (default: ci)")
    parser.add_argument("--only", nargs="*", default=None, metavar="ID",
                        help="run only these matrix entry ids")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="trajectory point path "
                             "(default: BENCH_<sha>.json)")
    parser.add_argument("--sha", default=None,
                        help="commit sha to stamp (default: $GITHUB_SHA or "
                             "git rev-parse)")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="per-entry / per-variant subprocess timeout")
    parser.add_argument("--expect-identical", action="store_true",
                        help="equivalence mode: diff backend outputs "
                             "against the serial baseline instead of "
                             "benchmarking")
    parser.add_argument("--backends", default="pool,distributed",
                        help="comma-separated variants for "
                             "--expect-identical: pool, distributed, "
                             "results, tcp, tcp-task, tcp-kill")
    parser.add_argument("--workload", default="factorial",
                        help="workload for --expect-identical")
    parser.add_argument("--fault-model", default=None,
                        help="fault model for --expect-identical")
    parser.add_argument("--burst-k", type=int, default=None, metavar="K",
                        help="burst size for --expect-identical with "
                             "--fault-model burst (passed through to "
                             "'repro analyze --burst-k')")
    parser.add_argument("--isa", default=None, metavar="NAME",
                        help="ISA frontend for --expect-identical (retargets "
                             "the workload, e.g. mips or rv32im)")
    parser.add_argument("--query", default="err-output",
                        help="query for --expect-identical")
    parser.add_argument("--sample", type=int, default=None,
                        help="--sample for --expect-identical")
    parser.add_argument("--seed", type=int, default=None,
                        help="--seed for --expect-identical")
    parser.add_argument("--max-injections", type=int, default=None,
                        help="--max-injections for --expect-identical")
    parser.add_argument("--max-states", type=int, default=None,
                        help="--max-states for --expect-identical")
    parser.add_argument("--run-entry", default=None, help=argparse.SUPPRESS)


def run_bench(args: argparse.Namespace) -> int:
    if args.run_entry:
        # Internal child mode: one entry, record json on stdout.
        record = execute_entry(json.loads(args.run_entry))
        print(json.dumps(record))
        return 0
    if args.expect_identical:
        return run_expect_identical(args)
    sha = resolve_sha(args.sha)
    report = run_matrix(args.matrix, sha, only=args.only,
                        timeout=args.timeout)
    output = args.output or f"BENCH_{sha}.json"
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"trajectory point written: {output} "
          f"({len(report['entries'])} entries)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_workloads",
        description="unified workload driver over the campaign matrix")
    add_bench_arguments(parser)
    return run_bench(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
