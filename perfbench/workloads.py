"""The benchmark's four pinned workloads and how one pass of each runs.

A *pass* runs a workload's whole pinned injection sample once, in an order
drawn from the benchmark seed.  Every injection gets a verdict digest that
is checked against ``reference.json``.  Only the child process
(``child.py``) builds a :class:`Bench`; the driver imports this module for the
workload table alone, so ``repro`` is imported lazily.

The program is driven only through its public campaign seams:
``load_workload``, ``Workload.campaign(fault_model=...)``,
``SymbolicCampaign.plan_injections`` / ``FaultModel.plan``,
``SymbolicCampaign.run`` with an ``ExecutionStrategy`` and its
``result_sink``, and ``ConcreteSimulator.run_with_spec``.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class WorkloadSpec:
    """One pinned workload: the program, its fault model and its sample."""

    name: str
    program: str
    #: ``serial`` and ``distributed`` run a symbolic campaign on that
    #: backend; ``concrete`` runs every spec through the concrete simulator.
    engine: str
    fault_model: str
    query: Optional[str]
    sample: int
    sample_seed: int
    #: The highest percentile with at least ten injections of one pass
    #: beyond it; reported as ``injection_tail_ms``.
    tail_percentile: int
    #: Workloads sharing a key must produce identical verdicts.
    reference: str
    max_states: int = 20_000
    workers: int = 2


WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec("replace-register-search", "replace", "serial", "register",
                 "err-output", sample=60, sample_seed=7, tail_percentile=80,
                 reference="replace-register", max_states=2_500),
    WorkloadSpec("tcas-memory-sweep", "tcas", "serial", "memory",
                 "latent-err", sample=1000, sample_seed=7,
                 tail_percentile=99, reference="tcas-memory"),
    WorkloadSpec("replace-bitflip-concrete", "replace", "concrete", "bitflip",
                 None, sample=600, sample_seed=7, tail_percentile=98,
                 reference="replace-bitflip"),
    # Only activated injections have a worker-side search time (729 of
    # the 1000), hence p98 rather than p99.
    WorkloadSpec("tcas-memory-distributed", "tcas", "distributed", "memory",
                 "latent-err", sample=1000, sample_seed=7,
                 tail_percentile=98, reference="tcas-memory"),
)}


def digest(activated: bool, completed: bool, stop: str,
           classes: Sequence[str], solutions: int) -> str:
    """One injection's verdict: what the reference pins per injection."""
    return (f"{int(activated)}|{int(completed)}|{stop}|"
            f"{','.join(sorted(set(classes)))}|{solutions}")


def plan_digest(specs: Sequence[Any]) -> str:
    """A content digest of the planned sample (spec labels, in plan order)."""
    joined = "\n".join(spec.label() for spec in specs)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass measured and which verdicts it produced."""

    wall_s: float = 0.0
    #: Plan index -> time to verdict, seconds.
    latencies: Dict[int, float] = field(default_factory=dict)
    #: Campaign start to the first merged result (campaign passes only).
    first_result_s: float = 0.0
    #: Last merged result to ``run`` returning (campaign passes only).
    shutdown_s: float = 0.0
    #: Plan index -> verdict digest.
    verdicts: Dict[int, str] = field(default_factory=dict)
    #: Work counts that must repeat exactly from pass to pass.
    counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: Distributed only: telemetry and worker lifecycle figures.
    distributed: Dict[str, float] = field(default_factory=dict)


class _Recorder:
    """The result sink: timestamps each verdict as the campaign emits it."""

    def __init__(self, index_of: Dict[Any, int], golden: Tuple,
                 worker_side_latency: bool) -> None:
        import repro.core.outcomes as outcomes

        self._outcomes = outcomes
        self.index_of = index_of
        self.golden = golden
        self.worker_side_latency = worker_side_latency
        self.result = PassResult()
        self.start = self.last = time.perf_counter()
        self.first: Optional[float] = None
        self.raw: List[Tuple[int, Any, List[str]]] = []

    def __call__(self, injection: Any, result: Any) -> None:
        # Looked up per call so the traced run's wrapper is the one used.
        classify = self._outcomes.classify
        classes = [classify(solution.state, self.golden).kind.value
                   for solution in result.solutions]
        now = time.perf_counter()
        if self.first is None:
            self.first = now
        index = self.index_of[injection]
        if self.worker_side_latency:
            # Batch backends merge whole chunks at once, so the merge time
            # is a queue position; the worker's own search time is not.
            if result.search is not None:
                self.result.latencies[index] = \
                    result.search.statistics.elapsed_seconds
        else:
            self.result.latencies[index] = now - self.last
        self.last = now
        self.raw.append((index, result, classes))

    def finish(self) -> PassResult:
        end = time.perf_counter()
        out = self.result
        out.wall_s = end - self.start
        out.first_result_s = (self.first or end) - self.start
        out.shutdown_s = end - self.last
        counts = dict.fromkeys(("injections", "activated", "completed",
                                "solutions", "explored"), 0)
        for index, result, classes in self.raw:
            search = result.search
            stop = search.stop_reason if search is not None else "inactive"
            out.verdicts[index] = digest(result.activated, result.completed,
                                         stop, classes, len(classes))
            counts["injections"] += 1
            counts["activated"] += int(result.activated)
            counts["completed"] += int(result.activated and result.completed)
            counts["solutions"] += len(classes)
            if search is not None:
                counts["explored"] += search.statistics.explored_states
        out.counts = counts
        return out


class Bench:
    """A set-up workload, ready to run passes."""

    def __init__(self, spec: WorkloadSpec, scratch: str) -> None:
        self.spec = spec
        self.scratch = scratch
        self.passes_run = 0
        import repro.programs as programs

        # Looked up through the module so the traced run's wrapper is used.
        self.workload = programs.load_workload(spec.program)
        if spec.engine == "concrete":
            from repro.concrete.simulator import ConcreteSimulator
            from repro.faults import BitFlipFault

            self.golden = self.workload.golden_output()
            # Register-word flips only: the memory base model would add the
            # planner's materialise-everything cost a second time.
            model = BitFlipFault(base_models=("register",))
            self.specs = model.plan(self.workload.program,
                                    memory=self.workload.data_segment,
                                    sample=spec.sample, seed=spec.sample_seed)
            self.simulator = ConcreteSimulator(
                self.workload.program, self.workload.detectors,
                max_steps=self.workload.recommended_max_steps)
        else:
            self.campaign, self.query = self.workload.campaign(
                kind=spec.query, fault_model=spec.fault_model,
                max_states_per_injection=spec.max_states)
            self.golden = self.workload.golden_output()
            self.specs = self.campaign.plan_injections(
                sample=spec.sample, seed=spec.sample_seed)
        self.index_of = {injection: index
                         for index, injection in enumerate(self.specs)}

    def check_golden(self) -> Optional[str]:
        """Compare the golden output with the program's Python reference."""
        from repro.programs import (DEFAULT_LINES, DEFAULT_PATTERN,
                                    DEFAULT_SUBSTITUTION, decode_output,
                                    reference_alt_sep_test, reference_replace)

        if self.spec.program == "replace":
            want = reference_replace(DEFAULT_PATTERN, DEFAULT_SUBSTITUTION,
                                     DEFAULT_LINES)
            got = decode_output(self.golden)
        else:
            want = (reference_alt_sep_test(self.workload.default_input),)
            got = tuple(self.golden)
        if got != want:
            return f"golden output {got!r} differs from the reference {want!r}"
        return None

    def run_pass(self, order: Sequence[int]) -> PassResult:
        self.passes_run += 1
        if self.spec.engine == "concrete":
            return self._concrete_pass(order)
        return self._campaign_pass(order)

    def _campaign_pass(self, order: Sequence[int]) -> PassResult:
        from repro.core.campaign import SerialExecutionStrategy
        from repro.core.search import SearchResultCache

        injections = [self.specs[index] for index in order]
        queue = None
        if self.spec.engine == "distributed":
            from repro.distributed import (DistributedConfig,
                                           DistributedExecutionStrategy)
            from repro.parallel.spec import QuerySpec

            # An explicit queue keeps the workers' logs after the run, so
            # worker restarts can be counted; it lives in the checkout.
            queue = os.path.join(self.scratch,
                                 f"queue-{os.getpid()}-{self.passes_run}")
            strategy = DistributedExecutionStrategy(
                QuerySpec.predefined(self.spec.query,
                                     golden_output=self.golden),
                DistributedConfig(workers=self.spec.workers,
                                  queue_dir=queue))
        else:
            strategy = SerialExecutionStrategy(
                result_cache=SearchResultCache())
        error = None
        started_wall = time.time()
        recorder = _Recorder(self.index_of, self.golden,
                             worker_side_latency=queue is not None)
        strategy.result_sink = recorder
        try:
            self.campaign.run(self.query, injections=injections,
                              strategy=strategy)
        except Exception as exc:  # the run reports it as failed injections
            error = f"{type(exc).__name__}: {exc}"
        result = recorder.finish()
        result.error = error
        if queue is not None:
            spawned = len(glob.glob(os.path.join(queue, "workers",
                                                 "worker-*.log")))
            result.distributed = {
                "started_wall": started_wall,
                "requeued": len(strategy.requeued_tasks),
                "restarts": max(0, spawned - self.spec.workers),
            }
            shutil.rmtree(queue, ignore_errors=True)
        return result

    def _concrete_pass(self, order: Sequence[int]) -> PassResult:
        import repro.core.outcomes as outcomes

        workload = self.workload
        result = PassResult()
        counts = dict.fromkeys(("injections", "activated", "instructions"), 0)
        start = last = time.perf_counter()
        try:
            for index in order:
                run = self.simulator.run_with_spec(
                    self.specs[index], workload.default_input,
                    workload.data_segment)
                kind = outcomes.classify(run.state, self.golden).kind.value
                now = time.perf_counter()
                result.latencies[index] = now - last
                last = now
                result.verdicts[index] = digest(
                    run.activated, True, run.state.status.value, [kind], 1)
                counts["injections"] += 1
                counts["activated"] += int(run.activated)
                counts["instructions"] += run.state.steps
        except Exception as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        result.wall_s = time.perf_counter() - start
        result.counts = counts
        return result
