"""Symbolic fault-injection campaigns (paper Section 6.1).

A campaign sweeps a fault model over a program: for every injection point
the model enumerates (for example "``err`` in every register used by every
instruction"), it

1. runs the program concretely up to the breakpoint (guaranteeing the fault
   is activated),
2. replaces the target location's contents with ``err``,
3. model-checks the resulting symbolic state against a search query
   (e.g. "halted with a printed value other than 1"), and
4. records the solutions, the search statistics and whether the per-injection
   search completed.

The paper splits such a campaign into independent search *tasks* executed on
a cluster; the decomposition and the aggregate completion statistics live in
:mod:`repro.core.tasks`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs as _obs
from ..detectors import DetectorSet, EMPTY_DETECTORS
from ..errors.injector import Injection, prepare_injected_state
from ..faults.models import FaultModel, RegisterValueFault
from ..isa.program import Program
from ..machine.executor import ExecutionConfig, Executor
from ..machine.state import MachineState, initial_state
from .outcomes import Outcome, classify
from .queries import SearchQuery
from .search import (BoundedModelChecker, SearchResult, SearchResultCache,
                     Solution)

#: Callback invoked after each injection: (done, total, last result).
ProgressCallback = Callable[[int, int, "InjectionResult"], None]

#: Callback invoked once per completed injection experiment, as soon as the
#: executing strategy learns the result (for the pool and distributed
#: backends that is when the containing chunk completes).  Unlike the
#: ProgressCallback — which the pool backends only call with the *last*
#: result of a chunk — the sink sees every result exactly once, which is
#: what checkpoint journaling needs.
ResultSink = Callable[["Injection", "InjectionResult"], None]


@dataclass
class InjectionResult:
    """Result of model checking a single injection experiment."""

    injection: Injection
    activated: bool
    search: Optional[SearchResult] = None

    @property
    def found_solutions(self) -> bool:
        return self.search is not None and self.search.found

    @property
    def solutions(self) -> List[Solution]:
        return self.search.solutions if self.search is not None else []

    @property
    def completed(self) -> bool:
        return self.search.completed if self.search is not None else True


@dataclass
class CampaignResult:
    """Aggregate result of a symbolic campaign."""

    query_description: str
    results: List[InjectionResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def injections_run(self) -> int:
        return len(self.results)

    @property
    def injections_activated(self) -> int:
        return sum(1 for r in self.results if r.activated)

    @property
    def injections_with_solutions(self) -> int:
        return sum(1 for r in self.results if r.found_solutions)

    @property
    def total_solutions(self) -> int:
        return sum(len(r.solutions) for r in self.results)

    @property
    def all_completed(self) -> bool:
        return all(r.completed for r in self.results)

    def solutions(self) -> List[Tuple[Injection, Solution]]:
        found = []
        for result in self.results:
            for solution in result.solutions:
                found.append((result.injection, solution))
        return found

    def outcomes(self, golden_output: Optional[Sequence] = None
                 ) -> List[Tuple[Injection, Outcome]]:
        """Classify every solution state against the golden output."""
        return [(injection, classify(solution.state, golden_output))
                for injection, solution in self.solutions()]

    def describe(self) -> str:
        lines = [
            f"query                      : {self.query_description}",
            f"injections run             : {self.injections_run}",
            f"injections activated       : {self.injections_activated}",
            f"injections with solutions  : {self.injections_with_solutions}",
            f"total solutions            : {self.total_solutions}",
            f"elapsed seconds            : {self.elapsed_seconds:.3f}",
        ]
        return "\n".join(lines)


class ExecutionStrategy:
    """How a campaign's injection experiments are executed.

    The paper distributes its searches over a cluster; this abstraction keeps
    :class:`SymbolicCampaign` agnostic of *where* each experiment runs.  The
    serial strategy below preserves the original single-process behaviour;
    :mod:`repro.parallel` provides a multiprocessing strategy that shards the
    sweep across a worker pool and merges results deterministically, and
    :mod:`repro.distributed` / :mod:`repro.net` run the same sweep over a
    broker.  Wrappers compose: checkpointing, recording into a
    :class:`~repro.results.ResultStore`, progress reporting.

    The contract for :meth:`run`: given the same ``(campaign, injections,
    query)``, every strategy must return results equal to the serial
    strategy's, in submission order — backends may only change *where*
    searches run, never *what* they return (`repro bench
    --expect-identical` enforces this byte-for-byte across backends, for
    every fault model including multi-error bursts).  Each injection
    experiment is a pure function of the campaign identity, which is what
    makes work stealing, re-execution after lease expiry and checkpoint
    resume safe.
    """

    name: str = "abstract"

    #: Optional per-result hook (see :data:`ResultSink`).  Strategies must
    #: call :meth:`emit_result` for every completed injection; wrappers such
    #: as the checkpointing strategy install a sink here.
    result_sink: Optional[ResultSink] = None

    #: When False, the strategy streams every result through
    #: :meth:`emit_result` but does not retain it: :meth:`run` returns an
    #: empty list and the coordinator's memory stays flat no matter how
    #: large the sweep is.  Only meaningful with a sink (or a
    #: :meth:`make_campaign_result` override) that consumes the stream —
    #: see :class:`repro.results.recording.RecordingStrategy`.
    retain_results: bool = True

    def emit_result(self, injection: Injection, result: InjectionResult) -> None:
        if self.result_sink is not None:
            self.result_sink(injection, result)

    def make_campaign_result(self, query: SearchQuery,
                             results: List[InjectionResult]) -> CampaignResult:
        """Build the campaign result from this strategy's view of the sweep.

        The default wraps the retained result list; streaming strategies
        override this to return a store-backed view instead.
        """
        campaign = CampaignResult(query_description=query.description)
        campaign.results = results
        return campaign

    def run(self, campaign: "SymbolicCampaign", injections: Sequence[Injection],
            query: SearchQuery,
            progress: Optional[ProgressCallback] = None) -> List[InjectionResult]:
        """Execute every injection and return results in submission order."""
        raise NotImplementedError


class SerialExecutionStrategy(ExecutionStrategy):
    """Run every injection in-process, one after the other."""

    name = "serial"

    def __init__(self, result_cache: Optional[SearchResultCache] = None) -> None:
        self.result_cache = result_cache

    def run(self, campaign: "SymbolicCampaign", injections: Sequence[Injection],
            query: SearchQuery,
            progress: Optional[ProgressCallback] = None) -> List[InjectionResult]:
        results: List[InjectionResult] = []
        for index, injection in enumerate(injections):
            result = campaign.run_injection(injection, query,
                                            result_cache=self.result_cache)
            if self.retain_results:
                results.append(result)
            self.emit_result(injection, result)
            if progress is not None:
                progress(index + 1, len(injections), result)
        return results


class SymbolicCampaign:
    """Sweep a fault model over a program with symbolic fault injection."""

    def __init__(self,
                 program: Program,
                 input_values: Sequence[int] = (),
                 memory: Optional[Dict[int, int]] = None,
                 detectors: DetectorSet = EMPTY_DETECTORS,
                 fault_model: Optional[FaultModel] = None,
                 execution_config: Optional[ExecutionConfig] = None,
                 max_solutions_per_injection: int = 10,
                 max_states_per_injection: int = 50_000,
                 wall_clock_per_injection: Optional[float] = None,
                 deduplicate_states: bool = True,
                 isa: Optional[str] = None) -> None:
        self.program = program
        self.input_values = tuple(input_values)
        self.memory = dict(memory) if memory else {}
        self.detectors = detectors
        #: The pluggable model (:mod:`repro.faults`) planning the sweep;
        #: the paper's register sweep unless another one is given.
        self.fault_model = fault_model or RegisterValueFault()
        self.execution_config = execution_config or ExecutionConfig()
        self.max_solutions_per_injection = max_solutions_per_injection
        self.max_states_per_injection = max_states_per_injection
        self.wall_clock_per_injection = wall_clock_per_injection
        #: Search-state deduplication (on by default).  The parity census
        #: turns it off: dedup collapses an err-driven loop into a state
        #: cycle before the lineage reaches the watchdog, so a deduplicating
        #: any-outcome search under-reports ``hang`` terminals.
        self.deduplicate_states = deduplicate_states
        #: ISA frontend the program was retargeted through, if any; pure
        #: provenance metadata pinned into checkpoint headers and specs.
        self.isa = isa
        self._executor = Executor(program, detectors, self.execution_config)

    # ------------------------------------------------------------ enumeration

    def fresh_initial_state(self) -> MachineState:
        return initial_state(input_values=self.input_values, memory=self.memory)

    def enumerate_injections(self,
                             pcs: Optional[Sequence[int]] = None) -> List[Injection]:
        """All injections of the campaign's fault model."""
        return self.fault_model.enumerate(self.program, memory=self.memory,
                                          pcs=pcs)

    def plan_injections(self, sample: Optional[int] = None,
                        seed: Optional[int] = None) -> List[Injection]:
        """Plan the sweep: the full enumerated space, or a seeded sample.

        Planning happens once, on the coordinator, before any chunking or
        distribution — so a sampled sweep is the same list of specs no
        matter which backend executes it.
        """
        return self.fault_model.plan(self.program, memory=self.memory,
                                     sample=sample, seed=seed)

    # -------------------------------------------------------------- execution

    def run_injection(self, injection: Injection, query: SearchQuery,
                      result_cache: Optional[SearchResultCache] = None,
                      ) -> InjectionResult:
        """Model-check a single injection experiment.

        A :class:`~repro.faults.spec.FaultSpec` carries its own corruption
        value; a plain :class:`Injection` injects the symbolic ``ERR``.
        """
        hub = _obs.get()
        if hub.enabled:
            # Dual path so the disabled sweep never pays for the label.
            with hub.span("search.solve", injection=injection.label()):
                return self._run_injection(injection, query, result_cache)
        return self._run_injection(injection, query, result_cache)

    def _run_injection(self, injection: Injection, query: SearchQuery,
                       result_cache: Optional[SearchResultCache] = None,
                       ) -> InjectionResult:
        injected = prepare_injected_state(
            self.program, injection, self.fresh_initial_state(),
            detectors=self.detectors,
            max_prefix_steps=self.execution_config.max_steps)
        if injected is None:
            return InjectionResult(injection=injection, activated=False)
        checker = BoundedModelChecker(
            self._executor,
            max_solutions=self.max_solutions_per_injection,
            max_states=self.max_states_per_injection,
            wall_clock_seconds=self.wall_clock_per_injection,
            deduplicate=self.deduplicate_states,
            result_cache=result_cache)
        result = checker.search_single(injected, query)
        return InjectionResult(injection=injection, activated=True, search=result)

    def run(self, query: SearchQuery,
            injections: Optional[Sequence[Injection]] = None,
            progress: Optional[ProgressCallback] = None,
            strategy: Optional[ExecutionStrategy] = None) -> CampaignResult:
        """Run the whole campaign (or the provided subset of injections).

        *strategy* selects how the experiments are executed; the default
        serial strategy reproduces the original single-process sweep, and any
        strategy must return one result per injection, in submission order.
        """
        campaign_start = time.monotonic()
        if injections is None:
            injections = self.enumerate_injections()
        if strategy is None:
            strategy = SerialExecutionStrategy()
        with _obs.get().span("campaign.run", program=self.program.name,
                             strategy=strategy.name,
                             injections=len(injections)):
            results = strategy.run(self, injections, query,
                                   progress=progress)
        campaign = strategy.make_campaign_result(query, results)
        campaign.elapsed_seconds = time.monotonic() - campaign_start
        return campaign
