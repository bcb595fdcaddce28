"""Concrete (random/exhaustive-value) fault-injection campaigns (Section 6.3).

The paper's validation campaign injects, for every instruction in tcas and
for every register used by that instruction, three extreme values of the
integer range plus three random values — roughly 6000 experiments, later
extended to 41000 — and classifies each run's outcome.  This module
reproduces that campaign on top of the concrete simulator:

* :class:`ValuePolicy` decides which concrete values are injected per
  location (extreme values + seeded random values, as in the paper);
* :class:`ConcreteCampaign` plans one value-carrying
  :class:`~repro.faults.spec.FaultSpec` per (register injection point,
  value), runs each through :meth:`~repro.concrete.simulator.
  ConcreteSimulator.run_with_spec` and accumulates an outcome distribution
  (Table 2).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..detectors import DetectorSet, EMPTY_DETECTORS
from ..errors.injector import Injection
from ..faults.models import RegisterValueFault
from ..faults.spec import FaultSpec
from ..isa.program import Program
from .simulator import ConcreteSimulator
from .stats import OutcomeDistribution, OutcomeLabeler, printed_value_labeler


#: 32-bit two's-complement extremes, as injected by the paper's campaign.
INT32_MAX = 2**31 - 1
INT32_MIN = -(2**31)


@dataclass
class ValuePolicy:
    """Which concrete values are injected into each fault location.

    The default mirrors the paper: three extreme values in the integer range
    (0, INT_MAX, INT_MIN) plus ``random_values`` values drawn uniformly from
    the 32-bit range with a fixed seed (so campaigns are reproducible).
    """

    extreme_values: Tuple[int, ...] = (0, INT32_MAX, INT32_MIN)
    random_values: int = 3
    seed: int = 2008  # year of the paper

    def values_for(self, injection: Injection) -> List[int]:
        seed = (f"{self.seed}:{injection.breakpoint_pc}:{injection.occurrence}:"
                f"{injection.target.kind}:{injection.target.index}")
        rng = random.Random(seed)
        values = list(self.extreme_values)
        for _ in range(self.random_values):
            values.append(rng.randint(INT32_MIN, INT32_MAX))
        return values


@dataclass
class ConcreteExperiment:
    """One executed concrete fault-injection experiment."""

    #: The executed spec; its ``value`` is the concrete value injected.
    injection: FaultSpec
    label: str
    activated: bool


@dataclass
class ConcreteCampaignResult:
    """Aggregate result of a concrete campaign (the Table 2 data)."""

    distribution: OutcomeDistribution
    experiments: List[ConcreteExperiment] = field(default_factory=list)
    skipped: int = 0
    elapsed_seconds: float = 0.0

    @property
    def total_faults(self) -> int:
        return self.distribution.total

    def experiments_with_label(self, label: str) -> List[ConcreteExperiment]:
        return [experiment for experiment in self.experiments
                if experiment.label == label]

    def describe(self) -> str:
        lines = [self.distribution.format_table(),
                 f"  skipped (never activated) = {self.skipped}",
                 f"  elapsed seconds = {self.elapsed_seconds:.2f}"]
        return "\n".join(lines)


class ConcreteCampaign:
    """Exhaustive-by-instruction concrete fault-injection campaign."""

    def __init__(self, program: Program,
                 input_values: Sequence[int] = (),
                 memory: Optional[Dict[int, int]] = None,
                 detectors: DetectorSet = EMPTY_DETECTORS,
                 value_policy: Optional[ValuePolicy] = None,
                 register_policy: str = "used",
                 labeler: Optional[OutcomeLabeler] = None,
                 outcome_labels: Sequence[str] = ("0", "1", "2", "other",
                                                  "crash", "hang", "detected"),
                 max_steps: int = 200_000) -> None:
        self.program = program
        self.input_values = tuple(input_values)
        self.memory = dict(memory) if memory else {}
        self.detectors = detectors
        self.value_policy = value_policy or ValuePolicy()
        self.register_policy = register_policy
        self.labeler = labeler or printed_value_labeler()
        self.outcome_labels = tuple(outcome_labels)
        self.simulator = ConcreteSimulator(program, detectors, max_steps=max_steps)

    def enumerate_injections(self,
                             pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        """Register injection points at every instruction (or the subset *pcs*)."""
        return RegisterValueFault(policy=self.register_policy).enumerate(
            self.program, pcs=pcs)

    def plan(self, injections: Optional[Sequence[FaultSpec]] = None
             ) -> List[FaultSpec]:
        """One spec per (injection point, value of the value policy)."""
        if injections is None:
            injections = self.enumerate_injections()
        return [replace(injection, value=value) for injection in injections
                for value in self.value_policy.values_for(injection)]

    def planned_experiments(self,
                            injections: Optional[Sequence[FaultSpec]] = None
                            ) -> int:
        """Number of (injection, value) experiments the campaign would run."""
        return len(self.plan(injections))

    def run(self, injections: Optional[Sequence[FaultSpec]] = None,
            keep_experiments: bool = True,
            max_experiments: Optional[int] = None) -> ConcreteCampaignResult:
        """Run the campaign and build the outcome distribution."""
        start = time.monotonic()
        distribution = OutcomeDistribution(labels=self.outcome_labels)
        result = ConcreteCampaignResult(distribution=distribution)
        for spec in self.plan(injections)[:max_experiments]:
            run = self.simulator.run_with_spec(spec, self.input_values,
                                               self.memory)
            if not run.activated:
                result.skipped += 1
                continue
            label = self.labeler(run.state)
            distribution.record(label)
            if keep_experiments:
                result.experiments.append(ConcreteExperiment(
                    injection=spec, label=label, activated=run.activated))
        result.elapsed_seconds = time.monotonic() - start
        return result
