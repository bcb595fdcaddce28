"""Per-layer attribution for the traced benchmark run.

The tracer times calls into each ``repro`` layer from outside the program:
it replaces a public function or method with a timing wrapper, so no
source file of the program carries benchmark code.  Every wrapped call is
a span.  A span's *self* time is its duration minus the time its child
spans cover, so the self times of all layers plus ``trace.unattributed_s``
add up to the campaign's wall clock.

Layer times named ``*_s`` are self times, except ``core.search_s`` and
``errors.prefix_s``, which are inclusive (their self times are
``core.search.self_s`` and ``errors.prefix.self_s``).
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Spans whose self time is part of a campaign's wall clock.  Everything a
# campaign executes that is not inside one of these is unattributed.
CAMPAIGN_LAYERS = (
    "errors.prefix", "core.search", "machine.executor.step",
    "machine.state.copy", "machine.state.fingerprint",
    "constraints.satisfiable", "machine.concrete", "core.outcomes.classify",
)


def peak_rss_mb() -> float:
    """Peak RSS of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Timing wrappers around repro's layer entry points."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # One [layer, child seconds] frame per open span.
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        for table in (self.total, self.self_time, self.calls, self.counts):
            table.clear()

    # ----------------------------------------------------------- patching

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, owners: List[Tuple[Any, str]], layer: str,
             before: Optional[Callable[[tuple], Any]] = None,
             after: Optional[Callable[[Any, tuple, Any], None]] = None,
             ) -> None:
        """Time every call of the function found at each ``(owner, attr)``.

        All owners must hold the same function (a name imported into
        several modules); *before* runs ahead of the call and its token is
        handed to *after* together with the call's arguments and result.
        """
        original = owners[0][0].__dict__[owners[0][1]]
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls
        clock = time.perf_counter

        def timed(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                total[layer] += elapsed
                self_time[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(token, args, result)
            return result

        for owner, attr in owners:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the function "
                                   f"wrapped for layer {layer}")
            self._set(owner, attr, timed)

    def counter(self, owner: Any, attr: str, name: str) -> None:
        """Count calls without timing them (for calls too cheap to time)."""
        original = owner.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._set(owner, attr, counted)

    def parent_layer(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    # ------------------------------------------------------------ repro

    def install(self) -> None:
        """Wrap the entry points of every layer the benchmark attributes."""
        import repro.concrete.simulator as simulator
        import repro.core.campaign as campaign
        import repro.core.outcomes as outcomes
        import repro.core.search as search
        import repro.faults.models as fault_models
        import repro.machine.decode as decode
        import repro.machine.executor as executor
        import repro.machine.state as state
        import repro.programs as programs
        import repro.programs.base as programs_base
        from repro.constraints.constraint_map import ConstraintMap

        counts = self.counts

        # RSS figures are how far a call raises the process's peak.
        def rss_before(args):
            return peak_rss_mb()

        def decoded(before, args, result):
            counts["machine.decode_rss_mb"] += peak_rss_mb() - before

        self.span([(programs, "load_workload")], "programs.load")
        self.span([(programs_base.Workload, "golden_output")],
                  "programs.golden")
        self.span([(decode.DecodedProgram, "__init__")], "machine.decode",
                  before=rss_before, after=decoded)

        def planned(before, args, result):
            counts["faults.plan_rss_mb"] += peak_rss_mb() - before
            counts["faults.planned"] += len(result)

        self.span([(fault_models.FaultModel, "plan")], "faults.plan",
                  before=rss_before, after=planned)
        self.span([(campaign.SymbolicCampaign, "__init__")],
                  "core.campaign.init")

        self.span([(campaign, "prepare_injected_state")], "errors.prefix")

        def searched(before, args, result):
            stats = result.statistics
            counts["core.search.explored"] += stats.explored_states
            counts["core.search.expanded"] += stats.expanded_states
            counts["core.search.deduplicated"] += stats.deduplicated_states
            if result.stop_reason == "state budget exhausted":
                counts["core.search.capped"] += 1

        self.span([(search.BoundedModelChecker, "search")], "core.search",
                  after=searched)

        def stepped(before, args, result):
            counts["machine.executor.successors"] += len(result)

        self.span([(executor.Executor, "step")], "machine.executor.step",
                  after=stepped)
        self.span([(state.MachineState, "copy")], "machine.state.copy")
        self.span([(state.MachineState, "fingerprint")],
                  "machine.state.fingerprint")
        self.counter(state.Fingerprint, "__eq__",
                     "machine.state.fingerprint_compares")
        self.span([(ConstraintMap, "satisfiable")],
                  "constraints.satisfiable")

        # The concrete engine's two entry points are imported by name into
        # several modules; each binding gets the same wrapper.
        def steps_before(args):
            return args[1].steps

        def ran(before, args, result):
            executed = args[1].steps - before
            counts["machine.concrete_instructions"] += executed
            if self.parent_layer() == "errors.prefix":
                counts["errors.prefix_steps"] += executed

        for name in ("run_concrete", "run_concrete_until"):
            function = executor.__dict__[name]
            owners = [(module, name) for module in
                      (executor, search, simulator, programs_base)
                      if module.__dict__.get(name) is function]
            self.span(owners, "machine.concrete", before=steps_before,
                      after=ran)
        self.span([(outcomes, "classify")], "core.outcomes.classify")

    def layer_metrics(self, campaign_wall: float) -> Dict[str, float]:
        """The per-layer figures of everything recorded since the reset."""
        total, self_time, calls, counts = (self.total, self.self_time,
                                           self.calls, self.counts)
        search_s = total["core.search"]
        concrete_s = self_time["machine.concrete"]
        explored = counts["core.search.explored"]
        deduplicated = counts["core.search.deduplicated"]
        attributed = sum(self_time[layer] for layer in CAMPAIGN_LAYERS)
        unattributed = max(0.0, campaign_wall - attributed)
        return {
            "programs.load_s": self_time["programs.load"],
            "programs.golden_s": self_time["programs.golden"],
            "machine.decode_s": self_time["machine.decode"],
            "machine.decode_rss_mb": counts["machine.decode_rss_mb"],
            "faults.plan_s": self_time["faults.plan"],
            "faults.plan_rss_mb": counts["faults.plan_rss_mb"],
            "faults.planned": counts["faults.planned"],
            "core.campaign.init_s": self_time["core.campaign.init"],
            "errors.prefix_s": total["errors.prefix"],
            "errors.prefix.self_s": self_time["errors.prefix"],
            "errors.prefix_calls": calls["errors.prefix"],
            "errors.prefix_steps": counts["errors.prefix_steps"],
            "core.search_s": search_s,
            "core.search.self_s": self_time["core.search"],
            "core.search.explored": explored,
            "core.search.expanded": counts["core.search.expanded"],
            "core.search.deduplicated": deduplicated,
            "core.search.dedup_ratio": (deduplicated / (explored + deduplicated)
                                        if explored + deduplicated else 0.0),
            "core.search.capped": counts["core.search.capped"],
            "core.search.states_per_s": (explored / search_s
                                         if search_s else 0.0),
            "machine.executor.step_s": self_time["machine.executor.step"],
            "machine.executor.steps": calls["machine.executor.step"],
            "machine.executor.successors":
                counts["machine.executor.successors"],
            "machine.state.copy_s": self_time["machine.state.copy"],
            "machine.state.copies": calls["machine.state.copy"],
            "machine.state.fingerprint_s":
                self_time["machine.state.fingerprint"],
            "machine.state.fingerprints": calls["machine.state.fingerprint"],
            "machine.state.fingerprint_compares":
                counts["machine.state.fingerprint_compares"],
            "constraints.satisfiable_s": self_time["constraints.satisfiable"],
            "constraints.satisfiable_calls": calls["constraints.satisfiable"],
            "machine.concrete_s": concrete_s,
            "machine.concrete_runs": calls["machine.concrete"],
            "machine.concrete_instructions":
                counts["machine.concrete_instructions"],
            "machine.concrete_ips": (counts["machine.concrete_instructions"]
                                     / concrete_s if concrete_s else 0.0),
            "core.outcomes.classify_s": self_time["core.outcomes.classify"],
            "trace.unattributed_s": unattributed,
            "trace.unattributed_share": (unattributed / campaign_wall
                                         if campaign_wall else 0.0),
        }
