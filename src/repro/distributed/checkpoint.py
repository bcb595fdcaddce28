"""Campaign checkpoint/resume on top of the record journal.

``repro analyze --checkpoint PATH`` journals every completed
:class:`~repro.core.campaign.InjectionResult` as the sweep progresses;
``--resume`` reloads the journal, skips the already-completed injections and
merges old and new results back into enumeration order — so a campaign
killed mid-sweep finishes with results identical to an uninterrupted run.

The journal is strategy-agnostic: :class:`CheckpointingStrategy` wraps any
:class:`~repro.core.campaign.ExecutionStrategy` (serial, pool or
distributed) and taps its per-result sink, appending each result the moment
the executing backend reports it.  A header record pins the campaign
identity (program, fault model, query) so a journal cannot silently resume
a different experiment.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, List, Optional, Sequence

from .. import obs as _obs
from ..core.campaign import (ExecutionStrategy, InjectionResult,
                             ProgressCallback, SymbolicCampaign)
from ..core.queries import SearchQuery
from ..errors.injector import Injection
from .journal import RecordJournal

_HEADER = "header"
_RESULT = "result"
_TELEMETRY = "telemetry"


def injection_key(injection: Injection) -> str:
    """Stable cross-process identity of an injection experiment."""
    return injection.label()


def campaign_header(campaign: SymbolicCampaign, query: SearchQuery) -> Dict:
    """The campaign identity a journal is pinned to.

    Everything that changes what an individual search returns must be here:
    journaled results computed under one configuration must never merge
    with fresh results computed under another (resuming with, say, a
    different ``--max-states`` would otherwise silently break the
    "identical to an uninterrupted run" guarantee).
    """
    # The fault model and detectors are pinned by content digest:
    # a count or type name would accept a journal recorded under a
    # *different* detector file.  A spurious digest mismatch (these are
    # best-effort canonical) fails loudly toward refusing the resume,
    # never toward a wrong merge.
    semantics = hashlib.sha256(pickle.dumps(
        (campaign.fault_model, campaign.detectors),
        protocol=4)).hexdigest()
    return {
        "program": campaign.program.name,
        "fault_model": campaign.fault_model.name,
        "isa": campaign.isa,
        "query": query.description,
        "input_values": tuple(campaign.input_values),
        "search_caps": (campaign.max_solutions_per_injection,
                        campaign.max_states_per_injection,
                        campaign.wall_clock_per_injection,
                        campaign.deduplicate_states),
        "execution_config": repr(campaign.execution_config),
        "semantics_digest": semantics,
    }


class CheckpointJournal:
    """Injection-keyed view over a :class:`RecordJournal`."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._journal = RecordJournal(path)
        #: Whether an intact header record was seen by load_completed().
        self._header_loaded = False
        #: Trace id journaled by a telemetry-enabled run (None otherwise).
        self.journaled_trace: Optional[str] = None

    def exists(self) -> bool:
        return self._journal.exists()

    def delete(self) -> None:
        self._journal.delete()

    def close(self) -> None:
        self._journal.close()

    def load_completed(self, expect_header: Optional[Dict] = None,
                       ) -> Dict[str, InjectionResult]:
        """Map injection key -> journaled result, verifying the header."""
        completed: Dict[str, InjectionResult] = {}
        header: Optional[Dict] = None
        for record in self._journal.records():
            tag = record[0]
            if tag == _HEADER:
                header = record[1]
                if expect_header is not None and header != expect_header:
                    raise ValueError(
                        f"checkpoint journal {self.path!r} belongs to a "
                        f"different campaign: journal header {header!r} vs "
                        f"current campaign {expect_header!r}")
            elif tag == _RESULT:
                completed[record[1]] = record[2]
            elif tag == _TELEMETRY:
                self.journaled_trace = record[1]
        self._header_loaded = header is not None
        return completed

    def ensure_header(self, header: Dict) -> None:
        """Write the identity header unless an intact one was loaded.

        File existence is not enough: a kill during the very first append
        can leave a journal whose header record is garbage, and without a
        header the campaign-identity guard would be silently disabled for
        the rest of the journal's life (the append path truncates the
        corrupt tail before writing).
        """
        if not self._header_loaded:
            self._journal.append((_HEADER, header))
            self._header_loaded = True

    def ensure_trace(self, trace_id: str) -> None:
        """Persist the campaign's trace id once, as its own record.

        The identity header is compared with strict equality on resume, so
        the trace rides a separate ``telemetry`` record: telemetry-off runs
        write no such record and their journal bytes are unchanged, while a
        resumed telemetry run finds the original trace here and joins it.
        """
        if self.journaled_trace is None:
            self._journal.append((_TELEMETRY, trace_id))
            self.journaled_trace = trace_id

    def append_result(self, injection: Injection,
                      result: InjectionResult) -> None:
        self._journal.append((_RESULT, injection_key(injection), result))


class CheckpointingStrategy(ExecutionStrategy):
    """Wrap any execution strategy with journal-backed checkpoint/resume."""

    name = "checkpoint"

    def __init__(self, inner: ExecutionStrategy, journal_path: str,
                 resume: bool = False) -> None:
        self.inner = inner
        self.journal_path = journal_path
        self.resume = resume
        #: Injections satisfied from the journal on the last run.
        self.skipped = 0

    @property
    def cache_statistics(self):
        """Delegate to the wrapped backend (for ``--progress`` reporting)."""
        return getattr(self.inner, "cache_statistics", None)

    def run(self, campaign: SymbolicCampaign,
            injections: Sequence[Injection], query: SearchQuery,
            progress: Optional[ProgressCallback] = None,
            ) -> List[InjectionResult]:
        header = campaign_header(campaign, query)
        journal = CheckpointJournal(self.journal_path)
        if self.resume:
            completed = journal.load_completed(expect_header=header)
        else:
            journal.delete()  # a fresh run starts a fresh journal
            completed = {}
        injections = list(injections)
        pending = [injection for injection in injections
                   if injection_key(injection) not in completed]
        self.skipped = len(injections) - len(pending)
        journal.ensure_header(header)
        hub = _obs.get()
        if hub.enabled:
            # Resume under the original run's trace so both halves of the
            # sweep share one trace id in the event log; first runs journal
            # theirs for any future resume.
            if journal.journaled_trace is not None:
                hub.adopt_trace(journal.journaled_trace)
            journal.ensure_trace(hub.trace_id)

        previous_sink = self.inner.result_sink

        def journaling_sink(injection: Injection,
                            result: InjectionResult) -> None:
            journal.append_result(injection, result)
            if previous_sink is not None:
                previous_sink(injection, result)
            self.emit_result(injection, result)

        try:
            self.inner.result_sink = journaling_sink
            fresh = (self.inner.run(campaign, pending, query,
                                    progress=progress) if pending else [])
        finally:
            self.inner.result_sink = previous_sink
            journal.close()

        by_key = dict(completed)
        for injection, result in zip(pending, fresh):
            by_key[injection_key(injection)] = result
        return [by_key[injection_key(injection)] for injection in injections]
