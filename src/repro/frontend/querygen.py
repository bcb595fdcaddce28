"""Query generator (paper Section 5, "Supporting Tools").

The paper ships a query generator so that programmers can explore the
behaviour of a program under *pre-defined* hardware error categories without
writing any formal specifications.  :func:`generate_query` builds the search
query (the predicate over final states) and :func:`generate_campaign` couples
it with a fault model from the :mod:`repro.faults` registry (whose models
cover the paper's Table 1 categories), producing a ready-to-run
:class:`~repro.core.campaign.SymbolicCampaign` for a workload.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from ..core.campaign import SymbolicCampaign
from ..core.queries import (SearchQuery, any_outcome, crashed, hung,
                            incorrect_output, latent_err, output_contains_err,
                            printed_value_other_than, undetected_failure)
from ..faults.models import FaultModel
from ..faults.models import fault_model as resolve_fault_model
from ..machine.executor import ExecutionConfig
from ..programs.base import Workload


#: The outcome categories a query can target.
QUERY_KINDS: Tuple[str, ...] = (
    "err-output",           # some printed value is the symbolic err
    "incorrect-output",     # halted with an output different from the golden run
    "wrong-final-value",    # halted with a final printed value other than expected
    "crash",                # terminated with an exception
    "hang",                 # watchdog timeout
    "undetected-failure",   # any failure not caught by a detector
    "latent-err",           # err persists somewhere in the final state
    "any-outcome",          # every terminal state (the parity-study census)
)


def generate_query(kind: str,
                   golden_output: Optional[Sequence] = None,
                   expected_value: Optional[int] = None) -> SearchQuery:
    """Build the search predicate for one of the pre-defined query kinds."""
    if kind == "err-output":
        return output_contains_err()
    if kind == "incorrect-output":
        if golden_output is None:
            raise ValueError("incorrect-output queries need the golden output")
        return incorrect_output(golden_output)
    if kind == "wrong-final-value":
        if expected_value is None:
            raise ValueError("wrong-final-value queries need the expected value")
        return printed_value_other_than(expected_value)
    if kind == "crash":
        return crashed()
    if kind == "hang":
        return hung()
    if kind == "undetected-failure":
        if golden_output is None:
            raise ValueError("undetected-failure queries need the golden output")
        return undetected_failure(golden_output)
    if kind == "latent-err":
        return latent_err()
    if kind == "any-outcome":
        return any_outcome()
    raise ValueError(f"unknown query kind {kind!r}; available: {QUERY_KINDS}")


def generate_campaign(workload: Workload,
                      kind: str = "wrong-final-value",
                      fault_model: Optional[Union[str, FaultModel]] = None,
                      expected_value: Optional[int] = None,
                      execution_config: Optional[ExecutionConfig] = None,
                      **campaign_options) -> Tuple[SymbolicCampaign, SearchQuery]:
    """Build a ready-to-run symbolic campaign for a workload.

    ``expected_value`` defaults to the last integer printed by the golden run
    (which is what the tcas experiment uses).  *fault_model* — a
    :class:`~repro.faults.models.FaultModel` or a registry name (e.g.
    ``"register"``, ``"memory"``, ``"fetch"``) — plans the sweep; the
    default is the paper's register sweep.
    """
    golden = workload.golden_output()
    if expected_value is None:
        printed = [item for item in golden if isinstance(item, int)]
        expected_value = printed[-1] if printed else None
    query = generate_query(kind, golden_output=golden,
                           expected_value=expected_value)
    if isinstance(fault_model, str):
        fault_model = resolve_fault_model(fault_model)
    config = execution_config or ExecutionConfig(
        max_steps=workload.recommended_max_steps)
    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        fault_model=fault_model,
        execution_config=config,
        isa=workload.isa,
        **campaign_options)
    return campaign, query
