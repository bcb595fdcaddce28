"""Pluggable fault models (the seam every new error scenario plugs into).

Public surface:

* :class:`FaultSpec` — the picklable unit: one planned fault (injection
  point + value + originating model), carried unchanged by all four
  execution backends;
* :class:`BurstFaultSpec` / :class:`BitFlipFaultSpec` — composite and
  concrete-bit-flip specs: an ordered tuple of simultaneous component
  faults, and a read-modify-write single-bit corruption;
* :class:`FaultModel` and the nine concrete models —
  :class:`RegisterValueFault`, :class:`MemoryCellFault`,
  :class:`ControlFlowFault`, :class:`InstructionOperandFault`,
  :class:`FunctionalUnitFault`, :class:`DecodeFault`, :class:`FetchFault`
  (together the rows of the paper's Table 1), :class:`BurstFault` (k
  simultaneous faults per experiment) and :class:`BitFlipFault` (the
  Monte-Carlo leg of the parity study);
* :data:`FAULT_MODELS` / :func:`fault_model` — the registry behind
  ``repro analyze --fault-model``;
* :func:`deterministic_sample` — seed-deterministic subsetting of an
  enumerated injection space.

The authoring guide — how to subclass :class:`FaultModel`, keep specs
picklable, register, and what the carriers guarantee — is
``docs/fault-models.md``.
"""

from .models import (FAULT_MODELS, BitFlipFault, BurstFault, ControlFlowFault,
                     DecodeFault, FaultModel, FetchFault, FunctionalUnitFault,
                     InstructionOperandFault, MemoryCellFault,
                     RegisterValueFault, deterministic_sample, fault_model)
from .spec import BitFlipFaultSpec, BurstFaultSpec, FaultSpec

__all__ = [
    "FAULT_MODELS", "BitFlipFault", "BitFlipFaultSpec", "BurstFault",
    "BurstFaultSpec", "ControlFlowFault", "DecodeFault", "FaultModel",
    "FaultSpec", "FetchFault", "FunctionalUnitFault",
    "InstructionOperandFault", "MemoryCellFault", "RegisterValueFault",
    "deterministic_sample", "fault_model",
]
