"""Error model: the err symbol, propagation, comparisons and injection."""

from .propagation import (IMMEDIATE_ALIASES, NonDeterministicOperation,
                          concrete_binary, symbolic_binary, unary_result)
from .comparison import ComparisonOutcome, resolve_comparison
from .injector import Injection, prepare_injected_state, registers_used_at

__all__ = [
    "IMMEDIATE_ALIASES", "NonDeterministicOperation", "concrete_binary",
    "symbolic_binary", "unary_result",
    "ComparisonOutcome", "resolve_comparison",
    "Injection", "prepare_injected_state", "registers_used_at",
]
