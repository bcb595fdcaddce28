"""The factorial example programs of the paper (Figures 2 and 3).

``factorial_workload`` is the unprotected program of Figure 2;
``factorial_with_detectors_workload`` is the detector-augmented program of
Figure 3, with the two ``check`` sites and the supporting ``mov`` that copies
the previous product so the second detector can validate the multiplication.
"""

from __future__ import annotations

from ..detectors import DetectorSet
from ..isa.parser import assemble
from .base import Workload


#: Figure 2: compute the factorial of the number read from input.
FACTORIAL_SOURCE = """
        ori $2 $0 #1          -- 1: initial product p = 1
        read $1               -- 2: read i from input
        mov $3 $1             -- 3
        ori $4 $0 #1          -- 4: for comparison purposes
loop:   setgt $5 $3 $4        -- 5: start of loop
        beq $5 0 exit         -- 6: loop condition: $3 > $4
        mult $2 $2 $3         -- 7: p = p * i
        subi $3 $3 #1         -- 8: i = i - 1
        beq $0 0 loop         -- 9: loop backedge
exit:   prints "Factorial = " -- 10
        print $2              -- 11
        halt                  -- 12
"""

#: Figure 3: the same program augmented with two error detectors.
#: Detector 1 checks the loop bound; detector 2 checks the multiplication
#: using the previous product saved in $6 by the supporting ``mov``.
FACTORIAL_WITH_DETECTORS_SOURCE = """
        ori $2 $0 #1          -- 1: initial product p = 1
        read $1               -- 2: read i from input
        mov $3 $1             -- 3
        ori $4 $0 #1          -- 4: for comparison purposes
loop:   setgt $5 $3 $4        -- 5: start of loop
        beq $5 0 exit         -- 6
        check 1               -- 7: check ($4 < $3)
        mov $6 $2             -- 8: save previous product
        mult $2 $2 $3         -- 9: p = p * i
        check 2               -- 10: check ($2 >= $6 * $1)  [see note below]
        subi $3 $3 #1         -- 11: i = i - 1
        beq $0 0 loop         -- 12: loop backedge
exit:   prints "Factorial = " -- 13
        print $2              -- 14
        halt                  -- 15
"""

#: The detector specifications for Figure 3, in the paper's det(...) format.
#:
#: Detector 1 fires when the loop counter ($3) is not greater than the bound
#: ($4): ``check ($4 < $3)`` -> target $3 must be ``>`` $4.
#:
#: Detector 2 guards the multiplication using the previous product saved in
#: $6.  The paper writes the check as ``$2 >= $6 * $1`` (with $1 the value
#: read from input); taken literally that check also fires on the *error-free*
#: run from the second iteration onward (the product grows by the current
#: counter, not by the original input), so we use the corrected invariant
#: ``$2 >= $6 * 2``: inside the loop the counter is at least 2, hence the new
#: product must be at least twice the previous one.  The detection semantics
#: exercised by the Section 4.2 example are identical.
FACTORIAL_DETECTORS_SOURCE = """
det(1, $(3), >,  $(4))
det(2, $(2), >=, $(6) * (2))
"""


def factorial_workload(default_input: int = 5) -> Workload:
    """The Figure 2 program, reading *default_input* by default."""
    program = assemble(FACTORIAL_SOURCE, name="factorial")
    return Workload(
        name="factorial",
        program=program,
        description="Figure 2: factorial of the input (no detectors)",
        default_input=(default_input,),
        recommended_max_steps=500,
    )


def factorial_with_detectors_workload(default_input: int = 5) -> Workload:
    """The Figure 3 program with its two detectors."""
    program = assemble(FACTORIAL_WITH_DETECTORS_SOURCE,
                       name="factorial_with_detectors")
    detectors = DetectorSet.parse(FACTORIAL_DETECTORS_SOURCE)
    return Workload(
        name="factorial_with_detectors",
        program=program,
        description="Figure 3: factorial protected by two CHECK detectors",
        detectors=detectors,
        default_input=(default_input,),
        recommended_max_steps=500,
    )


def factorial_campaign(fault_model=None, kind: str = "err-output",
                       **campaign_options):
    """A ready-to-run factorial campaign, parametrized by fault model.

    ``factorial_campaign("control")`` sweeps corrupted branch targets over
    the Figure 2 program; see :mod:`repro.faults` for the model registry.
    Returns ``(SymbolicCampaign, SearchQuery)``.
    """
    return factorial_workload().campaign(kind=kind, fault_model=fault_model,
                                         **campaign_options)


def loop_counter_injection_pc(workload: Workload) -> int:
    """Code address of the ``subi`` that decrements the loop counter.

    The paper's running example injects the error into register $3 right
    after this instruction (i.e. with the breakpoint on the following one).
    """
    for address, instruction in enumerate(workload.program.code):
        if instruction.opcode == "subi":
            return address
    raise ValueError("factorial program has no subi instruction")
