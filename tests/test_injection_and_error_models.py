"""Tests for the error-injection sub-model and the Table 1 fault models."""

import pytest

from repro.constraints import ComparisonOp, Constraint, Location
from repro.errors import Injection, prepare_injected_state, registers_used_at
from repro.faults import (FAULT_MODELS, ControlFlowFault, DecodeFault,
                          FaultSpec, FetchFault, FunctionalUnitFault,
                          InstructionOperandFault, MemoryCellFault,
                          fault_model)
from repro.isa.parser import assemble
from repro.isa.values import ERR, is_err
from repro.machine import initial_state
from repro.machine.executor import apply_fault_set
from repro.programs import factorial_workload, call_max_workload


PROGRAM = assemble("""
        read $1
        li $2 500
        sti $1 $2 0
        ldi $3 $2 0
        add $4 $3 $1
        beq $4 0 skip
        print $4
skip:   halt
""")


def corrupt(state, target, value=ERR):
    apply_fault_set(state, (FaultSpec(breakpoint_pc=0, target=target,
                                      value=value),))


class TestApplyFaultSet:
    def test_register_corruption(self):
        state = initial_state()
        corrupt(state, Location.register(5))
        assert is_err(state.read_register(5))

    def test_zero_register_cannot_be_corrupted(self):
        state = initial_state()
        corrupt(state, Location.register(0))
        assert state.read_register(0) == 0

    def test_memory_corruption(self):
        state = initial_state(memory={100: 3})
        corrupt(state, Location.memory(100))
        assert is_err(state.read_memory(100))

    def test_pc_corruption(self):
        state = initial_state()
        corrupt(state, Location.pc())
        assert is_err(state.pc)

    def test_pc_corruption_drops_the_stale_pc_constraint(self):
        state = initial_state()
        state.constraints = state.constraints.with_constraint(
            Location.pc(), Constraint(ComparisonOp.GT, 3))
        corrupt(state, Location.pc())
        assert Location.pc() not in state.constraints

    def test_concrete_value_corruption(self):
        state = initial_state()
        corrupt(state, Location.register(5), 12345)
        assert state.read_register(5) == 12345


class TestRegistersUsedAt:
    def test_reads_writes_used(self):
        # add $4 $3 $1 at address 4
        assert registers_used_at(PROGRAM, 4, "reads") == (3, 1)
        assert registers_used_at(PROGRAM, 4, "writes") == (4,)
        assert registers_used_at(PROGRAM, 4, "used") == (3, 1, 4)

    def test_zero_register_excluded(self):
        # beq $4 0 skip reads $4 only; add uses no $0 here, but check halt
        assert registers_used_at(PROGRAM, 7, "used") == ()

    def test_all_policy_covers_every_register(self):
        assert len(registers_used_at(PROGRAM, 0, "all")) == 31  # excludes $0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            registers_used_at(PROGRAM, 0, "everything")

    def test_out_of_range_pc(self):
        assert registers_used_at(PROGRAM, 999) == ()


class TestInjectionPoints:
    def test_injection_label_is_informative(self):
        injection = Injection(breakpoint_pc=4, target=Location.register(3),
                              description="example")
        assert "pc=4" in injection.label() and "example" in injection.label()


class TestPrepareInjectedState:
    def test_injects_at_breakpoint(self):
        workload = factorial_workload()
        injection = Injection(breakpoint_pc=4, target=Location.register(3))
        state = prepare_injected_state(workload.program, injection,
                                       workload.initial_state())
        assert state is not None
        assert state.pc == 4
        assert is_err(state.read_register(3))

    def test_unreachable_breakpoint_returns_none(self):
        program = assemble("halt\nnop\n")
        injection = Injection(breakpoint_pc=1, target=Location.register(1))
        assert prepare_injected_state(program, injection, initial_state()) is None

    def test_occurrence_selects_later_iteration(self):
        workload = factorial_workload()
        subi_pc = next(i for i, ins in enumerate(workload.program.code)
                       if ins.opcode == "subi")
        first = prepare_injected_state(
            workload.program,
            Injection(breakpoint_pc=subi_pc, target=Location.register(3)),
            workload.initial_state())
        third = prepare_injected_state(
            workload.program,
            Injection(breakpoint_pc=subi_pc, target=Location.register(3), occurrence=3),
            workload.initial_state())
        assert first.steps < third.steps


class TestTable1Models:
    """The Table 1 rows, each planned by its registered fault model."""

    def test_bus_row_targets_sources_only(self):
        specs = InstructionOperandFault().enumerate(PROGRAM, pcs=[4])
        assert {s.target.index for s in specs} == {3, 1}

    def test_functional_unit_targets_destination_after_instruction(self):
        specs = FunctionalUnitFault().enumerate(PROGRAM, pcs=[4])
        assert all(s.breakpoint_pc == 5 for s in specs)
        assert {s.target.index for s in specs} == {4}

    def test_decode_covers_instructions_without_destinations(self):
        specs = DecodeFault().enumerate(PROGRAM, pcs=[2])  # sti has no dest
        assert {s.target.index for s in specs} == {1, 2}
        assert all(s.breakpoint_pc == 2 for s in specs)

    def test_decode_corrupts_destinations_after_instruction(self):
        specs = DecodeFault().enumerate(PROGRAM, pcs=[4])
        assert [(s.breakpoint_pc, s.target.index) for s in specs] == [(5, 4)]

    def test_fetch_targets_pc_everywhere(self):
        specs = FetchFault().enumerate(PROGRAM)
        assert len(specs) == len(PROGRAM)
        assert all(s.target.kind == Location.PC for s in specs)

    def test_control_flow_only_at_transfers(self):
        specs = ControlFlowFault().enumerate(PROGRAM)
        assert {s.breakpoint_pc for s in specs} == {5}

    def test_memory_follows_loads(self):
        specs = MemoryCellFault().enumerate(PROGRAM)
        assert len(specs) == 1
        assert specs[0].breakpoint_pc == 4  # right after the ldi

    def test_memory_with_a_data_segment_targets_its_cells(self):
        specs = MemoryCellFault().enumerate(PROGRAM, memory={500: 0}, pcs=[3])
        assert specs[0].target == Location.memory(500)

    def test_registry(self):
        assert {"register", "memory", "operand", "functional-unit", "decode",
                "fetch", "control"} <= set(FAULT_MODELS)
        assert isinstance(fault_model("fetch"), FetchFault)
        with pytest.raises(ValueError):
            fault_model("cosmic-ray")

    def test_models_enumerate_against_real_workload(self):
        workload = call_max_workload()
        for model in FAULT_MODELS.values():
            specs = model.enumerate(workload.program)
            assert isinstance(specs, list)
            for spec in specs:
                assert 0 <= spec.breakpoint_pc <= len(workload.program)
