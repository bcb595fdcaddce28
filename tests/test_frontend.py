"""Tests for the MIPS front-end translator and the query generator."""

import pytest

from repro.core import SearchQuery
from repro.frontend import (MipsTranslationError, QUERY_KINDS,
                            generate_campaign, generate_query,
                            translate_mips)
from repro.machine import Status, initial_state, run_concrete
from repro.programs import factorial_workload, sum_input_workload


MIPS_SUM = """
# sum the integers 1..5 into $t1 and print it
        .text
main:
        li   $t0, 5
        li   $t1, 0
loop:
        add  $t1, $t1, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        print $t1
        halt
"""

MIPS_MEMORY = """
        .text
        li   $s0, 800
        li   $t0, 42
        sw   $t0, 4($s0)
        lw   $t1, 4($s0)
        print $t1
        halt
"""

MIPS_CALL = """
        .text
main:   li   $a0, 7
        jal  double
        print $v0
        halt
double: add  $v0, $a0, $a0
        jr   $ra
"""


class TestMipsTranslator:
    def run_mips(self, source):
        program = translate_mips(source)
        state = initial_state()
        run_concrete(program, state)
        return program, state

    def test_arithmetic_loop(self):
        program, state = self.run_mips(MIPS_SUM)
        assert state.status is Status.HALTED
        assert state.output_values() == (15,)
        assert "main" in program.labels and "loop" in program.labels

    def test_memory_access(self):
        _program, state = self.run_mips(MIPS_MEMORY)
        assert state.output_values() == (42,)

    def test_call_and_return(self):
        _program, state = self.run_mips(MIPS_CALL)
        assert state.output_values() == (14,)

    def test_register_name_mapping(self):
        program = translate_mips("move $t0, $sp\nhalt\n")
        assert program[0].operands == (8, 29)

    def test_numeric_register_names(self):
        program = translate_mips("move $8, $29\nhalt\n")
        assert program[0].operands == (8, 29)

    def test_register_register_branch_expands(self):
        program = translate_mips("beq $t0, $t1, out\nout: halt\n")
        assert [i.opcode for i in program] == ["seteq", "bne", "halt"]

    def test_data_segment_is_skipped(self):
        program = translate_mips(".data\nmsg: .asciiz \"x\"\n.text\nhalt\n")
        assert len(program) == 1

    def test_labels_with_dots_are_sanitized(self):
        program = translate_mips("$L1: j $L1\n")
        assert "_L1" in program.labels

    def test_unsupported_instruction_rejected(self):
        with pytest.raises(MipsTranslationError):
            translate_mips("mfc0 $t0, $12\n")

    def test_bare_syscall_rejected(self):
        with pytest.raises(MipsTranslationError):
            translate_mips("syscall\n")

    def test_unknown_register_rejected(self):
        with pytest.raises(MipsTranslationError):
            translate_mips("move $zz, $t0\n")

    def test_bad_displacement_rejected(self):
        with pytest.raises(MipsTranslationError):
            translate_mips("lw $t0, banana\n")


class TestQueryGenerator:
    def test_all_kinds_build(self):
        for kind in QUERY_KINDS:
            query = generate_query(kind, golden_output=(1,), expected_value=1)
            assert isinstance(query, SearchQuery)

    def test_missing_context_rejected(self):
        with pytest.raises(ValueError):
            generate_query("incorrect-output")
        with pytest.raises(ValueError):
            generate_query("wrong-final-value")
        with pytest.raises(ValueError):
            generate_query("definitely-not-a-kind", golden_output=(1,))

    def test_generate_campaign_end_to_end(self):
        workload = sum_input_workload(count=2, values=(3, 4))
        campaign, query = generate_campaign(
            workload, kind="wrong-final-value", fault_model="register",
            max_solutions_per_injection=5, max_states_per_injection=5_000)
        injections = campaign.enumerate_injections()[:5]
        result = campaign.run(query, injections=injections)
        assert result.injections_run == 5

    def test_generate_campaign_defaults_expected_value_from_golden_run(self):
        workload = factorial_workload()
        campaign, query = generate_campaign(workload)
        assert "120" in query.description
