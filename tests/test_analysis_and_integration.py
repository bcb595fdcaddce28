"""Analysis-layer tests plus end-to-end integration tests on tcas and replace.

The integration tests reproduce (in miniature) the paper's Section 6
experiments: the tcas catastrophic advisory flip found by symbolic injection
into the return-address register, its absence from a comparable concrete
campaign, and an incorrect-output scenario for replace.
"""

import pytest

from repro.analysis import (campaign_outcome_summary, compare_symbolic_concrete,
                            format_task_report, format_witnesses, model_inventory,
                            solutions_with_final_value)
from repro.concrete import ConcreteCampaign, printed_value_labeler
from repro.constraints import Location
from repro.core import (SymbolicCampaign, TaskRunner, decompose_by_code_section,
                        incorrect_output, output_contains_err,
                        printed_value_other_than, witnesses_from_campaign)
from repro.errors import Injection
from repro.faults import RegisterValueFault
from repro.machine import ExecutionConfig
from repro.programs import factorial_workload, replace_workload, tcas_workload


def tcas_symbolic_campaign(workload, **overrides):
    defaults = dict(
        fault_model=RegisterValueFault(),
        execution_config=ExecutionConfig(max_steps=3_000,
                                         control_fork_domain="labels",
                                         max_control_forks=2_048,
                                         max_memory_forks=4),
        max_solutions_per_injection=30,
        max_states_per_injection=20_000,
    )
    defaults.update(overrides)
    return SymbolicCampaign(workload.program,
                            input_values=workload.default_input,
                            memory=workload.data_segment,
                            detectors=workload.detectors,
                            **defaults)


class TestAnalysisHelpers:
    def test_outcome_summary_and_witness_formatting(self):
        workload = factorial_workload()
        campaign = SymbolicCampaign(
            workload.program, input_values=workload.default_input,
            execution_config=ExecutionConfig(max_steps=200),
            max_solutions_per_injection=10, max_states_per_injection=10_000)
        subi_pc = next(i for i, ins in enumerate(workload.program.code)
                       if ins.opcode == "subi")
        injections = [Injection(breakpoint_pc=subi_pc + 1,
                                target=Location.register(3))]
        result = campaign.run(output_contains_err(), injections=injections)
        summary = campaign_outcome_summary(result, workload.golden_output())
        assert summary["err-output"] >= 1
        witnesses = witnesses_from_campaign(workload.program, result,
                                            workload.golden_output())
        text = format_witnesses(witnesses, limit=1)
        assert "injection" in text
        assert format_witnesses([]) == "(no witnesses)"

    def test_model_inventory_reports_counts(self):
        inventory = model_inventory()
        assert inventory["python_modules"] > 30
        assert inventory["instruction_opcodes"] > 30
        assert inventory["nondeterministic_rules"] >= 5


@pytest.fixture(scope="module")
def tcas_sec62_results():
    """Run the miniature Section 6.2 experiment once for several tests."""
    workload = tcas_workload()
    campaign = tcas_symbolic_campaign(workload)
    start, end = workload.compiled.function_region("Non_Crossing_Biased_Climb")
    injections = [i for i in campaign.enumerate_injections(pcs=range(start, end))
                  if i.target == Location.register(31)]
    query = printed_value_other_than(1)
    result = campaign.run(query, injections=injections)
    return workload, campaign, result


class TestTcasCatastrophicScenario:
    def test_symbolic_injection_finds_wrong_downward_advisory(self, tcas_sec62_results):
        """Section 6.2: a transient error in the return-address register $31
        inside Non_Crossing_Biased_Climb makes tcas print 2 instead of 1."""
        workload, _campaign, result = tcas_sec62_results
        catastrophic = solutions_with_final_value(result, 2)
        assert catastrophic, "the output-2 scenario must be found"
        # every witness corrupts the return-address register
        assert all(injection.target == Location.register(31)
                   for injection, _solution in catastrophic)

    def test_catastrophic_states_halt_normally(self, tcas_sec62_results):
        _workload, _campaign, result = tcas_sec62_results
        for _injection, solution in solutions_with_final_value(result, 2):
            assert solution.state.status.value == "halted"
            assert solution.state.printed_integers()[-1] == 2

    def test_concrete_campaign_of_comparable_effort_misses_it(self, tcas_sec62_results):
        """Section 6.3 / Table 2: the concrete campaign over the same code
        region (extreme + random values) never produces the 2 advisory."""
        workload, _campaign, symbolic_result = tcas_sec62_results
        start, end = workload.compiled.function_region("Non_Crossing_Biased_Climb")
        concrete = ConcreteCampaign(
            workload.program,
            input_values=workload.default_input,
            memory=workload.data_segment,
            labeler=printed_value_labeler(expected_values=(0, 1, 2)),
            max_steps=5_000)
        concrete_result = concrete.run(
            injections=concrete.enumerate_injections(pcs=range(start, end)))
        comparison = compare_symbolic_concrete(symbolic_result, concrete_result,
                                               target_value=2)
        assert comparison.reproduces_paper_shape
        assert "symbolic campaign" in comparison.describe()

    def test_task_decomposition_reports_completion(self, tcas_sec62_results):
        workload, campaign, _result = tcas_sec62_results
        start, end = workload.compiled.function_region("Non_Crossing_Biased_Climb")
        injections = [i for i in campaign.enumerate_injections(pcs=range(start, end))
                      if i.target == Location.register(31)]
        tasks = decompose_by_code_section(injections, num_tasks=3)
        runner = TaskRunner(campaign, max_errors_per_task=10)
        report = runner.run(tasks, printed_value_other_than(1))
        assert report.total_tasks == 3
        assert report.completed_tasks >= 1
        assert report.total_errors_found > 0
        assert "tasks completed" in format_task_report(report, title="tcas")


class TestReplaceIncorrectOutput:
    def test_symbolic_error_in_dodash_parameter_breaks_substitution(self):
        """Section 6.4: corrupting a register used by dodash while the pattern
        is being constructed leads to an incorrect program output (for
        example the original line is emitted without the substitution)."""
        workload = replace_workload(pattern="[0-9]", substitution="#",
                                    lines=("a1b",))
        golden = workload.golden_output()
        compiled = workload.compiled
        start, end = compiled.function_region("dodash")
        campaign = SymbolicCampaign(
            workload.program,
            input_values=workload.default_input,
            memory=workload.data_segment,
            fault_model=RegisterValueFault(),
            execution_config=ExecutionConfig(max_steps=30_000,
                                             control_fork_domain="labels",
                                             max_control_forks=64,
                                             max_memory_forks=2),
            max_solutions_per_injection=2,
            max_states_per_injection=40_000)
        # Sweep the scratch registers used while dodash builds the character
        # class (these hold the delimiter / class characters being compared).
        injections = [i for i in campaign.enumerate_injections(pcs=range(start, end))
                      if i.target.index in (8, 9, 10)][:40]
        result = campaign.run(incorrect_output(golden), injections=injections)
        assert result.injections_with_solutions > 0
        # every solution halted normally yet produced a different output
        assert result.solutions()
        for _injection, solution in result.solutions():
            assert solution.state.status.value == "halted"
            assert solution.state.output_values() != golden
