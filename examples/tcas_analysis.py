#!/usr/bin/env python3
"""The tcas case study (paper Sections 6.1-6.3), end to end.

* compiles the tcas workload and checks the error-free advisory (1 = climb),
* runs a symbolic register-error campaign over the Non_Crossing_Biased_Climb
  function, decomposed into search tasks like the paper's cluster runs,
* extracts the catastrophic witness (the program prints 2 — a *downward*
  advisory — instead of 1) caused by a corrupted return-address register, and
* runs a concrete SimpleScalar-style campaign over the same code region to
  show that value-based injection does not expose the scenario (Table 2).

Run with:  python examples/tcas_analysis.py        (takes a couple of minutes)
Pass --quick to sweep only the return-address injections.
"""

import argparse

from repro.analysis import compare_symbolic_concrete
from repro.concrete import ConcreteCampaign, printed_value_labeler
from repro.constraints import Location
from repro.core import (SymbolicCampaign, TaskRunner, Witness,
                        decompose_by_code_section, printed_value_other_than)
from repro.faults import RegisterValueFault
from repro.machine import ExecutionConfig
from repro.programs import tcas_workload


def build_campaign(workload):
    return SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        fault_model=RegisterValueFault(),
        execution_config=ExecutionConfig(max_steps=3_000,
                                         control_fork_domain="labels",
                                         max_control_forks=2_048,
                                         max_memory_forks=4),
        max_solutions_per_injection=10,
        max_states_per_injection=20_000)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="only sweep injections into the return-address register")
    parser.add_argument("--tasks", type=int, default=10,
                        help="number of search tasks for the decomposition")
    args = parser.parse_args()

    workload = tcas_workload()
    golden = workload.golden_output()
    print(f"tcas compiled to {len(workload.program)} instructions; "
          f"error-free advisory = {golden[0]} (1 = upward advisory)\n")

    campaign = build_campaign(workload)
    start, end = workload.compiled.function_region("Non_Crossing_Biased_Climb")
    injections = campaign.enumerate_injections(pcs=range(start, end))
    if args.quick:
        injections = [i for i in injections if i.target == Location.register(31)]
    print(f"sweeping {len(injections)} register injections inside "
          f"Non_Crossing_Biased_Climb (code addresses {start}..{end})")

    query = printed_value_other_than(1)
    tasks = decompose_by_code_section(injections, num_tasks=args.tasks)
    runner = TaskRunner(campaign, max_errors_per_task=10, wall_clock_per_task=120.0)
    report = runner.run(tasks, query,
                        progress=lambda done, total, result: print(
                            f"  task {done}/{total}: "
                            f"{result.errors_found} errors, "
                            f"{result.elapsed_seconds:.1f}s"))
    print()
    print(report.describe())
    print()

    catastrophic = []
    for injection, solution in report.solutions():
        printed = solution.state.printed_integers()
        if printed and printed[-1] == 2:
            catastrophic.append((injection, solution))
    print(f"catastrophic scenarios (advisory flipped from 1 to 2): "
          f"{len(catastrophic)}")
    if catastrophic:
        injection, solution = catastrophic[0]
        witness = Witness(program=workload.program, injection=injection,
                          state=solution.state, golden_output=golden)
        print()
        print(witness.render())
        print()

    print("running the concrete (SimpleScalar-substitute) campaign over the "
          "same code region for comparison ...")
    concrete = ConcreteCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        labeler=printed_value_labeler(expected_values=(0, 1, 2)),
        max_steps=5_000)
    concrete_result = concrete.run(
        injections=concrete.enumerate_injections(pcs=range(start, end)))
    print(concrete_result.describe())
    print()

    # flatten the symbolic task report into a campaign-like container for the
    # comparison helper
    from repro.core.campaign import CampaignResult
    flat = CampaignResult(query_description=query.description)
    for task_result in report.task_results:
        flat.results.extend(task_result.results)
    comparison = compare_symbolic_concrete(
        flat, concrete_result, target_value=2,
        target_description="tcas prints 2 (downward advisory) instead of 1")
    print(comparison.describe())
    if comparison.reproduces_paper_shape:
        print("\n=> reproduces the paper's headline result: only the symbolic "
              "campaign exposes the catastrophic advisory flip.")


if __name__ == "__main__":
    main()
