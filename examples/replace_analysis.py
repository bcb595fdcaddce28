#!/usr/bin/env python3
"""The replace case study (paper Section 6.4).

replace is the largest Siemens benchmark: it builds an encoded pattern
(makepat / getccl / dodash), then matches and substitutes it in each input
line (amatch / omatch / locate / subline).  The experiment asks SymPLFIED for
single register errors that lead to an *incorrect program output* — for
example the paper's scenario where a corrupted delimiter parameter inside
``dodash`` produces a wrong pattern and the line is emitted without the
substitution.

Run with:  python examples/replace_analysis.py [--pattern "[0-9]"] [--sub "#"]
"""

import argparse

from repro.core import SymbolicCampaign, TaskRunner, decompose_by_code_section, incorrect_output
from repro.faults import RegisterValueFault
from repro.machine import ExecutionConfig
from repro.programs import decode_output, replace_workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pattern", default="[0-9]")
    parser.add_argument("--sub", default="#")
    parser.add_argument("--line", default="ab12cd9")
    parser.add_argument("--functions", nargs="*",
                        default=["dodash", "getccl"],
                        help="functions whose code region is swept")
    parser.add_argument("--per-function", type=int, default=30,
                        help="max injections per function region")
    args = parser.parse_args()

    workload = replace_workload(pattern=args.pattern, substitution=args.sub,
                                lines=(args.line,))
    golden = workload.golden_output()
    print(f"replace compiled to {len(workload.program)} instructions "
          f"({len(workload.compiled.functions)} functions)")
    print(f"pattern={args.pattern!r} substitution={args.sub!r} line={args.line!r}")
    print(f"error-free output: {decode_output(golden)!r}\n")

    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        fault_model=RegisterValueFault(),
        execution_config=ExecutionConfig(max_steps=40_000,
                                         control_fork_domain="labels",
                                         max_control_forks=64,
                                         max_memory_forks=2),
        max_solutions_per_injection=2,
        max_states_per_injection=40_000)

    injections = []
    for function in args.functions:
        if function not in workload.compiled.functions:
            print(f"  (skipping unknown function {function})")
            continue
        start, end = workload.compiled.function_region(function)
        region = [i for i in campaign.enumerate_injections(pcs=range(start, end))
                  if i.target.index in (8, 9, 10)]
        injections.extend(region[:args.per_function])
        print(f"  {function}: sweeping {min(len(region), args.per_function)} "
              f"injections from code addresses {start}..{end}")
    print()

    query = incorrect_output(golden)
    tasks = decompose_by_code_section(injections, num_tasks=6)
    runner = TaskRunner(campaign, max_errors_per_task=10, wall_clock_per_task=120.0)
    report = runner.run(tasks, query)
    print(report.describe())
    print()

    witnesses = []
    for injection, solution in report.solutions():
        witnesses.append((injection, solution))
    print(f"incorrect-output scenarios found: {len(witnesses)}")
    for injection, solution in witnesses[:3]:
        print(f"\n  injection: {injection.label()}")
        print(f"  corrupted output: {decode_output(solution.state.output_values())!r}")
    if witnesses:
        print("\n(the paper's example: an erroneous pattern is constructed and "
              "the program returns the original string without the substitution)")


if __name__ == "__main__":
    main()
