"""Ablations of the design choices DESIGN.md calls out.

1. *Constraint solver on/off* — Section 3.2 claims the custom constraint
   solver prunes infeasible paths and limits state-space explosion.  The
   ablation runs the same symbolic injection with pruning enabled and
   disabled and compares explored-state counts and the number of (spurious)
   outcomes.
2. *Injection-point optimisation* — Section 6.2 injects only the registers
   used by each instruction (guaranteeing activation) instead of every
   architectural register; the ablation compares the campaign sizes.
"""

import pytest

from repro.constraints import Location
from repro.core import BoundedModelChecker, halted_normally
from repro.errors import Injection, prepare_injected_state
from repro.faults import RegisterValueFault
from repro.machine import ExecutionConfig, Executor
from repro.programs import factorial_workload, loop_counter_injection_pc, tcas_workload


def run_pruning_ablation():
    workload = factorial_workload(default_input=7)
    subi_pc = loop_counter_injection_pc(workload)
    injection = Injection(breakpoint_pc=subi_pc + 1, target=Location.register(3))
    results = {}
    for pruning in (True, False):
        executor = Executor(workload.program, workload.detectors,
                            ExecutionConfig(max_steps=400,
                                            prune_unsatisfiable=pruning))
        checker = BoundedModelChecker(executor, max_solutions=10_000,
                                      max_states=200_000)
        injected = prepare_injected_state(workload.program, injection,
                                          workload.initial_state())
        result = checker.search_single(injected, halted_normally())
        outputs = {solution.state.output_values()
                   for solution in result.solutions}
        results[pruning] = (result.statistics.explored_states, outputs)
    return results


def count_injection_points():
    workload = tcas_workload()
    used = len(RegisterValueFault(policy="used").enumerate(workload.program))
    every = len(RegisterValueFault(policy="all").enumerate(workload.program))
    return used, every, len(workload.program)


@pytest.mark.benchmark(group="ablation")
def test_ablation_constraint_pruning(benchmark):
    results = benchmark.pedantic(run_pruning_ablation, rounds=1, iterations=1)
    pruned_states, pruned_outputs = results[True]
    naive_states, naive_outputs = results[False]

    # Soundness: pruning never loses real outcomes.
    assert pruned_outputs.issubset(naive_outputs) or pruned_outputs == naive_outputs
    # Effectiveness: pruning explores no more states than the naive search,
    # and the naive search reports at least as many (possibly spurious) outcomes.
    assert pruned_states <= naive_states
    assert len(pruned_outputs) <= len(naive_outputs)

    print("\n[ABLATION] constraint solver pruning (factorial, input 7)")
    print(f"  pruning on : {pruned_states:6d} states, {len(pruned_outputs)} distinct outputs")
    print(f"  pruning off: {naive_states:6d} states, {len(naive_outputs)} distinct outputs")


@pytest.mark.benchmark(group="ablation")
def test_ablation_injection_point_optimisation(benchmark):
    used, every, instructions = benchmark.pedantic(count_injection_points,
                                                   rounds=1, iterations=1)
    # The paper's estimate for the unoptimised campaign is #instructions x 32
    # registers; the activation-aware sweep is far smaller.
    assert every == instructions * 31  # register $0 cannot hold an error
    assert used < every / 5

    print("\n[ABLATION] injection-point optimisation on tcas")
    print(f"  instructions                        : {instructions}")
    print(f"  injections, every register          : {every}")
    print(f"  injections, registers used (paper)  : {used}")
    print(f"  reduction factor                    : {every / used:.1f}x")
