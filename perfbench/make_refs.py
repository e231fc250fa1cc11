"""Write the committed references of the compute workloads.

Usage (from a checkout of the commit the references should pin)::

    PYTHONPATH=src python3 perfbench/make_refs.py table3-serial

Runs every op of every input set with the same functions the
benchmark times (fig11 on the serial default plan, so ``fig11-dag`` is
checked against the serial report) and records each op's output and
its work (design-point evaluations times graph tasks), the unit
``wall_s``/``cpu_s`` are scaled by.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

#: Ops recorded per input set: one full cycle of each workload.
CYCLES = {
    "table3-serial": (workloads.table3_op, 5),
    "fig11-dag": (workloads.fig11_op, 1),
    "large-screened": (workloads.large_op, workloads.LARGE_SCALINGS),
}


def main() -> int:
    name = sys.argv[1]
    run_op, cycle = CYCLES[name]
    tracer = Tracer()
    install(tracer)
    tracer.enable()
    inputs = {}
    for input_seed in range(workloads.INPUT_SEEDS):
        ops = []
        for op in range(cycle):
            tracer.counters.clear()
            key, output = run_op(input_seed, op)
            ops.append({"key": key, "output": output,
                        "work": tracer.counters["optim.task_evaluations"]})
            print(f"{name} input {input_seed} {key}: "
                  f"{ops[-1]['work']} task-evaluations", file=sys.stderr)
        inputs[str(input_seed)] = ops
    (HERE / "refs").mkdir(exist_ok=True)
    with open(HERE / "refs" / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "inputs": inputs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
