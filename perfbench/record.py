"""Write the op pools and their reference answers to reference/<workload>.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run this only on the commit whose answers are the reference (the benchmark
records from the commit that introduced it); every later commit is checked
against the file.  It refuses to record an op that fails its invariants.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from run import commit  # noqa: E402


def record(workload):
    context = workloads.Context(workload)
    ops = workloads.generate_pool(workload)
    for i, op in enumerate(ops):
        outcome = context.run(op)
        op["answer"] = workloads.answer(workload, op, outcome)
        reason = workloads.check(workload, op, outcome)
        if reason is not None:
            raise SystemExit(f"{workload} op {i} fails at the reference commit: {reason}")
    header = json.dumps({"workload": workload, "pool_seed": workloads.POOL_SEED,
                         "recorded_at_commit": commit()}, sort_keys=True)
    lines = ",\n".join(json.dumps(op, sort_keys=True) for op in ops)
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path, "w") as fh:
        fh.write(f'{{"header": {header},\n"ops": [\n{lines}\n]}}\n')
    print(f"{workload}: {len(ops)} ops -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.BLOCKS):
        record(name)
