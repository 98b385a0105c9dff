"""One workload process: set up, run ops in a closed loop, print one JSON
line.  `run.py` starts a fresh worker for every measurement, one at a time.

    worker.py setup WORKLOAD                 set-up time only
    worker.py timed WORKLOAD SEED SECONDS    whole passes until SECONDS have passed
    worker.py fixed WORKLOAD SEED [SPANS]    TRACE_BLOCKS blocks of ops,
                                             traced when SPANS (a path) is given

Every time it reports comes with the host-speed probes taken around it (see
speed.py): `probes` holds one probe before the first op and one after each.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "weylkit")):
    # never fall back to an installed copy: measure the checkout's code
    sys.exit(f"weylkit sources not found under {SRC}")
sys.path.insert(0, SRC)

import speed  # noqa: E402
import workloads  # noqa: E402  (stdlib only; weylkit is imported by Context)


def main(argv):
    mode, workload = argv[0], argv[1]
    t0 = time.perf_counter()
    context = workloads.Context(workload)
    out = {"setup_s": time.perf_counter() - t0}
    # probes start after set-up, so that set-up time includes every import
    speed.warm_up()
    probes = [speed.probe()]
    if mode == "setup":
        out["probes"] = probes + [speed.probe()]
        print(json.dumps(out))
        return 0

    pool = workloads.load_pool(workload)
    blocks = workloads.op_sequence(workload, pool, int(argv[2]))
    tracer = None
    if mode == "timed":
        deadline = time.perf_counter() + float(argv[3])
        pass_blocks = workloads.PASS_BLOCKS[workload]
        n_blocks = None
    else:
        n_blocks = workloads.TRACE_BLOCKS[workload]
        if len(argv) > 3:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

    latencies, failures = [], []
    try:
        done = 0
        while (
            done % pass_blocks or time.perf_counter() < deadline
            if n_blocks is None
            else done < n_blocks
        ):
            for index in next(blocks):
                op = pool[index]
                if tracer is not None:
                    tracer.current_op = len(latencies)
                start = time.perf_counter()
                try:
                    outcome = context.run(op)
                except Exception:  # a failed op, counted; the loop goes on
                    outcome = None
                    reason = "exception:\n" + traceback.format_exc()
                latencies.append(time.perf_counter() - start)
                if outcome is not None:
                    reason = workloads.check(workload, op, outcome)
                if reason is not None:
                    failures.append(f"op {index}: {reason}")
                probes.append(speed.probe())
            done += 1
    finally:
        if tracer is not None:
            tracer.restore()

    out["latencies"] = latencies
    out["probes"] = probes
    out["failures"] = failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(argv[3])
        out["spans"] = len(tracer.start)
        out["per_layer"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
