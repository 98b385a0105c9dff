"""The weylkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: group_queries, complex_queries, ddaha_assoc (see workloads.py).
Each measurement is a fresh single-threaded worker process, and only one
runs at a time.

Every time below is given at the reference host speed: each op latency is
scaled by the host-speed probes timed just before and after it, and each
set-up time by two probes timed right after it (see speed.py), because a
shared host's speed drifts by up to a factor of two between runs.  The raw
times are printed on a note line and kept in the run record.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s      median set-up time (import weylkit, build the systems and
               algebras of the workload) over SETUP_PROBES fresh processes,
               half run before the timed run and half after it
  ops_per_s    ops completed per second of timed wall time, where the timed
               wall is the sum of the op latencies
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency (statistics.quantiles, n=10)
  peak_rss_mb  ru_maxrss of the workload process
fail_ratio (failed / attempted ops) is printed on its own line and carried
by the `failed` and `attempted` fields of the result.

--trace 1 runs a fixed number of ops twice, untraced and traced, each in a
fresh process, and prints the per-layer metrics of the traced run plus
trace_overhead_s, the traced timed wall minus the untraced one (both at the
reference speed).  Per-layer self times are raw, from the traced run only.

The last line of stdout is the result as one JSON object (with --workload
all, one object per workload).  A record of each run, with its provenance,
is written to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from layers import WORKLOADS, per_layer_metrics
from speed import at_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def worker(*args):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # imports read cached bytecode, as those of an installed package do,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def end_to_end(workload, seed, seconds):
    # The probes straddle the timed run, so that their median does not hang on
    # the machine's speed in one moment: it drifts by tens of percent over
    # tens of seconds on a shared host.
    probes = [worker("setup", workload) for _ in range(SETUP_PROBES // 2)]
    run = worker("timed", workload, seed, seconds)
    probes += [worker("setup", workload) for _ in range(SETUP_PROBES - len(probes))]
    raw_setups = [p["setup_s"] for p in probes]
    setups = [at_reference([p["setup_s"]], p["probes"])[0] for p in probes]
    raw = run["latencies"]
    lat = at_reference(raw, run["probes"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    beyond = sum(1 for x in lat if x > metrics["op_p90_ms"][0] / 1000)
    notes = [
        f"{len(lat)} ops; op_p90_ms has {beyond} samples beyond it",
        f"raw, before scaling to the reference speed: setup_s "
        f"{statistics.median(raw_setups):.6g} s, ops_per_s {len(raw) / sum(raw):.6g} ops/s, "
        f"op_p50_ms {1000 * statistics.median(raw):.6g} ms; median probe "
        f"{1000 * statistics.median(run['probes']):.4g} ms",
    ]
    extra = {"setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
             "raw_latencies_s": raw, "probes_s": run["probes"]}
    return metrics, lat, run["failures"], notes, extra


def traced(workload, seed):
    plain = worker("fixed", workload, seed)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-s{seed}.bin")
    run = worker("fixed", workload, seed, spans_path)
    plain_wall = sum(at_reference(plain["latencies"], plain["probes"]))
    overhead = sum(at_reference(run["latencies"], run["probes"])) - plain_wall
    units = {m: u for m, u, _ in per_layer_metrics()}
    metrics = {name: (value, units[name]) for name, value in run["per_layer"].items()}
    metrics["trace_overhead_s"] = (overhead, "s")
    notes = [
        f"{len(run['latencies'])} ops, {run['spans']} spans written to "
        f"{os.path.relpath(spans_path, ROOT)}",
        "per-layer self times come from the traced run only and are raw; "
        "end-to-end metrics come from --trace 0 runs",
    ]
    failures = plain["failures"] + run["failures"]
    ops = plain["latencies"] + run["latencies"]
    return metrics, ops, failures, notes, {"untraced_wall_s": plain_wall}


def measure(workload, seed, seconds, trace, label=""):
    """Run one workload, print its metrics, write its record and return the
    result object."""
    record = provenance(workload, seed, trace)
    if trace:
        metrics, lat, failures, notes, extra = traced(workload, seed)
    else:
        metrics, lat, failures, notes, extra = end_to_end(workload, seed, seconds)
    record["loadavg_end"] = list(os.getloadavg())

    attempted, failed = len(lat), len(failures)
    for name, (value, unit) in metrics.items():
        print(f"{label}{name} {value:.6g} {unit}")
    print(f"{label}fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    for line in notes + failures[:10]:
        print(f"{label}{line}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(extra, result=result, fail_ratio=failed / attempted,
                  failures=failures, latencies_s=lat)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-s{seed}-t{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            label = f"{name} " if len(names) > 1 else ""
            results[name] = measure(name, args.seed, args.seconds, args.trace, label)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(results if len(names) > 1 else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
