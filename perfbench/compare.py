"""Compare the end-to-end results of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records (`<workload>-s<seed>-t0.json`) that
run.py wrote to perfbench/out/ on one commit.  For every workload and every
end-to-end metric of BENCHMARK.json this prints each side's median and
quartiles, the pairs (runs with the same seed) the new side wins, and a
verdict; then each side's total of failed ops.  Verdicts:

  improved     the new side wins at least 9/10 of the pairs and the medians
               differ, in the better direction, by more than the base's
               interquartile distance
  unresolved   otherwise, when the base's own interquartile distance exceeds
               the bound (a share of the base median) and not every new run
               beats every base run, or a side has fewer than two runs
  worse        otherwise, when the new median is worse than the base median
               by more than the bound
  unchanged    otherwise
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """workload -> seed -> {metric: value}, plus workload -> failed ops."""
    out, failed = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path) as fh:
            record = json.load(fh)
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        out.setdefault(record["workload"], {})[record["seed"]] = metrics
        failed[record["workload"]] = failed.get(record["workload"], 0) + record["result"]["failed"]
    return out, failed


def verdict(base, new, better, bound):
    """(verdict, pair wins, pairs) for one metric; base and new map seed ->
    value."""
    sign = 1 if better == "higher" else -1
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    a, b = list(base.values()), list(new.values())
    if len(a) < 2 or len(b) < 2:
        return "unresolved", wins, len(pairs)
    q1, med_a, q3 = statistics.quantiles(a, n=4)
    med_b = statistics.median(b)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > q3 - q1:
        return "improved", wins, len(pairs)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (q3 - q1) / abs(med_a) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def quartiles(values):
    """q1/median/q3 as text."""
    if len(values) < 2:
        return "/".join(f"{v:.4g}" for v in values) or "-"
    return "/".join(f"{q:.4g}" for q in statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    (base, base_failed), (new, new_failed) = load(argv[0]), load(argv[1])
    print("workload\tmetric\tunit\tbase q1/median/q3\tnew q1/median/q3\twins\tverdict")
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, {}), new.get(workload, {})
        for m in spec["end_to_end"]:
            name = m["name"]
            b = {s: v[name] for s, v in b_runs.items() if name in v}
            n = {s: v[name] for s, v in n_runs.items() if name in v}
            result, wins, pairs = verdict(b, n, m["better"], m["bound"])
            print(f"{workload}\t{name}\t{m['unit']}\t{quartiles(list(b.values()))}\t"
                  f"{quartiles(list(n.values()))}\t{wins}/{pairs}\t{result}")
        print(f"{workload}\tfailed ops\tcount\t{base_failed.get(workload, 0)}\t"
              f"{new_failed.get(workload, 0)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
