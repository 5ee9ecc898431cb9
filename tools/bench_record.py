"""Run the benchmark on one or more checkouts and record it in one JSON file.

    python3 tools/bench_record.py --out BENCH_<pr>.json \\
        --side parent=PATH --side change=. [--pairs 10] [--seed 1]

Each side is a checkout of this repository; its own `perfbench/run.py` runs
against its own `src/`, so both sides use the benchmark code they carry.
For every workload `BENCHMARK.json` lists, the sides take turns, one
`--trace 0` run each per round for `--pairs` rounds, and the side that goes
first alternates between rounds. Each run lasts `run_seconds` from
`BENCHMARK.json`. Then each side makes one `--trace 1` run of every workload
in TRACED, for the per-layer numbers.

The file records the Python version, the core count, each side's commit
and the git id of its committed `src/` tree, every run's end-to-end metrics
and error rate, each side's median and quartiles per metric, and, for every
side after the first, the number of rounds in which it did better than the
first side on each metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workloads whose per-layer numbers are recorded: the dual-graph kernel, and
# the verify-paper groups, where the polynomial layer runs
TRACED = ("large_graphs", "paper_checks")


def run(root, workload, seed, seconds, trace):
    """(context, result) of one perfbench run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    context, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return context["context"], result


def src_tree(root):
    """Git id of the committed src/ tree of the checkout at root: equal ids
    mean the same program, across rebased or squashed commits."""
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD:src"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def summary(runs, names):
    """Median and quartiles of each metric over the runs."""
    out = {"median": {}, "quartiles": {}}
    for name in names:
        values = [r[name] for r in runs]
        out["median"][name] = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["quartiles"][name] = [q1, q3]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--side", action="append", required=True, metavar="LABEL=PATH")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = dict(s.split("=", 1) for s in args.side)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "run_seconds": seconds,
        "pairs": args.pairs,
        "sides": {label: {"src_tree": src_tree(root)} for label, root in sides.items()},
        "end_to_end": {},
        "per_layer": {},
    }
    labels = list(sides)
    for w in bench["workloads"]:
        workload = w["name"]
        runs = {label: [] for label in labels}
        errors = {label: [] for label in labels}
        for k in range(args.pairs):
            for label in labels if k % 2 == 0 else labels[::-1]:
                context, result = run(sides[label], workload, args.seed, seconds, 0)
                record["sides"][label]["commit"] = context["commit"]
                runs[label].append({n: m["value"] for n, m in result["metrics"].items()})
                errors[label].append(context["error_rate"])
                print(workload, label, k, json.dumps(runs[label][-1]), file=sys.stderr)
        entry = {}
        for label in labels:
            entry[label] = dict(summary(runs[label], better), runs=runs[label],
                                error_rate=errors[label])
        base = runs[labels[0]]
        for label in labels[1:]:
            entry[label]["wins_over_" + labels[0]] = {
                name: sum(
                    (mine[name] < theirs[name]) if way == "lower" else (mine[name] > theirs[name])
                    for mine, theirs in zip(runs[label], base)
                )
                for name, way in better.items()
            }
        record["end_to_end"][workload] = entry
    for workload in TRACED:
        record["per_layer"][workload] = {}
        for label, root in sides.items():
            metrics = run(root, workload, args.seed, seconds, 1)[1]["metrics"]
            record["per_layer"][workload][label] = {n: m["value"] for n, m in metrics.items()}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
