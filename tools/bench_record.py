"""Run the benchmark on one or more checkouts and record it in one JSON file.

    python3 tools/bench_record.py --out BENCH_<pr>.json \\
        --side parent=PATH --side change=. [--pairs 10] [--seed 1]

Each side is a checkout of this repository; its own `perfbench/run.py` runs
against its own `src/`, so both sides use the benchmark code they carry.
For every workload `BENCHMARK.json` lists, the sides take turns, one
`--trace 0` run each per round for `--pairs` rounds, and the side that goes
first alternates between rounds. Every side runs without a bytecode cache:
before the first run, the `__pycache__` directories under each side's `src/`
and `perfbench/` are removed, and every child process runs with
`PYTHONDONTWRITEBYTECODE=1`, so each run compiles the modules it imports, as
a fresh checkout does, and no side loads caches an earlier run left. Each
run lasts `run_seconds` from `BENCHMARK.json`. Then each side makes one
`--trace 1` run of every workload in TRACED, for the per-layer numbers.
Last, the sides take turns in the same way at `ldp verify-paper --json`, one
fresh process per run, which records each check group's `seconds`, the
process's wall time and its peak RSS.

The file records the Python version, the core count, each side's commit
and the git id of its committed `src/` tree, every run's end-to-end metrics
and error rate, each side's median and quartiles per metric, and, for every
side after the first, the number of rounds in which it did better than the
first side on each metric. A side with uncommitted changes under `src/` is
refused (exit 2), since its tree id would not name the code that ran.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workloads whose per-layer numbers are recorded: the dual-graph kernel on
# new graphs, the verify-paper groups, where the polynomial layer runs, and
# the Table 1 reports, where the whole-type quantities run
TRACED = ("large_graphs", "paper_checks", "table1_scan")


def child_env(**extra):
    """The environment of every child: no bytecode cache is written."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **extra)


def run(root, workload, seed, seconds, trace):
    """(context, result) of one perfbench run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    context, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return context["context"], result


# `ldp verify-paper --json` in a child process that reports its own peak RSS
# (KiB on Linux) on the last line of stderr
VERIFY_CHILD = """
import resource, sys
from ldp.cli import main
code = main(["verify-paper", "--json"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def verify_paper(root):
    """(metrics, failed checks) of one `ldp verify-paper --json` run of the
    checkout at root; the metrics are each group's seconds, and the wall
    time and peak RSS of the process."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_CHILD], cwd=root, capture_output=True, text=True,
        env=child_env(PYTHONPATH=os.path.join(root, "src")),
    )
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # 1: a check failed, which the record shows
        raise RuntimeError(f"verify-paper in {root} exited {proc.returncode}: {proc.stderr}")
    outcomes = json.loads(proc.stdout)
    groups = sorted({o["group"]: o["seconds"] for o in outcomes}.items())
    metrics = {f"group{g}_s": seconds for g, seconds in groups}
    metrics["wall_s"] = wall
    metrics["peak_rss_mib"] = int(proc.stderr.split()[-1]) / 1024
    print("verify-paper", root, json.dumps(metrics), file=sys.stderr)
    return metrics, sum(o["status"] != "Pass" for o in outcomes)


def src_tree(root):
    """Git id of the committed src/ tree of the checkout at root: equal ids
    mean the same program, across rebased or squashed commits."""
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD:src"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def dirty_src(root):
    """True when the checkout at root has uncommitted changes under src/,
    which its runs would measure but its src_tree would not name."""
    proc = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return bool(proc.stdout.strip())


def clear_caches(root):
    """Remove the bytecode caches under the `src/` and `perfbench/` of the
    checkout at root, the code its runs import."""
    for sub in ("src", "perfbench"):
        for dirpath, dirnames, _ in os.walk(os.path.join(root, sub)):
            if "__pycache__" in dirnames:
                dirnames.remove("__pycache__")
                shutil.rmtree(os.path.join(dirpath, "__pycache__"))


def summary(runs, names):
    """Median and quartiles of each metric over the runs."""
    out = {"median": {}, "quartiles": {}}
    for name in names:
        values = [r[name] for r in runs]
        out["median"][name] = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["quartiles"][name] = [q1, q3]
    return out


def take_turns(labels, pairs, measure):
    """{label: [measure(label) per round]}, the side that goes first
    alternating between rounds."""
    runs = {label: [] for label in labels}
    for k in range(pairs):
        for label in labels if k % 2 == 0 else labels[::-1]:
            runs[label].append(measure(label))
    return runs


def compare(turns, better, tally):
    """Each side's runs with their summary, and for every side after the
    first the number of rounds in which it did better than the first.  Each
    turn is (metrics, count), and the counts are listed under `tally`."""
    labels = list(turns)
    runs = {label: [m for m, _ in turns[label]] for label in labels}
    entry = {
        label: dict(summary(runs[label], better), runs=runs[label],
                    **{tally: [c for _, c in turns[label]]})
        for label in labels
    }
    base = runs[labels[0]]
    for label in labels[1:]:
        entry[label]["wins_over_" + labels[0]] = {
            name: sum(
                (mine[name] < theirs[name]) if way == "lower" else (mine[name] > theirs[name])
                for mine, theirs in zip(runs[label], base)
            )
            for name, way in better.items()
        }
    return entry


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
    for label, root in sides.items():
        if dirty_src(root):
            parser.error(f"side {label} ({root}) has uncommitted changes under src/; "
                         "commit them, or record a committed clone")
    for root in sides.values():
        clear_caches(root)
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

        def measure(label):
            context, result = run(sides[label], workload, args.seed, seconds, 0)
            record["sides"][label]["commit"] = context["commit"]
            metrics = {n: m["value"] for n, m in result["metrics"].items()}
            print(workload, label, json.dumps(metrics), file=sys.stderr)
            return metrics, context["error_rate"]

        record["end_to_end"][workload] = compare(
            take_turns(labels, args.pairs, measure), better, "error_rate")
    for workload in TRACED:
        record["per_layer"][workload] = {}
        for label, root in sides.items():
            metrics = run(root, workload, args.seed, seconds, 1)[1]["metrics"]
            record["per_layer"][workload][label] = {n: m["value"] for n, m in metrics.items()}
    turns = take_turns(labels, args.pairs, lambda label: verify_paper(sides[label]))
    lower = {name: "lower" for name in turns[labels[0]][0][0]}
    record["verify_paper"] = compare(turns, lower, "failed_checks")
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
