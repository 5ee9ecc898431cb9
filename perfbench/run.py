"""Benchmark of the `ldp` package: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a closed loop of passes with one caller. Each pass is a fresh
process (`worker.py`) that imports `ldp` from `src`, makes the inputs from
the seed and runs the workload's items one after another, so the program's
caches start cold as they do for every `ldp` command. Passes repeat until
another would end after S seconds (at least MIN_PASSES).

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones;
with --trace 1, passes alternate between untraced and traced, and the
metrics are the per-layer ones from the traced passes. The line before it
records the run's context: item counts, Python version, core count, commit.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import metrics
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
MAX_RUN_S = 150


class PassError(RuntimeError):
    pass


def run_pass(workload, seed, traced):
    # a fixed hash seed keeps set and dict orders, and so the traced counts,
    # the same in every pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, workload, str(seed), "1" if traced else "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"a pass took longer than {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassError(f"a pass exited with code {proc.returncode}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - start
    data["pass_s"] = time.monotonic() - start
    data["traced"] = traced
    return data


def run_passes(workload, seed, seconds, trace):
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, trace and len(passes) % 2 == 1))
        elapsed = time.monotonic() - start
        ends = elapsed + max(p["pass_s"] for p in passes)
        enough = len(passes) >= MIN_PASSES and ends > seconds
        # a traced run needs one pass of each kind
        if (enough or ends > MAX_RUN_S) and len(passes) >= 1 + trace:
            return passes


def end_to_end(passes):
    samples_ms = [t * 1000 for p in passes for t in p["item_s"]]
    loop_s = [p["loop_s"] for p in passes]
    return {
        "setup_s": stats.median(p["setup_s"] for p in passes),
        # a mean: the machine's speed drifts, and a mean over passes varies
        # less from run to run than their median
        "wall_s": sum(loop_s) / len(loop_s),
        "items_per_s": len(samples_ms) / sum(loop_s),
        "item_p50_ms": stats.percentile(samples_ms, 50),
        "item_p90_ms": stats.percentile(samples_ms, 90),
        "peak_rss_mib": stats.median(p["rss_mib"] for p in passes),
    }


def per_layer(untraced, traced, units):
    # counts are the same in every traced pass; times and ratios vary
    out = {
        name: traced[0]["layer"][name]
        if units[name] == "count"
        else stats.median(p["layer"][name] for p in traced)
        for name in traced[0]["layer"]
    }
    out["trace_overhead"] = stats.median(p["loop_s"] for p in traced) / stats.median(
        p["loop_s"] for p in untraced
    )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ldp", "__init__.py")):
        print(f"error: no ldp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        units = {name: unit for name, unit, _ in metrics.per_layer()}
        values = per_layer(untraced, traced, units)
    else:
        values = end_to_end(untraced)
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} out of step", file=sys.stderr)
        return 1

    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted, failed, correct = stats.tally(outcomes)
    for o in outcomes:
        if o:
            print(f"failed item: {json.dumps(o)}", file=sys.stderr)
    samples = sum(len(p["item_s"]) for p in untraced)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "items_per_pass": len(passes[0]["item_s"]),
        "item_samples": samples,
        "p90_samples_beyond": stats.samples_beyond(samples, 90),
        "p90_supported": stats.supported(samples, 90),
        "error_rate": stats.error_rate(outcomes),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": stats.git_commit(ROOT),
    }
    if args.trace:
        context["counts_repeat"] = all(
            p["layer"][name] == values[name]
            for p in traced
            for name, unit in units.items()
            if unit == "count"
        )
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
