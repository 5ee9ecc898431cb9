"""One pass of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

Imports `ldp` from the checkout's `src`, makes the pass's inputs from the
seed, runs every item in a closed loop (TRACE=1 wraps the layers first),
checks the outputs after the loop, and prints one JSON line.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_ldp():
    """`ldp` from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ldp", "__init__.py")):
        raise SystemExit(f"error: no ldp sources under {SRC}")
    sys.path.insert(0, SRC)
    import ldp

    if not os.path.abspath(ldp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported ldp from {ldp.__file__}, not {SRC}")
    return ldp


def run_items(items, spans):
    """Run every item once; (seconds per item, result or exception)."""
    times, results = [], []
    for item in items:
        call = spans(item)
        start = time.perf_counter()
        try:
            result = call()
        except (Exception, SystemExit) as exc:
            result = exc
        times.append(time.perf_counter() - start)
        results.append(result)
    return times, results


def outcome(item, result):
    if isinstance(result, BaseException):
        return {"label": item.label, "raised": repr(result)}
    out = {}
    try:
        wrong = item.check(result)
        fails = item.reported_fails(result) if item.reported_fails else []
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        wrong, fails = f"malformed output: {exc!r}", []
    if wrong:
        out["wrong"] = wrong
    if fails:
        out["reported_fails"] = fails
    return dict(out, label=item.label) if out else out


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    ldp = import_ldp()
    import metrics
    import workloads
    from tracer import Tracer

    items = workloads.WORKLOADS[workload](ldp, seed)
    ready = time.monotonic()
    layer = None
    if traced:
        with Tracer(ldp) as tracer:
            wrapped = {id(i): tracer.wrap(i.span, i.run) for i in items if i.span}
            times, results = run_items(items, lambda i: wrapped.get(id(i), i.run))
        layer = tracer.metrics(metrics.TIMED_SPANS, metrics.COUNTED_SPANS)
    else:
        times, results = run_items(items, lambda i: i.run)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(
        {
            "ready": ready,
            "item_s": times,
            "loop_s": sum(times),
            "rss_mib": rss_kib / 1024,
            "outcomes": [outcome(i, r) for i, r in zip(items, results)],
            "layer": layer,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
