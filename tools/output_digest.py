"""Digest what `ldp` writes on fixed batteries of command lines.

    PYTHONPATH=<checkout>/src python3 tools/output_digest.py

For each battery, prints its name, the number of command lines, their exit
codes by count, and one sha256 over (argv, exit code, stdout, stderr) of
every command line in order.  Run it once with each of two checkouts' `src/`
on PYTHONPATH: equal digests mean byte-identical output on the battery.
Every command runs in this process through `ldp.cli.main`, with stdout and
stderr captured, and an argparse exit taken as the exit code.

The batteries:
- report-hunt: `report` and `hunt` on the 530 Table 1 types with n, m <= 30;
- large-graphs: the `det` and `report` items of the benchmark's
  `large_graphs` workload, seeds 1-3;
- lemma42: `lemma42 --max-a 4` on the graphs of the benchmark's
  `paper_checks` workload, seeds 1-3, and at and past the sweep's bounds;
- lct: seeded `lct` command lines on small chains and stars;
- table1: `table1` at its defaults and at its bounds;
- table1-below: `table1` with a bound below the Table 1 families' range;
- verify-paper: `verify-paper --json`, each `seconds` value masked;
- pencil: `pencil --char` at small characteristics, at and past its bound
  and on the primes of the benchmark's `pencil_primes` workload, seeds 1-3,
  then `crossratio` and `weighted-model`;
- parse: `parse` on the notations of the report-hunt battery;
- malformed: `parse` on notations that the parser refuses, one or more for
  each of its messages.

The benchmark's item lists are read from `perfbench/` next to this tool,
which is imported without writing a bytecode cache there.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

from ldp import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

LCT_LINES = 1600
SEEDS = (1, 2, 3)

_SECONDS = re.compile(r'"seconds": [-+.0-9eE]+')


def _workloads():
    """perfbench's workloads module, imported from PERFBENCH."""
    sys.dont_write_bytecode = True
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads


def mask_seconds(text):
    """text with every `"seconds": <number>` written as `"seconds": null`."""
    return _SECONDS.sub('"seconds": null', text)


def run(argv):
    """[argv, exit code, stdout, stderr] of `ldp` on argv, with the seconds of
    a verify-paper document masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: help and usage errors
            code = exc.code
    text = out.getvalue()
    if argv[0] == "verify-paper":
        text = mask_seconds(text)
    return [list(argv), code, text, err.getvalue()]


def digest(records):
    """sha256 of the records, one JSON line each."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record).encode() + b"\n")
    return h.hexdigest()


def _table1_types():
    """The notations of the 530 Table 1 types with n, m <= 30."""
    _, _, listing, _ = run(["table1", "--n", "0..30", "--m", "1..30"])
    return [inst["type"] for inst in json.loads(listing)["instances"]]


def report_hunt_argvs():
    return [[cmd, t] for t in _table1_types() for cmd in ("report", "hunt")]


def large_graphs_argvs():
    import ldp

    workloads = _workloads()
    # an item's label is its argv joined by spaces, and no notation has one
    return [item.label.split(" ") for seed in SEEDS for item in workloads.large_graphs(ldp, seed)]


def lemma42_argvs():
    workloads = _workloads()
    out = [
        ["lemma42", g.notation(), "--max-a", str(workloads.SWEEP_MAX_A)]
        for seed in SEEDS
        for g in workloads._sweep_sample(workloads._rng("paper_checks", seed))
    ]
    # at and past the cell bound, at and past the vector bound, --max-a
    # below 1, and a count past 10^18
    return out + [
        ["lemma42", "[2^1000]", "--max-a", "1"],
        ["lemma42", "[2^1001]", "--max-a", "1"],
        ["lemma42", "[2,3,2,4,2,5]", "--max-a", "16"],
        ["lemma42", "[2,3,2,4,2,5]", "--max-a", "17"],
        ["lemma42", "[2]", "--max-a", "0"],
        ["lemma42", "[2]", "--max-a", str(10**19)],
    ]


def lct_argvs():
    """LCT_LINES `lct` command lines: chains of 1-5 vertices with weights 2..6
    and stars with branches of 1-3 vertices, weights 2..5, each with an
    incidence vector of entries 0..3.  A few vectors are zero, one entry
    short or long, or have a negative entry, and some stars are not
    negative definite, so the error paths are taken too."""
    rng = random.Random("output_digest:lct")
    out = []
    for _ in range(LCT_LINES):
        if rng.random() < 0.5:
            weights = [rng.randint(2, 6) for _ in range(rng.randint(1, 5))]
            notation = "[" + ",".join(map(str, weights)) + "]"
            n = len(weights)
        else:
            lengths = [rng.randint(1, 3) for _ in range(3)]
            branches = ("[" + ",".join(str(rng.randint(2, 5)) for _ in range(k)) + "]" for k in lengths)
            notation = f"[{rng.randint(2, 5)};" + ",".join(branches) + "]"
            n = 1 + sum(lengths)
        n += rng.choice([-1, 1]) if rng.random() < 0.02 and n > 1 else 0
        a = [rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(n)]
        if not any(a) and rng.random() < 0.9:
            a[rng.randrange(n)] = 1
        if rng.random() < 0.02:
            a[rng.randrange(n)] = -1
        out.append(["lct", notation, "--incidence", ",".join(map(str, a))])
    return out


def table1_argvs():
    return [
        ["table1"],
        ["table1", "--n", "0", "--m", "1"],
        ["table1", "--n", "0..100", "--m", "1..100"],
        ["table1", "--n", "100", "--m", "100", "--l", "1,2,3,4"],
        ["table1", "--n", "0..101"],
        ["table1", "--m", "1..101"],
        ["table1", "--n", "3..1"],
        ["table1", "--l", "all"],
        ["table1", "--l", "1"],
        ["table1", "--l", "0"],
        ["table1", "--l", "5"],
    ]


def table1_below_argvs():
    return [
        ["table1", "--n=-1..3"],
        ["table1", "--n=-1"],
        ["table1", "--m", "0..2"],
        ["table1", "--m", "0"],
        ["table1", "--m=-5..0"],
    ]


def pencil_argvs():
    import ldp

    workloads = _workloads()
    chars = (0, 2, 3, 4, 5, 7, 11, 13, 1000003, 1000004)
    out = [["pencil", "--char", str(p)] for p in chars]
    out += [item.label.split(" ") for seed in SEEDS for item in workloads.pencil_primes(ldp, seed)]
    return out + [["crossratio"], ["weighted-model"]]


# notations the parser refuses, each message at an offset past 0 where it can be
MALFORMED = (
    "",
    "[2,3",  # an unbalanced bracket
    "[2,3]]",
    "[2]+2,3]",
    "[2,1,3]",  # weight 1
    "[2]+1[3]",  # multiplicity prefix 1
    "[2;[2],[3]]",  # a star with two branches
    "[2;[2],[3^0],[3]]",
    "[2,3;[2],[2],[2]]",
    "[2]+[2^2000]",  # past MAX_VERTICES
    "[2]+3[2^667]",
    "[2,\u0663]",  # a non-ASCII digit
    "[2^\u00b2]",
)


def parse_argvs():
    return [["parse", t] for t in _table1_types()]


def malformed_argvs():
    return [["parse", t] for t in MALFORMED]


BATTERIES = {
    "report-hunt": report_hunt_argvs,
    "large-graphs": large_graphs_argvs,
    "lemma42": lemma42_argvs,
    "lct": lct_argvs,
    "table1": table1_argvs,
    "table1-below": table1_below_argvs,
    "verify-paper": lambda: [["verify-paper", "--json"]],
    "pencil": pencil_argvs,
    "parse": parse_argvs,
    "malformed": malformed_argvs,
}


def main():
    for name, argvs in BATTERIES.items():
        records = [run(argv) for argv in argvs()]
        codes = Counter(code for _, code, _, _ in records)
        tally = ", ".join(f"exit {code}: {k}" for code, k in sorted(codes.items()))
        print(f"{name}\t{len(records)} runs ({tally})\t{digest(records)}", flush=True)


if __name__ == "__main__":
    main()
