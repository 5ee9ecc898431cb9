"""Percentiles, item tallies and the git commit of the checkout."""

import math
import os
import statistics

# A percentile is reported with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile: the smallest sample with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def supported(n, q):
    return samples_beyond(n, q) >= MIN_BEYOND


def median(values):
    return statistics.median(values)


def is_failed(outcome):
    """An item fails if it raised, gave a wrong output, or reported a failed
    check, even one that fails on the seed too."""
    return bool(outcome.get("raised") or outcome.get("wrong") or outcome.get("reported_fails"))


def is_correct(outcome):
    """An item is correct when it ran and its output matched the reference;
    a known failing check that still fails is the expected output."""
    return not (outcome.get("raised") or outcome.get("wrong"))


def tally(outcomes):
    """(attempted, failed, correct) over item outcomes."""
    outcomes = list(outcomes)
    failed = sum(map(is_failed, outcomes))
    correct = bool(outcomes) and all(map(is_correct, outcomes))
    return len(outcomes), failed, correct


def error_rate(outcomes):
    attempted, failed, _ = tally(outcomes)
    return failed / attempted


def git_commit(root):
    """The commit checked out at root, read from .git without running git;
    'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"
