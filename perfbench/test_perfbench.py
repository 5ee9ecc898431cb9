"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import inspect
import json
import os
import random
import sys
import time
from fractions import Fraction

import pytest

import metrics
import refs
import stats
import workloads
from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import ldp  # noqa: E402


# -- percentile rule -------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.supported(100, 90)
    assert not stats.supported(99, 90)
    assert stats.supported(20, 50)
    assert not stats.supported(19, 50)


# -- error_rate counting -----------------------------------------------------------


def _verify_paper_outcomes():
    """One outcome per verify-paper check, as the seed reports them."""
    return [
        {"label": cid, "reported_fails": [cid]} if status == "Fail" else {}
        for group in workloads.SEED_STATUS.values()
        for cid, status in group.items()
    ]


def test_known_verify_failure_counts_but_stays_correct():
    outcomes = _verify_paper_outcomes()
    assert stats.tally(outcomes) == (39, 1, True)
    assert stats.error_rate(outcomes) == 1 / 39


def test_raised_or_wrong_items_fail_and_are_incorrect():
    outcomes = [{}, {"raised": "ValueError()"}, {"wrong": "pairing 3"}, {}]
    assert stats.tally(outcomes) == (4, 2, False)
    assert stats.error_rate(outcomes) == 0.5
    assert stats.tally([]) == (0, 0, False)


def test_status_check_accepts_only_the_seed_statuses():
    expected = {"crossratio-discriminant-cores": [5], "crossratio-minimal-polynomials": [1]}
    check = workloads.check_statuses(7, expected)
    as_on_seed = {"crossratio-discriminant-cores": [5], "crossratio-minimal-polynomials": [2]}
    assert check(as_on_seed) is None
    fixed = dict(as_on_seed, **{"crossratio-minimal-polynomials": [1]})
    assert "crossratio-minimal-polynomials" in check(fixed)
    broken = dict(as_on_seed, **{"crossratio-discriminant-cores": [3]})
    assert "crossratio-discriminant-cores" in check(broken)


# -- tracing ------------------------------------------------------------------------


def _bindings():
    """Every attribute of the ldp package, its layer modules and their classes."""
    spaces = [ldp] + [getattr(ldp, layer) for layer in LAYERS]
    spaces += [
        obj
        for mod in spaces[1:]
        for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
    ]
    return {(id(ns), attr): value for ns in spaces for attr, value in vars(ns).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = ldp.graphs.is_negative_definite
    with Tracer(ldp) as tracer:
        assert ldp.graphs.is_negative_definite is not original
        assert ldp.discrepancy.is_negative_definite is ldp.graphs.is_negative_definite
        g = ldp.graphs.parse_graph("[2,4]")
        ldp.discrepancy._require_usable(ldp.graphs.parse_graph("[2,5,3]"))
        assert g.is_chain()
        assert ldp.fields.QQ.zero == 0
    assert _bindings() == before
    assert ldp.graphs.is_negative_definite is original
    # the call through discrepancy's own name for the function was counted
    assert tracer.calls["graphs.is_negative_definite"] == 1
    assert tracer.calls["graphs.WeightedDualGraph.is_chain"] == 1
    assert tracer.calls["fields.RationalField.zero"] == 1


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ldp.graphs.DynkinSyntaxError):
        with Tracer(ldp):
            ldp.graphs.parse_dynkin("[1]")
    assert _bindings() == before


def test_self_time_excludes_child_spans():
    tracer = Tracer(ldp)
    inner = tracer.wrap("poly.inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("poly.outer", body)
    outer()
    assert tracer.calls == {"poly.outer": 1, "poly.inner": 1}
    assert 0.01 <= tracer.self_s["poly.outer"] < 0.02
    assert tracer.self_s["poly.inner"] >= 0.02
    layer = tracer.metrics((), ())
    assert layer["poly.calls"] == 2
    assert layer["poly.self_s"] == tracer.self_s["poly.outer"] + tracer.self_s["poly.inner"]


def test_distinct_ratios():
    with Tracer(ldp) as tracer:
        for m in ([[2]], [[2]], [[3]], [[2]]):
            ldp.linalg.int_det(m)
    assert tracer.metrics((), ())["linalg.int_det.distinct_ratio"] == 0.5
    with Tracer(ldp) as tracer:
        g = ldp.graphs.parse_graph("[2,3]")
        for _ in range(4):
            ldp.discrepancy.discrepancies(g)
    layer = tracer.metrics((), ())
    assert layer["discrepancy.distinct_graphs"] == 1
    assert layer["discrepancy.reuse_ratio"] == 0.75


# -- references and inputs ---------------------------------------------------------------


def _det(m):
    a = [[Fraction(x) for x in row] for row in m]
    n, out = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p], out = a[p], a[c], -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def test_determinant_references_match_elimination():
    rng = random.Random(1)
    graphs = [refs.parse_type(t)[0] for t in ("[2,4]", "[2^4]", "[2;[2],[3],[5]]")]
    graphs += [workloads._random_chain(rng, rng.randint(1, 9)) for _ in range(20)]
    graphs += [workloads._random_star(rng, rng.randint(4, 9), 2) for _ in range(20)]
    for g in graphs:
        neg = [[-x for x in row] for row in refs.intersection_matrix(g)]
        assert refs.determinant(g) == _det(neg)
    assert [refs.determinant(g) for g in graphs[:3]] == [7, 5, 29]


def test_discrepancy_and_pairing_references():
    g = refs.parse_type("[2,3]")[0]
    assert refs.satisfies_discrepancy_equation(g, [Fraction(1, 5), Fraction(2, 5)])
    assert not refs.satisfies_discrepancy_equation(g, [Fraction(2, 5), Fraction(1, 5)])
    inv = refs.inverse_of_negated(refs.parse_type("[3]")[0])
    # a = (1): d = 1/3, e = 1/3, so <a, b> = 2/3
    assert refs.pairing(inv, refs.parse_type("[3]")[0], (1,)) == Fraction(2, 3)
    assert len(refs.incidence_vectors(3, 4)) == 34


def test_locus_reduction():
    assert refs.locus_mod(11) == {(3, 1): 1, (1, 3): 10}
    assert refs.locus_mod(7) == {(3, 1): 1, (2, 2): 3, (1, 3): 6}
    assert refs.quadratic_roots_mod(11) == [1, 10]


@pytest.mark.parametrize("name", ["paper_checks", "large_graphs", "pencil_primes"])
def test_inputs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name]
    labels = lambda seed: [item.label for item in make(ldp, seed)]
    assert labels(3) == labels(3)
    assert labels(3) != labels(4)
    assert len(labels(3)) == len(labels(4))


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in metrics.per_layer()
    ]
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
