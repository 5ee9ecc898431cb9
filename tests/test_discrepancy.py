import importlib.util
import itertools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ldp import discrepancy as D
from ldp.graphs import (
    MAX_VERTICES,
    chain,
    format_dynkin,
    format_graph,
    graph_determinant,
    is_negative_definite,
    parse_dynkin,
    parse_graph,
    star,
    table1_enumerate,
)

weights = st.integers(min_value=2, max_value=7)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def sympy_discrepancies(g):
    from ldp.graphs import intersection_matrix

    m = sympy.Matrix(intersection_matrix(g))
    kappa = sympy.Matrix([w - 2 for _, w in g.vertices])
    sol = m.solve(-kappa)
    return [Fraction(str(x)) for x in sol]


def test_du_val_chain_has_zero_discrepancies():
    assert D.discrepancies(chain([2, 2, 2, 2])) == (0, 0, 0, 0)


def test_pinned_discrepancies():
    assert D.discrepancies(chain([3])) == (Fraction(1, 3),)
    assert D.discrepancies(chain([2, 4])) == (Fraction(2, 7), Fraction(4, 7))


@given(st.lists(weights, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_chain_discrepancies_match_sympy(ws):
    g = chain(ws)
    assert list(D.discrepancies(g)) == sympy_discrepancies(g)


def test_star_discrepancies_match_sympy():
    g = star(2, ((2,), (3,), (5,)))
    assert list(D.discrepancies(g)) == sympy_discrepancies(g)


def test_log_canonical_star_reaches_one():
    # negative definite but not klt: the center coefficient hits 1
    g = star(2, ((2,), (4,), (4,)))
    e = D.discrepancies(g)
    assert max(e) == 1
    assert not D.is_klt(parse_dynkin("[2;[2],[4],[4]]"))


def test_scaled_pairing_agrees_with_exact_pairing(dense):
    g = star(3, ((2, 2), (3,), (4,)))
    from ldp.graphs import intersection_matrix

    delta = abs(sympy.Matrix(intersection_matrix(g)).det())
    solved = dense(g)
    for a in [(1, 0, 0, 0, 0), (0, 2, 0, 1, 0), (1, 1, 1, 1, 1)]:
        assert D.classify_incidence(g, a).scaled == solved.pairing(a) * delta


def test_classify_log_resolution():
    cls = D.classify_incidence(chain([2, 4]), (1, 0))
    assert cls.verdict == D.LOG_RESOLUTION
    assert cls.case == "1a"


def test_classify_tangent_pair():
    cls = D.classify_incidence(chain([4]), (2,))
    assert cls.verdicts == (D.ALMOST_LC_A, D.ALMOST_LC_B)


def test_classify_two_ends():
    cls = D.classify_incidence(chain([3, 2, 3]), (1, 0, 1))
    assert cls.verdict == D.ALMOST_LC_C
    assert cls.case == "1b"


def test_classify_rejects_large_pairing():
    cls = D.classify_incidence(chain([2]), (4,))
    assert cls.verdict == D.REJECTED


def test_classify_zero_incidence():
    with pytest.raises(D.ZeroIncidenceError):
        D.classify_incidence(chain([2, 4]), (0, 0))


def test_classify_index_mismatch():
    with pytest.raises(D.IndexMismatchError):
        D.classify_incidence(chain([2, 4]), (1,))


def test_closed_form_matches_solver_spot_checks(dense):
    cases = [
        (chain([2, 3, 4]), (0, 2, 0)),
        (chain([2, 3, 4]), (1, 0, 1)),
        (star(2, ((2,), (3,), (5,))), (0, 1, 0, 0)),
        (star(3, ((2, 2), (3,), (4,))), (1, 0, 1, 0, 0)),
    ]
    for g, a in cases:
        data = D._require_usable(g)
        f = dense(g).f(a)
        support = [i for i, x in enumerate(a) if x]
        for v in support:
            assert D._display_scaled(data.shape, a, support, v) == data.delta * f[v]


def test_lct_log_resolution_example():
    # chain (3), a=1: d=1/3, e=1/3, lct = (1-1/3)/(1/3) = 2
    assert D.lct_min_resolution(chain([3]), (1,)) == 2


def test_cartier_index_and_ksq():
    t = parse_dynkin("2[2^4]+[2,4]")
    assert D.cartier_index(t) == 7
    assert D.anticanonical_selfint(t) == Fraction(1, 7)
    t = parse_dynkin("2[2^4]+[3]")
    assert D.cartier_index(t) == 3
    assert D.anticanonical_selfint(t) == Fraction(1, 3)


def test_hunt_divisor_pinned():
    t = parse_dynkin("2[2^4]+[2;[2],[3],[5]]")
    comp, vertex, e0 = D.select_hunt_divisor(t)
    assert e0 == Fraction(28, 29)
    assert not comp.is_chain()


def test_hunt_divisor_skips_weight_two_chain_vertices():
    t = parse_dynkin("[2,4]")
    comp, vertex, e0 = D.select_hunt_divisor(t)
    assert e0 == Fraction(4, 7)
    assert dict(comp.vertices)[vertex] == 4


def test_hunt_divisor_du_val_error():
    with pytest.raises(D.AllDuValError):
        D.select_hunt_divisor(parse_dynkin("2[2^4]"))


def _fraction_invariants(t):
    """K^2, index, klt and the hunt triple of a type by their per-vertex
    Fraction definitions over the discrepancies e, the hunt divisor read on
    each component's canonical graph."""
    k_sq = Fraction(9 - sum(len(g.vertices) for g in t.components))
    index, klt = 1, True
    for g in t.components:
        e = D.discrepancies(g)
        k_sq += sum(ei * (w - 2) for ei, (_, w) in zip(e, g.vertices))
        index = math.lcm(index, *(x.denominator for x in e))
        klt = klt and all(x < 1 for x in e)
    hunt = None
    for g in t.sorted_components():
        e = D.discrepancies(g)
        e = [e[p] for p in g.canonical_order()]
        c = g.canonical()
        for i, (v, w) in enumerate(c.vertices):
            candidate = w >= 3 if c.is_chain() else i == 0  # a star's center
            if candidate and e[i] > 0 and (hunt is None or e[i] > hunt[2]):
                hunt = (c, v, e[i])
    return k_sq, index, klt, hunt


def _integer_invariants(t):
    try:
        hunt = D.select_hunt_divisor(t)
    except D.AllDuValError:
        hunt = None
    return D.anticanonical_selfint(t), D.cartier_index(t), D.is_klt(t), hunt


def _assert_same_invariants(t):
    def exact(k_sq, index, klt, hunt):
        # the hunt component by its vertex ids and edges, not by canonical key
        return k_sq, index, klt, hunt and (hunt[0].vertices, hunt[0].edges, *hunt[1:])

    assert exact(*_integer_invariants(t)) == exact(*_fraction_invariants(t)), format_dynkin(t)


def test_whole_type_invariants_match_the_fraction_definitions_on_table_1():
    types = [t for _, t in table1_enumerate(n_range=(0, 30), m_range=(1, 30))]
    assert len(types) == 530
    for t in types:
        _assert_same_invariants(t)


def test_whole_type_invariants_match_the_fraction_definitions_at_max_vertices():
    third = MAX_VERTICES // 3
    for notation in (
        f"[3^{MAX_VERTICES}]",
        f"[2^{MAX_VERTICES - 1},5]",
        f"[5;[2^{third}],[3^{third}],[2^{MAX_VERTICES - 1 - 2 * third}]]",
        f"[4^{third}]+[3;[2^{third - 1}],[2],[4^{MAX_VERTICES - 2 * third - 2}]]",
    ):
        t = parse_dynkin(notation)
        assert sum(len(g.vertices) for g in t.components) <= MAX_VERTICES
        _assert_same_invariants(t)
    # beyond E8, indefinite: both refuse it
    t = parse_dynkin(f"[2;[2],[2,2],[2^{MAX_VERTICES - 4}]]")
    for invariants in (_integer_invariants, _fraction_invariants):
        with pytest.raises(D.NotNegativeDefiniteError):
            invariants(t)


def test_k_squared_times_the_determinants_is_a_square_on_table_1():
    # Pic(Y) of the minimal resolution is unimodular, so the orthogonal
    # complement of the exceptional curves is spanned by one L with
    # L^2 = prod det(-M_i); the pullback of K_X is a rational multiple of L
    # and K_Y.L is an integer, so K_X^2 prod det(-M_i) = (K_Y.L)^2
    types = [t for _, t in table1_enumerate(n_range=(0, 30), m_range=(1, 30))]
    assert len(types) == 530
    for t in types:
        x = D.anticanonical_selfint(t) * math.prod(map(graph_determinant, t.components))
        assert x.denominator == 1 and x > 0, format_dynkin(t)
        assert math.isqrt(x.numerator) ** 2 == x.numerator, format_dynkin(t)


def test_hunt_divisor_keeps_the_first_of_tied_coefficients():
    # every component and both vertices of [4^2] reach 2/3
    t = parse_dynkin("[2;[2],[3],[2^2]]+[4^2]+[2,5]")
    _assert_same_invariants(t)
    comp, vertex, e0 = D.select_hunt_divisor(t)
    assert (format_graph(comp), vertex, e0) == ("[2,5]", "v1", Fraction(2, 3))
    comp, vertex, e0 = D.select_hunt_divisor(parse_dynkin("[4^2]+[2;[2],[3],[2^2]]"))
    assert (format_graph(comp), vertex, e0) == ("[4^2]", "v0", Fraction(2, 3))


def test_not_negative_definite_rejected():
    bad = star(2, ((2, 2), (2, 2), (2, 2)))
    with pytest.raises(D.NotNegativeDefiniteError):
        D.discrepancies(bad)


def _small_trees():
    """Every chain and star of at most 5 vertices with weights 2..3 that is
    negative definite."""
    out = []
    for n in range(1, 6):
        for ws in itertools.product((2, 3), repeat=n):
            out.append(chain(ws))
    for lengths in ((1, 1, 1), (1, 1, 2)):
        for ws in itertools.product((2, 3), repeat=1 + sum(lengths)):
            cuts = (1, 1 + lengths[0], 1 + lengths[0] + lengths[1], len(ws))
            out.append(star(ws[0], [ws[cuts[i] : cuts[i + 1]] for i in range(3)]))
    return [g for g in out if is_negative_definite(g)]


def _display_branch(g, a, v):
    """Which of the nine displays covers (a, v), from the graph's own walk:
    the center at position 0, then each branch from the center outward."""
    support = [i for i, x in enumerate(a) if x]
    if g.is_chain():
        return "chain, one point" if len(support) == 1 else "chain, two points"
    place = [None] + [(b, k) for b, length in enumerate(g.branches) for k in range(length)]
    if len(support) == 1:
        return "star, center" if v == 0 else "star, one branch point"
    if 0 in support:
        return "center pair, at the center" if v == 0 else "center pair, at the branch point"
    (bv, kv), (bo, ko) = place[v], place[sum(support) - v]
    if bv != bo:
        return "two branches"
    return "one branch, outer point" if kv > ko else "one branch, inner point"


def test_every_display_branch_agrees_with_the_solver_on_small_trees(dense):
    reached = Counter()
    for g in _small_trees():
        n = len(g.vertices)
        data = D._require_usable(g)
        solved = dense(g)
        cases = [tuple(m if i == u else 0 for i in range(n)) for u in range(n) for m in (1, 2, 3)]
        cases += [tuple(int(i in pair) for i in range(n)) for pair in itertools.combinations(range(n), 2)]
        for a in cases:
            f = solved.f(a)
            support = [i for i, x in enumerate(a) if x]
            for v in support:
                assert D._display_scaled(data.shape, a, support, v) == data.delta * f[v], (g, a, v)
                reached[_display_branch(g, a, v)] += 1
    assert len(reached) == 9, reached


def test_incidence_sweep_matches_the_exact_solver(dense):
    g = star(3, ((2, 2), (3,), (4,)))
    data = D._require_usable(g)
    delta = data.delta
    solved = dense(g)
    rows = list(D.incidence_sweep(g, 3))
    assert len(rows) == 55  # C(3 + 5, 5) - 1 nonzero vectors
    assert [sum(a) for a, *_ in rows] == sorted(sum(a) for a, *_ in rows)
    for a, scaled, cls in rows:
        # the adjugate the sweep steps along gives delta*d
        assert [Fraction(sum(map(operator.mul, row, a)), delta) for row in data.adj] == solved.d(a)
        assert Fraction(scaled, delta) == solved.pairing(a)
        if scaled > 2 * delta:
            assert cls is None
        else:
            assert cls == D.classify_incidence(g, a)
    # the displays cover one point of any multiplicity and two points of
    # multiplicity one, and agree with the solver
    covered = [a for a, *_ in rows if [x for x in a if x] in ([1], [2], [3], [1, 1])]
    assert [a for a, *_ in D._sweep_plan(len(g.vertices), 3)[1]] == covered
    assert D.closed_form_check(g, 3) == (sum(sum(map(bool, a)) for a in covered), 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("max_a", [1, 2, 3, 4, 5])
def test_incidence_sweep_order_matches_a_sorted_enumeration(n, max_a):
    g = chain([2 + i % 3 for i in range(n)])
    expected = sorted(
        (a for a in itertools.product(range(max_a + 1), repeat=n) if 0 < sum(a) <= max_a),
        key=lambda a: (sum(a), a),
    )
    assert [a for a, *_ in D.incidence_sweep(g, max_a)] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("max_a", [1, 2, 3, 4, 5])
def test_sweep_plan_is_the_sorted_enumeration_by_unit_steps(n, max_a):
    steps, covered = D._sweep_plan(n, max_a)
    expected = sorted(
        (a for a in itertools.product(range(max_a + 1), repeat=n) if 0 < sum(a) <= max_a),
        key=lambda a: (sum(a), a),
    )
    assert [a for a, *_ in steps] == expected
    vectors = [(0,) * n] + expected  # by index, the zero vector first
    for a, parent, j, support, pa, psupport in steps:
        assert pa == vectors[parent] and sum(pa) == sum(a) - 1
        assert a == tuple(x + (i == j) for i, x in enumerate(pa))
        assert support == tuple(i for i, x in enumerate(a) if x)
        assert psupport == tuple(i for i, x in enumerate(pa) if x)
    # n * max_a single points and, from max_a 2 on, C(n, 2) pairs
    assert len(covered) == n * max_a + (math.comb(n, 2) if max_a > 1 else 0)
    assert all(entry in steps for entry in covered)


def test_sweep_plan_cache_stays_bounded():
    limit = D._sweep_plan.cache_info().maxsize
    assert limit is not None and limit <= 8
    for n in range(1, 4):
        for max_a in range(1, 6):
            D._sweep_plan(n, max_a)
            assert D._sweep_plan.cache_info().currsize <= limit


@pytest.mark.parametrize("g", [chain([2, 3, 2, 4]), star(2, ((2,), (3,), (2, 2)))])
def test_sweep_scaled_and_classes_match_the_direct_functions(g, dense):
    delta = D._require_usable(g).delta
    solved = dense(g)
    rows = list(D.incidence_sweep(g, 4))
    assert len(rows) == math.comb(4 + len(g.vertices), 4) - 1
    for a, scaled, cls in rows:
        assert scaled == solved.pairing(a) * delta
        assert cls == (D.classify_incidence(g, a) if scaled <= 2 * delta else None)


def _per_vector_displays(g, max_a, dense):
    """(cases, mismatches) as a sweep summing over every vector counts them:
    the support vertices of one point of any multiplicity or of two points
    of multiplicity one, each display against delta*f from the dense solver.
    The display is looked up on the module, so a monkeypatched one is
    counted."""
    data = D._require_usable(g)
    solved = dense(g)
    cases = mismatches = 0
    for a in itertools.product(range(max_a + 1), repeat=len(g.vertices)):
        support = [i for i, x in enumerate(a) if x]
        if not support or sum(a) > max_a or not (len(support) == 1 or sum(a) == 2):
            continue
        f = solved.f(a)
        for v in support:
            cases += 1
            mismatches += D._display_scaled(data.shape, a, support, v) != data.delta * f[v]
    return cases, mismatches


def test_closed_form_check_matches_the_per_vector_sum_on_the_benchmark_sample(monkeypatch, dense):
    for name in ("refs", "workloads"):  # workloads imports refs
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    workloads = sys.modules["workloads"]
    sample = [
        parse_graph(g.notation())
        for seed in (1, 2, 3)
        for g in workloads._sweep_sample(workloads._rng("paper_checks", seed))
    ]
    assert len(sample) == 174
    for g in sample:
        assert D.closed_form_check(g, workloads.SWEEP_MAX_A) == _per_vector_displays(
            g, workloads.SWEEP_MAX_A, dense
        )


def test_closed_form_check_counts_disagreeing_displays(monkeypatch, dense):
    display = D._display_scaled
    # a display that is off by one wherever the vertex has multiplicity 2
    monkeypatch.setattr(
        D, "_display_scaled", lambda shape, a, support, v: display(shape, a, support, v) + (a[v] == 2)
    )
    for g in (chain([2, 5, 3]), star(3, ((2,), (3,), (2, 4)))):
        cases, mismatches = D.closed_form_check(g, 3)
        assert mismatches == len(g.vertices) > 0
        assert (cases, mismatches) == _per_vector_displays(g, 3, dense)
