"""The integer tree kernel against dense exact linear algebra.

Negative definiteness and the determinant come from one integer elimination
of -M along the tree, and the adjugate and the discrepancies from products
of the subgraph determinants of the chain or star; `linalg.int_det` and
`linalg.solve` are the dense references here.
"""

import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ldp import cli, linalg, verify
from ldp import discrepancy as D
from ldp.graphs import (
    InvariantError,
    NotNegativeDefiniteError,
    chain,
    graph_determinant,
    intersection_matrix,
    is_negative_definite,
    parse_graph,
    star,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def trees(draw):
    """A chain or a three-branch star of at most 40 vertices, weights 2..6.
    Half the stars have only (-2)-curves on their branches: around a centre
    of weight 2 those are indefinite beyond E8."""
    w = st.integers(min_value=2, max_value=6)
    if draw(st.booleans()):
        return chain(draw(st.lists(w, min_size=1, max_size=40)))
    sizes = draw(st.lists(st.integers(1, 13), min_size=3, max_size=3))
    bw = st.just(2) if draw(st.booleans()) else w
    return star(draw(w), [draw(st.lists(bw, min_size=k, max_size=k)) for k in sizes])


@given(trees())
@example(star(2, [[2, 2], [2, 2], [2, 2]]))  # affine E6: det 0
@example(star(2, [[2], [2, 2], [2] * 6]))  # beyond E8: det < 0
@settings(max_examples=60, deadline=None)
def test_tree_kernel_matches_dense_linear_algebra(g):
    m = intersection_matrix(g)
    n = len(m)
    minors = [linalg.int_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
    definite = all((d < 0 if k % 2 else d > 0) for k, d in enumerate(minors, 1))
    assert is_negative_definite(g) == definite
    if not definite:
        with pytest.raises(NotNegativeDefiniteError):
            graph_determinant(g)
        return
    assert graph_determinant(g) == abs(linalg.int_det(m))
    delta, adj_kappa = D.scaled_discrepancies(g)
    adj = D._require_usable(g).adj
    assert delta == graph_determinant(g)
    for i in range(n):
        for j in range(n):
            entry = sum(adj[i][k] * -m[k][j] for k in range(n))
            assert entry == (delta if i == j else 0)
    e = linalg.solve(m, [2 - w for w in g.weights])
    assert list(D.discrepancies(g)) == e
    assert list(adj_kappa) == [delta * x for x in e]


def _path(g, u, v):
    """Positions on the u-v path of the tree g, by a walk from u over its
    edges."""
    ids = [x for x, _ in g.vertices]
    adj = {x: [] for x in ids}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {ids[u]: None}
    stack = [ids[u]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    path, x = [], ids[v]
    while x is not None:
        path.append(ids.index(x))
        x = parent[x]
    return path


@given(trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_product_formula_adjugate_matches_dense_linear_algebra(g, data):
    assume(is_negative_definite(g))
    m = intersection_matrix(g)
    n = len(m)
    minus_m = [[-x for x in row] for row in m]
    delta = linalg.int_det(minus_m)
    rec = D._require_usable(g)
    assert rec.delta == delta
    # every entry of a drawn column against delta * (-M)^-1, and one entry as
    # the determinant of -M on the forest off the u-v path
    j = data.draw(st.integers(0, n - 1))
    column = linalg.solve(m, [-int(i == j) for i in range(n)])
    assert [row[j] for row in rec.adj] == [delta * x for x in column]
    u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
    keep = [i for i in range(n) if i not in _path(g, u, v)]
    assert rec.adj[u][v] == linalg.int_det([[minus_m[i][k] for k in keep] for i in keep])
    assert list(rec.adj_kappa) == [delta * x for x in linalg.solve(m, [-k for k in rec.kappa])]
    a = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    assert D._adj_times(rec.shape, a) == [delta * x for x in linalg.solve(m, [-x for x in a])]


@given(trees(), st.lists(st.integers(0, 3), min_size=1, max_size=40))
@example(chain([2, 3, 4]), [1, 0, 1])  # AlmostLC_c at pairing exactly 2
@example(star(2, [[2], [3], [5]]), [0, 0, 0, 1])  # a branch end, lct 1/6
@settings(max_examples=40, deadline=None)
def test_integer_lct_and_scaled_pairing_match_dense_linear_algebra(g, a):
    # lct = min (1 - e_i)/d_i over d_i > 0 and delta*<a, b>, b = d + e, from
    # two dense solves, against the integer path
    assume(is_negative_definite(g))
    n = len(g.weights)
    a = (a + [0] * n)[:n]
    assume(any(a))
    m = intersection_matrix(g)
    e = linalg.solve(m, [2 - w for w in g.weights])
    d = linalg.solve(m, [-x for x in a])
    assert D.lct_min_resolution(g, a) == min((1 - ei) / di for di, ei in zip(d, e) if di > 0)
    pairing = sum(x * (di + ei) for x, di, ei in zip(a, d, e))
    assert D.classify_incidence(g, a).scaled == graph_determinant(g) * pairing


def test_adjugate_entries_match_the_unit_vector_products():
    # every chain and star of at most 6 vertices with weights 2..5, up to
    # isomorphism: the graphs group 5 sweeps
    count = 0
    for g in verify._sweep_graphs():
        data = D._require_usable(g)
        n = len(g.vertices)
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        assert data.adj == [D._adj_times(data.shape, x) for x in units]
        count += 1
    assert count == 8270


def test_report_and_det_leave_the_adjugate_unbuilt(capsys, watch):
    reports = ("2[2^4]+[2;[2],[3],[5]]", "[3;[2^40],[2^40],[2^40]]+[2,5,3]")
    for notation in reports:
        assert cli.main(["report", notation]) == 0
    # one record per component object, kept on it; 2[2^4] is one object twice
    comps = {id(g): g for notation in reports for g in watch.types[notation].components}
    assert len(comps) == 4
    assert {id(r) for r in watch.records} == {id(vars(g)["_data"]) for g in comps.values()}
    assert len(watch.records) == 4
    assert not any("adj" in vars(r) for r in watch.records)
    # det reads the graph's determinant alone
    assert cli.main(["det", "[2^7,3]+[4;[2],[3],[3,2]]"]) == 0
    assert len(watch.records) == 4
    assert cli.main(["lemma42", "[2,4]", "--max-a", "1"]) == 0
    capsys.readouterr()
    (g,) = watch.types["[2,4]"].components
    assert "adj" in vars(vars(g)["_data"])
    assert len(watch.records) == 5


def test_sweep_graphs_yields_each_canonical_graph_once_and_lets_it_go():
    sweep = verify._sweep_graphs()
    assert inspect.isgenerator(sweep)
    first = next(sweep)
    D._require_usable(first)
    gone = weakref.ref(first)
    keys = [first.canonical_key()]
    del first
    for g in sweep:
        assert gone() is None  # the sweep holds no graph it has yielded
        c = g.canonical()
        assert (g.vertices, g.edges) == (c.vertices, c.edges)
        keys.append(g.canonical_key())
    assert len(keys) == len(set(keys)) == 8270
    # pinned: the keys of the domain group 5 sweeps, in the order it sweeps them
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "17ca7e35962a0d4ef1750f30ea4c6509ea577fed2f0068bacd5fdf4b9050d98a"


def test_sweep_graphs_builds_only_the_graphs_it_yields(monkeypatch):
    built = []
    for name in ("chain", "star"):
        make = getattr(verify.graphs, name)
        counted = lambda *args, make=make: built.append(args) or make(*args)
        monkeypatch.setattr(verify.graphs, name, counted)
    assert sum(1 for _ in verify._sweep_graphs()) == len(built) == 8270
    assert not inspect.signature(verify._sweep_graphs).parameters


def test_every_graph_group_5_sweeps_is_negative_definite():
    assert all(is_negative_definite(g) for g in verify._sweep_graphs())


def test_group_5_raises_on_an_indefinite_graph(monkeypatch):
    # the affine E_6 star: det(-M) = 0
    monkeypatch.setattr(verify, "_sweep_graphs", lambda: iter([parse_graph("[2;[2,2],[2,2],[2,2]]")]))
    with pytest.raises(NotNegativeDefiniteError):
        verify._incidence_checks()


def test_group_5_counts_each_unit_increment_once_and_none_shrinks_the_pairing(monkeypatch, dense):
    sample = [chain([2]), chain([3, 2, 5]), star(2, ((2,), (2,), (3, 2)))]
    monkeypatch.setattr(verify, "_sweep_graphs", lambda: iter(sample))
    counted = verify._incidence_checks()["incidence-monotonicity"]
    expected = sum(len(g.vertices) * (math.comb(len(g.vertices) + 3, 3) - 1) for g in sample)
    assert counted == {"cases": expected, "violations": 0}
    # increment by increment, from the pairing itself
    cases = violations = 0
    for g in sample:
        n = len(g.vertices)
        pairing = dense(g).pairing
        for a in itertools.product(range(4), repeat=n):
            if 0 < sum(a) <= 3:
                for j in range(n):
                    up = tuple(x + (i == j) for i, x in enumerate(a))
                    cases += 1
                    violations += pairing(up) < pairing(a)
    assert (cases, violations) == (expected, 0)


def test_group_5_raises_on_a_negative_adjugate_entry_and_counts_nothing(monkeypatch):
    adjugate = D._adjugate
    # a negative first adjugate row, while adj.kappa stays right
    monkeypatch.setattr(D, "_adjugate", lambda shape, n: [[-1] * n] + adjugate(shape, n)[1:])
    monkeypatch.setattr(verify, "_sweep_graphs", lambda: iter([parse_graph("[2,4]")]))
    message = r"negative coefficient \[-1, -1\]/7 for incidence \(1, 0\)"
    with pytest.raises(InvariantError, match=message):
        verify._incidence_checks()


# Each case swaps one name for a fake that breaks one guaranteed identity and
# calls the code that must notice.  Under -O a plain assert would not fire.
_BROKEN_INVARIANTS = """
import json, sys
from ldp import discrepancy as D
from ldp.graphs import InvariantError, parse_graph

adj_times, adjugate = D._adj_times, D._adjugate
# negative coefficients for the incidence (1, 0), while adj.kappa stays right
negative_d = lambda shape, x: [-1] * len(x) if x[0] == 1 else adj_times(shape, x)
# a negative first row of the adjugate the sweep reads
negative_row = lambda shape, n: [[-1] * n] + adjugate(shape, n)[1:]
cases = {
    "e nonnegative": (D, "_adj_times", lambda shape, x: [-1] * len(x),
                      lambda g: D.discrepancies(g)),
    "d nonnegative": (D, "_adj_times", negative_d, lambda g: D.lct_min_resolution(g, (1, 0))),
    "sweep d nonnegative": (D, "_adjugate", negative_row, lambda g: list(D.incidence_sweep(g, 1))),
}
fired = {}
for name, (module, attr, fake, call) in cases.items():
    original = getattr(module, attr)
    setattr(module, attr, fake)
    try:
        call(parse_graph("[2,4]"))  # kappa = (0, 2); a new graph has no record yet
        fired[name] = None
    except InvariantError as exc:
        fired[name] = str(exc)
    finally:
        setattr(module, attr, original)
print(json.dumps({"optimize": sys.flags.optimize, "fired": fired}))
"""


def test_invariant_checks_survive_python_o():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    # each case is caught by the check it targets, not by an earlier one
    assert {name: msg and msg.split(" ")[:2] for name, msg in out["fired"].items()} == {
        "e nonnegative": ["negative", "discrepancy"],
        "d nonnegative": ["negative", "coefficient"],
        "sweep d nonnegative": ["negative", "coefficient"],
    }
