"""The leaf-to-root tree kernel against dense exact linear algebra.

Negative definiteness, the determinant, the adjugate and the discrepancies
all come from one elimination of -M along the tree; `linalg.int_det` and
`linalg.solve` are the dense references here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldp import discrepancy as D
from ldp import linalg
from ldp.graphs import (
    NotNegativeDefiniteError,
    WeightedDualGraph,
    chain,
    graph_determinant,
    intersection_matrix,
    is_negative_definite,
    star,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def trees(draw):
    """A chain or a three-branch star of at most 40 vertices, weights 2..6,
    with its vertices listed in a random order so that the elimination root
    is anywhere.  Half the stars have only (-2)-curves on their branches:
    around a centre of weight 2 those are indefinite beyond E8."""
    w = st.integers(min_value=2, max_value=6)
    if draw(st.booleans()):
        g = chain(draw(st.lists(w, min_size=1, max_size=40)))
    else:
        sizes = draw(st.lists(st.integers(1, 13), min_size=3, max_size=3))
        bw = st.just(2) if draw(st.booleans()) else w
        g = star(draw(w), [draw(st.lists(bw, min_size=k, max_size=k)) for k in sizes])
    vertices = draw(st.permutations(g.vertices))
    return WeightedDualGraph(tuple(vertices), g.edges)


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
    data = D._graph_data(g)
    delta, adj, e, kappa = data.delta, data.adj, data.e, data.kappa
    assert delta == graph_determinant(g)
    for i in range(n):
        for j in range(n):
            entry = sum(adj[i][k] * -m[k][j] for k in range(n))
            assert entry == (delta if i == j else 0)
    assert list(e) == linalg.solve(m, [-k for k in kappa])


# Each case swaps one name for a fake that breaks one guaranteed identity and
# calls the code that must notice.  Under -O a plain assert would not fire.
_BROKEN_INVARIANTS = """
import json, sys
from dataclasses import replace
from fractions import Fraction
from ldp import discrepancy as D, graphs as G
from ldp.graphs import InvariantError, parse_graph

g = parse_graph("[2,4]")
elim = G._tree_elimination(g)
halved = (elim[0], elim[1], elim[2][:-1] + [elim[2][-1] / 2])
data = D._graph_data(g)
cases = {
    "determinant integral": (G, "_tree_elimination", lambda g: halved,
                             lambda: G.graph_determinant(g)),
    "delta positive": (D, "_pivot_determinant", lambda p: -7, lambda: D._graph_data(g)),
    "adjugate integral": (D, "_tree_solve", lambda el, b: [Fraction(1, 2)] * len(b),
                          lambda: D._graph_data(g)),
    "e nonnegative": (D, "_graph_data", lambda g: replace(data, e=(-1, 0)),
                      lambda: D.discrepancies(g)),
    "d nonnegative": (D, "_graph_data", lambda g: replace(data, delta=7, adj=[[-1, 0], [0, -1]]),
                      lambda: D.pair_coefficients(g, (1, 0))),
    "sweep d nonnegative": (D, "_graph_data",
                            lambda g: replace(data, delta=7, adj=[[-1, 0], [0, -1]]),
                            lambda: list(D.incidence_sweep(g, 1))),
}
fired = {}
for name, (module, attr, fake, call) in cases.items():
    original = getattr(module, attr)
    setattr(module, attr, fake)
    D._GRAPH_CACHE.clear()
    try:
        call()
        fired[name] = False
    except InvariantError:
        fired[name] = True
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
    names = ["determinant integral", "delta positive", "adjugate integral",
             "e nonnegative", "d nonnegative", "sweep d nonnegative"]
    assert json.loads(proc.stdout) == {"optimize": 1, "fired": dict.fromkeys(names, True)}
