"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest

from ldp import discrepancy, graphs, linalg


@pytest.fixture
def watch(monkeypatch):
    """From here on, every Dynkin type parsed (`types`, the last parse of
    each notation) and every per-graph record built (`records`)."""
    seen = SimpleNamespace(types={}, records=[])
    parse = graphs.parse_dynkin

    def parse_dynkin(text):
        t = seen.types[text] = parse(text)
        return t

    class Record(discrepancy._GraphData):
        def __init__(self, *fields):
            super().__init__(*fields)
            seen.records.append(self)

    monkeypatch.setattr(graphs, "parse_dynkin", parse_dynkin)
    monkeypatch.setattr(discrepancy, "_GraphData", Record)
    return seen


class DenseSolution:
    """The discrepancy data of one graph from the dense exact solver
    `linalg.solve`, which shares no code with the tree kernel: e solves
    M e = -kappa, and d(a), the solution of M d = -a, is combined from one
    solve per unit vector, so a graph costs n + 1 solves however many
    incidence vectors are asked for."""

    def __init__(self, g):
        m = graphs.intersection_matrix(g)
        n = len(m)
        self.e = linalg.solve(m, [2 - w for w in g.weights])
        self.columns = [linalg.solve(m, [-int(i == j) for i in range(n)]) for j in range(n)]

    def d(self, a):
        d = [0] * len(self.e)
        for j, x in enumerate(a):
            if x:
                d = [di + x * c for di, c in zip(d, self.columns[j])]
        return d

    def f(self, a):
        """The log discrepancies f = 1 - d - e."""
        return [1 - di - ei for di, ei in zip(self.d(a), self.e)]

    def pairing(self, a):
        """<a, b> with b = d + e."""
        return sum(x * (di + ei) for x, di, ei in zip(a, self.d(a), self.e) if x)


@pytest.fixture(scope="session")
def dense():
    """DenseSolution, the oracle of the discrepancy tests."""
    return DenseSolution
