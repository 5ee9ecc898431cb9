"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest

from ldp import discrepancy, graphs


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
