"""Acceptance battery: one test per pinned-verification group.

The whole verification suite is computed once per session; each test then
asserts that every check in its group reproduces the pinned value exactly
(tolerance zero — all arithmetic is exact).
"""

import pytest

from ldp import graphs, verify


@pytest.fixture(scope="session")
def outcomes():
    results = verify.run_checks()
    by_group = {}
    for r in results:
        by_group.setdefault(r.group, []).append(r)
    return by_group


def _assert_group_passes(by_group, group):
    checks = by_group.get(group, [])
    assert checks, f"no checks registered for group {group}"
    failures = [
        f"{c.check_id}: expected {c.expected!r}, got {c.actual!r}"
        for c in checks
        if c.status != "Pass"
    ]
    assert not failures, "\n".join(failures)


def test_group_1_pinned_scalars(outcomes):
    _assert_group_passes(outcomes, 1)


def test_group_2_intersection_display(outcomes):
    _assert_group_passes(outcomes, 2)


def test_group_3_pullback_rounding_and_chi(outcomes):
    _assert_group_passes(outcomes, 3)


def test_group_4_pullback_identities(outcomes):
    _assert_group_passes(outcomes, 4)


def test_group_5_incidence_oracle_sweep(outcomes):
    _assert_group_passes(outcomes, 5)


def test_group_6_pencil_suite(outcomes):
    _assert_group_passes(outcomes, 6)


def test_group_7_cross_ratio_suite(outcomes):
    # The pinned orbit follows from the pinned locus st(s^2 - 11st - t^2):
    # lambda = theta/theta-bar has lambda + 1/lambda = -123, and the orbit of
    # x^2 + 123x + 1 meets {0, 1, infinity} only mod 5, the one pinned
    # double-root characteristic (see tests/test_pencil.py).
    _assert_group_passes(outcomes, 7)


def test_group_8_weighted_model_suite(outcomes):
    _assert_group_passes(outcomes, 8)


def test_group_9_table_battery(outcomes):
    _assert_group_passes(outcomes, 9)


def test_group_9_builds_one_record_per_distinct_component(watch):
    types = [t for _, t in graphs.table1_enumerate(n_range=(0, 4), m_range=(1, 4))]
    distinct = {g.canonical_key() for t in types for g in t.components}
    # the 88 types list 350 components, of 151 canonical forms
    assert sum(len(t.components) for t in types) > len(distinct)
    battery = verify._table_checks()
    assert len(watch.records) == len(distinct)
    # the value does not depend on which object stands for a component
    assert battery["table-battery"] == verify.expected_values()["table-battery"]
