"""Tests for the feasibility battery."""

import random
from fractions import Fraction

import pytest

from ldp import feasibility
from ldp.feasibility import (
    INFEASIBLE,
    NOT_EXCLUDED,
    MODE_PINNED,
    UnknownModeError,
    bogomolov_flag,
    bogomolov_mode,
    feasibility_report,
    genus_constraint_solvable,
    kv_vanishing_bound,
    report_to_json,
)
from ldp.graphs import DynkinType, chain, parse_dynkin, star, table1_enumerate


def test_mode_defaults_to_pinned(monkeypatch):
    monkeypatch.delenv("LDP_BOGOMOLOV_MODE", raising=False)
    assert bogomolov_mode() == MODE_PINNED


@pytest.mark.parametrize("raw", ["pinned", "transcribed"])
def test_both_valid_modes_resolve_to_pinned(monkeypatch, raw):
    monkeypatch.setenv("LDP_BOGOMOLOV_MODE", raw)
    assert bogomolov_mode() == MODE_PINNED


def test_unknown_mode_rejected(monkeypatch):
    monkeypatch.setenv("LDP_BOGOMOLOV_MODE", "exact")
    with pytest.raises(UnknownModeError):
        bogomolov_mode()


def test_feasible_types_are_not_excluded():
    for s in ("2[2^4]+[3]", "2[2^4]+[2,4]"):
        assert bogomolov_flag(parse_dynkin(s)) == NOT_EXCLUDED


def test_tabulated_types_are_infeasible():
    tabulated = (
        "2[2^4]+[2]+[3]+[5]",
        "2[2^4]+[2;[2],[3],[5]]",
        "2[2^4]+[3,2,5]+[3]",
    )
    for s in tabulated:
        assert bogomolov_flag(parse_dynkin(s)) == INFEASIBLE


def test_off_table_type_is_not_excluded():
    for s in ("5[2]", "[2,2,2]", "[2;[2],[2],[2]]"):
        assert bogomolov_flag(parse_dynkin(s)) == NOT_EXCLUDED


def test_report_for_the_index_seven_type():
    rep = feasibility_report(parse_dynkin("2[2^4]+[2,4]"))
    assert rep.vertex_count == 10
    assert rep.ktilde_sq == -1
    assert rep.k_sq == Fraction(1, 7)
    assert rep.index == 7
    assert rep.klt is True
    assert rep.bogomolov == NOT_EXCLUDED
    assert rep.bogomolov_mode == MODE_PINNED


def test_report_for_the_index_three_type():
    rep = feasibility_report(parse_dynkin("2[2^4]+[3]"))
    assert rep.k_sq == Fraction(1, 3)
    assert rep.index == 3
    assert rep.klt is True


def test_report_json_round_trip_fields():
    rep = feasibility_report(parse_dynkin("2[2^4]+[2]+[3]+[5]"))
    data = report_to_json(rep)
    assert data["type"] == "2[2^4]+[2]+[3]+[5]"
    assert data["bogomolov"] == INFEASIBLE
    assert Fraction(data["k_sq"]) == rep.k_sq


def test_kv_bound_examples():
    # p = 5, index 3, K^2 = 1/3: 5 > 3*2*(1/3) = 2
    assert kv_vanishing_bound(5, 3, Fraction(1, 3)) is True
    # p = 5, index 7, K^2 = 1/7: 5 > 7*6/7 = 6 fails
    assert kv_vanishing_bound(5, 7, Fraction(1, 7)) is False
    with pytest.raises(ValueError):
        kv_vanishing_bound(5, 0, 1)
    with pytest.raises(ValueError):
        kv_vanishing_bound(5, 3, 0)


def test_kv_bound_monotone_in_p():
    for r in (1, 2, 3, 5, 7):
        for k_sq in (Fraction(1, 7), Fraction(1, 3), 1):
            prev = False
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
                cur = kv_vanishing_bound(p, r, k_sq)
                assert cur or not prev  # once true, stays true
                prev = cur


def test_genus_constraint_examples():
    # g = (k/2) n(n-1) + 1 with k = 5: g = 1, 6, 16, 31, ...
    assert genus_constraint_solvable(1, 5) == 1
    assert genus_constraint_solvable(6, 5) == 2
    assert genus_constraint_solvable(16, 5) == 3
    assert genus_constraint_solvable(2, 5) is None
    assert genus_constraint_solvable(3, Fraction(1, 3)) == 4
    with pytest.raises(ValueError):
        genus_constraint_solvable(-1, 5)
    with pytest.raises(ValueError):
        genus_constraint_solvable(1, 0)


def test_small_battery_over_the_table():
    from ldp.graphs import table1_enumerate

    flags = set()
    for _, t in table1_enumerate(n_range=(0, 2), m_range=(1, 3), l_values=None):
        rep = feasibility_report(t)
        assert rep.k_sq > 0
        flags.add(rep.bogomolov)
    assert INFEASIBLE in flags


def test_types_without_two_a4_chains_skip_the_pinned_table():
    pinned, feasible = feasibility._pinned_tables()

    def lookup(t):
        key = t.canonical_key()
        return NOT_EXCLUDED if key in feasible else INFEASIBLE if key in pinned else NOT_EXCLUDED

    tabulated = {t for _, t in table1_enumerate((0, 4), (1, 4), None)}
    assert len(tabulated) == 88
    # single chains and stars like the large-graph reports, and types with
    # one [2^4] or with two [2^4] off the table
    rng = random.Random(7)
    singles = []
    for n in range(6, 73):
        weights = [2 + i % 4 for i in range(n)]
        rng.shuffle(weights)
        singles.append(DynkinType((chain(weights),)))
        cut = sorted(rng.sample(range(1, n - 1), 2))
        branches = [weights[1 : cut[0]], weights[cut[0] : cut[1]], weights[cut[1] :]]
        if all(branches):
            singles.append(DynkinType((star(rng.randint(3, 5), branches),)))
    others = [parse_dynkin(s) for s in ("[2^4]+[3]", "[2^4]+[2,4]", "2[2^4]+[2,3]", "3[2^4]")]
    for t in list(tabulated) + singles + others:
        assert bogomolov_flag(t) == lookup(t), t
    feasibility._pinned_tables.cache_clear()
    for t in singles + others[:2]:
        assert bogomolov_flag(t) == NOT_EXCLUDED
    assert feasibility._pinned_tables.cache_info().currsize == 0
