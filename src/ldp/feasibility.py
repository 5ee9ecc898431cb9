"""Numeric feasibility screens for candidate singularity configurations.

A configuration (a multiset of chains and 3-stars) passes the basic battery
when every component is negative definite and klt and the anti-canonical
self-intersection stays positive.  On top of that sit a vanishing-theorem
bound, a genus Diophantine check, and a semistability flag whose values for
the tabulated configurations are pinned reference data.
"""

import functools
import os
from dataclasses import dataclass
from fractions import Fraction

from . import discrepancy, graphs

INFEASIBLE = "Infeasible"
NOT_EXCLUDED = "NotExcluded"

MODE_PINNED = "pinned"
MODE_TRANSCRIBED = "transcribed"

RANK_ONE_NOTE = (
    "assumes Picard rank one with rational minimal resolution, "
    "so the resolution has anti-canonical self-intersection 9 - n"
)


class UnknownModeError(ValueError):
    pass


def bogomolov_mode():
    """Semistability-flag mode selected by LDP_BOGOMOLOV_MODE.

    The inequality-based mode is not available in this build (the underlying
    inequality comes from an external reference that is not part of the
    source material), so both settings resolve to the pinned lookup; the
    report records which mode actually ran.
    """
    raw = os.environ.get("LDP_BOGOMOLOV_MODE", MODE_PINNED)
    if raw not in (MODE_PINNED, MODE_TRANSCRIBED):
        raise UnknownModeError(
            f"LDP_BOGOMOLOV_MODE must be '{MODE_PINNED}' or '{MODE_TRANSCRIBED}', got {raw!r}"
        )
    return MODE_PINNED


@functools.cache
def _pinned_tables():
    # Frozen lookup: every tabulated configuration with parameters up to 4 is
    # flagged Infeasible except the two feasible types.
    feasible = frozenset(
        graphs.parse_dynkin(s).canonical_key() for s in ("2[2^4]+[3]", "2[2^4]+[2,4]")
    )
    pinned = frozenset(
        t.canonical_key()
        for _, t in graphs.table1_enumerate(n_range=(0, 4), m_range=(1, 4), l_values=None)
    )
    return pinned, feasible


def bogomolov_flag(t):
    """Pinned semistability verdict for a configuration.

    Tabulated configurations are Infeasible unless they are one of the two
    feasible types; anything off the table is NotExcluded (no pinned datum).
    Every tabulated type holds 2[2^4], so a type without two [2^4] chains
    is off the table, and the table need not be built to say so.
    """
    key = t.canonical_key()
    if key.count(("chain", (2, 2, 2, 2))) < 2:
        return NOT_EXCLUDED
    pinned, feasible = _pinned_tables()
    if key in feasible:
        return NOT_EXCLUDED
    if key in pinned:
        return INFEASIBLE
    return NOT_EXCLUDED


@dataclass(frozen=True)
class FeasibilityReport:
    dynkin_type: graphs.DynkinType
    vertex_count: int
    ktilde_sq: int
    k_sq: Fraction
    index: int
    klt: bool
    bogomolov: str
    bogomolov_mode: str
    note: str = RANK_ONE_NOTE


def feasibility_report(t):
    n = sum(len(g.weights) for g in t.components)
    k_sq = discrepancy.anticanonical_selfint(t)
    klt = discrepancy.is_klt(t)
    index = discrepancy.cartier_index(t)
    return FeasibilityReport(
        dynkin_type=t,
        vertex_count=n,
        ktilde_sq=9 - n,
        k_sq=k_sq,
        index=index,
        klt=klt,
        bogomolov=bogomolov_flag(t),
        bogomolov_mode=bogomolov_mode(),
    )


def kv_vanishing_bound(p, r, k_sq):
    """True when the characteristic beats r(r-1) times the self-intersection."""
    if r < 1:
        raise ValueError("index must be a positive integer")
    if k_sq <= 0:
        raise ValueError("self-intersection must be positive")
    return p > r * (r - 1) * Fraction(k_sq)


def genus_constraint_solvable(g, k_sq):
    """Positive integer n with g = (k_sq/2) n(n-1) + 1, or None."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    k_sq = Fraction(k_sq)
    if k_sq <= 0:
        raise ValueError("self-intersection must be positive")
    n = 1
    while True:
        val = k_sq / 2 * n * (n - 1) + 1
        if val == g:
            return n
        if val > g:
            return None
        n += 1


def report_to_json(rep):
    return {
        "type": graphs.format_dynkin(rep.dynkin_type),
        "vertex_count": rep.vertex_count,
        "ktilde_sq": rep.ktilde_sq,
        "k_sq": str(rep.k_sq),
        "index": rep.index,
        "klt": rep.klt,
        "bogomolov": rep.bogomolov,
        "bogomolov_mode": rep.bogomolov_mode,
        "note": rep.note,
    }
