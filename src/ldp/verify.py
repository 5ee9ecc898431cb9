"""Golden verification suite.

Every pinned quantity the library is supposed to reproduce is recomputed
here and compared, exactly, against the expected value stored in
pinned_checks.json.  Checks are grouped; the CLI runs all of them and exits
nonzero when any comparison fails.
"""

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import discrepancy, feasibility, graphs, pencil, picard
from .fields import QQ, PrimeField
from .poly import ExactPolynomial as Poly

PASS = "Pass"
FAIL = "Fail"


@dataclass(frozen=True)
class VerificationOutcome:
    check_id: str
    group: int
    expected: object
    actual: object
    seconds: float  # wall time of the whole group: its checks are computed together

    @property
    def status(self):
        return PASS if self.expected == self.actual else FAIL


def _frac(x):
    return str(Fraction(x))


def _fracs(xs):
    return [_frac(x) for x in xs]


def _poly_terms(p):
    # [[exponent vector, coefficient]] sorted the way the polynomial stores it
    return [[list(e), str(c)] for e, c in p.terms]


# -- group 1: pinned scalars ---------------------------------------------------


def _scalar_checks():
    out = {}
    out["determinant-chain-2222"] = graphs.graph_determinant(graphs.parse_graph("[2^4]"))
    out["determinant-chain-24"] = graphs.graph_determinant(graphs.parse_graph("[2,4]"))
    out["determinant-star-2-235"] = graphs.graph_determinant(
        graphs.parse_graph("[2;[2],[3],[5]]")
    )
    out["discrepancies-chain-3"] = _fracs(
        discrepancy.discrepancies(graphs.parse_graph("[3]"))
    )
    out["discrepancies-chain-24"] = _fracs(
        discrepancy.discrepancies(graphs.parse_graph("[2,4]"))
    )
    _, _, e0 = discrepancy.select_hunt_divisor(
        graphs.parse_dynkin("2[2^4]+[2;[2],[3],[5]]")
    )
    out["hunt-coefficient-2A4-star235"] = _frac(e0)
    for tag, notation in (("A", "2[2^4]+[3]"), ("B", "2[2^4]+[2,4]")):
        t = graphs.parse_dynkin(notation)
        rep = feasibility.feasibility_report(t)
        out[f"index-and-ksq-{tag}"] = [rep.index, _frac(rep.k_sq)]
    out["ksq-2A4"] = _frac(
        discrepancy.anticanonical_selfint(graphs.parse_dynkin("2[2^4]"))
    )
    out["ksq-A4"] = _frac(
        discrepancy.anticanonical_selfint(graphs.parse_dynkin("[2^4]"))
    )
    n = feasibility.genus_constraint_solvable(5, 5)
    out["genus-equation-g5-k5"] = n
    out["kv-bound-p5-r3"] = feasibility.kv_vanishing_bound(5, 3, Fraction(1, 3))
    return out


# -- group 2: the sixteen intersection numbers ----------------------------------

_SIX = ("L_ac", "L_bd", "F_a", "F_b", "F_c", "F_d")


def _display_checks():
    lat = picard.preset_resolution("[2,4]")
    c2, g1, g2 = (lat.curve(n) for n in ("C_2", "G_1", "G_2"))
    minus_k = -1 * lat.canonical
    out = {
        "pairing-row-C2": _fracs(c2.dot(lat.curve(x)) for x in _SIX),
        "pairing-row-G1": _fracs(g1.dot(lat.curve(x)) for x in _SIX),
        "pairing-row-antiK": _fracs(
            picard.mumford_pairing(lat, minus_k, lat.curve(x)) for x in _SIX
        ),
        "pairing-C2-G2": _frac(c2.dot(g2)),
        "pairing-G1-G2": _frac(g1.dot(g2)),
        "pairing-antiK-G2": _frac(picard.mumford_pairing(lat, minus_k, g2)),
    }
    return {f"display-{k}": v for k, v in out.items()}


# -- group 3: pullback, rounding, Euler characteristic ---------------------------


def _chi_tuples():
    rng = random.Random(20240817)
    tuples = []
    for _ in range(20):
        ns = [rng.randint(-4, 4) for _ in range(5)]
        ns.append(-sum(ns))
        tuples.append(ns)
    return tuples


def _pullback_checks():
    lat = picard.preset_resolution("[2,4]")
    lat0 = picard.preset_2A4()
    g2 = lat.curve("G_2")
    pb = picard.pullback_weil(lat, g2)
    out = {
        "pullback-of-G2": _fracs(pb.coeffs),
        "rounded-pullback-of-G2": _fracs(
            picard.round_up(lat, pb, ["C_2", "G_1", "G_2"]).coeffs
        ),
    }
    base = picard.DivisorClass.make(lat0.basis, [3] + [-1] * 8)
    chi_pairs = []
    for ns in _chi_tuples():
        a = g2
        a0 = base
        for n, name in zip(ns, _SIX):
            a = a + n * lat.curve(name)
            a0 = a0 + n * lat0.curve(name)
        chi_a = picard.chi_riemann_roch(lat, -1 * picard.ceil_pullback(lat, a))
        chi_a0 = picard.chi_riemann_roch(lat0, -1 * picard.ceil_pullback(lat0, a0))
        chi_pairs.append([_frac(chi_a), _frac(chi_a0)])
    out["chi-both-models"] = chi_pairs
    return out


# -- group 4: anticanonical pullback identities ----------------------------------


def _identity_checks():
    out = {}
    lat = picard.preset_resolution("[3]")
    lhs = picard.pullback_weil(lat, -3 * lat.canonical)
    support = list(lat.contracted[:-1]) + ["exceptional"]
    named = dict(lat.named_curves)
    named["exceptional"] = lat.unit("g_1")
    lat_aug = picard.BlowupLattice(
        lat.basis, lat.canonical, named, lat.contracted, lat.contracted_type
    )
    rhs = picard.pullback_weil(lat_aug, -2 * lat.canonical, support) - lat.unit("g_1")
    out["identity-index3"] = {
        "lhs": _fracs(lhs.coeffs),
        "equal": lhs == rhs,
    }
    lat = picard.preset_resolution("[2,4]")
    g1, g2 = lat.curve("G_1"), lat.curve("G_2")
    lhs = picard.pullback_weil(lat, -7 * lat.canonical)
    support = list(lat.contracted[:-1]) + ["G_2"]
    rhs = picard.pullback_weil(lat, -3 * lat.canonical, support) - 2 * (
        g2 + Fraction(1, 2) * g1
    )
    out["identity-index7"] = {
        "lhs": _fracs(lhs.coeffs),
        "equal": lhs == rhs,
    }
    return out


# -- group 5: incidence-coefficient sweep ----------------------------------------


def _sweep_graphs():
    """Every chain and star with at most six vertices and weights 2 to 5,
    each once and in canonical vertex order: a chain's weights are no
    greater than their reverse, and a star's branches are sorted by (length,
    weights), as in the canonical key.  Each is negative definite, since its
    all-(-2) version is A_n, D_n or E_6 and larger weights only add to the
    diagonal of -M; a graph that is not would make its record raise.  A
    generator: each graph keeps its own record, so only the one being swept
    is held."""
    weights = range(2, 6)
    for n in range(1, 7):
        for ws in itertools.product(weights, repeat=n):
            if ws <= ws[::-1]:
                yield graphs.chain(ws)
    for total in range(4, 7):
        for l1 in range(1, total - 2):
            for l2 in range(l1, total - 1 - l1):
                l3 = total - 1 - l1 - l2
                if l3 < l2:
                    continue
                for ws in itertools.product(weights, repeat=total):
                    b1, b2, b3 = ws[1 : 1 + l1], ws[1 + l1 : total - l3], ws[total - l3 :]
                    if (l1, b1) <= (l2, b2) <= (l3, b3):
                        yield graphs.star(ws[0], (b1, b2, b3))


def _incidence_checks():
    closed_form_cases = 0
    closed_form_mismatches = 0
    admissible = set()
    admissible_failures = 0
    monotone_cases = 0

    for g in _sweep_graphs():
        n = len(g.weights)
        # displays cover single-point incidence of any multiplicity and
        # two-point incidence with multiplicity one at both points
        cases, mismatches = discrepancy.closed_form_check(g, 4)
        closed_form_cases += cases
        closed_form_mismatches += mismatches
        for _, _, cls in discrepancy.incidence_sweep(g, 4):
            if cls is not None:
                if cls.verdict == discrepancy.UNSUPPORTED:
                    admissible_failures += 1
                else:
                    admissible.add((cls.case, cls.verdicts))
        # a unit increment at j adds 2 (adj.a)_j + adj_jj + (adj.kappa)_j to
        # delta*<a, b>; the sweep's record has checked adj >= 0 and adj.kappa
        # >= 0, raising otherwise, so all n increments of every vector with
        # |a| <= 3 grow the pairing, and none is a violation
        monotone_cases += n * (math.comb(n + 3, 3) - 1)
    return {
        "incidence-closed-form": {
            "cases": closed_form_cases,
            "mismatches": closed_form_mismatches,
        },
        "incidence-admissible-patterns": {
            "patterns": sorted(
                [case, list(verdicts)] for case, verdicts in admissible
            ),
            "unclassified": admissible_failures,
        },
        "incidence-monotonicity": {
            "cases": monotone_cases,
            "violations": 0,
        },
    }


# -- group 6: pencil of cubics ----------------------------------------------------


def _pencil_checks():
    out = {}
    locus_q = pencil.pencil_singular_locus(QQ)
    out["pencil-locus-rationals"] = _poly_terms(locus_q)
    for p in (7, 11, 13):
        reduced = locus_q.map_field(PrimeField(p)).monic()
        out[f"pencil-locus-mod-{p}"] = (
            pencil.pencil_singular_locus(PrimeField(p)) == reduced
        )
    flags = {}
    for p in (2, 5, 7, 11, 13):
        try:
            flags[str(p)] = pencil.quadratic_factor_double_root(PrimeField(p))
        except pencil.BadCharacteristicError:
            flags[str(p)] = "rejected"
    out["pencil-double-root-characteristics"] = flags
    rep = pencil.classify_singular_member(PrimeField(5), (1, 2))
    out["pencil-kind-char5"] = rep.kind
    ext = pencil.singular_parameter_field()
    theta = ext.generator
    kinds = []
    for root in (theta, theta.conjugate()):
        kinds.append(pencil.classify_singular_member(QQ, (ext.one, root)).kind)
    out["pencil-kind-rational-roots"] = kinds
    return out


# -- group 7: cross-ratio orbit -----------------------------------------------------


def _crossratio_checks():
    quads = pencil.cross_ratio_minimal_polynomials()
    return {
        "crossratio-minimal-polynomials": sorted(list(q) for q in quads),
        "crossratio-discriminant-cores": sorted(
            pencil.squarefree_core(pencil.quadratic_discriminant(q)) for q in quads
        ),
    }


# -- group 8: weighted-model members ---------------------------------------------


def _weighted_checks():
    out = {}
    for i in (2, 3):
        rep = pencil.weighted_member_check(i)
        out[f"weighted-member-{i}"] = {
            "degree_ok": rep.degree_ok,
            "cusp_support_ok": rep.cusp_support_ok,
            "smooth": rep.smooth,
        }
    F = pencil.weighted_surface_equation()
    zero = Poly.zero(F.field, pencil.WEIGHTED_VARS, pencil.WEIGHTS)
    out["weighted-surface-at-t0"] = _poly_terms(F.substitute({"t": zero}))
    return out


# -- group 9: tabulated-type battery ----------------------------------------------


def _table_checks():
    instances = graphs.table1_enumerate(n_range=(0, 4), m_range=(1, 4))
    feasible = {"2[2^4]+[3]", "2[2^4]+[2,4]"}
    flags_match = True
    all_klt = True
    all_positive = True
    all_neg_def = True
    # the types share components such as [2^4]; graphs are equal when their
    # canonical forms are, so each type is rebuilt from the first object of
    # each form, and each component's record is built once
    shared = {}
    for _, t in instances:
        t = graphs.DynkinType(tuple(shared.setdefault(g, g) for g in t.components))
        rep = feasibility.feasibility_report(t)
        all_klt = all_klt and rep.klt
        all_positive = all_positive and rep.k_sq > 0
        all_neg_def = all_neg_def and all(
            graphs.is_negative_definite(g) for g in t.components
        )
        expected_flag = (
            feasibility.NOT_EXCLUDED
            if graphs.format_dynkin(t) in feasible
            else feasibility.INFEASIBLE
        )
        flags_match = flags_match and rep.bogomolov == expected_flag
    return {
        "table-battery": {
            "instances": len(instances),
            "all_negative_definite": all_neg_def,
            "all_klt": all_klt,
            "all_ksq_positive": all_positive,
            "bogomolov_flags_match": flags_match,
            "mode": feasibility.bogomolov_mode(),
        }
    }


_GROUPS = (
    (1, _scalar_checks),
    (2, _display_checks),
    (3, _pullback_checks),
    (4, _identity_checks),
    (5, _incidence_checks),
    (6, _pencil_checks),
    (7, _crossratio_checks),
    (8, _weighted_checks),
    (9, _table_checks),
)


def expected_values():
    with resources.files(__package__).joinpath("pinned_checks.json").open() as fh:
        return json.load(fh)


def compute_actuals():
    """Every check's value and group, and each group's wall time in seconds."""
    actual = {}
    groups = {}
    seconds = {}
    for group, fn in _GROUPS:
        start = time.perf_counter()
        values = fn()
        seconds[group] = time.perf_counter() - start
        for check_id, value in values.items():
            actual[check_id] = value
            groups[check_id] = group
    return actual, groups, seconds


def run_checks():
    """All verification outcomes, ordered by check id."""
    expected = expected_values()
    actual, groups, seconds = compute_actuals()
    missing = sorted(set(expected) ^ set(actual))
    if missing:
        raise AssertionError(f"check list out of sync: {missing}")
    return [
        VerificationOutcome(cid, groups[cid], expected[cid], actual[cid], seconds[groups[cid]])
        for cid in sorted(actual)
    ]
