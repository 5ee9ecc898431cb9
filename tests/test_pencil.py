"""Tests for the cubic-pencil and weighted-model computations."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy

from ldp import verify
from ldp.fields import QQ, PrimeField
from ldp.pencil import (
    CUSP,
    NODE,
    PENCIL_VARS,
    WEIGHTED_VARS,
    WEIGHTS,
    BadCharacteristicError,
    MultipleSingularPointsError,
    NotSingularMemberError,
    ZeroInputError,
    classify_singular_member,
    cross_ratio_minimal_polynomials,
    pencil_cubic,
    pencil_singular_locus,
    quadratic_discriminant,
    quadratic_factor_double_root,
    singular_parameter_field,
    squarefree_core,
    weighted_member_check,
    weighted_surface_equation,
)
from ldp.poly import ExactPolynomial as Poly


# -- singular locus -----------------------------------------------------------


def test_locus_over_rationals():
    s, t = Poly.gens(QQ, ("s", "t"))
    assert pencil_singular_locus(QQ) == s**3 * t - 11 * s**2 * t**2 - s * t**3


@pytest.mark.parametrize("p", [7, 11, 13])
def test_locus_mod_p_is_reduction(p):
    F = PrimeField(p)
    reduced = pencil_singular_locus(QQ).map_field(F).monic()
    assert pencil_singular_locus(F) == reduced


def test_locus_is_computed_once_per_field():
    # equal fields built apart share one entry
    assert pencil_singular_locus(PrimeField(7)) is pencil_singular_locus(PrimeField(7))
    # a rejected field is never cached as a success
    for _ in range(2):
        with pytest.raises(BadCharacteristicError):
            pencil_singular_locus(PrimeField(3))


def test_locus_char5_picks_up_the_double_root():
    F5 = PrimeField(5)
    s, t = Poly.gens(F5, ("s", "t"))
    # over F_5 the quadratic factor degenerates to a square, so the reduced
    # locus drops a degree: s*t*(s + 2t)
    assert pencil_singular_locus(F5) == s * t * (s + 2 * t)


@pytest.mark.parametrize("p", [2, 3])
def test_locus_rejects_bad_characteristics(p):
    with pytest.raises(BadCharacteristicError):
        pencil_singular_locus(PrimeField(p))


def test_double_root_flag():
    assert quadratic_factor_double_root(PrimeField(5)) is True
    assert quadratic_factor_double_root(QQ) is False
    assert quadratic_factor_double_root(PrimeField(7)) is False
    with pytest.raises(BadCharacteristicError):
        quadratic_factor_double_root(PrimeField(2))


# -- base points --------------------------------------------------------------


def test_four_base_points_lie_on_every_member():
    C = pencil_cubic(QQ)
    base = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
    for sv in (0, 1, 2, -3):
        for tv in (0, 1, -1, 5):
            if sv == tv == 0:
                continue
            for X, Y, Z in base:
                val = C.evaluate({"s": sv, "t": tv, "X": X, "Y": Y, "Z": Z})
                assert not val


# -- singular member classification --------------------------------------------


def test_cusp_in_characteristic_five():
    rep = classify_singular_member(PrimeField(5), (1, 2))
    assert rep.kind == CUSP


def test_nodes_at_the_conjugate_parameters():
    K = singular_parameter_field()
    theta = K.generator
    for root in (theta, theta.conjugate()):
        rep = classify_singular_member(QQ, (K.one, root))
        assert rep.kind == NODE


def test_degenerate_member_has_several_singular_points():
    with pytest.raises(MultipleSingularPointsError):
        classify_singular_member(QQ, (1, 0))


def test_smooth_member_is_rejected():
    with pytest.raises(NotSingularMemberError):
        classify_singular_member(QQ, (1, 1))


def test_zero_parameter_is_rejected():
    with pytest.raises(ValueError):
        classify_singular_member(QQ, (0, 0))


# -- cross-ratio orbit ----------------------------------------------------------


def test_cross_ratio_quadratics():
    quads = cross_ratio_minimal_polynomials()
    assert quads == sorted(quads)
    assert len(quads) == 3
    # each quadratic is primitive with positive leading coefficient
    for a, b, c in quads:
        assert a > 0
    # all cross-ratios generate the same quadratic field
    cores = {squarefree_core(quadratic_discriminant(q)) for q in quads}
    assert cores == {5}


def _primitive(coeffs):
    """Integer coefficients with content 1 and positive leading coefficient."""
    coeffs = [int(c) for c in coeffs]
    g = math.gcd(*coeffs)
    sign = 1 if coeffs[0] > 0 else -1
    return [sign * c // g for c in coeffs]


def _pinned_locus_points():
    """The roots (s : t) in P^1 of the pinned singular-locus form, with
    multiplicity, found by sympy from the fixture's terms alone."""
    s, t, x = sympy.symbols("s t x")
    terms = verify.expected_values()["pencil-locus-rationals"]
    form = sum(sympy.Rational(c) * s**i * t**j for (i, j), c in terms)
    degree = max(i + j for (i, j), _ in terms)
    affine = sympy.Poly(form.subs({s: x, t: 1}), x)
    points = [
        (root, sympy.Integer(1))
        for root, mult in sympy.roots(affine).items()
        for _ in range(mult)
    ]
    # the degree lost on setting t = 1 is the multiplicity of (1 : 0)
    points += [(sympy.Integer(1), sympy.Integer(0))] * (degree - affine.degree())
    return points


def test_cross_ratio_orbit_matches_an_oracle_on_the_pinned_locus():
    points = _pinned_locus_points()
    assert len(set(points)) == 4

    def bracket(p, q):
        return p[0] * q[1] - q[0] * p[1]

    x = sympy.Symbol("x")
    quads = set()
    # fixing the first point, the 6 orderings of the rest give all 6 values
    first = points[0]
    for p2, p3, p4 in itertools.permutations(points[1:]):
        num = bracket(first, p3) * bracket(p2, p4)
        lam = num / (bracket(p2, p3) * bracket(first, p4))
        minpoly = sympy.minimal_polynomial(lam, x, polys=True)
        quads.add(tuple(_primitive(minpoly.all_coeffs())))
    oracle = sorted(list(q) for q in quads)
    assert oracle == verify.expected_values()["crossratio-minimal-polynomials"]
    assert oracle == [list(q) for q in cross_ratio_minimal_polynomials()]


def test_pinned_cross_ratio_orbit_agrees_with_the_pinned_pencil_entries():
    pinned = verify.expected_values()
    orbit = pinned["crossratio-minimal-polynomials"]
    # the orbit is closed under lambda -> 1/lambda and lambda -> 1 - lambda
    for a, b, c in orbit:
        assert _primitive([c, b, a]) in orbit
        assert _primitive([a, -(2 * a + b), a + b + c]) in orbit
    # four distinct points collide mod p exactly when a cross-ratio reduces to
    # infinity, 0 or 1, i.e. p divides lead * q(0) * q(1) for some quadratic q;
    # the two conjugate points collide exactly where the quadratic factor of
    # the locus has a double root
    flags = pinned["pencil-double-root-characteristics"]
    for p in (5, 7, 11, 13):
        collides = any(a * c * (a + b + c) % p == 0 for a, b, c in orbit)
        assert collides == flags[str(p)], p


def test_squarefree_core():
    assert squarefree_core(12) == 3
    assert squarefree_core(-18) == -2
    assert squarefree_core(1) == 1
    assert squarefree_core(15125) == 5
    with pytest.raises(ZeroInputError):
        squarefree_core(0)


# -- weighted model -------------------------------------------------------------


def test_weighted_surface_shape():
    F = weighted_surface_equation()
    assert F.field.p == 5
    assert F.is_weighted_homogeneous(6)
    zero = Poly.zero(F.field, WEIGHTED_VARS, WEIGHTS)
    x, y = (Poly.variable(F.field, WEIGHTED_VARS, v, WEIGHTS) for v in ("x", "y"))
    # restricting to t = 0 leaves the cuspidal normal form y^2 - x^3
    assert F.substitute({"t": zero}) == y**2 - x**3


@pytest.mark.parametrize("i", [2, 3])
def test_weighted_members_pass_all_checks(i):
    rep = weighted_member_check(i)
    assert rep.degree_ok
    assert rep.cusp_support_ok
    assert rep.smooth
    assert rep.all_ok


def test_weighted_member_degree_validation():
    with pytest.raises(ValueError):
        weighted_member_check(4)
