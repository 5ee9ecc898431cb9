"""Tests for the cubic-pencil and weighted-model computations."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from ldp import fields, pencil, verify
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
from ldp.poly import ExactPolynomial as Poly, binary_squarefree


# -- singular locus -----------------------------------------------------------


def test_locus_over_rationals():
    s, t = Poly.gens(QQ, ("s", "t"))
    assert pencil_singular_locus(QQ) == s**3 * t - 11 * s**2 * t**2 - s * t**3


@pytest.mark.parametrize("p", [7, 11, 13])
def test_locus_mod_p_is_reduction(p):
    F = PrimeField(p)
    reduced = pencil_singular_locus(QQ).map_field(F).monic()
    assert pencil_singular_locus(F) == reduced


def _groebner_locus(modulus):
    """The singular locus by lex Groebner elimination in sympy, chart by
    chart (Z = 1; Z = 0, Y = 1; [1:0:0]), made reduced and monic."""
    opts = {} if modulus is None else {"modulus": modulus}
    s, t, X, Y, Z = sympy.symbols(PENCIL_VARS)
    C = s * (Y**2 - Z**2) * (X + Y) + t * (X**2 - Z**2) * (Y - X)
    total = sympy.Integer(1)
    for fixed, free in (({Z: 1}, (X, Y)), ({Z: 0, Y: 1}, (X,)), ({Z: 0, Y: 0, X: 1}, ())):
        eqs = [g for g in (sympy.expand(sympy.diff(C, v).subs(fixed)) for v in (X, Y, Z)) if g != 0]
        basis = sympy.groebner(eqs, *free, s, t, order="lex", **opts)
        eliminants = [g for g in basis.exprs if not g.free_symbols & set(free)]
        total *= functools.reduce(lambda a, b: sympy.gcd(a, b, **opts), eliminants)
    # radical of the binary form: sqf part at t = 1, and t once if it divides
    form = sympy.Poly(total, s, t, **opts)
    affine = sympy.Poly(form.as_expr().subs(t, 1), s, **opts)
    rad = sympy.Poly(sympy.sqf_part(affine), s, **opts)
    out = sympy.Poly(sympy.expand(rad.as_expr().subs(s, s / t) * t ** rad.degree()), s, t, **opts)
    if affine.degree() < form.total_degree():
        out = out * sympy.Poly(t, s, t, **opts)
    return out.monic()


@pytest.mark.parametrize("p", [0, 5, 7, 11, 13])
def test_locus_matches_a_groebner_elimination(p):
    field = QQ if p == 0 else PrimeField(p)
    s, t = sympy.symbols("s t")
    ours = sum(
        sympy.Rational(str(c)) * s**i * t**j for (i, j), c in pencil_singular_locus(field).terms
    )
    opts = {"domain": "QQ"} if p == 0 else {"modulus": p}
    assert sympy.Poly(ours, s, t, **opts) == _groebner_locus(p or None)


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


def test_charts_locate_an_affine_node():
    # the singular members above all have their point on Z = 0; this nodal
    # cubic has its node at [1:2:1] and no other singular point
    s, t, X, Y, Z = Poly.gens(QQ, PENCIL_VARS)
    cubic = (Y - 2 * Z) ** 2 * Z - (X - Z) ** 2 * X
    partials = [cubic.derivative(v) for v in ("X", "Y", "Z")]
    found = [
        pencil._find_points([g.substitute(fixed) for g in partials], free)
        for fixed, free in pencil._CHARTS
    ]
    assert found == [[(1, 2)], [], []]


# the F_11 member at [1:1] has a node and the F_5 member at [1:2] a cusp,
# both at a point [x0:1:0]; a change of coordinates moves it into each chart
@pytest.mark.parametrize("p, param, kind", [(11, (1, 1), NODE), (5, (1, 2), CUSP)],
                         ids=["node", "cusp"])
@pytest.mark.parametrize("chart", ["Z=1", "Z=0,Y=1", "[1:0:0]"])
def test_singular_member_is_classified_in_each_chart(monkeypatch, p, param, kind, chart):
    F = PrimeField(p)
    x0, one, zero = classify_singular_member(F, param).point
    assert (one, zero) == (F.one, F.zero)
    s, t, X, Y, Z = Poly.gens(F, PENCIL_VARS)
    # C'(v) = C(Av) is singular at the preimage under A of C's point
    sub, point = {
        "Z=1": ({"Y": Z, "Z": Y}, (x0, 0, 1)),
        "Z=0,Y=1": ({}, (x0, 1, 0)),
        "[1:0:0]": ({"X": X * x0 + Y, "Y": X}, (1, 0, 0)),
    }[chart]
    original = pencil.pencil_cubic
    monkeypatch.setattr(pencil, "pencil_cubic", lambda field: original(field).substitute(sub))
    rep = classify_singular_member(F, param)
    assert rep.point == tuple(F.coerce(c) for c in point)
    assert rep.kind == kind


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


def test_weighted_member_degree_validation():
    with pytest.raises(ValueError):
        weighted_member_check(4)


# -- the smoothness fallback on plane sextics in P(1, 1, 2) ----------------------
#
# Both modeled members leave the resultant screen at a constant, so these
# sextics over F_5 exercise what the members never reach: candidate values
# that must be confirmed or refuted on their fibres, over F_5[t]/(m) with m
# the candidates' squarefree part, split where a zero divisor turns up.

S_T_X = sympy.symbols("s t x")

# singular at the F_5-point [1:1:0]
SEXTIC_PRIME_FIELD_POINT = "x**2*(x - s**2) + (t - s)**2*s**4"
# no singular F_5-point; singular at s = 1, t = 1 + r, x = 4 + r with r^2 = 2
SEXTIC_EXTENSION_POINT = (
    "3*s**5*t + 2*s**4*t**2 + 3*s**4*x + 4*s**3*t*x + 2*s**2*t**4 + 2*s**2*t**2*x"
    " + 2*s**2*x**2 + s*t**5 + 4*s*t*x**2 + 4*t**4*x + 4*t**2*x**2 + 3*x**3"
)
# its candidate values of t form an irreducible cubic over F_5
SEXTIC_CUBIC_RESIDUAL = (
    "4*s**5*t + 3*s**4*t**2 + 3*s**3*t**3 + 4*s**2*t**4 + 3*s**2*t**2*x + s**2*x**2"
    " + 4*s*t**3*x + 4*t**6 + 2*t**4*x + 2*t**2*x**2 + 2*x**3"
)
# its candidate values of t form two irreducible quadratics over F_5
SEXTIC_TWO_QUADRATICS = (
    "s**5*t + s**4*t**2 + 4*s**4*x + 3*s**3*t**3 + 4*s**3*t*x + 3*s**2*t**4"
    " + 3*s**2*t**2*x + 2*s**2*x**2 + s*t**3*x + t**6 + 3*t**4*x + t**2*x**2 + x**3"
)
# a gcd on the fibre meets a zero divisor, so the modulus splits
SEXTIC_SPLIT_MODULUS = (
    "3*s**4*t**2 + 2*s**4*x + 4*s**3*t**3 + 3*s**3*t*x + s**2*t**4 + 4*s**2*t**2*x"
    " + s**2*x**2 + 2*s*t**5 + 2*s*t**3*x + 2*s*t*x**2 + 2*t**6 + 4*t**4*x"
    " + 2*t**2*x**2 + 4*x**3"
)
# smooth: every candidate value is refuted on its fibre
SEXTIC_ALL_REFUTED = (
    "4*s**4*t**2 + 2*s**4*x + 4*s**3*t*x + s**2*t**4 + 4*s**2*t**2*x + 3*s**2*x**2"
    " + 2*s*t**3*x + 4*s*t*x**2 + 3*t**6 + t**4*x + 4*t**2*x**2 + 3*x**3"
)


def _sextic(text):
    terms = sympy.Poly(sympy.sympify(text), *S_T_X).terms()
    return Poly.make(
        PrimeField(5), WEIGHTED_VARS, {m + (0,): int(c) for m, c in terms}, WEIGHTS
    )


class _F25:
    """a + b r with r^2 = 2 over F_5, independent of ldp.fields."""

    def __init__(self, a, b=0):
        self.a, self.b = a % 5, b % 5

    def __add__(self, o):
        o = o if isinstance(o, _F25) else _F25(o)
        return _F25(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        o = o if isinstance(o, _F25) else _F25(o)
        return _F25(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n):
        out = _F25(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.a or self.b)


def _singular_points(text):
    """Brute force over F_25: the points of P(1, 1, 2) where every partial of
    the sextic vanishes (Euler's relation, 6 being prime to 5, makes the
    sextic vanish there too), as (s, t, x) with coordinates (a, b) = a + b r."""
    expr = sympy.sympify(text)
    partials = [sympy.Poly(sympy.diff(expr, v), *S_T_X).terms() for v in S_T_X]
    elements = [_F25(a, b) for a in range(5) for b in range(5)]
    one, zero = _F25(1), _F25(0)
    points = [(one, t, x) for t in elements for x in elements]
    points += [(zero, one, x) for x in elements] + [(zero, zero, one)]
    found = []
    for point in points:
        if not any(
            sum((c * point[0] ** i * point[1] ** j * point[2] ** k for (i, j, k), c in terms), zero)
            for terms in partials
        ):
            found.append(tuple((z.a, z.b) for z in point))
    return found


def _groebner_smooth(text):
    """The oracle: no common zero of the sextic and its partials over the
    closure of F_5, by a sympy Groebner basis in each of the charts s = 1
    and t = 1, and by evaluation at [0:0:1], the one point they miss."""
    s, t, x = S_T_X
    expr = sympy.sympify(text)
    eqs = [expr] + [sympy.diff(expr, v) for v in S_T_X]
    for chart, gens in (({s: 1}, (t, x)), ({t: 1}, (s, x))):
        system = [e for e in (sympy.expand(e.subs(chart)) for e in eqs) if e != 0]
        if list(sympy.groebner(system, *gens, modulus=5).exprs) != [1]:
            return False
    return any(int(e.subs({s: 0, t: 0, x: 1})) % 5 for e in eqs)


@pytest.mark.parametrize(
    "text, smooth, splits",
    [
        (SEXTIC_PRIME_FIELD_POINT, False, 0),
        (SEXTIC_EXTENSION_POINT, False, 0),
        (SEXTIC_CUBIC_RESIDUAL, False, 0),
        (SEXTIC_TWO_QUADRATICS, False, 0),
        (SEXTIC_SPLIT_MODULUS, False, 1),
        (SEXTIC_ALL_REFUTED, True, 0),
    ],
    ids=["prime-field-point", "extension-point", "cubic-residual", "two-quadratics",
         "split-modulus", "all-refuted"],
)
def test_sextic_verdict_matches_groebner(monkeypatch, text, smooth, splits):
    built, raised = [], []

    def extension(*args):
        built.append(args)
        return fields.SimpleExtension(*args)

    class CountedSplit(fields.ZeroDivisorError):
        def __init__(self, *factors):
            raised.append(factors)
            super().__init__(*factors)

    monkeypatch.setattr(pencil, "SimpleExtension", extension)
    monkeypatch.setattr(fields, "ZeroDivisorError", CountedSplit)
    assert _groebner_smooth(text) is smooth
    assert pencil._plane_sextic_smooth(_sextic(text), "x") is smooth
    # the screen left candidates, and they were decided on fibres
    assert built and len(raised) == splits


def test_sextic_singular_only_where_no_chart_reaches():
    # s t x^2 + s^6 + t^6 is smooth on s = 1 and on t = 1, and singular at s = t = 0
    text = "s*t*x**2 + s**6 + t**6"
    G = _sextic(text)
    assert pencil._affine_chart_smooth(G, "s", "x") and pencil._affine_chart_smooth(G, "t", "x")
    assert _groebner_smooth(text) is False
    assert pencil._plane_sextic_smooth(G, "x") is False


def test_sextic_singular_at_a_prime_field_point():
    assert ((1, 0), (1, 0), (0, 0)) in _singular_points(SEXTIC_PRIME_FIELD_POINT)
    assert pencil._plane_sextic_smooth(_sextic(SEXTIC_PRIME_FIELD_POINT), "x") is False


def test_sextic_singular_only_over_the_quadratic_extension():
    points = _singular_points(SEXTIC_EXTENSION_POINT)
    assert ((1, 0), (1, 1), (4, 1)) in points
    assert all(any(b for _, b in point) for point in points)  # none over F_5
    assert pencil._plane_sextic_smooth(_sextic(SEXTIC_EXTENSION_POINT), "x") is False


def test_double_covers_are_smooth_exactly_when_the_branch_sextic_is_squarefree(monkeypatch):
    # y^2 = h(s, t) in P(1, 1, 3) is singular exactly over a multiple root of h
    fibres = []

    def extension(*args):
        fibres.append(args)
        return fields.SimpleExtension(*args)

    monkeypatch.setattr(pencil, "SimpleExtension", extension)
    F5 = PrimeField(5)
    s, t, x, y = Poly.gens(F5, WEIGHTED_VARS, WEIGHTS)
    rng = random.Random(26)
    verdicts = set()
    for _ in range(200):
        h = Poly.zero(F5, WEIGHTED_VARS, WEIGHTS)
        while not h:
            h = sum((rng.randrange(5) * s**k * t ** (6 - k) for k in range(7)), h)
        squarefree = binary_squarefree(h, "s", "t").degree() == h.degree()
        assert pencil._plane_sextic_smooth(y**2 - h, "y") is squarefree, h
        verdicts.add(squarefree)
    assert verdicts == {True, False} and fibres
