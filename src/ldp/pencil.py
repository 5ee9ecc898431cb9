"""The cubic pencil s(Y^2-Z^2)(X+Y) + t(X^2-Z^2)(Y-X), its singular members,
the cross-ratio arithmetic of its four degenerate parameters, and the
characteristic-5 weighted hypersurface y^2 = x^3 + 2t^4 x + 4s^5 t + 2t^6
with its anticanonical members.

Every singularity question here asks for the common zeros of a polynomial
system, one affine chart at a time, and goes through one elimination core:
`_eliminate` drops variables by pairwise resultants, and `_common_factor`
folds a gcd over the eliminants.  The singular locus, the singular point of
a member and the smoothness of the weighted members are all built on it.
Both weighted members are tested alike, as sextics in a weighted plane once
the member has solved for one coordinate.  The values a smoothness screen
leaves are decided together, on one fibre over the simple extension their
squarefree part defines.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .fields import QQ, PrimeField, SimpleElement, SimpleExtension, ZeroDivisorError
from .graphs import InvariantError
from .poly import (
    ExactPolynomial as Poly,
    _dense,
    binary_gcd,
    binary_squarefree,
    poly_gcd,
    resultant,
    squarefree_part,
)

NODE = "Node"
CUSP = "Cusp"

PENCIL_VARS = ("s", "t", "X", "Y", "Z")


class BadCharacteristicError(ValueError):
    pass


class NotSingularMemberError(ValueError):
    pass


class MultipleSingularPointsError(ValueError):
    pass


def _check_char(field, banned):
    if field.characteristic in banned:
        raise BadCharacteristicError(
            f"characteristic {field.characteristic} is not supported here"
        )


# -- the elimination core ---------------------------------------------------------

# disjoint affine charts covering P^2: the fixed coordinates, the first of
# them the one set to 1 that dehomogenises the chart, then the free ones
_CHARTS = (
    ({"Z": 1}, ("X", "Y")),
    ({"Y": 1, "Z": 0}, ("X",)),
    ({"X": 1, "Y": 0, "Z": 0}, ()),
)


def _eliminate(eqs, names):
    """Eliminate the variables in names one after another: the equations
    free of the variable pass through, the others give way to their nonzero
    pairwise resultants in it."""
    for v in names:
        with_v = [g for g in eqs if g.degree(v) > 0]
        eqs = [g for g in eqs if g.degree(v) == 0] + [
            r
            for a, b in itertools.combinations(with_v, 2)
            if not (r := resultant(a, b, v)).is_zero()
        ]
    return eqs


def _common_factor(eqs, gcd):
    """gcd folded over the nonzero equations, stopping at the first constant;
    None when every equation is zero."""
    common = None
    for g in eqs:
        if g:
            common = g if common is None else gcd(common, g)
            if common.degree() == 0:
                break
    return common


def _find_points(eqs, names):
    """Common zeros of the system in the affine space on names.  The last
    coordinate is pinned first, by the gcd of the eliminants of the others;
    a second candidate or a positive-dimensional set raises."""
    if not names:
        return [] if any(eqs) else [()]
    *rest, v = names
    g = _common_factor(_eliminate(eqs, rest), functools.partial(poly_gcd, var=v))
    if g is None:
        raise MultipleSingularPointsError("a positive-dimensional set of singular points")
    if g.degree() == 0:
        return []
    g = squarefree_part(g, v)
    if g.degree(v) > 1:
        raise MultipleSingularPointsError(f"{g.degree(v)} candidate singular values of {v}")
    v0 = -g.coefficient(v, 0).evaluate({})  # g is monic and linear
    return [p + (v0,) for p in _find_points([e.substitute({v: v0}) for e in eqs], rest)]


# -- the singular locus -------------------------------------------------------------


def pencil_cubic(field):
    """The full two-parameter family as one polynomial in (s,t,X,Y,Z)."""
    s, t, X, Y, Z = Poly.gens(field, PENCIL_VARS)
    return s * (Y**2 - Z**2) * (X + Y) + t * (X**2 - Z**2) * (Y - X)


def _project_st(f):
    """Rewrite a polynomial involving only s,t into the 2-variable ring."""
    out = {}
    for e, c in f.terms:
        if any(e[2:]):
            raise InvariantError(f"{f!r} involves more than s and t")
        out[e[:2]] = c
    return Poly.make(f.field, ("s", "t"), out)


def pencil_singular_locus(field):
    """Reduced binary form in (s,t) cutting out the singular members.

    Chart by chart, the partial derivatives are eliminated through pairwise
    resultants; the gcd of the eliminants kills the projection artifacts, and
    the product over charts is made squarefree.  Lex order s > t, monic.
    Computed once per field; this stays a plain function so that each call
    is still visible to wrappers such as perfbench's tracer.
    """
    return _singular_locus(field)


@functools.lru_cache(maxsize=32)
def _singular_locus(field):
    _check_char(field, (2, 3))
    partials = [pencil_cubic(field).derivative(v) for v in ("X", "Y", "Z")]
    gcd = functools.partial(binary_gcd, u="s", v="t")
    total = Poly.constant(field, PENCIL_VARS, 1)
    for fixed, free in _CHARTS:
        eliminants = _eliminate([g.substitute(fixed) for g in partials], free)
        locus = _common_factor(eliminants, gcd)
        if locus is not None:
            total = total * locus
    return _project_st(binary_squarefree(total, "s", "t"))


def quadratic_factor_double_root(field):
    """Whether t^2 + 11t - 1, the non-obvious factor of the singular locus,
    degenerates: its discriminant is 125, so exactly in characteristic 5."""
    _check_char(field, (2,))
    return not field.coerce(125)


# -- singular member classification -------------------------------------------


@dataclass(frozen=True)
class SingularMemberReport:
    parameter: tuple  # (s, t) representative
    point: tuple  # projective (X, Y, Z)
    kind: str  # NODE or CUSP


def _as_field_pair(field, param):
    sv, tv = param
    if isinstance(sv, SimpleElement) or isinstance(tv, SimpleElement):
        work = sv.field if isinstance(sv, SimpleElement) else tv.field
        if work.base != field:
            raise TypeError("extension does not sit over the given field")
    else:
        work = field
    return work, work.coerce(sv), work.coerce(tv)


def classify_singular_member(field, param):
    """Locate the singular point of the member at param=[s:t] and decide
    node versus cusp by the rank of the local quadratic part."""
    _check_char(field, (2, 3))
    work, sv, tv = _as_field_pair(field, param)
    if not sv and not tv:
        raise ValueError("[0:0] is not a point of the parameter line")
    locus = pencil_singular_locus(field)
    value = work.zero
    for (i, j), c in locus.terms:
        value = value + c * sv**i * tv**j
    if value:
        raise NotSingularMemberError(f"member [{sv}:{tv}] is smooth")

    member = pencil_cubic(work).substitute({"s": sv, "t": tv})
    partials = [member.derivative(v) for v in ("X", "Y", "Z")]
    points = []
    for fixed, free in _CHARTS:
        unit, *_ = fixed
        for zero in _find_points([g.substitute(fixed) for g in partials], free):
            coords = dict(fixed, **dict(zip(free, zero)))
            points.append((unit, {v: work.coerce(coords[v]) for v in ("X", "Y", "Z")}))
    if not points:
        raise NotSingularMemberError("no singular point found (unexpected)")
    if len(points) > 1:
        raise MultipleSingularPointsError(f"{len(points)} singular points")
    unit, coords = points[0]
    affine = {v: c for v, c in coords.items() if v != unit}
    kind = _node_or_cusp(member, unit, affine)
    return SingularMemberReport((sv, tv), tuple(coords.values()), kind)


def _node_or_cusp(member, unit, affine):
    """Rank of the quadratic part of the expansion at the singular point,
    given by its two coordinates affine in the chart unit = 1: a square
    (zero discriminant) means a cusp."""
    work = member.field
    (u, u0), (v, v0) = affine.items()
    U = Poly.variable(work, PENCIL_VARS, u)
    V = Poly.variable(work, PENCIL_VARS, v)
    local = member.substitute({unit: 1, u: U + u0, v: V + v0})
    iu, iv = PENCIL_VARS.index(u), PENCIL_VARS.index(v)
    quad = {}
    for e, c in local.terms:
        d = e[iu] + e[iv]
        if d < 2:
            raise InvariantError(f"{affine} is not a singular point of the member on {unit} = 1")
        if d == 2:
            quad[(e[iu], e[iv])] = c
    A = quad.get((2, 0), work.zero)
    B = quad.get((1, 1), work.zero)
    C = quad.get((0, 2), work.zero)
    disc = B * B - 4 * A * C
    return CUSP if not disc else NODE


# -- cross-ratio arithmetic ----------------------------------------------------


def singular_parameter_field():
    """QQ(theta) with theta a root of x^2 + 11x - 1, the irrational
    parameters of the singular members."""
    return SimpleExtension(QQ, (-1, 11, 1), name="theta")


def cross_ratio_minimal_polynomials():
    """Minimal polynomials over QQ of the cross-ratios of the four singular
    parameters {0, infinity, theta, theta-bar}, one per conjugate pair,
    content-free with positive leading coefficient."""
    K = singular_parameter_field()
    theta = K.generator
    pts = [
        (K.zero, K.one),  # t = 0
        (K.one, K.zero),  # s = 0
        (theta, K.one),  # t/s = theta... stored as (t-coordinate, s-coordinate)
        (theta.conjugate(), K.one),
    ]

    def bracket(p, q):
        return p[0] * q[1] - q[0] * p[1]

    quadratics = set()
    for p1, p2, p3, p4 in itertools.permutations(pts):
        num = bracket(p4, p1) * bracket(p2, p3)
        den = bracket(p4, p3) * bracket(p2, p1)
        alpha = num / den
        if alpha.coeffs[1]:
            quadratics.add(_normalize_quadratic(*_rational_trace_norm(alpha)))
    return sorted(quadratics)


def _rational_trace_norm(alpha):
    """-(alpha + alpha-bar) and alpha * alpha-bar, the coefficients of alpha's
    minimal polynomial, checked to lie in the base field."""
    conj = alpha.conjugate()
    (trace, t), (norm, n) = (alpha + conj).coeffs, (alpha * conj).coeffs
    if t or n:
        raise InvariantError(f"trace or norm of {alpha!r} is not in the base field")
    return -trace, norm


def _normalize_quadratic(b, c):
    """x^2 + bx + c times the least common denominator of b and c: integer
    coefficients without common factor, the leading one positive."""
    den = math.lcm(b.denominator, c.denominator)
    return (den, int(b * den), int(c * den))


def quadratic_discriminant(q):
    a, b, c = q
    return b * b - 4 * a * c


class ZeroInputError(ValueError):
    pass


def squarefree_core(n):
    """The squarefree d with n = d * m^2."""
    if n == 0:
        raise ZeroInputError("0 has no squarefree core")
    sign = -1 if n < 0 else 1
    n = abs(n)
    core = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            exp = 0
            while n % k == 0:
                n //= k
                exp += 1
            if exp % 2:
                core *= k
        k += 1
    return sign * core * n


# -- the weighted hypersurface over F_5 ----------------------------------------

WEIGHTED_VARS = ("s", "t", "x", "y")
WEIGHTS = (1, 1, 2, 3)


def weighted_surface_equation():
    """y^2 - (x^3 + 2t^4 x + 4s^5 t + 2t^6) over F_5, weighted degree 6."""
    F5 = PrimeField(5)
    s, t, x, y = Poly.gens(F5, WEIGHTED_VARS, WEIGHTS)
    return y**2 - (x**3 + 2 * t**4 * x + 4 * s**5 * t + 2 * t**6)


def weighted_member(i):
    F5 = PrimeField(5)
    s, t, x, y = Poly.gens(F5, WEIGHTED_VARS, WEIGHTS)
    if i == 2:
        return x - t * (s + 2 * t)
    if i == 3:
        return y - t * (x + t**2 + s * t + 3 * s**2)
    raise ValueError("only the degree-2 and degree-3 members are modeled")


@dataclass(frozen=True)
class WeightedMemberReport:
    i: int
    degree_ok: bool
    cusp_support_ok: bool
    smooth: bool


def weighted_member_check(i):
    """Checks the three claims for the member of weighted degree i:
    correct grading, intersection with the t = 0 cuspidal curve only at
    [1:0:0:0], and smoothness of the cut-out curve."""
    F = weighted_surface_equation()
    D = weighted_member(i)

    degree_ok = (
        D.is_weighted_homogeneous(i)
        and F.is_weighted_homogeneous(6)
    )

    # on t = 0 the member equation forces x = 0 (i = 2) or y = 0 (i = 3);
    # the surface equation must then pin the remaining coordinate to 0
    forced, other = ("x", "y") if i == 2 else ("y", "x")
    forced_gen = Poly.variable(F.field, WEIGHTED_VARS, forced, WEIGHTS)
    f0 = F.substitute({"t": 0, forced: 0})
    cusp_support_ok = (
        D.substitute({"t": 0}) == forced_gen
        and len(f0.terms) == 1
        and f0.degree(other) == f0.degree()
        and not f0.substitute({other: 0})
    )

    # the member solves for the forced coordinate, which turns the curve into
    # a sextic in the weighted plane on s, t and the other coordinate
    G = F.substitute({forced: forced_gen - D})
    if G.degree(forced) > 0:
        raise InvariantError(f"the degree-{i} member does not eliminate {forced}")
    return WeightedMemberReport(i, degree_ok, cusp_support_ok, _plane_sextic_smooth(G, other))


def _affine_chart_smooth(G, unit_var, coord):
    """No common zero of the chart restrictions of G and its partials, with
    the remaining weight-1 variable and coord as affine coordinates."""
    eqs = [
        p.substitute({unit_var: 1})
        for p in (G, G.derivative("s"), G.derivative("t"), G.derivative(coord))
    ]
    free = "t" if unit_var == "s" else "s"
    g = _common_factor(_eliminate(eqs, (coord,)), functools.partial(poly_gcd, var=free))
    if g is None:
        return False
    # the values of free that survive the resultant screen are only
    # candidates, refuted at once on the fibre over F_p[free]/(their
    # squarefree part); a gcd that meets a zero divisor splits the modulus,
    # and each part gets its own fibre.  Monic equations keep their degree on
    # every part
    moduli = [_dense(squarefree_part(g, free), free)] if g.degree() > 0 else []
    while moduli:
        K = SimpleExtension(g.field, moduli.pop())
        try:
            fibre = [f.monic() for e in eqs if (f := e.map_field(K).substitute({free: K.generator}))]
            common = _common_factor(fibre, functools.partial(poly_gcd, var=coord))
        except ZeroDivisorError as split:
            moduli.extend(split.args)
            continue
        if common is None or common.degree() > 0:
            return False
    return True


def _plane_sextic_smooth(G, coord):
    """Smoothness of the sextic G in the weighted plane on s, t and coord.
    Its weighted degree 6 is prime to 5, so the Euler relation makes the
    vanishing of all three partials the whole test.  The charts s != 0 and
    t != 0 cover everything except s = t = 0."""
    return (
        _affine_chart_smooth(G, "s", coord)
        and _affine_chart_smooth(G, "t", coord)
        and bool(G.substitute({"s": 0, "t": 0, coord: 1}))
    )
