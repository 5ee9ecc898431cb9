"""The cubic pencil s(Y^2-Z^2)(X+Y) + t(X^2-Z^2)(Y-X), its singular members,
the cross-ratio arithmetic of its four degenerate parameters, and the
characteristic-5 weighted hypersurface y^2 = x^3 + 2t^4 x + 4s^5 t + 2t^6
with its anticanonical members."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .fields import QQ, PrimeField, QuadraticExtension, QuadElement
from .poly import (
    ExactPolynomial as Poly,
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


def pencil_cubic(field):
    """The full two-parameter family as one polynomial in (s,t,X,Y,Z)."""
    s, t, X, Y, Z = Poly.gens(field, PENCIL_VARS)
    return s * (Y**2 - Z**2) * (X + Y) + t * (X**2 - Z**2) * (Y - X)


def _project_st(f):
    """Rewrite a polynomial involving only s,t into the 2-variable ring."""
    out = {}
    for e, c in f.terms:
        assert not any(e[2:])
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
    C = pencil_cubic(field)
    partials = [C.derivative(v) for v in ("X", "Y", "Z")]
    one = Poly.constant(field, PENCIL_VARS, 1)
    zero = Poly.zero(field, PENCIL_VARS)
    charts = [
        ({"Z": one}, ("X", "Y")),
        ({"Z": zero, "Y": one}, ("X",)),
        ({"Z": zero, "Y": zero, "X": one}, ()),
    ]
    total = one
    for sub, free in charts:
        eqs = [g.substitute(sub) for g in partials]
        eqs = [g for g in eqs if not g.is_zero()]
        for v in free:
            with_v = [g for g in eqs if g.degree(v) > 0]
            without = [g for g in eqs if g.degree(v) == 0]
            eqs = without + [
                r
                for a, b in itertools.combinations(with_v, 2)
                if not (r := resultant(a, b, v)).is_zero()
            ]
        locus = None
        for g in eqs:
            locus = g if locus is None else _binary_gcd(locus, g)
        if locus is not None and locus.degree() > 0:
            total = total * locus
    return _project_st(binary_squarefree(total, "s", "t"))


def _binary_gcd(f, g):
    """gcd of binary forms in (s, t): the common s- and t-powers times the
    univariate gcd of the dehomogenizations at t = 1."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    i_s = f.vars.index("s")
    i_t = f.vars.index("t")

    def split(h):
        smin = min(e[i_s] for e, _ in h.terms)
        tmin = min(e[i_t] for e, _ in h.terms)
        core = {}
        for e, c in h.terms:
            ee = list(e)
            ee[i_s] -= smin
            ee[i_t] = 0
            core[tuple(ee)] = c
        return smin, tmin, Poly.make(h.field, h.vars, core, h.weights)

    s1, t1, c1 = split(f)
    s2, t2, c2 = split(g)
    core = poly_gcd(c1, c2, "s")
    d = core.degree("s")
    out = {}
    for e, c in core.terms:
        ee = list(e)
        ee[i_t] = d - e[i_s]
        out[tuple(ee)] = c
    h = Poly.make(f.field, f.vars, out, f.weights)
    S = Poly.variable(f.field, f.vars, "s", f.weights)
    T = Poly.variable(f.field, f.vars, "t", f.weights)
    return h * S ** min(s1, s2) * T ** min(t1, t2)


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
    if isinstance(sv, QuadElement) or isinstance(tv, QuadElement):
        work = sv.field if isinstance(sv, QuadElement) else tv.field
        if work.base != field:
            raise TypeError("extension does not sit over the given field")
    else:
        work = field
    return work, work.coerce(sv), work.coerce(tv)


def _find_points(eqs, names, work):
    """Common zeros of the system in the affine plane with the given two
    coordinates, located through resultant gcds; degree-1 gcds pin the
    coordinates, higher degrees get reported as multiple points."""
    u, v = names
    with_u = [g for g in eqs if g.degree(u) > 0]
    flat = [g for g in eqs if g.degree(u) == 0]
    elim = flat + [
        r
        for a, b in itertools.combinations(with_u, 2)
        if not (r := resultant(a, b, u)).is_zero()
    ]
    gv = None
    for g in elim:
        gv = g if gv is None else poly_gcd(gv, g, v)
        if gv.degree(v) == 0 and not gv.is_zero():
            return []
    if gv is None or gv.is_zero():
        raise MultipleSingularPointsError("positive-dimensional singular locus")
    gv = squarefree_part(gv, v)
    if gv.degree(v) > 1:
        raise MultipleSingularPointsError(
            f"{gv.degree(v)} candidate singular values of {v}"
        )
    # one candidate value of v; pin u the same way
    v0 = -gv.coefficient(v, 0).evaluate({}) / gv.coefficient(v, 1).evaluate({})
    subbed = [g.substitute({v: Poly.constant(g.field, g.vars, v0)}) for g in eqs]
    gu = None
    for g in subbed:
        if g.is_zero():
            continue
        gu = g if gu is None else poly_gcd(gu, g, u)
    if gu is None:
        raise MultipleSingularPointsError(f"a whole line of singular points at {v}={v0}")
    if gu.degree(u) == 0:
        return []
    gu = squarefree_part(gu, u)
    if gu.degree(u) > 1:
        raise MultipleSingularPointsError(
            f"{gu.degree(u)} singular points share {v}={v0}"
        )
    u0 = -gu.coefficient(u, 0).evaluate({}) / gu.coefficient(u, 1).evaluate({})
    return [(u0, v0)]


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

    C = pencil_cubic(work)
    member = C.substitute(
        {"s": Poly.constant(work, PENCIL_VARS, sv), "t": Poly.constant(work, PENCIL_VARS, tv)}
    )
    partials = [member.derivative(v) for v in ("X", "Y", "Z")]
    one = Poly.constant(work, PENCIL_VARS, 1)
    zero = Poly.zero(work, PENCIL_VARS)
    points = []
    # disjoint charts Z != 0, then Z = 0 with Y != 0, then [1:0:0]
    sub = {"Z": one}
    eqs = [g.substitute(sub) for g in partials if not g.substitute(sub).is_zero()]
    for x0, y0 in _find_points(eqs, ("X", "Y"), work):
        points.append((x0, y0, work.one))
    sub = {"Z": zero, "Y": one}
    eqs = [g.substitute(sub) for g in partials]
    eqs = [g for g in eqs if not g.is_zero()]
    if eqs:
        with_x = [g for g in eqs if g.degree("X") > 0]
        gx = None
        for g in with_x:
            gx = g if gx is None else poly_gcd(gx, g, "X")
        consts = [g for g in eqs if g.degree("X") == 0]
        if not any(consts) and gx is not None and gx.degree("X") > 0:
            gx = squarefree_part(gx, "X")
            if gx.degree("X") > 1:
                raise MultipleSingularPointsError("several singular points at infinity")
            x0 = -gx.coefficient("X", 0).evaluate({}) / gx.coefficient("X", 1).evaluate({})
            points.append((x0, work.one, work.zero))
    if all(
        not g.substitute({"X": one, "Y": zero, "Z": zero}).evaluate({})
        for g in partials
    ):
        points.append((work.one, work.zero, work.zero))

    if not points:
        raise NotSingularMemberError("no singular point found (unexpected)")
    if len(points) > 1:
        raise MultipleSingularPointsError(f"{len(points)} singular points")
    point = points[0]
    return SingularMemberReport((sv, tv), point, _node_or_cusp(member, point, work))


def _node_or_cusp(member, point, work):
    """Rank of the quadratic part of the expansion at the singular point:
    a square (zero discriminant) means a cusp."""
    x0, y0, z0 = point
    # dehomogenize in a coordinate that is nonzero at the point
    if z0:
        chart, others = "Z", ("X", "Y")
    elif y0:
        chart, others = "Y", ("X", "Z")
    else:
        chart, others = "X", ("Y", "Z")
    coords = dict(zip(("X", "Y", "Z"), (x0, y0, z0)))
    scale = coords[chart]
    u, v = others
    u0, v0 = coords[u] / scale, coords[v] / scale
    U = Poly.variable(work, PENCIL_VARS, u)
    V = Poly.variable(work, PENCIL_VARS, v)
    local = member.substitute(
        {
            chart: Poly.constant(work, PENCIL_VARS, 1),
            u: U + u0,
            v: V + v0,
        }
    )
    iu, iv = PENCIL_VARS.index(u), PENCIL_VARS.index(v)
    quad = {}
    for e, c in local.terms:
        d = e[iu] + e[iv]
        assert d >= 2, "not a singular point"
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
    return QuadraticExtension(QQ, 11, -1, name="theta")


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
        u, v = alpha.u, alpha.v
        if not v:
            continue
        # x = u + v theta and its conjugate: sum 2u - 11v, product u^2 - 11uv - v^2
        trace = 2 * u - 11 * v
        norm = u * u - 11 * u * v - v * v
        quadratics.add(_normalize_quadratic(Fraction(1), -trace, norm))
    return sorted(quadratics)


def _normalize_quadratic(a, b, c):
    from math import gcd, lcm

    den = lcm(a.denominator, lcm(b.denominator, c.denominator))
    ai, bi, ci = (int(x * den) for x in (a, b, c))
    g = gcd(ai, gcd(bi, ci))
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0:
        ai, bi, ci = -ai, -bi, -ci
    return (ai, bi, ci)


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

    @property
    def all_ok(self):
        return self.degree_ok and self.cusp_support_ok and self.smooth


def _binary_form_squarefree(h, u, v):
    if h.is_zero():
        return False
    return binary_squarefree(h, u, v).degree() == h.degree()


def weighted_member_check(i):
    """Checks the three claims for the member of weighted degree i:
    correct grading, intersection with the t = 0 cuspidal curve only at
    [1:0:0:0], and smoothness of the cut-out curve."""
    F = weighted_surface_equation()
    D = weighted_member(i)
    field = F.field
    zero = Poly.zero(field, WEIGHTED_VARS, WEIGHTS)
    one = Poly.constant(field, WEIGHTED_VARS, 1, WEIGHTS)

    degree_ok = (
        D.is_weighted_homogeneous(i)
        and F.is_weighted_homogeneous(6)
    )

    # on t = 0 the member equation forces x = 0 (i = 2) or y = 0 (i = 3);
    # the surface equation must then pin the remaining coordinate to 0
    forced = "x" if i == 2 else "y"
    other = "y" if i == 2 else "x"
    d0 = D.substitute({"t": zero})
    x_gen = Poly.variable(field, WEIGHTED_VARS, forced, WEIGHTS)
    f0 = F.substitute({"t": zero, forced: zero})
    cusp_support_ok = (
        d0 == x_gen
        and len(f0.terms) == 1
        and f0.degree(other) == f0.degree()
        and not f0.substitute({other: zero})
    )

    if i == 2:
        # x = t(s + 2t) turns the curve into a double cover y^2 = h(s, t)
        sub = {"x": weighted_member(2).substitute({"x": zero}) * (-1)}
        g = F.substitute(sub)
        h = -(g - Poly.variable(field, WEIGHTED_VARS, "y", WEIGHTS) ** 2)
        assert g == Poly.variable(field, WEIGHTED_VARS, "y", WEIGHTS) ** 2 - h
        smooth = _binary_form_squarefree(h, "s", "t")
    else:
        # y = t(x + t^2 + st + 3s^2) turns the curve into a plane sextic in
        # P(1, 1, 2); its weighted degree 6 is prime to 5, so the Euler
        # relation makes the vanishing of all three partials the whole test
        ysub = Poly.variable(field, WEIGHTED_VARS, "y", WEIGHTS) - weighted_member(3)
        G = F.substitute({"y": ysub})
        assert G.degree("y") == 0
        smooth = _plane_sextic_smooth(G)
    return WeightedMemberReport(i, degree_ok, cusp_support_ok, smooth)


def _affine_chart_smooth(G, unit_var, coord):
    """No common zero of the chart restrictions of G and its partials, with
    the remaining weight-1 variable and coord as affine coordinates."""
    field = G.field
    one = Poly.constant(field, WEIGHTED_VARS, 1, WEIGHTS)
    eqs = [
        p.substitute({unit_var: one})
        for p in (G, G.derivative("s"), G.derivative("t"), G.derivative(coord))
    ]
    eqs = [e for e in eqs if not e.is_zero()]
    free = "t" if unit_var == "s" else "s"
    with_c = [e for e in eqs if e.degree(coord) > 0]
    flat = [e for e in eqs if e.degree(coord) == 0]
    elim = flat + [
        r
        for a, b in itertools.combinations(with_c, 2)
        if not (r := resultant(a, b, coord)).is_zero()
    ]
    g = None
    for e in elim:
        g = e if g is None else poly_gcd(g, e, free)
        if not g.is_zero() and g.degree(free) == 0:
            return True
    if g is None or g.is_zero():
        return False
    # candidate values survive the resultant screen; confirm none is an
    # actual common zero (the screen is only necessary, not sufficient)
    g = squarefree_part(g, free)
    for root in _roots_in_prime_field(g, free):
        sub = {free: Poly.constant(field, WEIGHTED_VARS, root, WEIGHTS)}
        fibre = None
        for e in eqs:
            ev = e.substitute(sub)
            if ev.is_zero():
                continue
            fibre = ev if fibre is None else poly_gcd(fibre, ev, coord)
        if fibre is None or fibre.degree(coord) > 0:
            return False
        if not fibre:
            return False
    # roots outside the prime field: the gcd screen alone is inconclusive,
    # but a nontrivial common factor of all eliminants would have shown up
    # as a positive-degree fibre gcd above for its rational specializations;
    # fall back to pairing each candidate factor against the full system
    deg = g.degree(free)
    if deg > len(list(_roots_in_prime_field(g, free))):
        return _confirm_no_extension_zero(eqs, g, free, coord)
    return True


def _roots_in_prime_field(g, var):
    p = g.field.characteristic
    for r in range(p):
        c = g.field.coerce(r)
        val = g.field.zero
        i = g.vars.index(var)
        for e, coeff in g.terms:
            val = val + coeff * c ** e[i]
        if not val:
            yield c


def _confirm_no_extension_zero(eqs, g, free, coord):
    """Screen the candidate parameter values lying in a quadratic extension
    of F_p: after stripping prime-field roots, a degree-2 residual factor of
    g is adjoined as a field generator and the system's gcd in coord is
    recomputed there.  Higher residual degrees do not occur for the curves
    modeled here."""
    dense = [g.coefficient(free, k).evaluate({}) for k in range(g.degree(free) + 1)]
    for r in _roots_in_prime_field(g, free):
        out = []
        carry = g.field.zero
        for c in reversed(dense):
            carry = c + carry * r
            out.append(carry)
        dense = list(reversed(out[:-1]))
    if len(dense) == 1:
        return True
    if len(dense) != 3:
        raise NotImplementedError("residual candidate factor of degree > 2")
    c2, c1, c0 = dense[2], dense[1], dense[0]
    K = QuadraticExtension(g.field, (c1 / c2).val, (c0 / c2).val)
    root = K.generator
    ifree = g.vars.index(free)
    icoord = g.vars.index(coord)
    common = None
    for e in eqs:
        acc = {}
        for exp, c in e.terms:
            val = K.coerce(c.val) * root ** exp[ifree]
            key = (0,) * icoord + (exp[icoord],) + (0,) * (len(g.vars) - icoord - 1)
            acc[key] = acc.get(key, K.zero) + val
        lifted = Poly.make(K, g.vars, acc, g.weights)
        if lifted.is_zero():
            continue
        common = lifted if common is None else poly_gcd(common, lifted, coord)
        if common.degree(coord) == 0:
            return True
    return common is not None and common.degree(coord) == 0


def _plane_sextic_smooth(G):
    field = G.field
    # charts s != 0 and t != 0 cover everything except [0:0:1]
    if not _affine_chart_smooth(G, "s", "x"):
        return False
    if not _affine_chart_smooth(G, "t", "x"):
        return False
    zero = Poly.zero(field, WEIGHTED_VARS, WEIGHTS)
    one = Poly.constant(field, WEIGHTED_VARS, 1, WEIGHTS)
    at_point = G.substitute({"s": zero, "t": zero, "x": one})
    return bool(at_point)
