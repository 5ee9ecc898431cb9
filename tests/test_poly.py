import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from ldp.fields import QQ, PrimeField, QuadraticExtension
from ldp.poly import (
    ExactPolynomial as Poly,
    binary_gcd,
    binary_squarefree,
    poly_divmod,
    poly_gcd,
    poly_to_json,
    resultant,
    squarefree_part,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a = F.coerce(3)
    b = F.coerce(5)
    assert (a + b).val == 1
    assert (a * b).val == 1
    assert (a / b).val == (a * F.coerce(3)).val  # 5^{-1} = 3 mod 7
    assert not F.coerce(0)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_fraction_coercion_mod_p():
    F = PrimeField(5)
    assert F.coerce(Fraction(1, 2)).val == 3


def test_quadratic_extension_norm():
    ext = QuadraticExtension(QQ, 11, -1, name="r")
    r = ext.generator
    assert r * r == -11 * r + 1
    assert r * r.conjugate() == ext.coerce(-1)
    assert (r / r) == ext.one


def test_field_elements_equal_only_their_own_field_and_hash_alike():
    F5, F7 = PrimeField(5), PrimeField(7)
    K = QuadraticExtension(QQ, 11, -1)
    L = QuadraticExtension(F5, 0, -2)  # 𝔽₅(√2)
    M = QuadraticExtension(F5, 0, -3)  # 𝔽₅(√3)
    values = [0, 1, 2, 5, 12, Fraction(1, 2), Fraction(5)]
    values += [F.coerce(c) for F in (F5, F7) for c in (0, 1, 2, 5, 12)]
    values += [E.coerce(c) for E in (K, L, M) for c in (0, 1, 2, Fraction(1, 2))]
    values += [K.generator, L.generator, M.generator]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert F5.one != 1 and 1 not in {F5.one}
    assert F5.coerce(12) == F5.coerce(2) and F7.coerce(12) != F5.coerce(2)
    assert K.one != 1 and L.one != F5.one and L.one != M.one
    # arithmetic still lifts ints into the field; a comparison needs coerce
    assert F5.one + 1 == F5.coerce(2) and 7 - F5.one == F5.coerce(1)
    assert L.generator**2 != 2 and L.generator**2 == L.coerce(2)
    assert K.generator * K.generator == -11 * K.generator + 1


def test_field_division_is_total_over_the_operands_the_other_operators_lift():
    F5 = PrimeField(5)
    K = QuadraticExtension(QQ, 11, -1)
    L = QuadraticExtension(F5, 0, -2)  # 𝔽₅(√2)
    # the reflected quotient lifts an int or a base element as - does
    assert 3 / F5.coerce(2) == F5.coerce(3) / 2 == F5.coerce(4)
    assert 1 / L.generator == L.one / L.generator == L.generator / 2
    assert F5.one / L.generator == 1 / L.generator and F5.one - L.generator == 1 - L.generator
    assert 1 / K.generator == K.one / K.generator == K.generator + 11
    # an operand no operator lifts is refused by / as by +
    half = Fraction(1, 2)
    with pytest.raises(TypeError, match=r"for \+: 'FpElement' and 'Fraction'"):
        F5.one + half
    with pytest.raises(TypeError, match="for /: 'FpElement' and 'Fraction'"):
        F5.one / half
    # zero has no inverse, by / or by a negative power
    for zero, one in ((F5.zero, F5.one), (L.zero, L.one)):
        for quotient in (lambda: zero**-1, lambda: 1 / zero, lambda: one / zero):
            with pytest.raises(ZeroDivisionError):
                quotient()


def _to_sympy(p, symbols):
    out = 0
    for exp, c in p.terms:
        term = sympy.Rational(str(c))
        for s, k in zip(symbols, exp):
            term *= s**k
        out += term
    return out


coeffs = st.integers(min_value=-6, max_value=6)


@given(st.lists(coeffs, min_size=2, max_size=4), st.lists(coeffs, min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_resultant_matches_sympy(cs1, cs2):
    x = sympy.Symbol("x")
    f = Poly.zero(QQ, ("x",))
    g = Poly.zero(QQ, ("x",))
    xv = Poly.variable(QQ, ("x",), "x")
    for k, c in enumerate(cs1):
        f = f + Poly.constant(QQ, ("x",), c) * xv**k
    for k, c in enumerate(cs2):
        g = g + Poly.constant(QQ, ("x",), c) * xv**k
    if f.degree("x") < 1 or g.degree("x") < 1:
        return
    ours = resultant(f, g, "x").evaluate({})
    # the determinant of sympy's Sylvester matrix, not sympy.resultant: that
    # one has the opposite sign when deg f = 1 and deg g = 3 (for f = 1 - 3x,
    # g = 4x^3 + 6 it gives 166; the determinant and lc(f)^3 g(1/3) give -166)
    theirs = sylvester(_to_sympy(f, [x]), _to_sympy(g, [x]), x, 1).det()
    assert ours == Fraction(str(theirs))


def test_gcd_example():
    s, = Poly.gens(QQ, ("s",))
    f = (s - 1) ** 2 * (s + 2)
    g = (s - 1) * (s + 3)
    assert poly_gcd(f, g, "s") == (s - 1).monic()


def test_squarefree_part_char_zero():
    s, = Poly.gens(QQ, ("s",))
    f = (s - 1) ** 3 * (s + 2)
    assert squarefree_part(f, "s") == ((s - 1) * (s + 2)).monic()


def test_squarefree_part_char_p_frobenius():
    # f = (s^5 - s) = product of all linear factors over F_5, already squarefree;
    # f^5 has derivative zero and needs the p-th root path
    F = PrimeField(5)
    s, = Poly.gens(F, ("s",))
    f = s**5 - s
    assert squarefree_part(f**5, "s") == f.monic()


def test_binary_squarefree_keeps_radical():
    s, t = Poly.gens(QQ, ("s", "t"))
    h = s**2 * t * (s + t) ** 3
    red = binary_squarefree(h, "s", "t")
    assert red == (s * t * (s + t)).monic()


linear_forms = st.lists(st.tuples(coeffs, coeffs).filter(any), min_size=0, max_size=4)


@settings(max_examples=40, deadline=None)
@given(linear_forms, linear_forms, linear_forms)
def test_binary_gcd_matches_sympy(common, left, right):
    s, t = Poly.gens(QQ, ("s", "t"))
    S, T = sympy.symbols("s t")

    def form(factors):
        out = Poly.constant(QQ, ("s", "t"), 1)
        for a, b in factors:
            out = out * (a * s + b * t)
        return out

    f, g = form(common + left), form(common + right)
    expected = sympy.Poly(sympy.gcd(_to_sympy(f, (S, T)), _to_sympy(g, (S, T))), S, T, domain="QQ")
    ours = binary_gcd(f, g, "s", "t")
    assert sympy.Poly(_to_sympy(ours, (S, T)), S, T, domain="QQ") == expected.monic()


def test_weighted_homogeneity():
    F = PrimeField(5)
    s, t, x, y = Poly.gens(F, ("s", "t", "x", "y"), (1, 1, 2, 3))
    f = y**2 - x**3 - s**2 * t**4
    assert f.is_weighted_homogeneous(6)
    assert not (y + x).is_weighted_homogeneous(3)


def test_substitute_and_evaluate():
    s, t = Poly.gens(QQ, ("s", "t"))
    f = s**2 + t
    g = f.substitute({"t": s + Poly.constant(QQ, ("s", "t"), 1)})
    assert g.evaluate({"s": Fraction(2)}) == 7


# -- the kernel against sympy, over QQ and F_p ------------------------------------

FIELDS = (QQ, PrimeField(5), PrimeField(7))
NAMES = ("x", "y", "z", "w")

fields = st.sampled_from(FIELDS)
sparse_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), st.integers(-5, 5), max_size=4
)


def _poly(field, terms, nvars):
    """The polynomial with these terms in the first nvars of NAMES; exponents
    past nvars are dropped."""
    out = {}
    for e, c in terms.items():
        out[e[:nvars]] = out.get(e[:nvars], 0) + c
    return Poly.make(field, NAMES[:nvars], out)


def _sympy_field(field):
    return {"domain": "QQ"} if field == QQ else {"modulus": field.characteristic}


def _sympy_poly(p, gens=None):
    """p as a sympy Poly over the same field, in gens (default: all of p's
    variables, in order)."""
    symbols = sympy.symbols(p.vars)
    gens = symbols if gens is None else [symbols[p.vars.index(v)] for v in gens]
    return sympy.Poly(_to_sympy(p, symbols), *gens, **_sympy_field(p.field))


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(3, 4), sparse_terms, sparse_terms, st.integers(0, 4))
def test_products_and_powers_match_sympy(field, nvars, t1, t2, k):
    f, g = _poly(field, t1, nvars), _poly(field, t2, nvars)
    assert _sympy_poly(f * g) == _sympy_poly(f) * _sympy_poly(g)
    assert _sympy_poly(f**k) == _sympy_poly(f) ** k
    assert _sympy_poly(f + g) == _sympy_poly(f) + _sympy_poly(g)
    assert _sympy_poly(f - g) == _sympy_poly(f) - _sympy_poly(g)


# each variable keeps its place, takes a constant, or takes a polynomial:
# another variable (so permutations such as a swap), or a drawn polynomial
values = st.one_of(
    st.none(),
    st.integers(-4, 4),
    st.sampled_from(NAMES[:3]),
    sparse_terms,
)


@settings(max_examples=60, deadline=None)
@given(fields, sparse_terms, st.tuples(values, values, values))
def test_substitute_matches_sympy(field, terms, choice):
    f = _poly(field, terms, 3)
    symbols = sympy.symbols(f.vars)
    gens = dict(zip(f.vars, Poly.gens(field, f.vars)))
    ours, theirs = {}, {}
    for v, s, x in zip(f.vars, symbols, choice):
        if x is None:
            continue
        if isinstance(x, int):
            ours[v], theirs[s] = x, x
        elif isinstance(x, str):
            ours[v], theirs[s] = gens[x], symbols[f.vars.index(x)]
        else:
            value = _poly(field, x, 3)
            ours[v], theirs[s] = value, _to_sympy(value, symbols)
    expected = sympy.sympify(_to_sympy(f, symbols)).xreplace(theirs)
    assert _sympy_poly(f.substitute(ours)) == sympy.Poly(expected, *symbols, **_sympy_field(field))


def test_substitute_is_simultaneous():
    for field in FIELDS:
        x, y, z = Poly.gens(field, NAMES[:3])
        f = x**2 * y + 3 * y - z
        assert f.substitute({"x": y, "y": x}) == y**2 * x + 3 * x - z
        assert f.substitute({"x": y, "y": x, "z": 2}) == y**2 * x + 3 * x - 2
        assert f.substitute({"x": x + y, "y": 0}) == -z


@settings(max_examples=40, deadline=None)
@given(fields, sparse_terms, sparse_terms)
def test_multivariate_resultant_matches_sympy(field, t1, t2):
    f, g = _poly(field, t1, 3), _poly(field, t2, 3)
    assume(f.degree("x") >= 1 and g.degree("x") >= 1)
    ours = resultant(f, g, "x")
    assert ours.degree("x") <= 0
    # sympy eliminates the first generator, x; same sign convention
    theirs = _sympy_poly(f).resultant(_sympy_poly(g)).as_expr()
    assert _sympy_poly(ours, ("y", "z")) == sympy.Poly(theirs, *sympy.symbols("y z"),
                                                       **_sympy_field(field))


# -- resultants against the Sylvester determinant in the ring's own arithmetic ----


def _ring_det(rows, one):
    """Determinant by memoized Laplace expansion along the rows, of a square
    matrix of polynomials from one ring, with + and * of that ring."""
    memo = {}

    def minor(r, cs):
        if not cs:
            return one
        if cs not in memo:
            total = one * 0
            for k, c in enumerate(cs):
                if rows[r][c]:
                    term = rows[r][c] * minor(r + 1, cs[:k] + cs[k + 1 :])
                    total = total - term if k % 2 else total + term
            memo[cs] = total
        return memo[cs]

    return minor(0, tuple(range(len(rows))))


def _sylvester_det(f, g, var):
    """The reference resultant: the determinant of the Sylvester matrix."""
    m, n = f.degree(var), g.degree(var)
    zero = f * 0
    fc = [f.coefficient(var, k) for k in range(m, -1, -1)]
    gc = [g.coefficient(var, k) for k in range(n, -1, -1)]
    rows = [[zero] * r + fc + [zero] * (n - 1 - r) for r in range(n)]
    rows += [[zero] * r + gc + [zero] * (m - 1 - r) for r in range(m)]
    return _ring_det(rows, Poly.constant(f.field, f.vars, 1))


F5_SQRT2 = QuadraticExtension(PrimeField(5), 0, -2)  # theta^2 = 2, a non-square mod 5
RESULTANT_FIELDS = (QQ, PrimeField(5), PrimeField(7), QuadraticExtension(QQ, 11, -1), F5_SQRT2)


def _element(field, a, b, d):
    """a/d + b*theta in an extension, a/d in QQ; over F_p only a and b."""
    extension = isinstance(field, QuadraticExtension)
    u = Fraction(a, d) if (field.base if extension else field) == QQ else a
    return field.coerce(u) + field.generator * b if extension else u


coded_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(coeffs, coeffs, st.integers(1, 12)),
    max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RESULTANT_FIELDS), coded_terms, coded_terms)
def test_resultant_matches_sylvester_determinant(field, t1, t2):
    f, g = (
        Poly.make(field, NAMES[:3], {e: _element(field, *c) for e, c in t.items()})
        for t in (t1, t2)
    )
    assume(f and g)
    assert resultant(f, g, "x") == _sylvester_det(f, g, "x")
    assert resultant(f, g, "y") == _sylvester_det(f, g, "y")


def test_resultant_with_a_side_free_of_the_variable():
    for field in RESULTANT_FIELDS:
        x, y = Poly.gens(field, ("x", "y"))
        f, c = x**2 * y + 3 * x + y, y**2 + field.one / 2
        # deg_x c = 0: the Sylvester matrix is c times the identity
        assert resultant(f, c, "x") == resultant(c, f, "x") == c**2 == _sylvester_det(f, c, "x")
        assert resultant(c, c, "x") == Poly.constant(field, ("x", "y"), 1)


def test_resultant_keeps_exponents_beyond_16_bits():
    for field in (QQ, PrimeField(7), F5_SQRT2):
        x, y, z = Poly.gens(field, NAMES[:3])
        f, g = z * x + y**70000, x**2 + z**3 * y
        expected = z**5 * y + y**140000
        assert resultant(f, g, "x") == expected == _sylvester_det(f, g, "x")


def test_resultant_of_zero_raises():
    x, y = Poly.gens(PrimeField(5), ("x", "y"))
    zero = Poly.zero(PrimeField(5), ("x", "y"))
    for f, g in ((zero, x + y), (x + y, zero), (zero, zero)):
        with pytest.raises(ValueError, match="zero polynomial"):
            resultant(f, g, "x")


# -- dense univariate division against sympy ------------------------------------

dense = st.lists(coeffs, max_size=6)


def _univariate(field, coeffs_low_first):
    return Poly.make(field, ("x",), {(k,): c for k, c in enumerate(coeffs_low_first)})


@settings(max_examples=80, deadline=None)
@given(fields, dense, dense, dense)
def test_dense_division_and_gcd_match_sympy(field, a, b, c):
    f, g, common = (_univariate(field, cs) for cs in (a, b, c))
    F, G = _sympy_poly(f), _sympy_poly(g)
    if g:
        q, r = poly_divmod(f, g, "x")
        Q, R = sympy.div(F, G)
        assert (_sympy_poly(q), _sympy_poly(r)) == (Q, R)
    F, G = _sympy_poly(f * common), _sympy_poly(g * common)
    expected = F.gcd(G)
    assert _sympy_poly(poly_gcd(f * common, g * common, "x")) == (
        expected.monic() if expected else expected
    )


def test_dense_division_edge_cases():
    for field in FIELDS:
        x, y = Poly.gens(field, ("x", "y"))
        zero = x * 0
        f = 2 * x**3 + x + 4
        # a dividend of lower degree than the divisor is its own remainder
        assert poly_divmod(x + 1, f, "x") == (zero, x + 1)
        # a constant divisor leaves no remainder
        three = zero + 3
        assert poly_divmod(f, three, "x") == (f * (field.one / 3), zero)
        assert poly_divmod(zero, f, "x") == (zero, zero)
        assert poly_gcd(zero, zero, "x") == zero
        assert poly_gcd(zero, f, "x") == poly_gcd(f, zero, "x") == f.monic()
        assert poly_gcd(f, three, "x") == zero + 1
        with pytest.raises(ZeroDivisionError):
            poly_divmod(f, zero, "x")
        for left, right in ((f * y, x), (f, x + y)):
            with pytest.raises(ValueError, match="not univariate"):
                poly_divmod(left, right, "x")
            with pytest.raises(ValueError, match="not univariate"):
                poly_gcd(left, right, "x")


def test_powers_by_squaring_match_repeated_products():
    K = QuadraticExtension(QQ, 11, -1)
    r = K.generator + 2
    x, y = Poly.gens(PrimeField(7), ("x", "y"))
    f = x + 3 * y + 1
    acc_r, acc_f = K.one, Poly.constant(PrimeField(7), ("x", "y"), 1)
    for n in range(13):
        assert r**n == acc_r and f**n == acc_f
        acc_r, acc_f = acc_r * r, acc_f * f
    assert r**-3 * r**3 == K.one
    with pytest.raises(ValueError, match="negative power"):
        f**-1


def test_make_validates_outside_input():
    with pytest.raises(ValueError, match="arity"):
        Poly.make(QQ, ("x", "y"), {(1,): 1})
    with pytest.raises(ValueError, match="arity"):
        Poly.make(PrimeField(5), ("x",), {(1, 0): 1})
    with pytest.raises(ValueError, match="negative"):
        Poly.make(QQ, ("x", "y"), {(1, -1): 1})
    # a term map from outside is coerced and summed, and zeros are dropped
    f = Poly.make(PrimeField(5), ("x",), {(1,): 3, ("1",): 2, (0,): "1/2"})
    assert f.terms == (((0,), PrimeField(5).coerce(3)),)


def test_poly_to_json_writes_coefficients_as_strings():
    s, t, x, y = Poly.gens(PrimeField(5), ("s", "t", "x", "y"), (1, 1, 2, 3))
    assert poly_to_json(y**2 - x**3 + 2 * s * t * x) == {
        "vars": ["s", "t", "x", "y"],
        "terms": [
            {"exp": [1, 1, 1, 0], "coeff": "2"},
            {"exp": [0, 0, 3, 0], "coeff": "4"},
            {"exp": [0, 0, 0, 2], "coeff": "1"},
        ],
        "weights": [1, 1, 2, 3],
    }
    # over QQ a coefficient is written as "p/q", and unweighted forms have no weights
    u, v = Poly.gens(QQ, ("u", "v"))
    assert poly_to_json(Fraction(1, 2) * u * v - 3) == {
        "vars": ["u", "v"],
        "terms": [{"exp": [1, 1], "coeff": "1/2"}, {"exp": [0, 0], "coeff": "-3"}],
    }


# Each case breaks one invariant, by a bad input or by swapping one name for
# a fake, then calls the code that must notice.  Under -O an assert would not.
_BROKEN_INVARIANTS = """
import json, sys
from ldp import pencil, poly
from ldp.fields import QQ, PrimeField, QuadElement, QuadraticExtension
from ldp.graphs import InvariantError

F5 = PrimeField(5)
Poly = poly.ExactPolynomial
x, = Poly.gens(F5, ("x",))
s, t = Poly.gens(QQ, ("s", "t"))
member = pencil.pencil_cubic(F5).substitute({"s": 1, "t": 1})
sextic_zero = lambda i: Poly.zero(F5, pencil.WEIGHTED_VARS, pencil.WEIGHTS)
cases = {
    "pencil: locus only in s and t": (None, None, None,
                                      lambda: pencil._project_st(pencil.pencil_cubic(QQ))),
    # [1:1:1] is a base point, hence a smooth point, of the member at [1:1]
    "pencil: singular point": (None, None, None,
                               lambda: pencil._node_or_cusp(member, (F5.one,) * 3, F5)),
    "pencil: member eliminates y": (pencil, "weighted_member", sextic_zero,
                                    lambda: pencil.weighted_member_check(3)),
    "poly: p-th power": (None, None, None, lambda: poly._pth_root(x**5 + x, "x")),
    "poly: derivative in char 0": (Poly, "derivative", lambda self, var: Poly.zero(QQ, self.vars),
                                   lambda: poly.squarefree_part(s**2, "s")),
    "poly: binary form": (None, None, None, lambda: poly.binary_squarefree(s**2 + t, "s", "t")),
    "fields: norm in the base field": (QuadElement, "conjugate", lambda self: self,
                                       lambda: QuadraticExtension(QQ, 11, -1).generator.norm()),
}
fired = {}
for name, (owner, attr, fake, call) in cases.items():
    if owner is not None:
        original = getattr(owner, attr)
        setattr(owner, attr, fake)
    try:
        call()
        fired[name] = False
    except InvariantError:
        fired[name] = True
    finally:
        if owner is not None:
            setattr(owner, attr, original)
print(json.dumps({"optimize": sys.flags.optimize, "fired": fired}))
"""


def test_invariant_checks_survive_python_o():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert len(out["fired"]) == 7
    assert all(out["fired"].values()), out["fired"]
