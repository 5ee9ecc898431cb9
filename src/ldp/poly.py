"""Sparse multivariate polynomials with exact coefficients.

Terms map exponent tuples to nonzero field elements.  Enough machinery for
the curve computations here: arithmetic, substitution, derivatives,
resultants by Sylvester determinant, univariate gcd and squarefree parts
(with the Frobenius splitting needed in characteristic p), the same two for
binary forms through one dehomogenize/rehomogenize pair, and an optional
weighting of the variables for weighted-homogeneity checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .fields import QQ, FpElement, PrimeField, _dense_divmod
from .graphs import InvariantError


@dataclass(frozen=True)
class ExactPolynomial:
    field: object
    vars: tuple
    terms: tuple  # sorted tuple of (exponent tuple, coefficient)
    weights: tuple = None

    @staticmethod
    def make(field, vars, termmap, weights=None):
        vars = tuple(vars)
        clean = {}
        for exp, c in termmap.items():
            exp = tuple(int(x) for x in exp)
            if len(exp) != len(vars):
                raise ValueError("exponent arity mismatch")
            if any(x < 0 for x in exp):
                raise ValueError("negative exponent")
            c = field.coerce(c)
            if exp in clean:
                c = clean[exp] + c
            if c:
                clean[exp] = c
            else:
                clean.pop(exp, None)
        return ExactPolynomial(
            field, vars, _sorted_terms(clean), tuple(weights) if weights else None
        )

    def _new(self, clean):
        """A polynomial of this ring from a term map that is already clean:
        exponent tuples of the ring's arity, nonzero field elements.  Only
        sorts; `make` is the constructor for any other input."""
        return ExactPolynomial(self.field, self.vars, _sorted_terms(clean), self.weights)

    @staticmethod
    def zero(field, vars, weights=None):
        return ExactPolynomial.make(field, vars, {}, weights)

    @staticmethod
    def constant(field, vars, c, weights=None):
        return ExactPolynomial.make(field, vars, {(0,) * len(vars): c}, weights)

    @staticmethod
    def variable(field, vars, name, weights=None):
        vars = tuple(vars)
        exp = tuple(1 if v == name else 0 for v in vars)
        if sum(exp) != 1:
            raise ValueError(f"unknown variable {name!r}")
        return ExactPolynomial.make(field, vars, {exp: 1}, weights)

    @staticmethod
    def gens(field, names, weights=None):
        return [ExactPolynomial.variable(field, names, n, weights) for n in names]

    # -- ring structure ------------------------------------------------------

    def _same_ring(self, other):
        if isinstance(other, ExactPolynomial):
            if other.vars != self.vars or other.field != self.field:
                raise ValueError("polynomials from different rings")
            return other
        return ExactPolynomial.constant(self.field, self.vars, other, self.weights)

    def __add__(self, other):
        out = dict(self.terms)
        _accumulate(out, self._same_ring(other).terms)
        return self._new(_nonzero(out))

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-self._same_ring(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, ExactPolynomial):
            c = self.field.coerce(other)
            return self._new({e: p for e, k in self.terms if (p := k * c)})
        out = {}
        _add_products(out, self.terms, self._same_ring(other).terms)
        return self._new(_nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ExactPolynomial.constant(self.field, self.vars, 1, self.weights)
        square = self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- inspection ------------------------------------------------------------

    def degree(self, var=None):
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e, _ in self.terms)
        i = self.vars.index(var)
        return max(e[i] for e, _ in self.terms)

    def is_weighted_homogeneous(self, d=None):
        if self.weights is None:
            raise ValueError("no weights attached")
        degs = {sum(x * w for x, w in zip(e, self.weights)) for e, _ in self.terms}
        if d is None:
            return len(degs) <= 1
        return degs <= {d}

    def coefficient(self, var, k):
        """Coefficient of var^k, a polynomial in the remaining variables kept
        in the same ring."""
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms:
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1 :]] = c
        return self._new(out)

    def derivative(self, var):
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms:
            if e[i] and (d := c * e[i]):
                out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = d
        return self._new(out)

    def substitute(self, assignment):
        """Replace variables by field elements or polynomials of this ring,
        all at once: {X: Y, Y: X} swaps X and Y.  Field-element values fold
        into the coefficients; polynomial values are multiplied in from one
        table of powers per variable."""
        consts, polys = {}, {}
        for i, v in enumerate(self.vars):
            if v in assignment:
                x = assignment[v]
                if isinstance(x, ExactPolynomial):
                    polys[i] = self._same_ring(x)
                else:
                    consts[i] = self.field.coerce(x)
        if not self.terms or not (consts or polys):
            return self
        one = ExactPolynomial.constant(self.field, self.vars, 1, self.weights)
        powers = {}
        for i, x in {**consts, **polys}.items():
            table = [one if i in polys else self.field.one]
            for _ in range(max(e[i] for e, _ in self.terms)):
                table.append(table[-1] * x)
            powers[i] = table
        # group the terms by the exponents of the polynomial-valued variables,
        # with every substituted exponent cleared and the constants folded in
        groups = {}
        for e, c in self.terms:
            rest = list(e)
            for i in consts:
                if e[i]:
                    c = c * powers[i][e[i]]
                    rest[i] = 0
            for i in polys:
                rest[i] = 0
            group = groups.setdefault(tuple(e[i] for i in polys), {})
            rest = tuple(rest)
            group[rest] = group[rest] + c if rest in group else c
        out = {}
        for key, group in groups.items():
            group = _nonzero(group)
            if group:
                term = self._new(group)
                for i, k in zip(polys, key):
                    if k:
                        term = term * powers[i][k]
                _accumulate(out, term.terms)
        return self._new(_nonzero(out))

    def evaluate(self, assignment):
        """Full evaluation to a field element."""
        r = self.substitute(assignment)
        if r.degree() > 0:
            raise ValueError("not all variables assigned")
        return r.terms[0][1] if r.terms else self.field.zero

    def leading_coefficient(self):
        """Coefficient of the lex-largest monomial (variable order as given)."""
        if not self.terms:
            raise ValueError("zero polynomial")
        return self.terms[0][1]

    def monic(self):
        lc = self.leading_coefficient()
        one = self.field.one
        if lc == one:
            return self
        inv = one / lc
        return self * inv

    def map_field(self, field):
        """Recoerce all coefficients into another field (e.g. QQ -> F_p)."""
        return ExactPolynomial.make(
            field, self.vars, {e: field.coerce(_to_fraction(c)) for e, c in self.terms},
            self.weights,
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms:
            mon = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            bits.append(f"({c}){'*' + mon if mon else ''}")
        return " + ".join(bits)


def _sorted_terms(clean):
    return tuple(sorted(clean.items(), reverse=True))


def _accumulate(out, terms):
    """Add (exponent, coefficient) pairs into the term map out; sums that
    vanish stay until `_nonzero` drops them."""
    for e, c in terms:
        out[e] = out[e] + c if e in out else c


def _add_products(out, terms1, terms2):
    """Add the product of every term in terms1 with every term in terms2
    into the term map out."""
    add = operator.add
    for e1, c1 in terms1:
        for e2, c2 in terms2:
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            out[e] = out[e] + c if e in out else c


def _nonzero(termmap):
    return {e: c for e, c in termmap.items() if c}


def _to_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, FpElement):
        return Fraction(c.val)
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot lift {c!r}")


# -- resultants ---------------------------------------------------------------


def resultant(f, g, var):
    """Res_var(f, g) as a polynomial in the remaining variables (same ring):
    the Sylvester determinant by memoized Laplace expansion along the rows.

    The expansion runs on term maps keyed by one packed int per monomial
    (var's slot dropped; each slot is wide enough for the degree bound of the
    determinant) with integer codes for the coefficients: over QQ the
    numerators of f and g scaled by the lcm of their own denominators, over
    F_p residues reduced once per minor; other fields keep their elements."""
    f._same_ring(g)
    m, n = f.degree(var), g.degree(var)
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    field, i = f.field, f.vars.index(var)
    slots = [j for j in range(len(f.vars)) if j != i]
    top = [max((e[j] for e, _ in h.terms for j in slots), default=0) for h in (f, g)]
    width = (n * top[0] + m * top[1]).bit_length()
    p = field.p if isinstance(field, PrimeField) else None
    if field == QQ:
        lam, mu = (lcm(*(c.denominator for _, c in h.terms)) for h in (f, g))
        codes = [lambda c, s=s: c.numerator * (s // c.denominator) for s in (lam, mu)]
        scale, one = lam**n * mu**m, 1
        decode = lambda c: Fraction(c, scale)
    elif p:
        codes, one = [operator.attrgetter("val")] * 2, 1
        decode = lambda c: FpElement(p, c)
    else:
        codes, one = [lambda c: c] * 2, field.one
        decode = codes[0]

    def band(h, d, code):
        """h's coefficients of var^d, ..., var^0 as coded term maps."""
        cols = [{} for _ in range(d + 1)]
        for e, c in h.terms:
            cols[d - e[i]][sum(e[j] << (width * k) for k, j in enumerate(slots))] = code(c)
        return cols

    fc, gc = band(f, m, codes[0]), band(g, n, codes[1])
    rows = [[{}] * r + fc + [{}] * (n - 1 - r) for r in range(n)]
    rows += [[{}] * r + gc + [{}] * (m - 1 - r) for r in range(m)]
    memo = {(): {0: one}}

    def minor(cs):
        """The minor on the last len(cs) rows and the columns cs."""
        if cs not in memo:
            row, out = rows[m + n - len(cs)], {}
            for k, col in enumerate(cs):
                if row[col] and (sub := minor(cs[:k] + cs[k + 1 :])):
                    for e1, c1 in row[col].items():
                        c1 = -c1 if k % 2 else c1
                        for e2, c2 in sub.items():
                            e, c = e1 + e2, c1 * c2
                            out[e] = out[e] + c if e in out else c
            memo[cs] = {e: r for e, c in out.items() if (r := c % p)} if p else _nonzero(out)
        return memo[cs]

    mask, terms = (1 << width) - 1, {}
    for key, c in minor(tuple(range(m + n))).items():
        e = [0] * len(f.vars)
        for k, j in enumerate(slots):
            e[j] = key >> (width * k) & mask
        terms[tuple(e)] = decode(c)
    return f._new(terms)


# -- univariate helpers ---------------------------------------------------------


def _univar_check(f, var):
    i = f.vars.index(var)
    for e, _ in f.terms:
        if any(k and j != i for j, k in enumerate(e)):
            raise ValueError(f"{f!r} is not univariate in {var}")


def _dense(f, var):
    """The coefficients of f, univariate in var, lowest degree first."""
    _univar_check(f, var)
    i = f.vars.index(var)
    out = [f.field.zero] * (f.degree(var) + 1)
    for e, c in f.terms:
        out[e[i]] = c
    return out


def _sparse(f, coeffs, var):
    """The polynomial of f's ring with these coefficients of var^0, var^1, ..."""
    base, i = (0,) * len(f.vars), f.vars.index(var)
    return f._new({base[:i] + (k,) + base[i + 1 :]: c for k, c in enumerate(coeffs) if c})


def poly_divmod(f, g, var):
    """Division with remainder in field[var]; f, g univariate in var."""
    f._same_ring(g)
    a, b = _dense(f, var), _dense(g, var)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q, r = _dense_divmod(a, b)
    return _sparse(f, q, var), _sparse(f, r, var)


def poly_gcd(f, g, var):
    """Monic gcd in field[var], by Euclid on dense coefficient lists."""
    f._same_ring(g)
    a, b = _dense(f, var), _dense(g, var)
    while b:
        a, b = b, _dense_divmod(a, b)[1]
    if a:
        inv = f.field.one / a[-1]
        a = [c * inv for c in a]
    return _sparse(f, a, var)


def _pth_root(f, var):
    """Inverse Frobenius of f = h(var^p) over F_p (coefficients are fixed by
    Frobenius there)."""
    p = f.field.characteristic
    i = f.vars.index(var)
    out = {}
    for e, c in f.terms:
        if e[i] % p:
            raise InvariantError(f"{f!r} is not a polynomial in {var}^{p}")
        out[e[:i] + (e[i] // p,) + e[i + 1 :]] = c
    return f._new(out)


def squarefree_part(f, var):
    """Monic product of the distinct irreducible factors of f in field[var]."""
    _univar_check(f, var)
    if f.is_zero():
        raise ValueError("squarefree part of zero")
    if f.degree(var) == 0:
        return ExactPolynomial.constant(f.field, f.vars, 1, f.weights)
    df = f.derivative(var)
    p = f.field.characteristic
    if df.is_zero():
        # f = h(var^p); its radical equals the radical of h
        if not p:
            raise InvariantError(f"nonconstant {f!r} has zero derivative in characteristic 0")
        return squarefree_part(_pth_root(f, var), var)
    g = poly_gcd(f, df, var)
    red = poly_divmod(f, g, var)[0]
    if p > 0 and not g.degree(var) == 0:
        # factors with multiplicity divisible by p vanish from f/gcd(f, f');
        # fold the radical of the gcd back in
        extra = squarefree_part(g, var)
        red = poly_divmod(red * extra, poly_gcd(red, extra, var), var)[0]
    return red.monic()


# -- binary forms ----------------------------------------------------------------


def _dehomogenize(f, u, v):
    """Split a binary form f in (u, v) as u^i v^k times a form prime to uv;
    returns that form at v = 1 (kept in the same ring), i and k."""
    iu, iv = f.vars.index(u), f.vars.index(v)
    deg = f.degree()
    if any(e[iu] + e[iv] != deg or sum(e) != deg for e, _ in f.terms):
        raise InvariantError(f"{f!r} is not a binary form in {u}, {v}")
    i = min(e[iu] for e, _ in f.terms)
    k = min(e[iv] for e, _ in f.terms)
    core = {}
    for e, c in f.terms:
        ee = list(e)
        ee[iu] -= i
        ee[iv] = 0
        core[tuple(ee)] = c
    return f._new(core), i, k


def _rehomogenize(h, u, v, i, k):
    """u^i v^k times the binary form in (u, v) that is h at v = 1."""
    iu, iv = h.vars.index(u), h.vars.index(v)
    d = h.degree(u)
    out = {}
    for e, c in h.terms:
        ee = list(e)
        ee[iu] += i
        ee[iv] = d - e[iu] + k
        out[tuple(ee)] = c
    return h._new(out)


def binary_squarefree(f, u, v):
    """Squarefree part of a binary form in variables (u, v): the univariate
    radical of the dehomogenization, rehomogenized with u and v each at most
    once."""
    if f.is_zero():
        raise ValueError("zero form")
    h, i, k = _dehomogenize(f, u, v)
    return _rehomogenize(squarefree_part(h, u), u, v, min(i, 1), min(k, 1)).monic()


def binary_gcd(f, g, u, v):
    """gcd of nonzero binary forms in (u, v): the univariate gcd of the
    dehomogenizations, rehomogenized with the common powers of u and v."""
    (a, i1, k1), (b, i2, k2) = _dehomogenize(f, u, v), _dehomogenize(g, u, v)
    return _rehomogenize(poly_gcd(a, b, u), u, v, min(i1, i2), min(k1, k2))


# -- JSON --------------------------------------------------------------------


def poly_to_json(f):
    def show(c):
        if isinstance(c, Fraction):
            return str(c)
        if isinstance(c, FpElement):
            return str(c.val)
        raise TypeError(f"cannot serialize {c!r}")

    out = {
        "vars": list(f.vars),
        "terms": [{"exp": list(e), "coeff": show(c)} for e, c in f.terms],
    }
    if f.weights is not None:
        out["weights"] = list(f.weights)
    return out
