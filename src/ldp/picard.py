"""Blowup-lattice divisor calculus.

A lattice carries an ordered basis (H, exceptionals...) with the diagonal
form (+1, -1, ..., -1), a canonical class, a table of named curve classes,
and a designated contracted configuration whose dual graph it must
reproduce.  Pullback along the contraction, rounding of fractional
pullbacks, genus and Riemann-Roch all reduce to exact linear algebra here.
A class is a tuple of integer numerators over one common denominator.
Both pullbacks go through one core, `_pullback`, which reads the
determinant and adjugate of the integer Gram matrix from a record compiled
once per set of contracted classes, so a pullback makes no Fraction until
its coefficients are rounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from . import linalg
from .graphs import (
    DynkinType,
    InvariantError,
    NotNegativeDefiniteError,
    dynkin_matrix,
    parse_dynkin,
)


class NonIntegralClassError(ValueError):
    pass


class AmbiguousSupportError(ValueError):
    pass


def _form(x, y):
    """x.y under (+1, -1, ..., -1) on integer coefficient vectors."""
    return 2 * x[0] * y[0] - sum(map(mul, x, y))


@dataclass(frozen=True)
class DivisorClass:
    """A class with rational coefficients nums[i] / den, stored in lowest
    terms (den > 0, gcd(den, *nums) == 1), so equal classes are equal and
    hash alike field by field."""

    basis: tuple
    nums: tuple
    den: int

    @staticmethod
    def make(basis, coeffs):
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        nums = tuple(c.numerator * den // c.denominator for c in fracs)
        return DivisorClass(tuple(basis), nums, den)

    @staticmethod
    def _reduced(basis, nums, den):
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums, den = tuple(x // g for x in nums), den // g
        return DivisorClass(basis, nums, den)

    @property
    def coeffs(self):
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _match(self, other):
        if not isinstance(other, DivisorClass) or other.basis != self.basis:
            raise ValueError("divisor classes over different bases")
        return other

    def _combine(self, other, op):
        other = self._match(other)
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        nums = tuple(op(p * a, q * b) for a, b in zip(self.nums, other.nums))
        return DivisorClass._reduced(self.basis, nums, den)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return DivisorClass(self.basis, tuple(-a for a in self.nums), self.den)

    def __mul__(self, k):
        if not isinstance(k, int):
            k = Fraction(k)
        p = k.numerator  # an int is its own numerator, over 1
        return DivisorClass._reduced(
            self.basis, tuple(a * p for a in self.nums), self.den * k.denominator
        )

    __rmul__ = __mul__

    def dot(self, other):
        """Intersection number under the form (+1, -1, ..., -1)."""
        other = self._match(other)
        return Fraction(_form(self.nums, other.nums), self.den * other.den)

    def is_integral(self):
        return self.den == 1

    def coefficient(self, name):
        return Fraction(self.nums[self.basis.index(name)], self.den)

    def __repr__(self):
        bits = []
        for name, c in zip(self.basis, self.coeffs):
            if c:
                bits.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(bits) if bits else "0"


@dataclass(frozen=True)
class BlowupLattice:
    basis: tuple
    canonical: DivisorClass
    named_curves: dict
    contracted: tuple  # curve names, grouped to match contracted_type
    contracted_type: DynkinType

    def unit(self, name):
        i = self.basis.index(name)
        return DivisorClass.make(
            self.basis, [1 if j == i else 0 for j in range(len(self.basis))]
        )

    def curve(self, name):
        return self.named_curves[name]

    def zero(self):
        return DivisorClass.make(self.basis, [0] * len(self.basis))

    def contracted_classes(self, names=None):
        return [self.named_curves[n] for n in (self.contracted if names is None else names)]


def _check_contracted(lat):
    con = _contraction(tuple(lat.contracted_classes()))
    # the numerator vectors s_i c_i have Gram s_i s_j (c_i . c_j)
    expected = [
        [x * s * t for x, t in zip(row, con.scales)]
        for row, s in zip(dynkin_matrix(lat.contracted_type), con.scales)
    ]
    if [list(row) for row in con.gram] != expected:
        raise InvariantError("contracted classes do not reproduce the declared graph")


def _basis_2a4():
    return ("H",) + tuple(f"e_{x}" for x in "abcd") + tuple(f"f_{x}" for x in "abcd")


def _curves_2a4(basis):
    def cls(**coef):
        return DivisorClass.make(
            basis, [Fraction(coef.get(b, 0)) for b in basis]
        )

    curves = {
        "L_ab": cls(H=1, e_a=-1, e_b=-1, f_a=-1),
        "L_bc": cls(H=1, e_b=-1, e_c=-1, f_b=-1),
        "L_cd": cls(H=1, e_c=-1, e_d=-1, f_c=-1),
        "L_ad": cls(H=1, e_a=-1, e_d=-1, f_d=-1),
        "L_ac": cls(H=1, e_a=-1, e_c=-1),
        "L_bd": cls(H=1, e_b=-1, e_d=-1),
    }
    for x in "abcd":
        curves[f"E_{x}"] = cls(**{f"e_{x}": 1, f"f_{x}": -1})
        curves[f"F_{x}"] = cls(**{f"f_{x}": 1})
    return curves


_CHAIN_NAMES = ("E_a", "L_ad", "L_bc", "E_c", "E_d", "L_cd", "L_ab", "E_b")


def preset_2A4():
    """The plane blown up in the four points a, b, c, d and once more on each
    of the four sides of the quadrilateral: two contracted 4-chains of
    (-2)-curves."""
    basis = _basis_2a4()
    n = len(basis)
    canonical = DivisorClass.make(basis, [-3] + [1] * (n - 1))
    curves = _curves_2a4(basis)
    lat = BlowupLattice(
        basis, canonical, curves, _CHAIN_NAMES, parse_dynkin("2[2^4]")
    )
    _check_contracted(lat)
    return lat


def preset_resolution(dagger):
    """Minimal resolution lattice of the degenerations "[3]" (one extra
    blowup g1 on the singular anticanonical member C2) and "[2,4]" (two)."""
    if dagger not in ("[3]", "[2,4]"):
        raise ValueError(f"no preset for {dagger!r}")
    extra = ("g_1",) if dagger == "[3]" else ("g_1", "g_2")
    basis = _basis_2a4() + extra
    n = len(basis)
    canonical = DivisorClass.make(basis, [-3] + [1] * (n - 1))
    curves = _curves_2a4(basis)

    def cls(pairs):
        return DivisorClass.make(basis, [Fraction(pairs.get(b, 0)) for b in basis])

    c2 = {b: -1 for b in basis if b[0] in "ef"}
    c2["H"] = 3
    c2["g_1"] = -2
    if dagger == "[2,4]":
        c2["g_2"] = -1
        curves["G_1"] = cls({"g_1": 1, "g_2": -1})
        curves["G_2"] = cls({"g_2": 1})
        contracted = _CHAIN_NAMES + ("G_1", "C_2")
        dyn = parse_dynkin("2[2^4]+[2,4]")
    else:
        contracted = _CHAIN_NAMES + ("C_2",)
        dyn = parse_dynkin("2[2^4]+[3]")
    curves["C_2"] = cls(c2)
    lat = BlowupLattice(basis, canonical, curves, contracted, dyn)
    _check_contracted(lat)
    return lat


# -- operations ---------------------------------------------------------------


@dataclass(frozen=True)
class _Contraction:
    """A compiled set of contracted classes c_i = v_i / s_i, with v_i their
    numerator vectors: the scales s_i, the integer Gram matrix of the v_i,
    its determinant and its adjugate, all immutable."""

    classes: tuple
    scales: tuple
    gram: tuple
    det: int
    adjugate: tuple


@functools.lru_cache(maxsize=32)
def _contraction(classes):
    """Compile a tuple of contracted classes, keyed by their contents.

    One fraction-free Gauss-Jordan elimination of [Gram | I] without row
    swaps (Bareiss 1968) ends at [det I | adj].  Its k-th pivot is the k-th
    leading minor, so the form is negative definite exactly when the pivots
    alternate in sign, starting negative.
    """
    vecs = [c.nums for c in classes]
    gram = tuple(tuple(_form(a, b) for b in vecs) for a in vecs)
    k = len(classes)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(gram)]
    prev = 1
    for col in range(k):
        top = rows[col]
        pivot = top[col]
        if (pivot if col % 2 else -pivot) <= 0:
            raise NotNegativeDefiniteError("contracted classes are not negative definite")
        for r in range(k):
            if r != col:
                f = rows[r][col]
                # exact division: each entry is a minor of [Gram | I]
                rows[r] = [(pivot * x - f * y) // prev for x, y in zip(rows[r], top)]
        prev = pivot
    adjugate = tuple(tuple(row[k:]) for row in rows)
    return _Contraction(classes, tuple(c.den for c in classes), gram, prev, adjugate)


def _pullback(lat, cls, curves, rounding):
    """cls plus the combination of the given contracted curves (all of them
    by default) that is orthogonal to each, its coefficients passed through
    rounding unless that is None.

    With cls = x / d, r_i = -(x . v_i) and w = adj r, the coefficient of c_i
    is s_i w_i / (d det), that is, w_i / (d det) times v_i.
    """
    con = _contraction(tuple(lat.contracted_classes(curves)))
    x, d, det = cls.nums, cls.den, con.det
    rhs = [-_form(x, c.nums) for c in con.classes]
    w = [sum(map(mul, row, rhs)) for row in con.adjugate]
    if rounding is None:
        if det < 0:
            w, det = [-y for y in w], -det
        scale, den, coef = det, d * det, w
    else:
        scale = lcm(*con.scales)
        den = d * scale
        coef = [
            rounding(Fraction(s * y, d * det)) * (den // s)
            for s, y in zip(con.scales, w)
        ]
    nums = [a * scale for a in x]
    for c, curve in zip(coef, con.classes):
        if c:
            for i, v in enumerate(curve.nums):
                if v:
                    nums[i] += c * v
    return con, DivisorClass._reduced(cls.basis, tuple(nums), den)


def pullback_weil(lat, cls, curves=None):
    """cls plus the rational combination of the given contracted curves
    making the result orthogonal to each of them (the numerical pullback of
    the pushforward of cls)."""
    con, out = _pullback(lat, cls, curves, None)
    if any(_form(out.nums, c.nums) for c in con.classes):
        raise InvariantError("pullback is not orthogonal to the contracted curves")
    return out


def ceil_pullback(lat, cls, curves=None):
    """Pull back cls and round the correction coefficients up to integers.

    Unlike round_up, this keeps the coefficients produced by the pullback
    itself, so it stays well defined even when the contracted classes span a
    non-saturated sublattice (torsion in the local class groups).
    """
    return _pullback(lat, cls, curves, math.ceil)[1]


def mumford_pairing(lat, d, y):
    """(D.Y) on the contracted surface: intersect the pullback of d with y."""
    return pullback_weil(lat, d).dot(y)


def round_up(lat, cls, support):
    """Ceiling of the support-curve coefficients of cls.

    cls is rewritten as (integral class) + sum lambda_i S_i; the rewriting is
    unique mod integers only when the support classes span a primitive
    sublattice, which the Smith normal form certifies.
    """
    names = tuple(support)
    classes = [lat.named_curves[n] for n in names]
    if any(not c.is_integral() for c in classes):
        raise AmbiguousSupportError("support curves must be integral classes")
    n, k = len(lat.basis), len(classes)
    B = [[c.nums[i] for c in classes] for i in range(n)]
    U, V, D = linalg.smith_normal_form(B)
    w = [sum(map(mul, row, cls.nums)) for row in U]  # den * (U . coeffs)
    for i in range(k):
        if D[i][i] not in (1, -1):
            raise AmbiguousSupportError(
                "support lattice is not primitive; rounding is ill defined"
            )
    for i in range(k, n):
        if w[i] % cls.den:
            raise AmbiguousSupportError("class does not decompose over the support")
    mu = [w[i] * D[i][i] for i in range(k)]  # den * mu, as D[i][i] = 1 / D[i][i]
    lam = [Fraction(sum(map(mul, V[i], mu)), cls.den) for i in range(k)]
    out = cls
    for l, curve in zip(lam, classes):
        out = out + (math.ceil(l) - l) * curve
    if not out.is_integral():
        raise InvariantError(f"rounded class {out!r} is not integral")
    return out


def chi_riemann_roch(lat, cls):
    if not cls.is_integral():
        raise NonIntegralClassError(f"{cls!r} is not integral")
    return 1 + (cls.dot(cls) - cls.dot(lat.canonical)) / 2
