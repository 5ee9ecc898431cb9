"""Blowup-lattice divisor calculus.

A lattice carries an ordered basis (H, exceptionals...) with the diagonal
form (+1, -1, ..., -1), a canonical class, a table of named curve classes,
and a designated contracted configuration whose dual graph it must
reproduce.  Pullback along the contraction, rounding of fractional
pullbacks, genus and Riemann-Roch all reduce to exact linear algebra here.
Both pullbacks go through one core, `_pullback`, which reads the inverse
Gram matrix from a record compiled once per set of contracted classes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

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


class RayOrthogonalError(ValueError):
    pass


@dataclass(frozen=True)
class DivisorClass:
    basis: tuple
    coeffs: tuple

    @staticmethod
    def make(basis, coeffs):
        return DivisorClass(tuple(basis), tuple(Fraction(c) for c in coeffs))

    def _match(self, other):
        if not isinstance(other, DivisorClass) or other.basis != self.basis:
            raise ValueError("divisor classes over different bases")
        return other

    def __add__(self, other):
        other = self._match(other)
        return DivisorClass(
            self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._match(other)
        return DivisorClass(
            self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return DivisorClass(self.basis, tuple(-a for a in self.coeffs))

    def __mul__(self, k):
        k = Fraction(k)
        return DivisorClass(self.basis, tuple(a * k for a in self.coeffs))

    __rmul__ = __mul__

    def dot(self, other):
        """Intersection number under the form (+1, -1, ..., -1)."""
        other = self._match(other)
        total = self.coeffs[0] * other.coeffs[0]
        for a, b in zip(self.coeffs[1:], other.coeffs[1:]):
            if a and b:  # classes are sparse; skip the zero products
                total -= a * b
        return total

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def coefficient(self, name):
        return self.coeffs[self.basis.index(name)]

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
    gram = _contraction(tuple(lat.contracted_classes())).gram
    if [list(row) for row in gram] != dynkin_matrix(lat.contracted_type):
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
    """A compiled set of contracted classes: their Gram matrix and its
    inverse, both as immutable tuples."""

    classes: tuple
    gram: tuple
    inverse: tuple


@functools.lru_cache(maxsize=32)
def _contraction(classes):
    """Compile a tuple of contracted classes, keyed by their contents.

    One Gauss-Jordan elimination of the Gram matrix without row swaps both
    inverts it and checks negative definiteness: the k-th pivot is the ratio
    of the k-th to the (k-1)-th leading minor, so the form is negative
    definite exactly when every pivot is negative.
    """
    gram = tuple(tuple(a.dot(b) for b in classes) for a in classes)
    k = len(classes)
    rows = [
        list(row) + [Fraction(int(i == j)) for j in range(k)]
        for i, row in enumerate(gram)
    ]
    for col in range(k):
        pivot = rows[col][col]
        if pivot >= 0:
            raise NotNegativeDefiniteError("contracted classes are not negative definite")
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(k):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    inverse = tuple(tuple(row[k:]) for row in rows)
    return _Contraction(classes, gram, inverse)


def _pullback(lat, cls, curves, rounding):
    """cls plus the combination of the given contracted curves (all of them
    by default) that is orthogonal to each, its coefficients passed through
    rounding unless that is None."""
    con = _contraction(tuple(lat.contracted_classes(curves)))
    rhs = [-cls.dot(c) for c in con.classes]
    corr = [sum(x * y for x, y in zip(row, rhs)) for row in con.inverse]
    if rounding is not None:
        corr = [rounding(c) for c in corr]
    coeffs = list(cls.coeffs)
    for c, curve in zip(corr, con.classes):
        if c:
            for i, x in enumerate(curve.coeffs):
                if x:
                    coeffs[i] += c * x
    return con, DivisorClass(cls.basis, tuple(coeffs))


def pullback_weil(lat, cls, curves=None):
    """cls plus the rational combination of the given contracted curves
    making the result orthogonal to each of them (the numerical pullback of
    the pushforward of cls)."""
    con, out = _pullback(lat, cls, curves, None)
    if any(out.dot(c) for c in con.classes):
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
    B = [[int(classes[j].coeffs[i]) for j in range(k)] for i in range(n)]
    U, V, D = linalg.smith_normal_form(B)
    w = [
        sum(Fraction(U[i][j]) * cls.coeffs[j] for j in range(n)) for i in range(n)
    ]
    for i in range(k):
        if D[i][i] not in (1, -1):
            raise AmbiguousSupportError(
                "support lattice is not primitive; rounding is ill defined"
            )
    for i in range(k, n):
        if w[i].denominator != 1:
            raise AmbiguousSupportError("class does not decompose over the support")
    mu = [w[i] / D[i][i] for i in range(k)]
    lam = [
        sum(Fraction(V[i][j]) * mu[j] for j in range(k)) for i in range(k)
    ]
    out = cls
    for l, curve in zip(lam, classes):
        out = out + (math.ceil(l) - l) * curve
    if not out.is_integral():
        raise InvariantError(f"rounded class {out!r} is not integral")
    return out


def arithmetic_genus(lat, cls):
    return cls.dot(cls + lat.canonical) / 2 + 1


def chi_riemann_roch(lat, cls):
    if not cls.is_integral():
        raise NonIntegralClassError(f"{cls!r} is not integral")
    return 1 + (cls.dot(cls) - cls.dot(lat.canonical)) / 2


def ray_trivial_coefficient(lat, e, sigma):
    den = e.dot(sigma)
    if not den:
        raise RayOrthogonalError("E meets the ray trivially")
    return -lat.canonical.dot(sigma) / den


# -- JSON ----------------------------------------------------------------------


def class_to_json(cls):
    return {
        "basis": list(cls.basis),
        "coeffs": [
            f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
            for c in cls.coeffs
        ],
    }


def class_from_json(data):
    return DivisorClass.make(data["basis"], [Fraction(c) for c in data["coeffs"]])
