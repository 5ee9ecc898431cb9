"""Coefficient fields: the rationals, prime fields, and simple extensions.

A field object exposes zero/one, coerce, characteristic, and produces
elements supporting +, -, *, /, ==.  Arithmetic lifts ints into the field,
but an element equals only elements of its own field, so equal elements hash
alike.  A simple extension base[x]/(m) adjoins a root theta of a monic m:
its elements are coefficient tuples reduced mod m by the dense long division
that `poly` uses too, and they are inverted by the extended Euclidean
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


class RationalField:
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} to a rational")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class FpElement:
    p: int
    val: int

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError("mixed characteristics")
            return other.val
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.p, (self.val + v) % self.p)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(self.p, -self.val % self.p)

    def __sub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.p, (self.val - v) % self.p)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.p, (self.val * v) % self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        if not v % self.p:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.p, (self.val * pow(v, -1, self.p)) % self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.p, v % self.p) / self

    def __pow__(self, n):
        if n < 0 and not self.val:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.p, pow(self.val, n, self.p))

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


class PrimeField:
    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise TypeError("mixed characteristics")
            return x
        if isinstance(x, int):
            return FpElement(self.p, x % self.p)
        if isinstance(x, Fraction):
            return FpElement(self.p, x.numerator % self.p) / x.denominator
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} to F_{self.p}")

    @property
    def zero(self):
        return FpElement(self.p, 0)

    @property
    def one(self):
        return FpElement(self.p, 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"FF({self.p})"


def _dense_divmod(a, b):
    """Long division of dense coefficient lists (lowest degree first, b's
    last entry nonzero): the quotient, and the remainder without trailing
    zeros."""
    r, q, lc, db = list(a), [], b[-1], len(b) - 1
    # Fraction(1) == 1 is the cheap test; an FpElement equals only its own one
    monic = lc == 1 or lc == lc**0
    while len(r) > db:
        c = r.pop() if monic else r.pop() / lc
        q.append(c)
        if c:
            for k in range(db):
                r[len(r) - db + k] -= c * b[k]
    while r and not r[-1]:
        r.pop()
    return q[::-1], r


class ZeroDivisorError(ZeroDivisionError):
    """Division by a nonzero zero divisor of a simple extension.  The args
    are (gcd, cofactor): the monic gcd of the modulus and the divisor, and
    the modulus divided by it, as coefficient tuples lowest degree first."""


@dataclass(frozen=True)
class SimpleElement:
    """sum(coeffs[k] * theta^k) in base[theta]/(modulus), k < degree."""

    field: "SimpleExtension"
    coeffs: tuple

    def _lift(self, other):
        try:
            return self.field.coerce(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return SimpleElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return SimpleElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        product = [self.field.base.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    product[i + j] += x * y
        return self.field._reduce(product)

    __rmul__ = __mul__

    def conjugate(self):
        """The image under theta -> theta-bar = -c1 - theta, the other root of
        a quadratic modulus x^2 + c1 x + c0."""
        u, v = self.coeffs
        return SimpleElement(self.field, (u - self.field.modulus[1] * v, -v))

    def _inverse(self):
        """The inverse, by the extended Euclidean algorithm on the modulus
        and self: each remainder r keeps r = s * self mod the modulus."""
        if not self:
            raise ZeroDivisionError(f"division by zero in {self.field!r}")
        field = self.field
        r0, r1 = list(field.modulus), list(self.coeffs)
        while not r1[-1]:
            r1.pop()
        s0, s1 = field.zero, field.one
        while len(r1) > 1:
            q, r = _dense_divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - field._reduce(q) * s1
        if not r1:
            gcd = [c / r0[-1] for c in r0]
            raise ZeroDivisorError(tuple(gcd), tuple(_dense_divmod(field.modulus, gcd)[0]))
        return s1 * (field.base.one / r1[0])

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            return self.field.one / self ** -n
        out, square = self.field.one, self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def __eq__(self, other):
        if not isinstance(other, SimpleElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if not any(self.coeffs[1:]):
            return repr(self.coeffs[0])
        terms = (f"{c}*{self.field.name}^{k}" if k else str(c) for k, c in enumerate(self.coeffs))
        return "(" + " + ".join(terms) + ")"


class SimpleExtension:
    """base[x]/(modulus), the modulus monic and given by its coefficients in
    base, lowest degree first.  It need not be irreducible: the ring is then
    a product of fields, and dividing by an element that vanishes in some of
    them raises `ZeroDivisorError` with the split of the modulus it found
    (dynamic evaluation: Della Dora, Dicrescenzo and Duval, EUROCAL '85)."""

    def __init__(self, base, modulus, name="theta"):
        self.base = base
        self.modulus = tuple(base.coerce(c) for c in modulus)
        self.degree = len(self.modulus) - 1
        self.name = name
        self.characteristic = base.characteristic
        self.zero = self._reduce([])
        self.one = self._reduce([base.one])
        self.generator = self._reduce([base.zero, base.one])

    def _reduce(self, coeffs):
        """The element with these base coefficients, lowest degree first."""
        r = _dense_divmod(coeffs, self.modulus)[1]
        return SimpleElement(self, tuple(r) + (self.base.zero,) * (self.degree - len(r)))

    def coerce(self, x):
        if isinstance(x, SimpleElement):
            if x.field != self:
                raise TypeError("element of a different extension")
            return x
        return SimpleElement(self, (self.base.coerce(x),) + (self.base.zero,) * (self.degree - 1))

    def __eq__(self, other):
        return isinstance(other, SimpleExtension) and (other.base, other.modulus) == (
            self.base, self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.base, self.modulus))

    def __repr__(self):
        modulus = " + ".join(f"{c} x^{k}" for k, c in enumerate(self.modulus))
        return f"{self.base}[{self.name}]/({modulus})"
