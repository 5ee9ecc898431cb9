"""Coefficient fields: the rationals, prime fields, and quadratic extensions.

A field object exposes zero/one, coerce, characteristic, and produces
elements supporting +, -, *, /, ==.  Arithmetic lifts ints into the field,
but an element equals only elements of its own field, so equal elements hash
alike.  Quadratic extensions adjoin a root theta of x^2 + c1 x + c0 and
divide via the conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import InvariantError


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


@dataclass(frozen=True)
class QuadElement:
    """u + v*theta in base(theta), theta^2 = -c1*theta - c0."""

    field: "QuadraticExtension"
    u: object
    v: object

    def _lift(self, other):
        if isinstance(other, QuadElement):
            if other.field != self.field:
                raise TypeError("elements of different extensions")
            return other
        try:
            return QuadElement(self.field, self.field.base.coerce(other), self.field.base.zero)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.field, self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.field, -self.u, -self.v)

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
        c1, c0 = self.field.c1, self.field.c0
        # (u1 + v1 t)(u2 + v2 t) with t^2 = -c1 t - c0
        u = self.u * o.u - c0 * (self.v * o.v)
        v = self.u * o.v + self.v * o.u - c1 * (self.v * o.v)
        return QuadElement(self.field, u, v)

    __rmul__ = __mul__

    def conjugate(self):
        # theta-bar = -c1 - theta
        return QuadElement(self.field, self.u - self.field.c1 * self.v, -self.v)

    def norm(self):
        n = self * self.conjugate()
        if n.v:
            raise InvariantError(f"norm of {self!r} is not in the base field")
        return n.u

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if not n:
            raise ZeroDivisionError("division by zero in quadratic extension")
        num = self * o.conjugate()
        return QuadElement(self.field, num.u / n, num.v / n)

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
        if not isinstance(other, QuadElement):
            return NotImplemented
        return self.field == other.field and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __repr__(self):
        name = self.field.name
        if not self.v:
            return repr(self.u)
        return f"({self.u} + {self.v}*{name})"


class QuadraticExtension:
    """base[x]/(x^2 + c1 x + c0); irreducibility is the caller's business."""

    def __init__(self, base, c1, c0, name="theta"):
        self.base = base
        self.c1 = base.coerce(c1)
        self.c0 = base.coerce(c0)
        self.name = name
        self.characteristic = base.characteristic

    @property
    def generator(self):
        return QuadElement(self, self.base.zero, self.base.one)

    def coerce(self, x):
        if isinstance(x, QuadElement):
            if x.field != self:
                raise TypeError("element of a different extension")
            return x
        return QuadElement(self, self.base.coerce(x), self.base.zero)

    @property
    def zero(self):
        return QuadElement(self, self.base.zero, self.base.zero)

    @property
    def one(self):
        return QuadElement(self, self.base.one, self.base.zero)

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticExtension)
            and other.base == self.base
            and other.c1 == self.c1
            and other.c0 == self.c0
        )

    def __hash__(self):
        return hash(("quad", self.base, self.c1, self.c0))

    def __repr__(self):
        return f"{self.base}[{self.name}]/(x^2 + {self.c1} x + {self.c0})"
