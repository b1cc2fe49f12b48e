"""Exact scalar arithmetic over the coefficient rings used by the chain
complexes in this package:

* ``Z`` and ``Q`` (plain ``int`` / ``fractions.Fraction``),
* prime fields ``F_p``,
* cyclotomic fields ``Q(zeta_d) = Q[x]/Phi_d(x)``,
* univariate Laurent polynomial rings ``K[t, t^-1]`` over any of the fields.

Every ring is described by a small ``Ring`` object that knows how to coerce,
add, multiply, divide exactly, recognize units, and perform division with
remainder (every ring here is Euclidean).  The fields ``Q``, ``F_p`` and
``Q(zeta_d)`` share the ``Field`` base, which holds the unit test, the
trivial Euclidean structure and the canonical associate once; each field
supplies only coercion, inversion and parsing.  ``Ring.format`` is the
``repr`` of the coerced element, except over ``Q``.  Scalars are plain
values: ``int``, ``Fraction``, or one of the element classes below.  All
values are immutable after construction and all operations are pure.

Laurent polynomials over ``Q`` and elements of ``Q(zeta_d)`` keep every
integral coefficient as a Python ``int`` and only the others as
``Fraction`` (the element values of ``Q`` itself stay ``Fraction``).  The
boundaries of this package have integer coefficients and Smith reduction
keeps them primitive with monic pivots, so their elimination runs on ints;
division by a divisor with leading coefficient 1 or -1 never leaves them.
``Phi_d`` is monic with integer coefficients, so cyclotomic products stay in
ints too, and a cyclotomic inverse is taken through the norm (a product of
Galois conjugates over one integer), not by a Euclidean algorithm over
``Q[x]``.

Canonical associates (used to normalize Smith divisors):

* over ``Z``: the absolute value,
* over a field: ``1`` for any nonzero element,
* over ``K[t,t^-1]``: the representative with valuation ``0`` at ``t = 0``
  and leading coefficient ``1``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class MixedRings(ValueError):
    """Raised when values from incompatible rings are combined."""


class Refusal(ValueError):
    """A well-formed input that a computation declines, because a
    precondition of its method fails (the command line exits with code 2 on
    it, and with code 1 on other input errors)."""


class UnsupportedRing(Refusal):
    """Raised when an operation does not support the coefficient ring."""


class RingTooLarge(Refusal):
    """A ring descriptor past its budget, refused before any work."""


# Ring-descriptor budgets.  Trial division in ``_is_prime`` takes 0.012 s at
# the largest 32-bit prime and 0.19 s near 2^40.  Arithmetic in Q(zeta_d)
# grows as phi(d)^3: ``homology koszul`` on four lines takes 1.0 s at
# d = 256, 6.9 s at the prime 251 and 52 s at the prime 499.
MAX_PRIME = 2**32
MAX_CYCLOTOMIC_ORDER = 256


# ----------------------------------------------------------------------
# Polynomials over Q, coefficient tuples ordered low degree -> high.
# Only what cyclotomic arithmetic needs.

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Division with remainder by a monic divisor ``b`` (every ``Phi_d`` is
    monic with integer coefficients), so integer operands stay ints."""
    top = len(b) - 1
    a = list(a)
    q = [0] * max(len(a) - top, 0)
    for k in range(len(a) - 1 - top, -1, -1):
        c = a[k + top]
        if c:
            q[k] = c
            for j in range(top):
                a[k + j] -= c * b[j]
    return _poly_trim(q), _poly_trim(a[:top])


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple:
    """Coefficients of the d-th cyclotomic polynomial, constant term first,
    as Python ints (``Phi_d`` is monic with integer coefficients).

    Computed by dividing ``x^d - 1`` by ``Phi_e`` for every proper divisor
    ``e`` of ``d``.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(3)
    (1, 1, 1)
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            num, rem = _poly_divmod(num, cyclotomic_poly(e))
            if rem:
                raise ArithmeticError(f"Phi_{e} does not divide t^{d} - 1")
    return num


def _is_prime(p):
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


# ----------------------------------------------------------------------
# Element classes.


class PrimeFieldElement:
    """An element of F_p, stored as a residue in [0, p)."""

    __slots__ = ("p", "value")

    def __init__(self, p, value):
        self.p = p
        self.value = value % p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise MixedRings(f"F_{self.p} vs F_{other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(self.p, other)
        if isinstance(other, Fraction):
            num = PrimeFieldElement(self.p, other.numerator)
            return num / PrimeFieldElement(self.p, other.denominator)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElement(self.p, self.value + o.value)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.value)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElement(self.p, self.value - o.value)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElement(self.p, self.value * o.value)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return PrimeFieldElement(self.p, pow(self.value, -1, self.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(("Fp", self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class CyclotomicElement:
    """An element of Q(zeta_d), a coefficient vector modulo Phi_d.

    ``coeffs`` has length exactly ``phi(d) = deg Phi_d``; index k holds the
    coefficient of ``zeta_d^k``.  Every integral coefficient is stored as a
    Python ``int`` and only the others as ``Fraction``; the constructor
    normalises whatever it is given.  ``Phi_d`` is monic with integer
    coefficients, so products of integral elements never leave ints.

    >>> z = CyclotomicElement.zeta(3)
    >>> z * z * z == 1
    True
    >>> z * z + z + 1 == 0
    True
    >>> CyclotomicElement(3, [Fraction(4, 2), 0, 1]).coeffs
    (1, -1)
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d, coeffs):
        modulus = cyclotomic_poly(d)
        phi = len(modulus) - 1
        coeffs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
        if len(coeffs) > phi:
            coeffs = _poly_divmod(coeffs, modulus)[1]
        self.d = d
        self.coeffs = tuple(
            c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for c in coeffs
        ) + (0,) * (phi - len(coeffs))

    @classmethod
    def zeta(cls, d, power=1):
        power %= d
        return cls(d, [0] * power + [1])

    def _coerce(self, other):
        if type(other) is CyclotomicElement:
            if other.d != self.d:
                raise MixedRings(f"Q(zeta_{self.d}) vs Q(zeta_{other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(self.d, [other])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CyclotomicElement(self.d, [x + y for x, y in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.d, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CyclotomicElement(self.d, [x - y for x, y in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CyclotomicElement(self.d, _poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        """A rational multiple ``c * zeta^k`` of a root of unity has inverse
        ``c^-1 * zeta^(d - k)``.  It is recognised by the primitive direction
        of its coefficient vector, which only ``zeta^k`` and ``-zeta^k``
        share (``zeta^j = q * zeta^k`` with ``q`` rational forces
        ``q = +-1``), and the answer is read off the power-basis vectors of
        :func:`_roots_of_unity`, also for ``k >= phi(d)``, where ``zeta^k``
        is not a monomial.  Any other element is inverted through the norm
        (:meth:`_norm_inverse`)."""
        coeffs = self.coeffs
        lead = next((j for j, c in enumerate(coeffs) if c), None)
        if lead is None:
            raise ZeroDivisionError(f"0 has no inverse in Q(zeta_{self.d})")
        powers, directions = _roots_of_unity(self.d)
        k = directions.get(_direction(coeffs))
        if k is None:
            return self._norm_inverse()
        scale = Fraction(powers[k][lead]) / coeffs[lead]  # c^-1
        return CyclotomicElement(self.d, [scale * y for y in powers[-k % self.d]])

    def _norm_inverse(self):
        """Inverse of a nonzero element through the norm.

        Write ``self = A / den`` with ``A`` integral, and let ``B`` be the
        product of the Galois conjugates ``sigma_k(A)`` (``zeta -> zeta^k``)
        over ``1 < k < d`` prime to ``d``.  Then ``N = A * B`` is the norm
        of ``A``, a nonzero integer, and ``self^-1 = den * B / N``; every
        step before the last division runs on ints."""
        d = self.d
        den = lcm(*(c.denominator for c in self.coeffs))
        A = CyclotomicElement(d, [c * den for c in self.coeffs])
        B = CyclotomicElement(d, [1])
        for k in range(2, d):
            if gcd(k, d) == 1:
                image = [0] * d
                for j, c in enumerate(A.coeffs):
                    image[j * k % d] += c
                B = B * CyclotomicElement(d, image)
        norm = (A * B).coeffs
        if any(norm[1:]):  # the norm of a nonzero element is a nonzero rational
            raise ArithmeticError(f"the norm of {self!r} is not rational")
        return CyclotomicElement(d, [Fraction(c * den, norm[0]) for c in B.coeffs])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if isinstance(other, CyclotomicElement):
            return self.d == other.d and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("cyc", self.d, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return format_poly_terms(
            ((k, c) for k, c in enumerate(self.coeffs) if c), f"z{self.d}", QQ
        )


def _primitive(ints):
    """The primitive integer vector with a positive leading entry on the
    line of a nonzero integer one, as a tuple."""
    g = gcd(*ints)
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    return tuple([x // g for x in ints])


def _direction(coeffs):
    """The primitive integer vector with a positive leading entry on the
    line of a nonzero rational one: ``_primitive`` after clearing the
    denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


@lru_cache(maxsize=None)
def _roots_of_unity(d):
    """The power-basis vectors of ``zeta_d^0 .. zeta_d^(d-1)``, and a map from
    each one's primitive direction to its exponent (``zeta^k`` and
    ``-zeta^k`` share one; the map keeps the smaller exponent).  Each power
    is the last one times ``zeta``: a shift, less the monic ``Phi_d`` times
    the coefficient shifted out."""
    modulus = cyclotomic_poly(d)
    v = (1,) + (0,) * (len(modulus) - 2)
    powers = []
    for _ in range(d):
        powers.append(v)
        top, v = v[-1], (0,) + v[:-1]
        if top:
            v = tuple([x - top * c for x, c in zip(v, modulus)])
    directions = {}
    for k, v in enumerate(powers):
        directions.setdefault(_direction(v), k)
    return powers, directions


class LaurentPoly:
    """A Laurent polynomial over a base field, as a finitely supported map
    exponent -> coefficient.

    Over ``Q`` every integral coefficient is stored as a Python ``int`` and
    only the others as ``Fraction``; the constructor normalises whatever it
    is given.  Nothing observable depends on it: ``3 == Fraction(3)``, their
    hashes agree and both print as ``3``.

    >>> t = LaurentPoly.t(QQ)
    >>> (t - 1) * (t + 1) == t*t - 1
    True
    >>> type(LaurentPoly(QQ, {0: Fraction(4, 2)}).coeffs[0]).__name__
    'int'
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        self.base = base
        self.coeffs = {e: _demote(c) for e, c in coeffs.items() if c}

    @classmethod
    def t(cls, base, exponent=1):
        # over Q the int 1, which keeps t and its powers on ints
        return cls(base, {exponent: 1 if type(base) is RationalField else base.one})

    @classmethod
    def const(cls, base, c):
        return cls(base, {0: base.coerce(c)})

    @classmethod
    def _of(cls, base, coeffs):
        """A polynomial on ``coeffs`` as given: values already of ``base``,
        nonzero, and over ``Q`` never an integral ``Fraction``.  The
        arithmetic below builds its results here, after normalising only
        the entries it computed; the public constructor normalises all."""
        p = object.__new__(cls)
        p.base = base
        p.coeffs = coeffs
        return p

    def _coerce(self, other):
        if type(other) is LaurentPoly:
            if other.base is not self.base and other.base != self.base:
                raise MixedRings("Laurent rings over different base fields")
            return other
        try:
            return LaurentPoly.const(self.base, other)
        except (TypeError, ValueError, MixedRings):
            return NotImplemented

    # ``+``, ``-`` and ``*`` take an operand over the same base object as it
    # is, without ``_coerce``, and build their result without the
    # normalising constructor: entries copied from an operand are normalised
    # already, and each computed entry is dropped when zero or demoted when
    # an integral Fraction.

    def __add__(self, other):
        if type(other) is not LaurentPoly or other.base is not self.base:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        big, small = self.coeffs, other.coeffs
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            if e in out:
                v = out[e] + c
                if v:
                    out[e] = _demote(v)
                else:
                    del out[e]
            else:
                out[e] = c
        return LaurentPoly._of(self.base, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self.base, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if type(other) is not LaurentPoly or other.base is not self.base:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in out:
                v = out[e] - c
                if v:
                    out[e] = _demote(v)
                else:
                    del out[e]
            else:
                out[e] = -c
        return LaurentPoly._of(self.base, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LaurentPoly or other.base is not self.base:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial factor is a shift; over a field the products of
            # nonzero coefficients are nonzero
            ((k, u),) = a.items()
            if type(u) is int and u == 1:
                return LaurentPoly._of(self.base, {e + k: c for e, c in b.items()})
            return LaurentPoly._of(self.base, {e + k: _demote(u * c) for e, c in b.items()})
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                p = c1 * c2
                out[e] = out[e] + p if e in out else p
        return LaurentPoly._of(self.base, {e: _demote(c) for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentPoly.t(self.base, 0)
        for _ in range(n):
            out = out * self
        return out

    def is_unit(self):
        # Over a field base, the units are exactly the monomials c*t^e.
        return len(self.coeffs) == 1

    def inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError(f"{self!r} is not a unit in K[t,t^-1]")
        ((e, c),) = self.coeffs.items()
        return LaurentPoly(self.base, {-e: _coeff_inverse(self.base, c)})

    def span(self):
        """max exponent - min exponent; the Euclidean size (0 for 0)."""
        if not self.coeffs:
            return 0
        return max(self.coeffs) - min(self.coeffs)

    def divmod(self, other):
        """q, r with self = q*other + r and span(r) < span(other) or r = 0.

        Shift both operands to honest polynomials with nonzero constant
        term, divide in K[t], and shift back; the remainder's span is then
        bounded by the polynomial remainder's degree.  A divisor whose
        leading coefficient is the int 1 or -1 (every monic Smith pivot)
        keeps integer operands in ints throughout.
        """
        o = self._coerce(other)
        if not o.coeffs:
            raise ZeroDivisionError("Laurent division by zero")
        if not self.coeffs:
            return LaurentPoly(self.base, {}), LaurentPoly(self.base, {})
        va, vb = min(self.coeffs), min(o.coeffs)
        a = {e - va: c for e, c in self.coeffs.items()}
        b = {e - vb: c for e, c in o.coeffs.items()}
        db = max(b)
        inv_lead = _coeff_inverse(self.base, b[db])
        q = {}
        while a:
            da = max(a)
            if da < db:
                break
            c = a[da] * inv_lead
            k = da - db
            q[k] = c
            for e, y in b.items():
                i = e + k
                # c * y is nonzero: the base is a field
                v = a[i] - c * y if i in a else -(c * y)
                if v:
                    a[i] = v
                else:
                    del a[i]
            if da in a:  # a leading term that fails to cancel never would
                raise ArithmeticError("Laurent division left its leading term")
        quo = LaurentPoly(self.base, {e + va - vb: c for e, c in q.items()})
        rem = LaurentPoly(self.base, {e + va: c for e, c in a.items()})
        return quo, rem

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("laurent", self.base, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return format_poly_terms(sorted(self.coeffs.items()), "t", self.base)


def _demote(c):
    """``c``, or its numerator when it is an integral ``Fraction``."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _coeff_inverse(base, c):
    """The inverse of a nonzero Laurent coefficient; the ints 1 and -1 are
    their own inverses, so those stay ints."""
    if type(c) is int and (c == 1 or c == -1):
        return c
    return base.unit_inverse(c)


# ----------------------------------------------------------------------
# Ring descriptors.


class Ring:
    """Common interface over Z, Q, F_p, Q(zeta_d), and K[t,t^-1]."""

    is_field = False

    def coerce(self, x):
        raise NotImplementedError

    def is_zero(self, a):
        return not a

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def is_unit(self, a):
        raise NotImplementedError

    def unit_inverse(self, a):
        raise NotImplementedError

    def exact_div(self, a, b):
        """a / b when b divides a exactly; raises ArithmeticError otherwise."""
        q, r = self.euclid_divmod(a, b)
        if not self.is_zero(r):
            raise ArithmeticError(f"{a!r} is not divisible by {b!r}")
        return q

    def euclid_size(self, a):
        raise NotImplementedError

    def euclid_divmod(self, a, b):
        raise NotImplementedError

    def canonical(self, a):
        """The canonical associate of a (see module docstring)."""
        raise NotImplementedError

    def gcd(self, a, b):
        while not self.is_zero(b):
            r = self.euclid_divmod(a, b)[1]
            # keep remainders primitive: gcd is only defined up to units
            if not self.is_zero(r):
                r = self.content_unit([r]) * r
            a, b = b, r
        return self.canonical(a)

    def format(self, a) -> str:
        return repr(self.coerce(a))

    def parse(self, s):
        raise NotImplementedError

    def content_unit(self, values):
        """A unit u such that scaling ``values`` by u keeps coefficients
        small (used to control growth in elimination).  Default: 1."""
        return self.one

    def __eq__(self, other):
        return self is other or (type(self) is type(other) and self.__dict__ == other.__dict__)

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items(), key=lambda kv: kv[0]))))


class IntegerRing(Ring):
    name = "Z"

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise MixedRings(f"cannot view {x!r} as an integer")

    def is_unit(self, a):
        return a in (1, -1)

    def unit_inverse(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        return a

    def euclid_size(self, a):
        return abs(a)

    def euclid_divmod(self, a, b):
        q, r = divmod(a, b)
        # Symmetric remainder: |r| <= |b|/2 keeps pivots small.
        if 2 * abs(r) > abs(b):
            if r > 0:
                r -= abs(b)
                q += 1 if b > 0 else -1
            else:
                r += abs(b)
                q -= 1 if b > 0 else -1
        return q, r

    def canonical(self, a):
        return abs(a)

    def parse(self, s):
        return int(str(s))


class Field(Ring):
    """A field: every nonzero element is a unit, division is exact, and
    the canonical associate of a nonzero element is 1."""

    is_field = True

    def is_unit(self, a):
        return not self.is_zero(self.coerce(a))

    def euclid_size(self, a):
        return 0 if self.is_zero(a) else 1

    def euclid_divmod(self, a, b):
        return a / b, self.zero

    def canonical(self, a):
        return self.zero if self.is_zero(a) else self.one


class RationalField(Field):
    name = "Q"

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise MixedRings(f"cannot view {x!r} as a rational")

    def unit_inverse(self, a):
        return Fraction(1) / a

    def format(self, a):
        return str(a)

    def parse(self, s):
        return Fraction(str(s))


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def name(self):
        return f"F{self.p}"

    def coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise MixedRings(f"F_{x.p} element in F_{self.p}")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(self.p, x)
        if isinstance(x, Fraction):
            return PrimeFieldElement(self.p, x.numerator) / PrimeFieldElement(
                self.p, x.denominator
            )
        raise MixedRings(f"cannot view {x!r} in F_{self.p}")

    def unit_inverse(self, a):
        return self.coerce(a).inverse()

    def parse(self, s):
        return PrimeFieldElement(self.p, int(str(s)))


class CyclotomicField(Field):
    def __init__(self, d):
        if d < 1:
            raise ValueError("d must be positive")
        self.d = d

    @property
    def name(self):
        return f"cyclotomic:{self.d}"

    def zeta(self, power=1):
        return CyclotomicElement.zeta(self.d, power)

    def coerce(self, x):
        if isinstance(x, CyclotomicElement):
            if x.d != self.d:
                raise MixedRings(f"zeta_{x.d} element in Q(zeta_{self.d})")
            return x
        if isinstance(x, (int, Fraction)):
            return CyclotomicElement(self.d, [x])
        raise MixedRings(f"cannot view {x!r} in Q(zeta_{self.d})")

    def unit_inverse(self, a):
        return self.coerce(a).inverse()

    def parse(self, s):
        terms = parse_poly_terms(str(s), f"z{self.d}", QQ)
        out = self.zero
        for e, c in terms:
            out = out + c * self.zeta(e)  # zeta() reduces the power mod d
        return out


class LaurentRing(Ring):
    def __init__(self, base):
        self.base = base
        if not base.is_field:
            raise UnsupportedRing("Laurent coefficients must form a field")

    @property
    def name(self):
        return "laurent" if self.base == QQ else f"laurent:{self.base.name}"

    @property
    def zero(self):
        return LaurentPoly(self.base, {})

    @property
    def one(self):
        return LaurentPoly.t(self.base, 0)

    def t(self, exponent=1):
        return LaurentPoly.t(self.base, exponent)

    def coerce(self, x):
        if type(x) is LaurentPoly:
            if x.base is not self.base and x.base != self.base:
                raise MixedRings("Laurent value over a different base field")
            return x
        return LaurentPoly.const(self.base, x)

    def is_unit(self, a):
        return self.coerce(a).is_unit()

    def unit_inverse(self, a):
        return self.coerce(a).inverse()

    def euclid_size(self, a):
        a = self.coerce(a)
        return a.span() + 1 if a else 0

    def euclid_divmod(self, a, b):
        return self.coerce(a).divmod(self.coerce(b))

    def canonical(self, a):
        """Zero valuation at t = 0 and leading coefficient 1."""
        a = self.coerce(a)
        if not a:
            return a
        v = min(a.coeffs)
        inv = _coeff_inverse(self.base, a.coeffs[max(a.coeffs)])
        return LaurentPoly(self.base, {e - v: c * inv for e, c in a.coeffs.items()})

    def parse(self, s):
        terms = parse_poly_terms(str(s), "t", self.base)
        out = {}
        for e, c in terms:
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(self.base, out)

    def content_unit(self, values):
        # Every nonzero scalar of the base field is a unit here, so rows can
        # be rescaled to primitive integer coefficients (primitive-PRS style
        # growth control in Smith reduction): divide by the gcd of the
        # numerators, multiply by the lcm of the denominators.  ``values`` are
        # elements of this ring; only the nonzero ones are read.
        nums, dens = [], []
        for v in values:
            if not v:
                continue
            for c in v.coeffs.values():
                if type(c) is int:
                    nums.append(c)
                elif type(c) is Fraction:
                    nums.append(c.numerator)
                    dens.append(c.denominator)
                elif type(c) is CyclotomicElement:
                    for f in c.coeffs:
                        if f:
                            nums.append(f.numerator)
                            dens.append(f.denominator)
                else:
                    return self.one  # e.g. prime-field base: nothing to do
        if not nums:
            return self.one
        g, l = gcd(*nums), lcm(*dens)
        return self.coerce(Fraction(l, g)) if l != g else self.one


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_string(s: str) -> Ring:
    """Parse a ring descriptor such as 'Q', 'F5', 'cyclotomic:3',
    'laurent', or 'laurent:cyclotomic:4'; ``RingTooLarge`` past a budget."""
    s = s.strip()
    low = s.lower()
    if low == "z":
        return ZZ
    if low == "q":
        return QQ
    if low.startswith("f") and low[1:].isdigit():
        p = int(low[1:])
        if p > MAX_PRIME:
            raise RingTooLarge(f"F<p> needs p <= {MAX_PRIME}, got {p}")
        return PrimeField(p)
    if low.startswith("cyclotomic:"):
        d = int(low.split(":", 1)[1])
        if d > MAX_CYCLOTOMIC_ORDER:
            raise RingTooLarge(f"cyclotomic:<d> needs d <= {MAX_CYCLOTOMIC_ORDER}, got {d}")
        return CyclotomicField(d)
    if low == "laurent":
        return LaurentRing(QQ)
    if low.startswith("laurent:"):
        return LaurentRing(ring_from_string(s.split(":", 1)[1]))
    raise UnsupportedRing(f"unknown ring descriptor {s!r}")


# ----------------------------------------------------------------------
# Shared term-list formatting/parsing for Laurent and cyclotomic scalars.
# The textual form lists terms in ascending exponent order: "t^-2 + 1",
# "1 + 2*t^3", "z3^2".


def _format_coeff(c, base):
    s = base.format(c)
    return f"({s})" if ("+" in s[1:] or "-" in s[1:] or " " in s) else s


def format_poly_terms(terms, symbol, base) -> str:
    terms = list(terms)
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        if e == 0:
            body = _format_coeff(c, base)
            sign = ""
            if body.startswith("-"):
                sign, body = "-", body[1:]
        else:
            mon = symbol if e == 1 else f"{symbol}^{e}"
            cs = _format_coeff(c, base)
            sign = ""
            if cs.startswith("-"):
                sign, cs = "-", cs[1:]
            body = mon if cs == "1" else f"{cs}*{mon}"
        parts.append((sign, body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" - {body}" if sign == "-" else f" + {body}"
    return out


def parse_poly_terms(s, symbol, base):
    """Inverse of format_poly_terms; also accepts '3t', 't**2', spaces."""
    s = s.replace("**", "^").replace(" ", "")
    if not s or s == "0":
        return []
    # Split on top-level + and - (keep unary sign of the first term).
    chunks, depth, cur = [], 0, ""
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "+-^(*":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    terms = []
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if symbol in chunk:
            head, _, tail = chunk.partition(symbol)
            head = head.rstrip("*")
            if head.startswith("(") and head.endswith(")"):
                head = head[1:-1]
            coeff = base.parse(head) if head else base.one
            e = int(tail[1:]) if tail.startswith("^") else 1
        else:
            if chunk.startswith("(") and chunk.endswith(")"):
                chunk = chunk[1:-1]
            coeff = base.parse(chunk)
            e = 0
        terms.append((e, sign * coeff if sign == -1 else coeff))
    return terms
