import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from arrtwist.rings import (
    CyclotomicElement,
    CyclotomicField,
    LaurentPoly,
    LaurentRing,
    MixedRings,
    PrimeField,
    PrimeFieldElement,
    QQ,
    RationalField,
    ZZ,
    cyclotomic_poly,
    format_poly_terms,
    RingTooLarge,
    ring_from_string,
)


def poly(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


class TestCyclotomicPoly:
    def test_degree_one(self):
        assert cyclotomic_poly(1) == poly(-1, 1)

    def test_known_small(self):
        assert cyclotomic_poly(2) == poly(1, 1)
        assert cyclotomic_poly(3) == poly(1, 1, 1)
        assert cyclotomic_poly(4) == poly(1, 0, 1)

    def test_d6_by_division(self):
        # x^6 - 1 = Phi_1 Phi_2 Phi_3 Phi_6, so Phi_6 = x^2 - x + 1
        assert cyclotomic_poly(6) == poly(1, -1, 1)

    def test_prime_power(self):
        assert cyclotomic_poly(9) == poly(1, 0, 0, 1, 0, 0, 1)


class TestCyclotomicField:
    def test_root_of_unity(self):
        for d in (3, 4, 5, 6, 8):
            K = CyclotomicField(d)
            z = K.zeta()
            acc = K.one
            for _ in range(d):
                acc = acc * z
            assert acc == K.one

    def test_minimal_polynomial_kills_zeta(self):
        for d in (3, 4, 5, 6, 12):
            K = CyclotomicField(d)
            z = K.zeta()
            val = K.zero
            for c in reversed(cyclotomic_poly(d)):
                val = val * z + K.coerce(c)
            assert K.is_zero(val)

    def test_inverse(self):
        K = CyclotomicField(7)
        x = K.zeta(3) - 2 * K.zeta() + K.coerce(Fraction(1, 2))
        assert x * x.inverse() == K.one

    def test_parse_format_roundtrip(self):
        K = CyclotomicField(5)
        x = K.zeta(2) - 3 * K.zeta() + 1
        assert K.parse(K.format(x)) == x


class TestLaurent:
    def test_unit_recognition(self):
        L = LaurentRing(QQ)
        t = L.t()
        assert L.is_unit(3 * t**-2)
        assert L.is_unit(L.one)
        assert not L.is_unit(t - 1)
        assert not L.is_unit(L.zero)

    def test_unit_inverse(self):
        L = LaurentRing(QQ)
        t = L.t()
        u = Fraction(3, 4) * t**5
        assert u * L.unit_inverse(u) == L.one

    def test_divmod_spans(self):
        L = LaurentRing(QQ)
        t = L.t()
        a = t**3 - t**-2
        b = t**2 - 1
        q, r = L.euclid_divmod(a, b)
        assert q * b + r == a
        assert L.euclid_size(r) < L.euclid_size(b)

    def test_gcd_of_torsion_polys(self):
        # gcd(t^a - 1, t^b - 1) is t^gcd(a,b) - 1 up to normalization
        L = LaurentRing(QQ)
        t = L.t()
        assert L.gcd(t**6 - 1, t**4 - 1) == t**2 - 1
        assert L.gcd(t**-3 - 1, t**5 - 1) == t - 1

    def test_canonical_form(self):
        L = LaurentRing(QQ)
        t = L.t()
        v = -3 * t**-2 + 3 * t
        c = L.canonical(v)
        assert min(c.coeffs) == 0  # valuation zero
        assert c.coeffs[max(c.coeffs)] == 1  # monic
        # associate: differ by a unit
        q, r = L.euclid_divmod(v, c)
        assert L.is_zero(r) and L.is_unit(q)

    def test_parse_format_roundtrip(self):
        L = LaurentRing(QQ)
        t = L.t()
        for x in (t**-2 + 1, 2 * t**3 - Fraction(1, 2) * t, L.zero, -t):
            assert L.parse(L.format(x)) == x

    def test_laurent_over_cyclotomic(self):
        K = CyclotomicField(3)
        L = LaurentRing(K)
        z = K.zeta()
        x = L.t() * z + 1
        assert L.parse(L.format(x)) == x
        assert L.is_unit(z * L.t(-4))


class TestPrimeField:
    def test_arithmetic(self):
        F = PrimeField(7)
        a = F.coerce(3)
        assert (a * F.unit_inverse(a)) == F.one
        assert F.coerce(10) == F.coerce(3)
        assert F.coerce(Fraction(1, 2)) * F.coerce(2) == F.one

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(6)


class TestRingFromString:
    def test_names(self):
        assert ring_from_string("Q") == QQ
        assert ring_from_string("Z") == ZZ
        assert ring_from_string("F5") == PrimeField(5)
        assert ring_from_string("cyclotomic:6") == CyclotomicField(6)
        assert ring_from_string("laurent") == LaurentRing(QQ)
        assert ring_from_string("laurent:cyclotomic:3") == LaurentRing(CyclotomicField(3))
        for name in ("Q", "Z", "F7", "cyclotomic:4", "laurent", "laurent:F3"):
            assert ring_from_string(name).name.lower() == name.lower()

    def test_budgets_refuse_before_any_work(self, monkeypatch):
        """Past ``MAX_PRIME`` or ``MAX_CYCLOTOMIC_ORDER`` a descriptor is
        refused before trial division or any cyclotomic polynomial."""
        from arrtwist import rings

        def no_work(*args):
            raise AssertionError("ran work on a refused descriptor")

        monkeypatch.setattr(rings, "_is_prime", no_work)
        monkeypatch.setattr(rings, "cyclotomic_poly", no_work)
        for name in (
            f"F{2**61 - 1}",
            f"F{rings.MAX_PRIME + 15}",  # 2^32 + 15 is prime
            f"laurent:F{2**61 - 1}",
            "cyclotomic:16000",
            f"cyclotomic:{rings.MAX_CYCLOTOMIC_ORDER + 1}",
            f"laurent:cyclotomic:{rings.MAX_CYCLOTOMIC_ORDER + 1}",
        ):
            with pytest.raises(RingTooLarge):
                ring_from_string(name)
        # the largest order within the budget builds its field lazily
        d = rings.MAX_CYCLOTOMIC_ORDER
        assert ring_from_string(f"cyclotomic:{d}") == CyclotomicField(d)


# ----------------------------------------------------------------------
# Differential test of the Laurent scalar layer against a plain reference:
# a Laurent polynomial is a dict exponent -> nonzero coefficient of the base
# field (``Fraction`` over Q), with schoolbook arithmetic.


def ref_norm(p):
    return {e: c for e, c in p.items() if c}


def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return ref_norm(out)


def ref_neg(p):
    return {e: -c for e, c in p.items()}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return ref_norm(out)


def ref_divmod(a, b):
    """Shift to polynomials, long division, shift back (see LaurentPoly)."""
    if not a:
        return {}, {}
    va, vb = min(a), min(b)
    rem = {e - va: c for e, c in a.items()}
    den = {e - vb: c for e, c in b.items()}
    db = max(den)
    quo = {}
    while rem and max(rem) >= db:
        da = max(rem)
        c = rem[da] / den[db]
        quo[da - db] = c
        rem = ref_add(rem, ref_mul({da - db: -c}, den))
    return ({e + va - vb: c for e, c in quo.items()}, {e + va: c for e, c in rem.items()})


def ref_canonical(a):
    if not a:
        return {}
    v, lead = min(a), a[max(a)]
    return {e - v: c / lead for e, c in a.items()}


def ref_inverse(a):
    ((e, c),) = a.items()
    return {-e: 1 / c}


def ref_content(polys):
    """l / g over Q: l the lcm of the denominators, g the gcd of the
    numerators of every rational coefficient; 1 over a prime field."""
    nums, dens = [], []
    for p in polys:
        for c in p.values():
            parts = c.coeffs if isinstance(c, CyclotomicElement) else [c]
            for f in parts:
                if isinstance(f, PrimeFieldElement):
                    return Fraction(1)
                if f:
                    nums.append(f.numerator)
                    dens.append(f.denominator)
    if not nums:
        return Fraction(1)
    return Fraction(lcm(*dens), gcd(*nums))


def ref_format(p, base):
    return format_poly_terms(sorted(p.items()), "t", base)


F5 = PrimeField(5)
CYC3 = CyclotomicField(3)
RATIONALS = [Fraction(k) for k in range(-4, 5)] + [
    Fraction(1, 2), Fraction(-3, 2), Fraction(5, 4), Fraction(-2, 3), Fraction(7, 6),
]


def random_coeff(rnd, base):
    if base is QQ:
        return rnd.choice(RATIONALS)
    if base is F5:
        return F5.coerce(rnd.randint(-4, 4))
    return CYC3.coerce(rnd.choice(RATIONALS)) + rnd.choice(RATIONALS) * CYC3.zeta()


def random_ref(rnd, base, terms=4, integral=False):
    out = {}
    for _ in range(rnd.randint(0, terms)):
        c = Fraction(rnd.randint(-3, 3)) if integral else random_coeff(rnd, base)
        out[rnd.randint(-3, 3)] = c
    return ref_norm(out)


def assert_int_invariant(p):
    """Over Q every integral coefficient is an int, every other a Fraction."""
    for c in p.coeffs.values():
        if type(c) is int:
            continue
        assert type(c) is Fraction and c.denominator != 1, (p, c)


class TestLaurentAgainstReference:
    BASES = [QQ, F5, CYC3]

    def check(self, got, ref, base):
        assert got.coeffs == ref
        if base is QQ:
            assert_int_invariant(got)
            # hash and format read the same for int and Fraction coefficients
            assert hash(got) == hash(("laurent", QQ, tuple(sorted(ref.items()))))
        assert repr(got) == ref_format(ref, base)

    @pytest.mark.parametrize("base", BASES, ids=["Q", "F5", "cyclotomic3"])
    def test_ring_operations(self, rnd, base):
        L = LaurentRing(base)
        for trial in range(150):
            integral = base is QQ and trial % 2 == 0
            ra, rb = random_ref(rnd, base, integral=integral), random_ref(rnd, base, integral=integral)
            a, b = LaurentPoly(base, ra), LaurentPoly(base, rb)
            self.check(a, ra, base)
            self.check(a + b, ref_add(ra, rb), base)
            self.check(a - b, ref_add(ra, ref_neg(rb)), base)
            self.check(a * b, ref_mul(ra, rb), base)
            self.check(L.canonical(a), ref_canonical(ra), base)
            assert (a == b) == (ra == rb)
            assert a == LaurentPoly(base, dict(ra)) and hash(a) == hash(LaurentPoly(base, dict(ra)))
            if rb:
                q, r = a.divmod(b)
                rq, rr = ref_divmod(ra, rb)
                self.check(q, rq, base)
                self.check(r, rr, base)
                assert q * b + r == a
            u = L.content_unit([a, b])
            self.check(u, ref_norm({0: base.coerce(ref_content([ra, rb]))}), base)
            if len(ra) == 1:
                self.check(a.inverse(), ref_inverse(ra), base)
                self.check(L.unit_inverse(a), ref_inverse(ra), base)

    def test_divisors_with_unit_leads(self, rnd):
        # leading coefficient +1 or -1: the int-only division path
        for _ in range(300):
            ra = random_ref(rnd, QQ, terms=6, integral=True)
            rb = random_ref(rnd, QQ, terms=3, integral=True)
            rb[max(rb, default=0) + 1] = Fraction(rnd.choice([1, -1]))
            q, r = LaurentPoly(QQ, ra).divmod(LaurentPoly(QQ, rb))
            rq, rr = ref_divmod(ra, rb)
            assert (q.coeffs, r.coeffs) == (rq, rr)
            assert all(type(c) is int for c in (*q.coeffs.values(), *r.coeffs.values()))

    def test_int_coefficients_at_every_entry_point(self):
        L = LaurentRing(QQ)
        values = [
            L.t(), L.t(-2), L.one, L.coerce(3), L.coerce(Fraction(6, 3)), L.coerce(L.t(4)),
            LaurentPoly.const(QQ, Fraction(-4, 2)), LaurentPoly.t(QQ, 5) ** 2,
            L.parse("2*t^-1 + 3/3 - 4/2*t"), L.parse("1/2*t + 2"),
            L.unit_inverse(L.parse("-1/3*t^2")), L.canonical(L.parse("-2*t^-1 + 4")),
            L.content_unit([L.parse("1/2*t + 3/4")]), L.content_unit([L.parse("6*t + 4")]),
        ]
        for v in values:
            assert_int_invariant(v)
        assert L.zero.coeffs == {} and L.one.coeffs == {0: 1}
        assert L.content_unit([L.parse("6*t + 4")]) == Fraction(1, 2)
        assert L.format(L.parse("1/2*t + 2")) == "2 + 1/2*t"

    def test_mixed_bases_refused(self):
        with pytest.raises(MixedRings):
            LaurentPoly.t(QQ) + LaurentPoly.t(F5)
        with pytest.raises(MixedRings):
            LaurentRing(QQ).coerce(LaurentPoly.t(CYC3))
        # an equal but distinct base object is the same ring
        assert LaurentPoly.t(QQ) == LaurentPoly.t(RationalField())

    @pytest.mark.parametrize(
        "name, a, b, expected",
        [
            ("laurent:F5", "3*t^-1 + 2 + 4*t^2", "2 + 3*t",
             ["3*t^-1 + 4 + 3*t + 4*t^2", "3*t^-1 + 2*t + 4*t^2",
              "t^-1 + 3 + t + 3*t^2 + 2*t^3", "2*t^-1 + 3 + 3*t", "4*t^-1",
              "2 + 3*t + t^3", "1", "1"]),
            ("laurent:cyclotomic:3", "(1 + 2*z3)*t^-1 + 3 + t^2", "(2 - z3) + t",
             ["(1 + 2*z3)*t^-1 + (5 - z3) + t + t^2", "(1 + 2*z3)*t^-1 + (1 + z3) - t + t^2",
              "(4 + 5*z3)*t^-1 + (7 - z3) + 3*t + (2 - z3)*t^2 + t^3",
              "(6 - 5*z3)*t^-1 + (-2 + z3) + t", "(-6 + 23*z3)*t^-1",
              "(1 + 2*z3) + 3*t + t^3", "1", "1"]),
            ("laurent:cyclotomic:3", "(2 + 4*z3)*t + 6", "(1/3)*t^2",
             ["6 + (2 + 4*z3)*t + 1/3*t^2", "6 + (2 + 4*z3)*t - 1/3*t^2",
              "2*t^2 + (2/3 + 4/3*z3)*t^3", "18*t^-2 + (6 + 12*z3)*t^-1", "0",
              "(-1 - 2*z3) + t", "3", "1"]),
        ],
    )
    def test_other_bases_unchanged(self, name, a, b, expected):
        """Results over F5 and Q(zeta_3) as the Fraction-only layer gave them."""
        L = ring_from_string(name)
        a, b = L.parse(a), L.parse(b)
        q, r = L.euclid_divmod(a, b)
        got = [a + b, a - b, a * b, q, r, L.canonical(a), L.content_unit([a, b]), L.gcd(a, b)]
        assert [L.format(x) for x in got] == expected



class TestLaurentFastPaths:
    """``+``, ``-`` and ``*`` of two polynomials over one base object skip the
    coercion and the normalising constructor; each result must equal the
    constructor's normalisation of the schoolbook result, with no zero and
    (over Q) no integral Fraction among its coefficients."""

    @staticmethod
    def mixed_q(rnd, terms=5):
        """Coefficients as given to the arithmetic: ints, integral Fractions
        (demoted by the constructor) and proper Fractions."""
        out = {}
        for _ in range(rnd.randint(0, terms)):
            c = rnd.choice([rnd.randint(-3, 3), Fraction(rnd.randint(-6, 6), 2),
                            Fraction(rnd.randint(-3, 3), rnd.choice([1, 3]))])
            out[rnd.randint(-4, 4)] = c
        return out

    @staticmethod
    def operands(rnd, base):
        if base is QQ:
            return TestLaurentFastPaths.mixed_q(rnd)
        return random_ref(rnd, base, terms=5)

    def check(self, got, raw, base):
        expect = LaurentPoly(base, raw)
        assert got == expect and got.coeffs == expect.coeffs
        assert all(c for c in got.coeffs.values()), got.coeffs
        if base is QQ:
            assert_int_invariant(got)

    @pytest.mark.parametrize("base", [QQ, F5, CYC3], ids=["Q", "F5", "cyclotomic3"])
    def test_against_the_normalising_constructor(self, rnd, base):
        for _ in range(300):
            ra, rb = self.operands(rnd, base), self.operands(rnd, base)
            a, b = LaurentPoly(base, ra), LaurentPoly(base, rb)
            if rnd.random() < 0.3:  # a monomial factor, negative exponents included
                k = rnd.randint(-5, 5)
                c = (rnd.choice([1, -1, Fraction(1, 2), Fraction(-2, 3)]) if base is QQ
                     else random_coeff(rnd, base) or base.one)
                rb, b = {k: c}, LaurentPoly(base, {k: c})
            ca, cb = dict(a.coeffs), dict(b.coeffs)
            self.check(a + b, ref_add(ca, cb), base)
            self.check(a - b, ref_add(ca, ref_neg(cb)), base)
            self.check(a * b, ref_mul(ca, cb), base)
            self.check(b * a, ref_mul(ca, cb), base)
            self.check(-a, ref_neg(ca), base)
            assert (a.coeffs, b.coeffs) == (ca, cb)  # operands untouched

    @pytest.mark.parametrize("base", [QQ, F5, CYC3], ids=["Q", "F5", "cyclotomic3"])
    def test_cancellation_to_zero(self, rnd, base):
        for _ in range(50):
            a = LaurentPoly(base, self.operands(rnd, base))
            for got in (a - a, a + (-a), (-a) + a, a * LaurentPoly(base, {})):
                assert got.coeffs == {} and not got
        half = LaurentPoly(QQ, {-2: Fraction(1, 2), 3: Fraction(3, 2)})
        for got, want in (
            (half + half, {-2: 1, 3: 3}),
            (half - LaurentPoly(QQ, {-2: Fraction(-1, 2)}), {-2: 1, 3: Fraction(3, 2)}),
            (half * LaurentPoly(QQ, {-1: 2}), {-3: 1, 2: 3}),
            (half * LaurentPoly(QQ, {1: Fraction(2, 3)}), {-1: Fraction(1, 3), 4: 1}),
            ((half - LaurentPoly.t(QQ, 0)) * (half + half), None),
        ):
            assert_int_invariant(got)
            if want is not None:
                assert got.coeffs == want
                assert all(type(got.coeffs[e]) is type(c) for e, c in want.items())

    def test_mixed_bases_still_refused(self):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(MixedRings):
                op(LaurentPoly.t(QQ), LaurentPoly.t(F5))
            with pytest.raises(MixedRings):
                op(LaurentPoly.t(CYC3), LaurentPoly.t(CyclotomicField(4)))
        # an equal but distinct base object takes the coercing path
        other = RationalField()
        assert LaurentPoly.t(QQ) * LaurentPoly.t(other) == LaurentPoly.t(QQ, 2)
        assert LaurentPoly.t(QQ) - LaurentPoly.t(other) == 0

# -- Q(zeta_d) against Fraction polynomial arithmetic ---------------------------
# The reference is the Fraction-only layer: Phi_d by division of x^d - 1 over
# Q, products reduced by general division with remainder, and the inverse by
# the extended Euclidean algorithm against Phi_d.


def cref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def cref_add(a, b):
    n = max(len(a), len(b))
    return cref_trim(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def cref_scale(a, s):
    return cref_trim(x * s for x in a)


def cref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return cref_trim(out)


def cref_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = Fraction(1) / Fraction(b[-1])
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
        a.pop()
    return cref_trim(q), cref_trim(a)


def cref_phi(d):
    num = tuple(Fraction(-1 if i == 0 else 1 if i == d else 0) for i in range(d + 1))
    for e in range(1, d):
        if d % e == 0:
            num, rem = cref_divmod(num, cref_phi(e))
            assert not rem
    return num


def cref_reduce(a, d):
    """Coefficients of a mod Phi_d, padded to length phi(d)."""
    phi = cref_phi(d)
    rem = cref_divmod(a, phi)[1]
    return rem + (Fraction(0),) * (len(phi) - 1 - len(rem))


def cref_inverse(a, d):
    r0, r1 = cref_trim(a), cref_phi(d)
    u0, u1 = (Fraction(1),), ()
    while r1:
        q, r = cref_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, cref_add(u0, cref_scale(cref_mul(q, u1), -1))
    assert len(r0) == 1
    return cref_reduce(cref_scale(u0, Fraction(1) / r0[0]), d)


def cref_format(a, d):
    return format_poly_terms(((k, c) for k, c in enumerate(a) if c), f"z{d}", QQ)


CYCLO_DS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15)


def random_cyclo_coeffs(rnd, phi):
    """Integral, non-integral, negative and zero coefficients; some inputs
    longer than phi(d), so the constructor reduces them."""
    length = phi + rnd.choice((0, 0, 0, 1, 3))
    kind = rnd.random()
    out = []
    for _ in range(length):
        if rnd.random() < 0.3:
            out.append(Fraction(0))
        elif kind < 0.4:
            out.append(Fraction(rnd.randint(-5, 5)))
        else:
            out.append(Fraction(rnd.randint(-7, 7), rnd.randint(1, 4)))
    return tuple(out)


def assert_cyclo_int_invariant(x):
    for c in x.coeffs:
        if type(c) is not int:
            assert type(c) is Fraction and c.denominator != 1, (x, c)


class TestCyclotomicAgainstReference:
    @pytest.mark.parametrize("d", CYCLO_DS)
    def test_arithmetic(self, rnd, d):
        phi = len(cref_phi(d)) - 1
        for _ in range(25):
            ra, rb = random_cyclo_coeffs(rnd, phi), random_cyclo_coeffs(rnd, phi)
            a, b = CyclotomicElement(d, ra), CyclotomicElement(d, rb)
            ra, rb = cref_reduce(ra, d), cref_reduce(rb, d)
            cases = [
                (a, ra),
                (a + b, cref_reduce(cref_add(ra, rb), d)),
                (a - b, cref_reduce(cref_add(ra, cref_scale(rb, -1)), d)),
                (a * b, cref_reduce(cref_mul(ra, rb), d)),
                (-a, cref_reduce(cref_scale(ra, -1), d)),
            ]
            if any(ra):
                cases.append((a.inverse(), cref_inverse(ra, d)))
                cases.append((b / a, cref_reduce(cref_mul(rb, cref_inverse(ra, d)), d)))
            for got, ref in cases:
                assert got.coeffs == ref, (d, ra, rb)
                assert_cyclo_int_invariant(got)
                same = CyclotomicElement(d, ref)
                assert got == same and hash(got) == hash(same)
                assert repr(got) == cref_format(ref, d)
                if not any(ref[1:]):  # a rational element equals its scalar
                    assert got == ref[0]
                    if ref[0].denominator == 1:
                        assert got == int(ref[0])
            assert (a == b) == (ra == rb)

    @pytest.mark.parametrize("d", CYCLO_DS)
    def test_scalars_and_powers_of_zeta(self, d):
        K = CyclotomicField(d)
        assert K.coerce(3) == 3 and K.coerce(Fraction(6, 2)).coeffs == K.coerce(3).coeffs
        assert hash(K.coerce(Fraction(6, 2))) == hash(K.coerce(3))
        assert repr(K.coerce(Fraction(-1, 2))) == "-1/2"
        z = K.zeta()
        acc = K.one
        for k in range(2 * d + 1):
            ref = cref_reduce((Fraction(0),) * (k % d) + (Fraction(1),), d)
            assert acc.coeffs == ref and all(type(c) is int for c in acc.coeffs)
            assert acc.inverse().coeffs == cref_inverse(ref, d)
            assert all(type(c) is int for c in acc.inverse().coeffs)  # units stay integral
            acc = acc * z

    @pytest.mark.parametrize("d", CYCLO_DS + (16, 30))
    def test_phi_in_ints_multiplies_to_x_d_minus_1(self, d):
        product = (1,)
        for e in range(1, d + 1):
            if d % e == 0:
                phi = cyclotomic_poly(e)
                assert all(type(c) is int for c in phi) and phi[-1] == 1
                assert phi == cref_phi(e)
                out = [0] * (len(product) + len(phi) - 1)
                for i, x in enumerate(product):
                    for j, y in enumerate(phi):
                        out[i + j] += x * y
                product = tuple(out)
        assert product == (-1,) + (0,) * (d - 1) + (1,)
        assert all(type(c) is int for c in product)

    @pytest.mark.parametrize("d", (5, 7, 8, 12))
    def test_monomial_inverse_matches_the_norm_route(self, d, monkeypatch):
        """c * zeta^k for every k < d: the inverse equals the norm route's.
        A single nonzero coefficient (k < phi(d)) is inverted with no
        cyclotomic product at all."""
        K = CyclotomicField(d)
        phi = len(cyclotomic_poly(d)) - 1
        calls = []
        mul = CyclotomicElement.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return mul(a, b)

        for k in range(d):
            for c in (1, -1, 3, Fraction(-2, 5)):
                x = K.zeta(k) * c
                want = x._norm_inverse()
                calls.clear()
                monkeypatch.setattr(CyclotomicElement, "__mul__", counting_mul)
                got = x.inverse()
                monkeypatch.setattr(CyclotomicElement, "__mul__", mul)
                assert got == want and got.coeffs == want.coeffs, (d, k, c)
                assert_cyclo_int_invariant(got)
                if k < phi:
                    assert not calls, (d, k, c)
                assert x * got == 1

    @pytest.mark.parametrize("d", tuple(range(1, 13)) + (15, 16))
    def test_roots_of_unity_skip_the_norm_route(self, d, monkeypatch):
        """c * zeta^k for every k < d, also k >= phi(d), where zeta^k has
        several nonzero coefficients: the inverse equals the norm route's
        and never takes it.  An element off every root's line still does."""
        K = CyclotomicField(d)
        norm_inverse = CyclotomicElement._norm_inverse
        taken = []

        def watched(x):
            taken.append(x)
            return norm_inverse(x)

        monkeypatch.setattr(CyclotomicElement, "_norm_inverse", watched)
        for k in range(d):
            for c in (1, -1, 3, Fraction(-2, 5), Fraction(7, 4)):
                x = K.zeta(k) * c
                got = x.inverse()
                assert not taken, (d, k, c)
                want = norm_inverse(x)
                assert got == want and got.coeffs == want.coeffs, (d, k, c)
                assert_cyclo_int_invariant(got)
                assert x * got == 1
        if d > 2:
            x = K.zeta() + 2
            assert x * x.inverse() == 1 and taken == [x]

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicField(5).zero.inverse()

    def test_inverse_at_d97_is_fast(self, rnd):
        # a dense element: the Euclidean inverse over Q[x] took about 9 s on
        # one like it (Python 3.11, 2-core x86 host), the norm about 0.3 s
        x = CyclotomicElement(97, [Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(96)])
        start = time.perf_counter()
        y = x.inverse()
        elapsed = time.perf_counter() - start
        assert x * y == 1
        assert elapsed < 5.0, elapsed
