"""Milnor-fiber first Betti spectra and the relative-minimality obstruction.

For an essential arrangement of n+1 hyperplanes with a meridian-marked
presentation of the complement's fundamental group, b_1 of the Milnor fiber
splits as the sum over t = 0..n of the twisted first Betti numbers where
every meridian acts by u^t, u a primitive (n+1)-st root of unity.  u^t is a
primitive e-th root of unity with e = (n+1) / gcd(t, n+1), and its Galois
conjugates are the u^s with gcd(s, n+1) = gcd(t, n+1); so b_1^t depends
only on that gcd and is computed once per class.  t = 0, the untwisted
case, is the class e = 1 and must give n.

Every value is read off one complex: the presentation complex over
Q[s, s^-1] with every meridian sent to s, assembled (and checked to be a
complex) once.  Two routes give each class's value:

* the Alexander module (Libgober, Duke Math. J. 49, 1982), by universal
  coefficients at q = 1.  H_1 over Q[s, s^-1] is a free part plus the
  torsion of the Smith divisors of d_2, and H_0 is the torsion of those of
  d_1.  As d_q = P D Q with P, Q invertible over Q[s, s^-1], and
  s -> zeta_e is a ring map, the rank of d_q at zeta_e counts the divisors
  that do not vanish there; so b_1^t is the free rank of H_1 plus the
  number of torsion divisors of H_1 and of H_0 (the Tor term) that Phi_e
  divides (the Phi_e rule).  H_0 = Q[s, s^-1]/(s - 1) for n >= 1, so the
  Tor term counts at e = 1 only;
* the cyclotomic rank: the complex specialized by s -> zeta_e into
  Q(zeta_e), where H_1's rank comes from the one elimination of every
  ring, ``linalg.reduce_boundary``; every pivot there is a unit.

Each class is a named check of ``koszul.require_agreement``: a class whose
two values differ raises ``Disagreement``.

If the complement embedded as a subcomplex of a minimal structure on the
ambient Boolean complement (through degree 2), the twisted numbers for
t = 1..n would all be equal, forcing n to divide b_1(F).  A spectrum with a
non-constant tail therefore certifies that no such embedding exists for any
arrangement realizing it.
"""

from __future__ import annotations

from math import gcd

from .chain import _as_count
from .fox import GroupPresentation, NotMeridianMarked, alexander_complex
from .koszul import _check, require_agreement
from .rings import (
    MAX_CYCLOTOMIC_ORDER, QQ, CyclotomicElement, CyclotomicField, LaurentPoly, LaurentRing,
    RingTooLarge, cyclotomic_poly,
)


class MilnorSpectrum:
    """b_1^t for t = 0..n, with the structural invariants enforced:
    b_1^0 = n, and b_1^t = b_1^(n+1-t) (complex conjugation)."""

    __slots__ = ("n", "values", "b1_total")

    def __init__(self, n, values):
        self.n = _as_count(n, "n")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        self.values = tuple(_as_count(v, "a twisted Betti number") for v in values)
        if len(self.values) != self.n + 1:
            raise ValueError(f"need n+1 = {self.n + 1} values, got {len(self.values)}")
        if any(v < 0 for v in self.values):
            raise ValueError("twisted Betti numbers are nonnegative")
        if self.values[0] != self.n:
            raise ValueError(
                f"b_1^0 must equal n = {self.n} (constant coefficients), got {self.values[0]}"
            )
        for t in range(1, self.n + 1):
            if self.values[t] != self.values[self.n + 1 - t]:
                raise ValueError(
                    f"conjugation symmetry fails: b_1^{t} != b_1^{self.n + 1 - t}"
                )
        self.b1_total = sum(self.values)

    def __repr__(self):
        return f"MilnorSpectrum(n={self.n}, values={list(self.values)})"


def _at_root_of_unity(cx, e):
    """The complex ``cx`` over Q[s, s^-1] specialized by s -> zeta_e into
    Q(zeta_e): the image of an entry is the sum of c times the power-basis
    vector of zeta_e^(k mod e) over its terms c s^k, negative k included,
    so it costs multiplications and additions of coefficients and no
    polynomial division.  Every zero entry maps to one shared zero."""
    K = CyclotomicField(e)
    zero = K.zero

    def image(p):
        return CyclotomicElement._of_powers(e, p.coeffs.items()) if p else zero

    return cx.tensor_substitute(K, image)


def _vanishes_at_root(delta, phi):
    """Whether Phi_e (given as the Laurent polynomial ``phi``) divides
    ``delta``, that is whether delta(zeta_e) = 0."""
    return not delta.divmod(phi)[1]


def spectrum_from_presentation(pres: GroupPresentation) -> MilnorSpectrum:
    """The spectrum of a meridian-marked presentation.

    One complex: the presentation complex over L = Q[s, s^-1] with every
    meridian sent to s.  For each divisor g of n+1, with e = (n+1)/g, every
    t = 0..n with gcd(t, n+1) = g gets (t = 0 is the class g = n+1, e = 1)

    * the Alexander-module value, by universal coefficients at q = 1: the
      free rank of H_1 over L plus the number of torsion divisors of H_1
      and of H_0 (the Tor term) that Phi_e divides;
    * the cyclotomic value: the rank of H_1 of the complex at s = zeta_e,
      over Q(zeta_e).

    Each class is one named check, and ``Disagreement`` is raised when the
    two values of any class differ.  H_0 is L/(s - 1) for n >= 1, so only
    e = 1 gains a Tor term, and b_1^0 = n comes out of both routes.
    The class t = 1 needs Q(zeta_(n+1)), so ``RingTooLarge`` is raised
    before any work when n + 1 passes ``MAX_CYCLOTOMIC_ORDER``.

    >>> pencil = GroupPresentation(2, (), meridian_marked=True)  # pi_1 = F_2
    >>> spectrum_from_presentation(pencil).values
    (2, 1, 1)
    """
    if not pres.meridian_marked:
        raise NotMeridianMarked(
            "the spectrum needs generators marked as meridians"
        )
    n = pres.n
    if n + 1 > MAX_CYCLOTOMIC_ORDER:  # the class t = 1 reaches Q(zeta_(n+1))
        raise RingTooLarge(
            f"the spectrum of {n} generators needs Q(zeta_{n + 1}), "
            f"past MAX_CYCLOTOMIC_ORDER = {MAX_CYCLOTOMIC_ORDER}"
        )
    L = LaurentRing(QQ)
    cx = alexander_complex(pres, [L.t()] * n, L)
    h0, h1 = cx.homology(0), cx.homology(1)
    torsion = h1.torsion + h0.torsion  # H_0's divisors are the Tor term
    by_gcd, checks = {}, []
    for t in range(n + 1):
        g = gcd(t, n + 1)
        if g in by_gcd:
            continue
        e = (n + 1) // g
        phi = LaurentPoly(QQ, dict(enumerate(cyclotomic_poly(e))))
        by_gcd[g] = h1.free_rank + sum(1 for d in torsion if _vanishes_at_root(d, phi))
        checks.append(_check(
            f"b_1^{t}, class gcd({t}, {n + 1}) = {g}: Alexander module vs rank over Q(zeta_{e})",
            by_gcd[g], _at_root_of_unity(cx, e).homology(1).free_rank,
        ))
    require_agreement(checks)
    values = [by_gcd[gcd(t, n + 1)] for t in range(n + 1)]
    if values[0] != n:  # meridian marking forces b_1^0 = n
        raise NotMeridianMarked(
            f"untwisted H_1 has rank {values[0]}, expected n = {n}"
        )
    return MilnorSpectrum(n, values)


def obstruction_report(spectrum: MilnorSpectrum) -> dict:
    """Divisibility test of the relative-minimality consequence.

    constant_tail: whether b_1^t is the same for all t = 1..n;
    divides: whether n divides the total.  Either failing certifies that a
    degree-2 subcomplex embedding into the Boolean ambient minimal structure
    is impossible for any arrangement realizing the spectrum (the tool never
    claims the converse).
    """
    n = spectrum.n
    tail = spectrum.values[1:]
    constant_tail = len(set(tail)) <= 1
    # a constant tail c gives total = n(1 + c), as b_1^0 = n: it divides
    divides = spectrum.b1_total % n == 0 if n else True
    obstructed = not (constant_tail and divides)
    report = {
        "n": n,
        "spectrum": list(spectrum.values),
        "b1_total": spectrum.b1_total,
        "constant_tail": constant_tail,
        "divides": divides,
        "verdict": "obstructed" if obstructed else "not_obstructed",
    }
    if obstructed:
        report["certificate"] = (
            "relative minimality through degree 2 over the Boolean ambient "
            "arrangement is impossible for any arrangement with this spectrum"
        )
    return report
