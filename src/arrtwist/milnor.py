"""Milnor-fiber first Betti spectra and the relative-minimality obstruction.

For an essential arrangement of n+1 hyperplanes with a meridian-marked
presentation of the complement's fundamental group, b_1 of the Milnor fiber
splits as the sum over t = 0..n of the twisted first Betti numbers where
every meridian acts by u^t, u a primitive (n+1)-st root of unity.  All t are
computed inside the single field Q(zeta_(n+1)); t = 0 is the untwisted case
and must give n.  When gcd(t, n+1) = gcd(s, n+1) the twisted matrices for t
and s are Galois conjugate, so b_1^t = b_1^s; every t is still computed, and
a computed spectrum that breaks this raises ``Disagreement``.

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
from .koszul import Disagreement
from .rings import QQ, CyclotomicField


class MilnorSpectrum:
    """b_1^t for t = 0..n, with the structural invariants enforced:
    b_1^0 = n, and b_1^t = b_1^(n+1-t) (complex conjugation)."""

    __slots__ = ("n", "values", "b1_total")

    def __init__(self, n, values):
        self.n = _as_count(n, "n")
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


def spectrum_from_presentation(pres: GroupPresentation) -> MilnorSpectrum:
    """The spectrum of a meridian-marked presentation.

    >>> pencil = GroupPresentation(2, (), meridian_marked=True)  # pi_1 = F_2
    >>> spectrum_from_presentation(pencil).values
    (2, 1, 1)
    """
    if not pres.meridian_marked:
        raise NotMeridianMarked(
            "the spectrum needs generators marked as meridians"
        )
    n = pres.n
    values = [None] * (n + 1)
    # t = 0: constant coefficients; meridian marking forces b_1 = n.
    h1 = alexander_complex(pres, [QQ.one] * n, QQ).homology(1)
    if h1.free_rank != n:
        raise NotMeridianMarked(
            f"untwisted H_1 has rank {h1.free_rank}, expected n = {n}"
        )
    values[0] = n
    K = CyclotomicField(n + 1)
    by_gcd = {}
    for t in range(1, n + 1):
        units = [K.zeta(t)] * n
        values[t] = alexander_complex(pres, units, K).homology(1).free_rank
        # zeta^t and zeta^s with gcd(t, n+1) = gcd(s, n+1) are Galois
        # conjugate, and so are the twisted matrices and their ranks
        first = by_gcd.setdefault(gcd(t, n + 1), t)
        if values[t] != values[first]:
            raise Disagreement(
                f"b_1^{t} = {values[t]} but b_1^{first} = {values[first]}, "
                f"though gcd({t}, {n + 1}) = gcd({first}, {n + 1})"
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
    divides = spectrum.b1_total % n == 0 if n else True
    # constant tail => total = n(1 + c), so divisibility follows; check.
    if constant_tail and not divides:
        raise Disagreement("internal inconsistency: constant tail must divide")
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
