"""The explicit chain complex of Z^n with unit coefficients, its truncations,
and the twisted-homology/homotopy computations it supports for arrangements
whose forms have no small dependencies.

Z^n is the tower with exponents [1, ..., 1], so the complex is n
mapping-cone steps (:func:`arrtwist.chain.extend_by_free`), one per
generator, with slot (u^-1 - 1) for its unit u; the units commute, so each
step's twisted copy is the complex so far.  The basis is the generator
subsets in colex order, scaled by the module rank, and d_q removes the
generator at position i with sign (-1)^i.  With all units equal to 1 every
boundary vanishes and the ranks are plain binomials.

For an essential arrangement whose minimal dependency size c exceeds 3, the
homology of this complex computes the twisted homology of the complement in
degrees < c - 2; when c = r + 1 (generic position inside a Boolean ambient
arrangement) the truncation at degree r - 1 computes everything, and the top
degree can be cross-checked against an Euler-characteristic formula.
"""

from __future__ import annotations

import json
from math import inf

from .arrangement import Arrangement, Character, GirthTooSmall, NotGenericPosition
from .chain import FreeChainComplex, Homology, extend_by_free
# ``rank`` is no longer called here but stays importable as ``koszul.rank``:
# the benchmark's tracer self-test (bench/test_bench.py) checks that binding.
from .linalg import Matrix, rank  # noqa: F401
from .rings import CyclotomicField, LaurentRing, QQ, Ring, UnsupportedRing


class Disagreement(RuntimeError):
    """Two computation paths that must agree did not; a convention bug."""


def _check(name, a, b):
    """One named comparison of two routes to the same value."""
    return {"name": name, "values": [a, b], "agree": a == b}


def require_agreement(checks):
    """``checks``, a list of :func:`_check` comparisons of paired routes, or
    Disagreement carrying their JSON when any differs.  This is how the
    library compares any two computed values, so every mismatch reports
    the full list of checks it was part of."""
    if not all(c["agree"] for c in checks):
        raise Disagreement(json.dumps(checks))
    return checks


class UnitAssignment:
    """Invertible scalars (or commuting invertible matrices) assigned to the
    n generators, acting on a coefficient module whose rank is the size of
    the matrix units (1 when every unit is a scalar).  A scalar unit u among
    matrix units acts as u times the identity."""

    def __init__(self, ring: Ring, units):
        self.ring = ring
        self.units = list(units)
        self.n = len(self.units)
        first = next((u for u in self.units if isinstance(u, Matrix)), None)
        self.module_rank = module_rank = first.nrows if first is not None else 1
        self._slot = []  # (u^-1 - 1) per generator, as a module_rank x module_rank block
        eye = Matrix.identity(ring, module_rank)
        for u in self.units:
            if isinstance(u, Matrix):
                if (u.nrows, u.ncols) != (module_rank, module_rank):
                    raise ValueError("matrix units must be square of the module rank")
                self._slot.append(u.inverse() - eye)
            else:
                u = ring.coerce(u)
                if not ring.is_unit(u):
                    raise ValueError(f"{ring.format(u)} is not a unit in {ring.name}")
                self._slot.append(eye * ring.unit_inverse(u) - eye)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if isinstance(self.units[i], Matrix) and isinstance(self.units[j], Matrix):
                    if self.units[i] * self.units[j] != self.units[j] * self.units[i]:
                        raise ValueError(
                            f"units {i} and {j} do not commute: not a Z^n action"
                        )

    @classmethod
    def from_weights(cls, ring: Ring, weights):
        """The unit of each integer weight w: t^w over K[t,t^-1], zeta^w over
        Q(zeta_d), and 1 over any other field, which takes zero weights only.
        A ring that is not a field has no units to offer."""
        if isinstance(ring, LaurentRing):
            return cls(ring, [ring.t(w) for w in weights])
        if isinstance(ring, CyclotomicField):
            return cls(ring, [ring.zeta(w) for w in weights])
        if not ring.is_field:
            raise UnsupportedRing(f"cannot interpret weights in {ring.name}")
        if any(weights):
            raise UnsupportedRing(
                f"{ring.name} has no distinguished unit: only zero weights make sense"
            )
        return cls(ring, [ring.one for _ in weights])

    @classmethod
    def from_character(cls, character: Character):
        """Units t^(gamma_i), i = 1..n, over Q[t,t^-1]; the weight of H_0 is
        determined by the zero-sum constraint and plays no role here."""
        return cls.from_weights(
            LaurentRing(QQ), [character[i] for i in range(1, len(character))]
        )

    def slot_block(self, i) -> Matrix:
        return self._slot[i]


def build_koszul(u: UnitAssignment, top_degree=None) -> FreeChainComplex:
    """The unit-twisted exterior complex on n generators up to top_degree.

    >>> from arrtwist.rings import LaurentRing, QQ
    >>> L = LaurentRing(QQ)
    >>> c = build_koszul(UnitAssignment(L, [L.t()]))
    >>> c.boundary(1).format_entries()
    [['t^-1 - 1']]
    """
    n, d = u.n, u.module_rank
    if top_degree is None:
        top_degree = n
    if not 0 <= top_degree <= n:
        raise ValueError(f"top degree must lie in 0..{n}")
    ranks, bnds = [1], []
    for i in range(n):  # the units commute, so D twisted by u_i is D itself
        ranks, bnds = extend_by_free(ranks, bnds, bnds, [u.slot_block(i)], d, top_degree)
    return FreeChainComplex(u.ring, [r * d for r in ranks], bnds)


class RangeHomology:
    """Twisted homology in the combinatorially valid range of degrees."""

    __slots__ = ("entries", "girth", "limit", "note")

    def __init__(self, entries, girth, limit, note=""):
        self.entries = entries
        self.girth = girth
        self.limit = limit
        self.note = note

    def __getitem__(self, q):
        return self.entries[q]


def generic_range_homology(arr: Arrangement, u: UnitAssignment) -> RangeHomology:
    """H_q(M(A); L) for q < c - 2, straight from the Z^n complex.

    Valid because in that range the homology depends only on the module and
    on n; for c = inf the arrangement is Boolean and every degree counts
    (reported with a note)."""
    if u.n != arr.n:
        raise ValueError(f"unit assignment has n={u.n}, arrangement has n={arr.n}")
    c = arr.girth()
    if c == 3:
        raise GirthTooSmall(
            "c(A) = 3: the generic-range identification does not apply"
        )
    if c == inf:
        limit = arr.n + 1  # all degrees: the complement is the Boolean one
        note = "independent forms: every degree is in range"
    else:
        limit = c - 2
        note = ""
    complex_top = min(arr.n, limit)
    cx = build_koszul(u, complex_top)
    entries = {q: cx.homology(q) for q in range(min(limit, complex_top + 1))}
    return RangeHomology(entries, c, limit, note)


class CompleteHomology:
    """All-degrees homology for the generic-position case.  ``checks`` is
    the top-degree comparison of the two routes (formula first, kernel
    rank second), as :func:`require_agreement` passed it."""

    __slots__ = ("entries", "top_degree", "chi", "kappa", "checks",
                 "top_rank_formula", "top_rank_direct")

    def __init__(self, entries, top_degree, chi, kappa, checks):
        self.entries = entries
        self.top_degree = top_degree
        self.chi = chi
        self.kappa = kappa
        self.checks = checks
        self.top_rank_formula, self.top_rank_direct = checks[0]["values"]

    def __getitem__(self, q):
        if q in self.entries:
            return self.entries[q]
        if q > self.top_degree:
            return Homology(0)
        raise KeyError(q)


def check_generic_position(arr: Arrangement, u: UnitAssignment):
    """Refuse the inputs :func:`complete_homology_generic_position` cannot
    handle: no generic position, a unit count other than n, or coefficients
    other than a Laurent character or a module over a field."""
    _, is_gp = arr.generic_position_profile()
    if not is_gp:
        raise NotGenericPosition(
            "complete computation needs c = r + 1 with n + 1 > r"
        )
    if u.n != arr.n:
        raise ValueError(f"unit assignment has n={u.n}, arrangement has n={arr.n}")
    ring = u.ring
    if isinstance(ring, LaurentRing):
        if u.module_rank != 1:
            raise UnsupportedRing(
                "Laurent coefficients support rank-one (character) modules only"
            )
    elif not ring.is_field:
        raise UnsupportedRing("coefficients must be K[t,t^-1] or a field module")


def complete_homology_generic_position(
    arr: Arrangement, u: UnitAssignment, full: FreeChainComplex = None
) -> CompleteHomology:
    """Twisted homology of a generic-position arrangement in all degrees.

    Degrees below r-1 come from the Z^n complex; degree r-1 is computed
    both as the kernel rank of the truncated top boundary and through the
    alternating-sum formula

        rank H_(r-1) = (-1)^(r-1) [ (module rank) * chi(M) - kappa ],
        kappa = sum_(q=0)^(r-2) (-1)^q rank H_q,

    and the two must agree: the comparison is the one check kept on the
    result, and a mismatch raises Disagreement.  Degrees above r-1
    vanish, so only d_1 .. d_(r-1) are read and the complex is built up to
    degree r - 1.  ``full`` is a complex of ``u`` built at least that far
    when the caller already has one; its cached eliminations are reused.
    """
    check_generic_position(arr, u)
    r = arr.r
    if full is None:
        full = build_koszul(u, min(arr.n, r - 1))
    entries = {}
    kappa = 0
    for q in range(r - 1):
        h = full.homology(q)
        entries[q] = h
        kappa += (-1) ** q * h.free_rank
    chi = arr.betti_data().euler
    d = u.module_rank
    formula = (-1) ** (r - 1) * (d * chi - kappa)
    # direct path: H_(r-1) of the truncation at r-1 is the kernel of d_(r-1)
    direct = full.ranks[r - 1] - full.boundary_rank(r - 1)
    checks = require_agreement(
        [_check("top-degree homology: kappa formula vs kernel rank", formula, direct)]
    )
    entries[r - 1] = Homology(direct)
    return CompleteHomology(entries, r - 1, chi, kappa, checks)


class PresentationSummary:
    """A presentation matrix for a module plus its cokernel invariants."""

    __slots__ = ("matrix", "cokernel", "ring")

    def __init__(self, matrix, cokernel, ring):
        self.matrix = matrix
        self.cokernel = cokernel
        self.ring = ring

    @classmethod
    def of_boundary(cls, cx: FreeChainComplex, q) -> "PresentationSummary":
        """d_q of ``cx`` with its cokernel, read from the cached elimination."""
        return cls(cx.boundary(q), cx.cokernel(q), cx.ring)


def pi_p_presentation_boolean(arr: Arrangement, character: Character) -> PresentationSummary:
    """Presentation of the character-abelianized first higher homotopy group
    for generic-position arrangements with Boolean ambient, where
    p = c - 2 = r - 1.

    The presentation matrix is the (p+2)-nd boundary of the Z^n complex with
    units t^(gamma_i) (a zero-column matrix when p + 2 > n); the cokernel
    summary lists its free rank over K[t,t^-1] and the non-unit invariant
    factors.
    """
    u = UnitAssignment.from_character(character)
    check_generic_position(arr, u)
    p = arr.r - 1
    return PresentationSummary.of_boundary(build_koszul(u, min(p + 2, arr.n)), p + 2)
