"""Projective hyperplane arrangements and their intersection-lattice
combinatorics.

An arrangement is a list of n+1 pairwise non-proportional rational covectors
in r coordinates; index 0 is the distinguished hyperplane H_0.  All lattice
data is computed from the central arrangement of the same forms (the cone):
flats are closed index sets, a flat's subspace lies inside H_0 exactly when
its index set contains 0, and the projectively visible flats are those of
codimension < r.

`central_flats` is the one source of matroid data: girth, essentiality,
dense edges and Betti numbers are read off the flats and their Moebius
values, and no rank is taken.  One breadth-first pass builds both.  Each
flat carries the primitive integer residuals of its outside forms, equal
residuals name one cover, and a cover's residuals are its parent's after
one fraction-free step each.
The top level is free: a flat of codim r - 1 is covered only by the set of
all forms.  Moebius values come in the same pass, by Weisner's theorem.
The lattice is refused (`LatticeTooLarge`) once it passes `MAX_FLATS`.

Betti numbers of the projective complement follow the decone convention:
Whitney sums of Moebius values over the central flats whose subspace is not
contained in H_0, which gives b_0 = 1 and b_1 = n.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import inf

from .chain import _as_count, _json_object
# ``rank`` is no longer called here but stays importable as ``arrangement.rank``:
# the benchmark's tracer self-test (bench/test_bench.py) checks that binding.
from .linalg import rank  # noqa: F401
from .rings import Refusal, _direction, _primitive


class NotEssential(Refusal):
    pass


class InvalidCharacter(ValueError):
    pass


class GirthTooSmall(Refusal):
    """c(A) = 3: the connectivity order p(M) is not determined here."""


class NotGenericPosition(Refusal):
    pass


class LatticeTooLarge(Refusal):
    """The intersection lattice has more than ``MAX_FLATS`` flats."""


# The lattice budget.  Braid A_7 has 4140 flats and generic (6, 12) 1587;
# braid A_8 has 21 147, and the beta scan of ``dense_edges`` is quadratic
# in the flat count, so a larger lattice is refused rather than left to run.
MAX_FLATS = 10_000


class Flat:
    """A closed set of hyperplane indices together with its codimension."""

    __slots__ = ("indices", "codim")

    def __init__(self, indices, codim):
        self.indices = frozenset(indices)
        self.codim = codim

    def __eq__(self, other):
        return isinstance(other, Flat) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __le__(self, other):
        return self.indices <= other.indices

    def __repr__(self):
        return f"Flat({sorted(self.indices)}, codim={self.codim})"


class Character:
    """Integer weights, one per hyperplane, summing to zero."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = tuple(_as_count(w, "a weight") for w in weights)
        if sum(self.weights) != 0:
            raise InvalidCharacter(
                f"weights must sum to 0, got {sum(self.weights)}"
            )

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    @classmethod
    def from_tail(cls, tail):
        """Weights gamma_1..gamma_n with gamma_0 := -sum chosen for H_0."""
        tail = [_as_count(w, "a weight") for w in tail]
        return cls([-sum(tail)] + tail)

    def __repr__(self):
        return f"Character{self.weights}"


class BettiData:
    __slots__ = ("betti", "euler")

    def __init__(self, betti):
        self.betti = tuple(int(b) for b in betti)
        self.euler = sum((-1) ** q * b for q, b in enumerate(self.betti))

    def __repr__(self):
        return f"BettiData(betti={list(self.betti)}, euler={self.euler})"


def _insert(flats, mu, flat, codim):
    """Record a newly found flat, refusing once the budget is passed."""
    flats[flat] = codim
    mu[flat] = 0
    if len(flats) > MAX_FLATS:
        raise LatticeTooLarge(
            f"the intersection lattice has more than {MAX_FLATS} flats"
        )


def _reduce(residuals, residual, cover):
    """The residuals of the cover's outside forms: each parent residual
    reduced by one fraction-free step at the leading entry of the cover's
    own residual, made primitive again."""
    p = next(j for j, x in enumerate(residual) if x)
    head = residual[p]
    out = []
    for i, v in residuals:
        if i in cover:
            continue
        vp = v[p]
        if vp:
            v = _primitive([head * x - vp * y for x, y in zip(v, residual)])
        out.append((i, v))
    return out


class Arrangement:
    """n+1 rational hyperplanes in P^(r-1), H_0 distinguished.

    >>> a = Arrangement(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    >>> a.girth()
    4
    >>> a.betti_data().betti
    (1, 3, 3)
    """

    def __init__(self, r, forms, labels=None):
        self.r = _as_count(r, "r")
        self._flats = self._mu = None
        self.forms = []
        for f in forms:
            vec = tuple(Fraction(x) for x in f)
            if len(vec) != self.r:
                raise ValueError(f"form {f} does not have {self.r} coordinates")
            if not any(vec):
                raise ValueError("zero covector is not a hyperplane")
            self.forms.append(vec)
        # The lattice works over Z: scaling a form by a nonzero rational
        # changes no flat, and integer vectors avoid Fraction arithmetic.
        self._int_forms = [_direction(vec) for vec in self.forms]
        # proportional forms have equal primitive vectors; name the first pair
        first, clashes = {}, []
        for j, v in enumerate(self._int_forms):
            i = first.setdefault(v, j)
            if i != j:
                clashes.append((i, j))
        if clashes:
            i, j = min(clashes)
            raise ValueError(f"hyperplanes {i} and {j} coincide")
        self.labels = list(labels) if labels else [f"H{i}" for i in range(len(self.forms))]
        if len(self.labels) != len(self.forms):
            raise ValueError("one label per hyperplane")

    @property
    def n(self):
        """Count of non-distinguished hyperplanes."""
        return len(self.forms) - 1

    def is_essential(self):
        return self.central_flats()[frozenset(range(len(self.forms)))] == self.r

    def _require_essential(self):
        if not self.is_essential():
            raise NotEssential(
                "the forms do not span; pass an essential arrangement"
            )

    def central_flats(self):
        """All flats of the cone (closed index sets, the empty one included),
        as a dict {frozenset: codim}, in breadth-first discovery order.

        Each frontier flat carries the residuals of its outside forms, in
        index order: the form projected along the flat's span, fraction-free
        and made primitive with a positive leading entry.  Two outside forms
        have equal residuals exactly when they span the same cover, so a
        flat's covers are the groups of equal residuals, found in one pass.
        A cover's residuals are built once, when it is first found: each of
        its parent's is reduced by one fraction-free step against the
        cover's own residual (at that residual's leading entry) and made
        primitive again; the composite is again a projection along the
        cover's span, up to scale.  A residual that is zero at that entry is
        already reduced.  The top level is free: a flat of codim r - 1 with
        an outside form is covered only by the set of all forms, at codim
        r, so no residual is built at codim r - 1.

        The Moebius values mu(0, S) come in the same pass, by Weisner's
        theorem with the atom min S: mu(0, S) = -sum mu(0, T) over the
        covers T of S with min S not in T.  The search meets each cover
        relation once, as one residual group of T, and finishes every T of
        a level before any S of the next one is read.

        Raises ``LatticeTooLarge`` as soon as the count passes
        ``MAX_FLATS``."""
        if self._flats is None:
            m, top_codim = len(self._int_forms), self.r - 1
            flats, mu = {frozenset(): 0}, {frozenset(): 1}
            frontier = [(frozenset(), list(enumerate(self._int_forms)))]
            codim = 0
            while frontier and codim < top_codim:
                nxt = []
                for flat, residuals in frontier:
                    covers = {}  # residual -> its forms, in index order
                    for i, v in residuals:
                        covers.setdefault(v, []).append(i)
                    low, mu_flat = min(flat, default=m), mu[flat]
                    for residual, members in covers.items():
                        new = flat.union(members)
                        if new not in flats:
                            _insert(flats, mu, new, codim + 1)
                            nxt.append((new, _reduce(residuals, residual, new)
                                        if codim + 1 < top_codim else None))
                        if members[0] < low:  # min new is not in flat
                            mu[new] -= mu_flat
                frontier = nxt
                codim += 1
            top = frozenset(range(m))
            for flat, _ in frontier:  # codim r - 1, when the loop got there
                if len(flat) < m:
                    if top not in flats:
                        _insert(flats, mu, top, self.r)
                    if 0 not in flat:  # min top = 0
                        mu[top] -= mu[flat]
            self._flats, self._mu = flats, mu
        return self._flats

    def intersection_lattice(self):
        """The projectively nonempty flats (codim < r), ordered by inclusion
        of index sets = reverse inclusion of subspaces."""
        return sorted(
            (
                Flat(s, c)
                for s, c in self.central_flats().items()
                if s and c < self.r
            ),
            key=lambda f: (f.codim, sorted(f.indices)),
        )

    def girth(self):
        """Minimum size of a dependent subset of the cone's forms; inf if
        the forms are independent.  Always >= 3 when finite.  A flat of
        codim c with more than c forms holds a dependent (c+1)-set, and the
        closure of a circuit is such a flat."""
        return min(
            (c + 1 for s, c in self.central_flats().items() if len(s) > c),
            default=inf,
        )

    def dense_edges(self):
        """Flats of the cone whose localization is irreducible (connected
        matroid); every singleton qualifies.  These are the flats F whose
        Crapo beta invariant, up to sign the sum of mu(0, G) * codim G over
        the flats G <= F, is nonzero."""
        flats, mu = self.central_flats(), self.moebius()
        return sorted(
            (
                Flat(s, c)
                for s, c in flats.items()
                if s and sum(mu[g] * flats[g] for g in flats if g <= s)
            ),
            key=lambda f: (f.codim, sorted(f.indices)),
        )

    def is_nonresonant(self, character: Character):
        """Whether all dense edges inside H_0 have nonzero weight sums.

        Only projectively visible edges count (codim < r): the cone's
        center, when dense, contains every index and its weight sum is the
        zero character sum, so including it would make every character
        resonant.  Returns (verdict, violators)."""
        if len(character) != len(self.forms):
            raise InvalidCharacter(
                f"need {len(self.forms)} weights, got {len(character)}"
            )
        violators = []
        for flat in self.dense_edges():
            if flat.codim >= self.r:
                continue  # projectively empty: not an edge of the arrangement
            if 0 not in flat.indices:
                continue  # the flat's subspace is not inside H_0
            if sum(character[i] for i in flat.indices) == 0:
                violators.append(flat)
        return (not violators), violators

    def moebius(self):
        """Moebius values mu(0, S) on the central lattice, as a dict in the
        order of ``central_flats``; computed with the flats, by Weisner's
        theorem."""
        self.central_flats()
        return self._mu

    def betti_data(self) -> BettiData:
        """Betti numbers b_0..b_(r-1) of the projective complement."""
        self._require_essential()
        mu = self.moebius()
        flats = self.central_flats()
        betti = [0] * self.r
        for s, m in mu.items():
            if 0 in s:
                continue  # flat inside H_0: not a flat of the decone
            q = flats[s]
            if q < self.r:
                betti[q] += abs(m)
        return BettiData(betti)

    def generic_position_profile(self):
        """(p, is_generic_position): p = c - 2 when the girth c exceeds 3
        (inf for independent forms); generic position means c = r + 1 and
        more than r hyperplanes (n + 1 > r)."""
        self._require_essential()
        c = self.girth()
        if c == 3:
            raise GirthTooSmall(
                "c(A) = 3: p(M) is not determined combinatorially here"
            )
        p = inf if c == inf else c - 2
        is_generic = c == self.r + 1 and self.n + 1 > self.r
        return p, is_generic

    # -- constructions and I/O --------------------------------------------

    @classmethod
    def generic(cls, r, count):
        """count hyperplanes in P^(r-1) with every r-subset independent
        (moment-curve covectors)."""
        forms = [[Fraction(i) ** k for k in range(r)] for i in range(count)]
        return cls(r, forms)

    @classmethod
    def boolean(cls, n_plus_1):
        """The coordinate hyperplanes in P^(n_plus_1 - 1)."""
        r = n_plus_1
        forms = [[1 if j == i else 0 for j in range(r)] for i in range(r)]
        return cls(r, forms)

    @classmethod
    def from_json(cls, text):
        data = _json_object(text, "an arrangement")
        forms = data["forms"]
        if not (isinstance(forms, list) and all(
                isinstance(row, list) and all(isinstance(x, (int, float, Fraction, str)) for x in row)
                for row in forms)):
            raise ValueError(f"forms must be a list of coefficient lists, got {forms!r}")
        forms = [[Fraction(x) if isinstance(x, str) else x for x in row] for row in forms]
        return cls(data["r"], forms, labels=data.get("labels"))

    def to_json(self):
        return json.dumps(
            {
                "r": self.r,
                "forms": [[str(x) if x.denominator != 1 else x.numerator for x in f] for f in self.forms],
                "labels": self.labels,
            }
        )
