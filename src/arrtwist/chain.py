"""Free chain complexes over an exact coefficient ring.

A complex is a finite sequence of free-module ranks together with boundary
matrices ``d_q : C_q -> C_{q-1}``; the constructor refuses data with
``d_q . d_{q+1} != 0``.  Homology is reported as a free rank plus a torsion
divisor chain (empty over fields).  Each boundary is eliminated at most once
and the result cached on the complex: over a PID (Z, K[t,t^-1]) by its Smith
form, whose divisor count is the rank and whose non-unit divisors are the
torsion; over a field by Gaussian elimination (``linalg.rank``).  Two
complexes over the same PID with equal rank sequences are isomorphic as
chain complexes exactly when the Smith divisor chains of their boundaries
match degree by degree, which is what :func:`decide_isomorphic` checks.
"""

from __future__ import annotations

import json

from .rings import Ring, MixedRings, UnsupportedRing, ZZ, ring_from_string
from .linalg import Matrix, rank, smith_normal_form


class DegreeOutOfRange(IndexError):
    pass


class Homology:
    """free_rank plus a torsion divisor chain for one degree."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        self.free_rank = free_rank
        self.torsion = tuple(torsion)

    def __eq__(self, other):
        return (
            isinstance(other, Homology)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __repr__(self):
        return f"Homology(free_rank={self.free_rank}, torsion={list(self.torsion)})"

    def describe(self, ring):
        return {
            "free_rank": self.free_rank,
            "torsion": [ring.format(d) for d in self.torsion],
        }


def _as_count(x, what):
    """``x`` as an int, refusing a value that ``int`` would truncate (1.9)."""
    n = int(x)
    if n != x and not isinstance(x, str):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return n


def _check_ranks(ranks, nbounds):
    """The ranks as ints.  Refuses non-integral and negative ranks and a
    boundary count other than one per degree 1..top, before any boundary
    is read."""
    ranks = tuple(_as_count(r, "a rank") for r in ranks)
    if any(r < 0 for r in ranks):
        raise ValueError(f"ranks must be nonnegative, got {list(ranks)}")
    if nbounds != max(len(ranks) - 1, 0):
        raise ValueError("need one boundary map per degree 1..top")
    return ranks


class FreeChainComplex:
    """C_0 <- C_1 <- ... <- C_top with free modules of the given ranks.

    ``boundaries[q - 1]`` is ``d_q`` (a ranks[q-1] x ranks[q] matrix), for
    q = 1..top.

    >>> from arrtwist.rings import QQ
    >>> c = FreeChainComplex(QQ, [1, 2, 1], [Matrix.zero(QQ, 1, 2), Matrix.zero(QQ, 2, 1)])
    >>> c.homology(1).free_rank
    2
    """

    __slots__ = ("ring", "ranks", "boundaries", "_eliminations")

    def __init__(self, ring: Ring, ranks, boundaries):
        self.ring = ring
        self.boundaries = list(boundaries)
        self.ranks = _check_ranks(ranks, len(self.boundaries))
        for q, d in enumerate(self.boundaries, start=1):
            if (d.nrows, d.ncols) != (self.ranks[q - 1], self.ranks[q]):
                raise ValueError(
                    f"d_{q} has shape {d.nrows}x{d.ncols}, expected "
                    f"{self.ranks[q - 1]}x{self.ranks[q]}"
                )
            if d.ring != ring:
                raise MixedRings("boundary over a different ring")
        for q in range(1, len(self.boundaries)):
            if not (self.boundaries[q - 1] * self.boundaries[q]).is_zero():
                raise ValueError(f"d_{q} . d_{q+1} != 0: not a chain complex")
        self._eliminations = [None] * len(self.boundaries)

    @property
    def top(self):
        return len(self.ranks) - 1

    def boundary(self, q) -> Matrix:
        """d_q, with zero maps outside 1..top."""
        if 1 <= q <= self.top:
            return self.boundaries[q - 1]
        source = self.ranks[q] if 0 <= q <= self.top else 0
        target = self.ranks[q - 1] if 0 <= q - 1 <= self.top else 0
        return Matrix.zero(self.ring, target, source)

    def _elimination(self, q):
        """(rank, non-unit Smith divisors) of d_q, computed on first use.

        Over a field the divisors are empty and the rank is Gaussian; over a
        PID one Smith form gives both.  Zero maps outside 1..top need none.
        """
        if not 1 <= q <= self.top:
            return 0, ()
        found = self._eliminations[q - 1]
        if found is None:
            d = self.boundaries[q - 1]
            if self.ring.is_field:
                found = (rank(d), ())
            else:
                form = smith_normal_form(d)
                found = (form.rank, form.nontrivial(self.ring))
            self._eliminations[q - 1] = found
        return found

    def boundary_rank(self, q) -> int:
        """Rank of d_q over the fraction field (0 outside 1..top)."""
        return self._elimination(q)[0]

    def cokernel(self, q) -> Homology:
        """Free rank and torsion of coker d_q = C_(q-1) / im d_q."""
        rk, torsion = self._elimination(q)
        target = self.ranks[q - 1] if 0 <= q - 1 <= self.top else 0
        return Homology(target - rk, torsion)

    def homology(self, q) -> Homology:
        """Free rank and torsion of H_q.

        free rank = ranks[q] - rank d_q - rank d_{q+1}; the torsion divisors
        are the non-unit Smith divisors of d_{q+1}.  Both come from the
        cached elimination of each boundary, so the homology of every degree
        eliminates each boundary once in total.
        """
        if not 0 <= q <= self.top:
            raise DegreeOutOfRange(f"degree {q} not in 0..{self.top}")
        rank_next, torsion = self._elimination(q + 1)
        return Homology(self.ranks[q] - self.boundary_rank(q) - rank_next, torsion)

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * r for q, r in enumerate(self.ranks))

    def tensor_substitute(self, target_ring, entry_map):
        """A new complex over ``target_ring`` with every boundary entry sent
        through ``entry_map`` (a ring homomorphism on entries)."""
        bnds = [
            Matrix(
                target_ring,
                [[entry_map(x) for x in row] for row in d.rows],
                d.nrows,
                d.ncols,
            )
            for d in self.boundaries
        ]
        return FreeChainComplex(target_ring, self.ranks, bnds)

    # -- JSON wire format -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "ring": self.ring.name,
                "ranks": list(self.ranks),
                "boundaries": [
                    [self.ring.format(x) for row in d.rows for x in row]
                    for d in self.boundaries
                ],
            }
        )

    @classmethod
    def from_json(cls, text) -> "FreeChainComplex":
        data = json.loads(text) if isinstance(text, str) else text
        ring = ring_from_string(data["ring"])
        ranks = _check_ranks(data["ranks"], len(data["boundaries"]))
        bnds = []
        for q, flat in enumerate(data["boundaries"], start=1):
            nr, nc = ranks[q - 1], ranks[q]
            if len(flat) != nr * nc:
                raise ValueError(f"boundary {q}: expected {nr * nc} entries")
            vals = [
                ring.parse(v) if isinstance(v, str) else ring.coerce(v) for v in flat
            ]
            rows = [vals[i * nc : (i + 1) * nc] for i in range(nr)]
            bnds.append(Matrix(ring, rows, nr, nc))
        return cls(ring, ranks, bnds)


def euler_characteristic(c: FreeChainComplex) -> int:
    return c.euler_characteristic()


def decide_isomorphic(c1: FreeChainComplex, c2: FreeChainComplex):
    """Decide chain-complex isomorphism over a PID via divisor chains.

    Returns ``(verdict, report)``.  Equal degreewise ranks plus equal
    normalized Smith divisor chains of every boundary is equivalent to the
    existence of a degreewise isomorphism commuting with the differentials;
    the report carries the chains as the witness either way.
    """
    if c1.ring != c2.ring:
        raise MixedRings("complexes over different rings")
    report = {"ring": c1.ring.name, "ranks_equal": list(c1.ranks) == list(c2.ranks)}
    if not report["ranks_equal"]:
        report["reason"] = f"rank sequences differ: {list(c1.ranks)} vs {list(c2.ranks)}"
        return False, report
    degrees = []
    verdict = True
    for q in range(1, c1.top + 1):
        da = smith_normal_form(c1.boundary(q)).divisors
        db = smith_normal_form(c2.boundary(q)).divisors
        equal = da == db
        degrees.append(
            {
                "q": q,
                "divisors_a": [c1.ring.format(d) for d in da],
                "divisors_b": [c2.ring.format(d) for d in db],
                "equal": equal,
            }
        )
        if not equal:
            verdict = False
    report["degrees"] = degrees
    if not verdict:
        bad = [d["q"] for d in degrees if not d["equal"]]
        report["reason"] = f"divisor chains differ at d_{bad}"
    return verdict, report


def complex_over_q(c: FreeChainComplex) -> FreeChainComplex:
    """View an integer complex over Q (universal-coefficient comparisons)."""
    from .rings import QQ

    if c.ring != ZZ:
        raise UnsupportedRing("expected a complex over Z")
    return c.tensor_substitute(QQ, lambda x: QQ.coerce(x))
