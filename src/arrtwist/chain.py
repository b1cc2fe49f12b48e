"""Free chain complexes over an exact coefficient ring.

A complex is a finite sequence of free-module ranks together with boundary
matrices ``d_q : C_q -> C_{q-1}``; the constructor refuses data with
``d_q . d_{q+1} != 0``.  Over Q[t,t^-1] that gate runs on integers, by
Kronecker substitution: each d_q is scaled by an integer that clears its
denominators and by a power of t that leaves no negative exponent, and each
entry p becomes p(2^k), with 2^k > ncols(d_q) N_q N_(q+1), N_q the largest
coefficient 1-norm of an entry of d_q.  No coefficient of an entry of
d_q . d_(q+1) reaches 2^k in absolute value, and such a polynomial vanishes
exactly when its value at 2^k does.  Every other ring (Z, Q, F_p,
Q(zeta_d), and Laurent rings over F_p or Q(zeta_d)), and a complex whose
packed entries would pass ``_PACK_BITS``, takes matrix products.  A
Laurent entry whose span passes ``MAX_SPAN`` is refused with
``SpanTooLarge`` first.

Homology is reported as a free rank plus a torsion divisor chain (empty
over fields).  Each boundary is eliminated at most once and the result
cached on the complex, by one elimination for every ring:
``linalg.reduce_boundary``, whose divisor count is the rank and whose
non-unit divisors are the torsion.  It splits off every pivot that divides
its row and column and leaves only the rest to a Smith form.  Over a field
(Q, F_p, Q(zeta_d)) every pivot is a unit and splits; over a PID (Z,
K[t,t^-1]) the complexes come from minimal CW structures, so their
boundaries vanish at t = 1 and nearly every pivot splits.  Once
d_(q-1) is eliminated, d_q is reduced without the rows its split pivots
pair off (see ``FreeChainComplex._elimination``).  Two complexes over the
same PID with equal rank sequences are isomorphic as
chain complexes exactly when the Smith divisor chains of their boundaries
match degree by degree, which is what :func:`decide_isomorphic` checks.
:func:`extend_by_free` is the one assembly step of both the Koszul and the
fiber-type tower complexes, applied once per free factor.
"""

from __future__ import annotations

import json
from numbers import Real

from .rings import QQ, LaurentRing, MixedRings, Refusal, Ring, ring_from_string
# ``rank`` is no longer called here but stays importable as ``chain.rank``:
# the benchmark's tracer self-test (bench/test_bench.py) checks that binding.
from .linalg import Matrix, rank, reduce_boundary  # noqa: F401

# Division with remainder walks every exponent of its operands, so a Laurent
# boundary entry of larger span is refused before any work.
MAX_SPAN = 2**20
# The d . d = 0 gate takes Laurent products instead of packed integers when
# a packed entry would be wider than this many bits.
_PACK_BITS = 2**16


class DegreeOutOfRange(IndexError):
    pass


class SpanTooLarge(Refusal):
    """A Laurent boundary entry whose span passes ``MAX_SPAN``."""


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
    """``x`` as an int, refusing a value that ``int`` would truncate (1.9)
    or that is no number at all (None, a list, a JSON boolean)."""
    if type(x) is bool or not (isinstance(x, (int, str)) or isinstance(x, Real) and int(x) == x):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


_JSON_KINDS = {dict: "object", list: "list", str: "string", bool: "boolean"}


def _shaped(value, kind, what):
    """``value``, which must be a JSON value of ``kind``: dict, list, str or
    bool (a number is not a boolean here)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _json_object(text, what):
    """A JSON document (text, or already parsed) that must be an object."""
    return _shaped(json.loads(text) if isinstance(text, str) else text, dict, what)


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
        packed = _packed(ring, self.boundaries)
        for q in range(1, len(self.boundaries)):
            if packed is None:
                bad = not (self.boundaries[q - 1] * self.boundaries[q]).is_zero()
            else:
                bad = _packed_nonzero(packed[q - 1], packed[q])
            if bad:
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
        """(rank, non-unit Smith divisors, split columns) of d_q, computed
        on first use.

        :func:`~arrtwist.linalg.reduce_boundary` gives both, and the columns
        whose pivots it split off, on every ring; over a field every pivot
        splits and no divisor is torsion.  Splitting the pivot p = d_q[b][a]
        is a change of basis x -> x - (d_q[b][x] / p) * a of C_q; since
        d_q . d_(q+1) = 0, row a of d_(q+1) is zero in the new basis.  So
        once d_q is eliminated, d_(q+1) is reduced without the rows of
        d_q's split columns, and its divisors stay the same.  Zero maps
        outside 1..top need no elimination.
        """
        if not 1 <= q <= self.top:
            return 0, (), frozenset()
        found = self._eliminations[q - 1]
        if found is None:
            below = self._eliminations[q - 2] if q > 1 else None
            divisors, split = reduce_boundary(
                self.boundaries[q - 1], below[2] if below else frozenset())
            torsion = tuple(x for x in divisors if not self.ring.is_unit(x))
            found = self._eliminations[q - 1] = (len(divisors), torsion, split)
        return found

    def boundary_rank(self, q) -> int:
        """Rank of d_q over the fraction field (0 outside 1..top)."""
        return self._elimination(q)[0]

    def cokernel(self, q) -> Homology:
        """Free rank and torsion of coker d_q = C_(q-1) / im d_q."""
        rk, torsion, _ = self._elimination(q)
        target = self.ranks[q - 1] if 0 <= q - 1 <= self.top else 0
        return Homology(target - rk, torsion)

    def homology(self, q) -> Homology:
        """Free rank and torsion of H_q.

        free rank = ranks[q] - rank d_q - rank d_{q+1}; the torsion divisors
        are the non-unit Smith divisors of d_{q+1}.  Both come from the
        cached elimination of each boundary, so the homology of every degree
        eliminates each boundary once in total; d_q goes first, so that
        d_(q+1) is reduced without the rows d_q pairs off.
        """
        if not 0 <= q <= self.top:
            raise DegreeOutOfRange(f"degree {q} not in 0..{self.top}")
        rk = self.boundary_rank(q)
        rank_next, torsion, _ = self._elimination(q + 1)
        return Homology(self.ranks[q] - rk - rank_next, torsion)

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
        data = _json_object(text, "a complex")
        ring = ring_from_string(_shaped(data["ring"], str, "ring"))
        flats = data["boundaries"]
        if not (isinstance(flats, list) and all(isinstance(f, list) for f in flats)):
            raise ValueError(f"boundaries must be a list of entry lists, got {flats!r}")
        ranks = _check_ranks(_shaped(data["ranks"], list, "ranks"), len(flats))
        bnds = []
        for q, flat in enumerate(flats, start=1):
            nr, nc = ranks[q - 1], ranks[q]
            if len(flat) != nr * nc:
                raise ValueError(f"boundary {q}: expected {nr * nc} entries")
            if any(isinstance(v, bool) for v in flat):
                raise ValueError(f"boundary {q}: a JSON boolean is not a scalar")
            vals = [
                ring.parse(v) if isinstance(v, str) else ring.coerce(v) for v in flat
            ]
            rows = [vals[i * nc : (i + 1) * nc] for i in range(nr)]
            bnds.append(Matrix(ring, rows, nr, nc))
        return cls(ring, ranks, bnds)


def _packed(ring, boundaries):
    """The boundaries as sparse rows of ``(column, p(2^k))`` for the
    d . d = 0 gate (see the module docstring), or None where it takes
    matrix products; ``SpanTooLarge`` on an entry of span past ``MAX_SPAN``
    over any Laurent ring.  Products take over when k times the exponent
    range of a boundary passes ``_PACK_BITS``.
    """
    if not isinstance(ring, LaurentRing):
        return None
    over_q = ring.base == QQ
    found = []  # per boundary: lowest and highest exponent, denominator scale, N
    for q, d in enumerate(boundaries, start=1):
        cs = [x.coeffs for row in d.rows for x in row if x.coeffs]
        lo, hi = min(map(min, cs), default=0), max(map(max, cs), default=0)
        if hi - lo > MAX_SPAN:  # else no entry's span can pass it
            span = max(max(c) - min(c) for c in cs)
            if span > MAX_SPAN:
                raise SpanTooLarge(f"an entry of d_{q} has span {span}, past MAX_SPAN = {MAX_SPAN}")
        if over_q:
            norms = [sum(map(abs, c.values())) for c in cs]
            scale = 1
            if type(sum(norms)) is not int:  # a Fraction coefficient: clear denominators
                for v in (v for c in cs for v in c.values()):
                    if scale % v.denominator:
                        scale *= v.denominator
            found.append((lo, hi, scale, int(max(norms, default=0) * scale)))
    if not over_q or len(boundaries) < 2:
        return None
    k = max((d.ncols * a[3] * b[3]).bit_length() for d, a, b in zip(boundaries, found, found[1:]))
    if any(k * (hi - lo + 1) > _PACK_BITS for lo, hi, _, _ in found):
        return None
    packed = []
    for d, (lo, _, scale, _) in zip(boundaries, found):
        rows = []
        for row in d.rows:
            out = []
            for j, x in enumerate(row):
                if x.coeffs:
                    p = 0
                    for e, v in x.coeffs.items():
                        p += (v if scale == 1 else v.numerator * (scale // v.denominator)) << k * (e - lo)
                    out.append((j, p))
            rows.append(out)
        packed.append(rows)
    return packed


def _packed_nonzero(left, right):
    """Whether the product of two packed boundaries has a nonzero entry."""
    for row in left:
        acc = {}
        for m, a in row:
            for j, b in right[m]:
                acc[j] = acc[j] + a * b if j in acc else a * b
        if any(acc.values()):
            return True
    return False


def extend_by_free(ranks, boundaries, twisted, slots, block, top=None):
    """One mapping-cone step (Cohen and Suciu 1998, J. Pure Appl. Algebra
    126): the complex of F_d |x G from the complex D of G, given as block
    ranks and raw boundaries in blocks of size ``block``.  ``twisted`` is
    D with coefficients twisted by the F_d action (blocks of ``block * d``,
    basis-major) and ``slots`` the d ``block x block`` slot maps.  Then
    C_q = D_q (+) (D_(q-1))^d, the copies slot-major, with D's d_q on the
    first summand, (-1)^(q-1) slot_k from the k-th copy into D_(q-1), and
    the twisted d_(q-1) on the copies.  Returns block ranks and boundaries
    up to degree ``top`` (all when None); the caller's one
    :class:`FreeChainComplex` runs the d . d = 0 gate.
    """
    d = len(slots)
    old_top = len(ranks) - 1
    new_top = old_top + 1 if top is None else min(old_top + 1, top)

    def sub(q):  # rank of D_q, zero outside D's degrees
        return ranks[q] if 0 <= q <= old_top else 0

    new_ranks = [sub(q) + d * sub(q - 1) for q in range(new_top + 1)]
    new_bnds = []
    for q in range(1, new_top + 1):
        dq, dq1, dq2 = sub(q), sub(q - 1), sub(q - 2)
        mat = Matrix.zero(slots[0].ring, new_ranks[q - 1] * block, new_ranks[q] * block)
        if q <= old_top:
            mat.paste(0, 0, boundaries[q - 1])
        for k, slot in enumerate(slots):
            for b in range(dq1):
                mat.paste(b * block, (dq + k * dq1 + b) * block, slot, negate=q % 2 == 0)
        if q >= 2:
            copies = twisted[q - 2]
            if d > 1:
                copies = copies.submatrix(
                    _slot_major(dq2, d, block), _slot_major(dq1, d, block))
            mat.paste(dq1 * block, dq * block, copies)
        new_bnds.append(mat)
    return new_ranks, new_bnds


def _slot_major(n, d, s):
    """Indices of a (basis, slot)-ordered sum of n * d blocks of size s,
    listed in (slot, basis) order."""
    return [(a * d + k) * s + p for k in range(d) for a in range(n) for p in range(s)]


def _divisor_chain(c: FreeChainComplex, q):
    """The formatted Smith divisor chain of d_q, read off the cached
    elimination: a unit divisor (canonically 1) per rank not carried by
    torsion, then the torsion divisors."""
    rk, torsion, _ = c._elimination(q)
    ring = c.ring
    return [ring.format(ring.one)] * (rk - len(torsion)) + [ring.format(d) for d in torsion]


def decide_isomorphic(c1: FreeChainComplex, c2: FreeChainComplex):
    """Decide chain-complex isomorphism over a PID via divisor chains.

    Returns ``(verdict, report)``.  Equal degreewise ranks plus equal
    normalized Smith divisor chains of every boundary is equivalent to the
    existence of a degreewise isomorphism commuting with the differentials;
    the report carries the chains as the witness either way.  The chains
    come from each complex's cached eliminations, so asking again runs no
    further Smith form.
    """
    if c1.ring != c2.ring:
        raise MixedRings("complexes over different rings")
    report = {"ring": c1.ring.name, "ranks_equal": list(c1.ranks) == list(c2.ranks)}
    if not report["ranks_equal"]:
        report["reason"] = f"rank sequences differ: {list(c1.ranks)} vs {list(c2.ranks)}"
        return False, report
    degrees = []
    for q in range(1, c1.top + 1):
        da, db = _divisor_chain(c1, q), _divisor_chain(c2, q)
        degrees.append({"q": q, "divisors_a": da, "divisors_b": db, "equal": da == db})
    report["degrees"] = degrees
    bad = [d["q"] for d in degrees if not d["equal"]]
    if bad:
        report["reason"] = f"divisor chains differ at d_{bad}"
    return not bad, report

