import json
from fractions import Fraction

import pytest

from arrtwist import chain
from arrtwist.chain import (
    DegreeOutOfRange,
    FreeChainComplex,
    Homology,
    decide_isomorphic,
)
from arrtwist.koszul import UnitAssignment, build_koszul
from arrtwist.linalg import Matrix, smith_normal_form
from arrtwist.rings import LaurentRing, QQ, ZZ


def euler_characteristic(c):
    """The alternating sum of the ranks of the chain modules."""
    return sum((-1) ** q * r for q, r in enumerate(c.ranks))


def one_by_one(ring, value):
    return FreeChainComplex(ring, (1, 1), [Matrix(ring, [[value]])])


def cokernel_order_by_enumeration(d):
    """Brute-force oracle: the order of Z/(d) as the set of distinct residues
    reachable by repeated addition of 1."""
    seen = set()
    x = 0
    while True:
        x = (x + 1) % abs(d)
        if x in seen or x == 0:
            break
        seen.add(x)
    return len(seen) + 1  # the residues seen plus zero


def random_unimodular(rnd, ring, n, steps=6):
    m = Matrix.identity(ring, n)
    for _ in range(steps):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i == j:
            continue
        c = ring.coerce(rnd.randint(-2, 2))
        rows = [row[:] for row in m.rows]
        for k in range(n):
            rows[i][k] = rows[i][k] + c * rows[j][k]
        m = Matrix(ring, rows)
    return m


def random_z_complex(rnd, lengths=(2, 3, 2)):
    """A random complex over Z built from diagonal pieces conjugated by
    unimodular matrices (so boundaries compose to zero by construction)."""
    r0, r1, r2 = lengths
    d1 = Matrix.zero(ZZ, r0, r1)
    d2 = Matrix.zero(ZZ, r1, r2)
    # split C_1 into image-of-d2 slots and surviving slots
    pivots1 = rnd.randint(0, min(r0, r1))
    for k in range(pivots1):
        d1.rows[k][k] = rnd.randint(1, 4)
    pivots2 = rnd.randint(0, min(r1 - pivots1, r2))
    for k in range(pivots2):
        d2.rows[pivots1 + k][k] = rnd.randint(1, 4)
    u0 = random_unimodular(rnd, ZZ, r0)
    u1 = random_unimodular(rnd, ZZ, r1)
    u2 = random_unimodular(rnd, ZZ, r2)
    u1inv = u1.inverse()
    return FreeChainComplex(ZZ, lengths, [u0 * d1 * u1, u1inv * d2 * u2])


class TestHomology:
    def test_laurent_interval(self):
        L = LaurentRing(QQ)
        c = one_by_one(L, L.t() - 1)
        h0 = c.homology(0)
        assert h0.free_rank == 0 and list(h0.torsion) == [L.t() - 1]
        h1 = c.homology(1)
        assert h1.free_rank == 0 and not h1.torsion

    def test_zero_boundaries(self):
        ranks = (1, 3, 3, 1)
        bnds = [Matrix.zero(QQ, ranks[q - 1], ranks[q]) for q in range(1, 4)]
        c = FreeChainComplex(QQ, ranks, bnds)
        assert c.homology(2).free_rank == 3

    def test_degree_out_of_range(self):
        c = one_by_one(ZZ, 2)
        with pytest.raises(DegreeOutOfRange):
            c.homology(5)

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError):
            FreeChainComplex(
                ZZ,
                (1, 1, 1),
                [Matrix(ZZ, [[1]]), Matrix(ZZ, [[1]])],
            )

    def test_universal_coefficients_free_ranks(self, rnd):
        for _ in range(15):
            c = random_z_complex(rnd)
            cq = c.tensor_substitute(QQ, QQ.coerce)
            for q in range(c.top + 1):
                assert c.homology(q).free_rank == cq.homology(q).free_rank

    def test_euler_from_field_homology(self, rnd):
        for _ in range(15):
            c = random_z_complex(rnd).tensor_substitute(QQ, QQ.coerce)
            total = sum(
                (-1) ** q * c.homology(q).free_rank for q in range(c.top + 1)
            )
            assert total == euler_characteristic(c)


class TestEulerCharacteristic:
    def test_small(self):
        c = FreeChainComplex(QQ, (1, 2, 1), [Matrix.zero(QQ, 1, 2), Matrix.zero(QQ, 2, 1)])
        assert euler_characteristic(c) == 0

    def test_truncated_generic(self):
        c = FreeChainComplex(
            QQ, (1, 4, 6), [Matrix.zero(QQ, 1, 4), Matrix.zero(QQ, 4, 6)]
        )
        assert euler_characteristic(c) == 3

    def test_two_term(self):
        for n in (1, 3, 7):
            c = FreeChainComplex(QQ, (1, n), [Matrix.zero(QQ, 1, n)])
            assert euler_characteristic(c) == 1 - n


class TestDecideIsomorphic:
    def test_unit_scaling(self):
        ok, report = decide_isomorphic(one_by_one(ZZ, 2), one_by_one(ZZ, -2))
        assert ok, report

    def test_z2_vs_z4(self):
        # oracle first: the cokernels have different orders
        assert cokernel_order_by_enumeration(2) == 2
        assert cokernel_order_by_enumeration(4) == 4
        ok, report = decide_isomorphic(one_by_one(ZZ, 2), one_by_one(ZZ, 4))
        assert not ok
        assert "reason" in report

    def test_diagonal_permutation(self):
        c1 = FreeChainComplex(ZZ, (2, 2), [Matrix(ZZ, [[1, 0], [0, 2]])])
        c2 = FreeChainComplex(ZZ, (2, 2), [Matrix(ZZ, [[2, 0], [0, 1]])])
        ok, _ = decide_isomorphic(c1, c2)
        assert ok

    def test_rank_mismatch_is_false(self):
        c1 = FreeChainComplex(ZZ, (1, 1), [Matrix(ZZ, [[2]])])
        c2 = FreeChainComplex(ZZ, (1, 2), [Matrix(ZZ, [[2, 0]])])
        ok, report = decide_isomorphic(c1, c2)
        assert not ok and not report["ranks_equal"]

    def test_unimodular_change_of_basis(self, rnd):
        for _ in range(12):
            c = random_z_complex(rnd)
            v0 = random_unimodular(rnd, ZZ, c.ranks[0])
            v1 = random_unimodular(rnd, ZZ, c.ranks[1])
            v2 = random_unimodular(rnd, ZZ, c.ranks[2])
            moved = FreeChainComplex(
                ZZ,
                c.ranks,
                [v0 * c.boundary(1) * v1.inverse(), v1 * c.boundary(2) * v2.inverse()],
            )
            ok, report = decide_isomorphic(c, moved)
            assert ok, report


def fresh_smith_report(c1, c2):
    """The reference for decide_isomorphic's report: one fresh Smith form
    per boundary, every divisor listed."""
    report = {"ring": c1.ring.name, "ranks_equal": list(c1.ranks) == list(c2.ranks)}
    if not report["ranks_equal"]:
        report["reason"] = f"rank sequences differ: {list(c1.ranks)} vs {list(c2.ranks)}"
        return False, report
    degrees = []
    for q in range(1, c1.top + 1):
        da = smith_normal_form(c1.boundary(q)).divisors
        db = smith_normal_form(c2.boundary(q)).divisors
        degrees.append({"q": q, "divisors_a": [c1.ring.format(d) for d in da],
                        "divisors_b": [c2.ring.format(d) for d in db], "equal": da == db})
    report["degrees"] = degrees
    bad = [d["q"] for d in degrees if not d["equal"]]
    if bad:
        report["reason"] = f"divisor chains differ at d_{bad}"
    return not bad, report


class TestDecideIsomorphicCached:
    L = LaurentRing(QQ)

    def pairs(self):
        L = self.L
        diag2 = FreeChainComplex.from_json({"ring": "Z", "ranks": [1, 1], "boundaries": [["2"]]})
        diag4 = FreeChainComplex.from_json({"ring": "Z", "ranks": [1, 1], "boundaries": [["4"]]})

        def laurent(*w):
            return build_koszul(UnitAssignment(L, [L.t(x) for x in w]))

        def field(*units):
            return build_koszul(UnitAssignment(QQ, units))

        return [
            (diag2, diag4), (diag2, diag2), (diag4, diag2),
            (laurent(1, 2, 0), laurent(2, 1, 0)), (laurent(2, 4, 6), laurent(1, 3, 2)),
            (laurent(1, 1), laurent(1, 1, 1)),
            (field(1, 1, 1), field(2, 1, 1)), (field(3, Fraction(1, 2)), field(3, 5)),
        ]

    def test_report_matches_fresh_smith_forms(self):
        for a, b in self.pairs():
            want = fresh_smith_report(a, b)
            assert json.dumps(decide_isomorphic(a, b)) == json.dumps(want)

    def test_second_call_runs_no_smith_form(self, monkeypatch):
        calls = []
        real = chain.reduce_boundary
        monkeypatch.setattr(chain, "reduce_boundary",
                            lambda m, drop: calls.append(m) or real(m, drop))
        a, b = self.pairs()[4]
        first = decide_isomorphic(a, b)
        assert calls
        calls.clear()
        assert decide_isomorphic(a, b) == first and not calls


class TestJson:
    def test_roundtrip_laurent(self):
        L = LaurentRing(QQ)
        c = one_by_one(L, L.t() - 1)
        c2 = FreeChainComplex.from_json(c.to_json())
        assert c2.ring == L and c2.ranks == c.ranks
        assert c2.boundary(1) == c.boundary(1)

    def test_roundtrip_integer(self):
        c = FreeChainComplex(ZZ, (2, 2), [Matrix(ZZ, [[1, 0], [0, 2]])])
        c2 = FreeChainComplex.from_json(c.to_json())
        assert c2.boundary(1) == c.boundary(1)
