import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, inf

import pytest

from arrtwist.arrangement import Arrangement, Character, GirthTooSmall, NotGenericPosition
from arrtwist.chain import FreeChainComplex
from arrtwist.koszul import (
    UnitAssignment,
    build_koszul,
    complete_homology_generic_position,
    generic_range_homology,
    pi_p_presentation_boolean,
)
from arrtwist.linalg import Matrix
from arrtwist.rings import CyclotomicField, LaurentRing, QQ, ZZ


L = LaurentRing(QQ)


def laurent_units(*weights):
    return UnitAssignment(L, [L.t(w) for w in weights])


class TestBuild:
    def test_trivial_units_zero_boundaries(self):
        c = build_koszul(UnitAssignment(QQ, [1, 1]))
        assert c.ranks == (1, 2, 1)
        assert all(b.is_zero() for b in c.boundaries)

    def test_single_generator_laurent(self):
        c = build_koszul(laurent_units(1))
        assert c.ranks == (1, 1)
        assert c.boundary(1).format_entries() == [["t^-1 - 1"]]

    def test_zeta_signs(self):
        K = CyclotomicField(3)
        z = K.zeta()
        c = build_koszul(UnitAssignment(K, [z, z]))
        s = z.inverse() - 1
        assert c.boundary(1).rows == [[s, s]]
        assert c.boundary(2).rows == [[-s], [s]]

    def test_boundary_square_random_units(self, rnd):
        # d.d = 0 is checked at construction; exercise several shapes and rings
        for n in range(1, 6):
            weights = [rnd.randint(-3, 3) for _ in range(n)]
            build_koszul(laurent_units(*weights))
        K = CyclotomicField(5)
        for n in (2, 3):
            units = [K.zeta(rnd.randrange(1, 5)) for _ in range(n)]
            build_koszul(UnitAssignment(K, units))

    def test_all_units_one_gives_binomials(self):
        for n in (2, 4):
            c = build_koszul(laurent_units(*([0] * n)))
            for q in range(n + 1):
                h = c.homology(q)
                assert h.free_rank == comb(n, q) and not h.torsion

    def test_matrix_units_scale_ranks(self):
        K = CyclotomicField(4)
        i = K.zeta()  # order 4
        u1 = Matrix(K, [[i, K.zero], [K.zero, i]])
        u2 = Matrix(K, [[K.zeta(3), K.zero], [K.zero, i]])
        ua = UnitAssignment(K, [u1, u2])
        assert ua.module_rank == 2
        c = build_koszul(ua)
        assert list(c.ranks) == [2 * comb(2, q) for q in range(3)]

    def test_scalar_and_matrix_units_in_either_order(self):
        """The module rank comes from the matrix unit wherever it stands, so
        [M, 3] and [3, M] are both accepted and give the same slot blocks."""
        m = Matrix(QQ, [[1, 1], [0, 1]])
        first, last = UnitAssignment(QQ, [m, 3]), UnitAssignment(QQ, [3, m])
        assert first.module_rank == last.module_rank == 2
        assert first.slot_block(0) == last.slot_block(1) == m.inverse() - Matrix.identity(QQ, 2)
        third = Fraction(1, 3)
        assert first.slot_block(1) == last.slot_block(0) == Matrix(QQ, [[third - 1, 0], [0, third - 1]])
        assert build_koszul(first).ranks == build_koszul(last).ranks == (2, 4, 2)

    def test_noncommuting_matrix_units_rejected(self):
        m1 = Matrix(QQ, [[0, 1], [1, 0]])
        m2 = Matrix(QQ, [[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            UnitAssignment(QQ, [m1, m2])


def subset_loop_koszul(u, top_degree=None):
    """The reference assembly: one block per q-subset of the generators in
    colex order, d_q removing the generator at position i with sign (-1)^i
    and slot (u^-1 - 1).  build_koszul must give the same complex."""
    n, d = u.n, u.module_rank
    top_degree = n if top_degree is None else top_degree

    def colex(q):
        return sorted(combinations(range(n), q), key=lambda s: tuple(reversed(s)))

    boundaries = []
    for q in range(1, top_degree + 1):
        rows_ix = {s: k for k, s in enumerate(colex(q - 1))}
        mat = Matrix.zero(u.ring, comb(n, q - 1) * d, comb(n, q) * d)
        for col_block, s in enumerate(colex(q)):
            for pos, gen in enumerate(s):
                rest = s[:pos] + s[pos + 1 :]
                mat.paste(rows_ix[rest] * d, col_block * d, u.slot_block(gen),
                          negate=pos % 2 == 1)
        boundaries.append(mat)
    ranks = [comb(n, q) * d for q in range(top_degree + 1)]
    return FreeChainComplex(u.ring, ranks, boundaries)


class TestAgainstSubsetLoop:
    """build_koszul, a fold of mapping-cone steps, against the subset loop."""

    K = CyclotomicField(5)

    def unit_kinds(self, rnd, n):
        K = self.K
        m = Matrix(K, [[K.zeta(), K.one], [K.zero, K.zeta(2)]])
        powers = [Matrix.identity(K, 2)]
        for _ in range(4):
            powers.append(powers[-1] * m)
        return {
            "laurent": UnitAssignment(L, [L.t(rnd.randint(-3, 3)) for _ in range(n)]),
            "Z": UnitAssignment(ZZ, [rnd.choice([1, -1]) for _ in range(n)]),
            "Q": UnitAssignment(QQ, [Fraction(rnd.choice([-3, -1, 2, 5]), rnd.randint(1, 4))
                                     for _ in range(n)]),
            "cyclotomic": UnitAssignment(K, [K.zeta(rnd.randrange(5)) for _ in range(n)]),
            # powers of one matrix commute: a rank-2 local system
            "matrix": UnitAssignment(K, [powers[rnd.randrange(1, 5)] for _ in range(n)]),
        }

    def test_every_degree_and_ring(self):
        rnd = random.Random(8)
        for n in range(9):
            for kind, u in self.unit_kinds(rnd, n).items():
                ref = json.loads(subset_loop_koszul(u).to_json())
                for top in range(n + 1):
                    # the reference truncated at ``top``, in to_json's wire format
                    want = json.dumps(dict(ref, ranks=ref["ranks"][: top + 1],
                                           boundaries=ref["boundaries"][:top]))
                    assert build_koszul(u, top).to_json() == want, (kind, n, top)


class TestScalingFactorization:
    def test_equal_units_entrywise_proportional(self):
        # boundaries for all-equal units s factor as (s^-1 - 1) * integral part
        for n in range(2, 6):
            g1, g2 = 1, 3
            c1 = build_koszul(laurent_units(*([g1] * n)))
            c2 = build_koszul(laurent_units(*([g2] * n)))
            f1 = L.t(-g1) - 1
            f2 = L.t(-g2) - 1
            for q in range(1, n + 1):
                b1, b2 = c1.boundary(q), c2.boundary(q)
                for i in range(b1.nrows):
                    for j in range(b1.ncols):
                        assert b1[i, j] * f2 == b2[i, j] * f1

    def test_integral_part_is_sign_matrix(self):
        n, g = 4, 2
        c = build_koszul(laurent_units(*([g] * n)))
        f = L.t(-g) - 1
        for q in range(1, n + 1):
            b = c.boundary(q)
            for row in b.rows:
                for x in row:
                    if not L.is_zero(x):
                        assert x == f or x == -f


class TestGenericRange:
    def test_four_lines_trivial(self):
        a = Arrangement.generic(3, 4)
        res = generic_range_homology(a, UnitAssignment(QQ, [1, 1, 1]))
        assert res.limit == 2
        assert res[0].free_rank == 1
        assert res[1].free_rank == 3

    def test_four_lines_zeta(self):
        # twisted torus complex is exact: H_0 = H_1 = 0 (Hattori vanishing)
        K = CyclotomicField(3)
        z = K.zeta()
        a = Arrangement.generic(3, 4)
        res = generic_range_homology(a, UnitAssignment(K, [z, z, z]))
        assert res[0].free_rank == 0
        assert res[1].free_rank == 0

    def test_boolean_all_degrees(self):
        a = Arrangement.boolean(3)
        res = generic_range_homology(a, laurent_units(1, 1))
        assert res.girth == inf and res.note
        assert res[0].free_rank == 0 and list(res[0].torsion) == [L.t() - 1]

    def test_refuses_girth_three(self):
        a = Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(GirthTooSmall):
            generic_range_homology(a, laurent_units(1, 1, 1))

    def test_module_rank_scales_chain_ranks(self):
        K = CyclotomicField(4)
        i = K.zeta()
        a = Arrangement.generic(3, 4)
        u1 = Matrix(K, [[i, K.zero], [K.zero, i]])
        ua = UnitAssignment(K, [u1, u1, u1])
        res = generic_range_homology(a, ua)
        cx = build_koszul(ua, 3)
        assert list(cx.ranks) == [2 * comb(3, q) for q in range(4)]
        assert set(res.entries) == {0, 1}


class TestCompleteHomology:
    def test_five_lines_trivial_character(self):
        a = Arrangement.generic(3, 5)
        res = complete_homology_generic_position(a, laurent_units(0, 0, 0, 0))
        assert res.chi == 3
        assert res.kappa == 1 - 4
        assert res[2].free_rank == 6  # C(4,2), and (+1)[3 - (1-4)] = 6
        assert res[0].free_rank == 1 and res[1].free_rank == 4
        assert res[5].free_rank == 0

    def test_five_lines_nonresonant(self):
        a = Arrangement.generic(3, 5)
        ch = Character([-4, 1, 1, 1, 1])
        assert a.is_nonresonant(ch)[0]
        res = complete_homology_generic_position(a, UnitAssignment.from_character(ch))
        t = L.t()
        assert res[0].free_rank == 0 and list(res[0].torsion) == [t - 1]
        assert res[1].free_rank == 0 and res[1].torsion
        assert res.kappa == 0
        assert res[2].free_rank == 3 == res.chi

    def test_four_lines_field_case(self):
        a = Arrangement.generic(3, 4)
        res = complete_homology_generic_position(a, UnitAssignment(QQ, [1, 1, 1]))
        assert res.chi == 1
        assert res.kappa == 1 - 3
        assert res[2].free_rank == 3  # = C(3,2); both paths agree internally

    def test_field_case_with_zeta(self):
        K = CyclotomicField(3)
        z = K.zeta()
        a = Arrangement.generic(3, 4)
        res = complete_homology_generic_position(a, UnitAssignment(K, [z, z, z]))
        assert res[0].free_rank == 0 and res[1].free_rank == 0
        assert res[2].free_rank == 1  # (+1)[chi - 0] = 1

    def test_refuses_non_generic_position(self):
        with pytest.raises(NotGenericPosition):
            complete_homology_generic_position(
                Arrangement.boolean(4), laurent_units(1, 1, 1)
            )


class TestPiPresentation:
    def test_five_lines_nonresonant_rank_three(self):
        a = Arrangement.generic(3, 5)
        ps = pi_p_presentation_boolean(a, Character([-4, 1, 1, 1, 1]))
        assert ps.cokernel.free_rank == 3
        assert ps.matrix.nrows == comb(4, 3) and ps.matrix.ncols == comb(4, 4)

    def test_five_lines_trivial_rank_four(self):
        a = Arrangement.generic(3, 5)
        ps = pi_p_presentation_boolean(a, Character([0, 0, 0, 0, 0]))
        assert ps.cokernel.free_rank == comb(4, 3)
        assert not ps.cokernel.torsion

    def test_four_lines_top_betti(self):
        a = Arrangement.generic(3, 4)
        ps = pi_p_presentation_boolean(a, Character([-3, 1, 1, 1]))
        assert ps.cokernel.free_rank == 1  # b_r(pi) = C(3,3)
        assert ps.matrix.ncols == 0


class TestHigherRank:
    def test_six_generic_hyperplanes_in_p3(self):
        # r = 4, n = 5: chi = 1 - 5 + 10 - 10 = -4
        a = Arrangement.generic(4, 6)
        assert a.betti_data().euler == -4
        # trivial character: kappa = 1 - 5 + 10 = 6, top = (-1)^3[-4 - 6] = 10
        res = complete_homology_generic_position(
            a, UnitAssignment.from_character(Character([0] * 6))
        )
        assert res.kappa == 6
        assert res[3].free_rank == 10 == comb(5, 3)
        # nonresonant character: torsion below, top free of rank (-1)^3 chi = 4
        ch = Character([-5, 1, 1, 1, 1, 1])
        assert a.is_nonresonant(ch)[0]
        res = complete_homology_generic_position(a, UnitAssignment.from_character(ch))
        assert res.kappa == 0
        for q in range(3):
            assert res[q].free_rank == 0 and res[q].torsion
        assert res[3].free_rank == 4 and not res[3].torsion
