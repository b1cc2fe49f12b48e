from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from arrtwist.linalg import Matrix, kernel_basis, rank, smith_normal_form
from arrtwist.rings import CyclotomicField, LaurentRing, QQ, ZZ


def minor_gcd(ring, m, k):
    """gcd of all k x k minors, computed independently by cofactor expansion
    (the oracle for Smith divisor products)."""
    g = ring.zero
    for rows in combinations(range(m.nrows), k):
        for cols in combinations(range(m.ncols), k):
            g = ring.gcd(g, m.submatrix(rows, cols).det())
    return ring.canonical(g)


def random_laurent(rnd, L, span=2, coef=2):
    t = L.t()
    return sum(
        (rnd.randint(-coef, coef) * t**e for e in range(-span, span + 1)), L.zero
    )


class TestRank:
    def test_zero_matrix(self):
        assert rank(Matrix.zero(QQ, 3, 4)) == 0

    def test_identity_over_cyclotomic(self):
        assert rank(Matrix.identity(CyclotomicField(3), 3)) == 3

    def test_laurent_row(self):
        L = LaurentRing(QQ)
        t = L.t()
        assert rank(Matrix(L, [[t - 1, t - 1]])) == 1

    def test_empty_shapes(self):
        assert rank(Matrix.zero(ZZ, 0, 3)) == 0
        assert rank(Matrix.zero(ZZ, 3, 0)) == 0


class TestSmithNormalForm:
    def test_diag_4_6(self):
        m = Matrix(ZZ, [[4, 0], [0, 6]])
        form = smith_normal_form(m)
        assert form.divisors == (2, 12)
        # oracle: d_1...d_k = gcd of k x k minors
        assert form.divisors[0] == minor_gcd(ZZ, m, 1)
        assert form.divisors[0] * form.divisors[1] == minor_gcd(ZZ, m, 2)

    def test_single_pivot(self):
        assert smith_normal_form(Matrix(ZZ, [[2, 0], [0, 0]])).divisors == (2,)

    def test_laurent_diagonal(self):
        L = LaurentRing(QQ)
        t = L.t()
        form = smith_normal_form(Matrix(L, [[t - 1, L.zero], [L.zero, t - 1]]))
        assert list(form.divisors) == [t - 1, t - 1]

    def test_field_divisors_are_ones(self):
        K = CyclotomicField(4)
        m = Matrix(K, [[K.zeta(), 1], [1, 1]])
        form = smith_normal_form(m)
        assert all(d == K.one for d in form.divisors)

    def test_minor_gcd_property_over_z(self, rnd):
        for _ in range(40):
            nr, nc = rnd.randint(1, 5), rnd.randint(1, 5)
            m = Matrix(ZZ, [[rnd.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
            form = smith_normal_form(m)
            assert rank(m) == form.rank
            prod = 1
            for k, d in enumerate(form.divisors, start=1):
                prod *= d
                assert prod == minor_gcd(ZZ, m, k), (m.rows, form.divisors)
            for i in range(form.rank - 1):
                assert form.divisors[i + 1] % form.divisors[i] == 0

    def test_minor_gcd_property_over_laurent(self, rnd):
        L = LaurentRing(QQ)
        for _ in range(10):
            nr, nc = rnd.randint(1, 3), rnd.randint(1, 3)
            m = Matrix(
                L,
                [[random_laurent(rnd, L, 1, 1) for _ in range(nc)] for _ in range(nr)],
            )
            form = smith_normal_form(m)
            assert rank(m) == form.rank
            prod = L.one
            for k, d in enumerate(form.divisors, start=1):
                prod = prod * d
                assert L.canonical(prod) == minor_gcd(L, m, k)

    def test_transforms_witness(self, rnd):
        L = LaurentRing(QQ)
        for ring, gen in ((ZZ, lambda: rnd.randint(-6, 6)), (L, lambda: random_laurent(rnd, L, 1, 1))):
            for _ in range(12):
                nr, nc = rnd.randint(1, 4), rnd.randint(1, 4)
                m = Matrix(ring, [[gen() for _ in range(nc)] for _ in range(nr)])
                form = smith_normal_form(m, transforms=True)
                d = form.left * m * form.right
                for i in range(nr):
                    for j in range(nc):
                        want = form.pivots[i] if (i == j and i < form.rank) else ring.zero
                        assert d[i, j] == want
                # transforms are invertible over the ring
                assert ring.is_unit(form.left.det())
                assert ring.is_unit(form.right.det())


class TestKernel:
    def test_row_over_q(self):
        kb = kernel_basis(Matrix(QQ, [[1, 1]]))
        assert kb.ncols == 1 and kb[0, 0] == -kb[1, 0] != 0

    def test_identity_has_none(self):
        assert kernel_basis(Matrix.identity(QQ, 3)).ncols == 0

    def test_laurent_saturated(self):
        L = LaurentRing(QQ)
        t = L.t()
        kb = kernel_basis(Matrix(L, [[t - 1, 1 - t]]))
        assert kb.ncols == 1
        # direction (1, 1), and primitive: entries are units
        assert kb[0, 0] == kb[1, 0]
        assert L.is_unit(kb[0, 0])

    def test_kernel_really_annihilates(self, rnd):
        for _ in range(15):
            nr, nc = rnd.randint(1, 4), rnd.randint(1, 5)
            m = Matrix(ZZ, [[rnd.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
            kb = kernel_basis(m)
            assert kb.ncols == nc - rank(m)
            assert (m * kb).is_zero()


class TestMatrixInverse:
    def test_laurent_unimodular(self):
        L = LaurentRing(QQ)
        t = L.t()
        a = Matrix(L, [[1, t], [L.zero, t**2]])
        assert a * a.inverse() == Matrix.identity(L, 2)
        assert a.inverse() * a == Matrix.identity(L, 2)

    def test_field_inverse(self):
        K = CyclotomicField(3)
        z = K.zeta()
        b = Matrix(K, [[z, 1], [1, z]])
        assert b * b.inverse() == Matrix.identity(K, 2)

    def test_not_invertible_over_ring(self):
        L = LaurentRing(QQ)
        t = L.t()
        with pytest.raises(ZeroDivisionError):
            Matrix(L, [[t - 1]]).inverse()


class TestPaste:
    def test_offset(self):
        m = Matrix.zero(ZZ, 3, 4)
        m.paste(1, 2, Matrix(ZZ, [[1, 2], [3, 4]]))
        assert m == Matrix(ZZ, [[0, 0, 0, 0], [0, 0, 1, 2], [0, 0, 3, 4]])

    def test_negate(self):
        L = LaurentRing(QQ)
        t = L.t()
        m = Matrix.identity(L, 2)
        m.paste(0, 1, Matrix(L, [[t - 1], [L.zero]]), negate=True)
        assert m == Matrix(L, [[L.one, 1 - t], [L.zero, L.zero]])

    def test_source_changes_do_not_reach_target(self):
        block = Matrix(ZZ, [[1, 2]])
        m = Matrix.zero(ZZ, 1, 3)
        m.paste(0, 1, block)
        block.rows[0][0] = 9
        assert m == Matrix(ZZ, [[0, 1, 2]])

    def test_block_must_fit(self):
        m = Matrix.zero(ZZ, 2, 2)
        for r0, c0, n in ((1, 1, 2), (0, 1, 2), (-1, 0, 1)):
            with pytest.raises(ValueError):
                m.paste(r0, c0, Matrix.identity(ZZ, n))
        assert m == Matrix.zero(ZZ, 2, 2)
