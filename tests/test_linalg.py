import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from arrtwist.linalg import Matrix, kernel_basis, rank, smith_normal_form
from arrtwist.rings import CyclotomicField, LaurentRing, PrimeField, QQ, ZZ, ring_from_string

from conftest import bareiss_det, bareiss_rank


def leibniz_det(ring, rows):
    """Determinant as the signed sum over permutations, with no elimination
    (the oracle for the Bareiss determinant of ``conftest``)."""
    n = len(rows)
    total = ring.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = ring.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def minor_gcd(ring, m, k):
    """gcd of all k x k minors, each a Leibniz determinant, so independent
    of ``linalg`` (the oracle for Smith divisor products)."""
    g = ring.zero
    for rows in combinations(range(m.nrows), k):
        for cols in combinations(range(m.ncols), k):
            g = ring.gcd(g, leibniz_det(ring, m.submatrix(rows, cols).rows))
    return ring.canonical(g)


def random_laurent(rnd, L, span=2, coef=2):
    t = L.t()
    return sum(
        (rnd.randint(-coef, coef) * t**e for e in range(-span, span + 1)), L.zero
    )


def ring_samplers(rnd):
    """(ring, random element) over Z, Q, F_7, Q(zeta_5) and Q[t,t^-1]; each
    sampler returns zero often enough to force pivot searches."""
    K = CyclotomicField(5)
    L = LaurentRing(QQ)
    return (
        (ZZ, lambda: rnd.randint(-4, 4)),
        (QQ, lambda: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))),
        (PrimeField(7), lambda: PrimeField(7).coerce(rnd.randint(0, 6))),
        (K, lambda: sum((rnd.randint(-1, 1) * K.zeta(k) for k in range(2)), K.zero)),
        (L, lambda: random_laurent(rnd, L, 1, 1)),
    )


def invertible_cases(rnd):
    """Seeded invertible matrices of sizes 1..4: random nonsingular ones over
    Q, F_7 and Q(zeta_5); over Z, Q[t,t^-1] and Q(zeta_4)[t,t^-1], products
    of elementary matrices, each row then scaled by a unit."""
    L = LaurentRing(QQ)
    L4 = ring_from_string("laurent:cyclotomic:4")
    i4 = L4.coerce(L4.base.zeta())

    def unimodular(ring, n, entry, unit):
        m = Matrix.identity(ring, n)
        for _ in range(3 * n if n > 1 else 0):
            i, j = rnd.sample(range(n), 2)
            e = Matrix.identity(ring, n)
            e.rows[i][j] = entry()
            m = m * e
        rows = []
        for row in m.rows:
            u = unit()
            rows.append([u * x for x in row])
        return Matrix(ring, rows, n, n)

    cases = []
    for ring, gen in ring_samplers(rnd):
        if ring.is_field:
            for n in range(1, 5):
                m = Matrix.zero(ring, n, n)
                while ring.is_zero(leibniz_det(ring, m.rows)):
                    m = Matrix(ring, [[gen() for _ in range(n)] for _ in range(n)], n, n)
                cases.append(m)
    for n in range(1, 5):
        cases.append(unimodular(
            ZZ, n, lambda: rnd.randint(-2, 2), lambda: rnd.choice([1, -1])))
        cases.append(unimodular(
            L, n, lambda: rnd.randint(-2, 2) * L.t(rnd.randint(-1, 1)) + rnd.randint(-1, 1),
            lambda: rnd.choice([1, -2]) * L.t(rnd.randint(-2, 2))))
        cases.append(unimodular(
            L4, n, lambda: (rnd.randint(-1, 1) * i4 + rnd.randint(-1, 1)) * L4.t(rnd.randint(-1, 1)),
            lambda: rnd.choice([i4, 1 - i4]) * L4.t(rnd.randint(-2, 2))))
    names = {m.ring.name for m in cases}
    assert names == {"Z", "Q", "F7", "cyclotomic:5", "laurent", "laurent:cyclotomic:4"}
    return cases


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
            assert bareiss_rank(m) == form.rank
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
            assert bareiss_rank(m) == form.rank
            prod = L.one
            for k, d in enumerate(form.divisors, start=1):
                prod = prod * d
                assert L.canonical(prod) == minor_gcd(L, m, k)

    def test_transforms_witness(self, rnd):
        for ring, gen in ring_samplers(rnd):
            shapes = [(0, 3), (3, 0), (0, 0)]
            shapes += [(rnd.randint(1, 4), rnd.randint(1, 4)) for _ in range(12)]
            for nr, nc in shapes:
                m = Matrix(ring, [[gen() for _ in range(nc)] for _ in range(nr)], nr, nc)
                form = smith_normal_form(m, transforms=True)
                assert (form.left.nrows, form.right.nrows) == (nr, nc)
                d = form.left * m * form.right
                for i in range(nr):
                    for j in range(nc):
                        want = form.divisors[i] if (i == j and i < form.rank) else ring.zero
                        assert d[i, j] == want
                # transforms are invertible over the ring
                assert ring.is_unit(leibniz_det(ring, form.left.rows))
                assert ring.is_unit(leibniz_det(ring, form.right.rows))

    def test_transform_growth_stays_bounded(self):
        """A seeded sparse 40 x 40 integer matrix: the witness is diagonal
        and no transform entry passes 4096 bits, about four times what
        echelon passes reach here.  Pivot-by-pivot clearing with xgcd steps
        passes 10^6 bits on this input."""
        rnd = random.Random(40)
        n = 40
        m = Matrix(ZZ, [[rnd.randint(-9, 9) if rnd.randrange(5) == 0 else 0
                         for _ in range(n)] for _ in range(n)])
        form = smith_normal_form(m, transforms=True)
        assert form.left * m * form.right == diagonal(ZZ, form.divisors, n, n)
        bits = max(abs(x).bit_length() for t in (form.left, form.right)
                   for row in t.rows for x in row)
        assert bits < 4096, bits


def diagonal(ring, entries, nr=None, nc=None):
    nr = len(entries) if nr is None else nr
    nc = len(entries) if nc is None else nc
    return Matrix(ring, [[entries[i] if i == j and i < len(entries) else ring.zero
                          for j in range(nc)] for i in range(nr)], nr, nc)


class TestDivisorChain:
    """Diagonalization leaves the pivots in any order of divisibility; the
    chain pass turns each failing pair (d_i, d_j) into (gcd, lcm)."""

    def cases(self):
        L = LaurentRing(QQ)
        t = L.t()
        return (
            (ZZ, [6, 4, 9], (1, 6, 36)),
            (L, [t**2 - 1, t - 1, t + 1], (L.one, t**2 - 1, t**2 - 1)),
        )

    def test_permuted_diagonals(self):
        for ring, entries, want in self.cases():
            m = diagonal(ring, entries)
            for rows in permutations(range(3)):
                for cols in permutations(range(3)):
                    p = m.submatrix(rows, cols)
                    for transforms in (False, True):
                        form = smith_normal_form(p, transforms=transforms)
                        assert form.divisors == want, (p, transforms)
                        prod = ring.one
                        for k, d in enumerate(form.divisors, start=1):
                            prod = prod * d
                            assert ring.canonical(prod) == minor_gcd(ring, p, k)
                        if transforms:
                            assert form.left * p * form.right == diagonal(ring, want)

    def test_chain_pass_on_a_rectangular_block(self):
        # a zero row and column around the diagonal do not disturb the chain
        for ring, entries, want in self.cases():
            m = diagonal(ring, entries, 4, 5)
            form = smith_normal_form(m, transforms=True)
            assert form.divisors == want
            assert form.left * m * form.right == diagonal(ring, want, 4, 5)

    @staticmethod
    def count_divmods(monkeypatch, m, transforms=False):
        calls = []
        cls = type(m.ring)
        divmod_ = cls.euclid_divmod

        def counting(self, a, b):
            calls.append(1)
            return divmod_(self, a, b)

        monkeypatch.setattr(cls, "euclid_divmod", counting)
        form = smith_normal_form(m, transforms=transforms)
        monkeypatch.setattr(cls, "euclid_divmod", divmod_)
        return form, len(calls)

    def test_one_test_per_diagonal_pair(self, monkeypatch):
        """A 12 x 12 diagonal already in chain order with canonical entries
        needs no elimination, only the chain pass: at most one divisibility
        test per pair, 66 in all."""
        entries = [6 * 2**k for k in range(12)]
        form, calls = self.count_divmods(monkeypatch, diagonal(ZZ, entries))
        assert form.divisors == tuple(entries)
        assert calls <= 66, calls

    def test_unit_pivot_scans_nothing(self, monkeypatch, rnd):
        """A unit pivot in front of a block costs no division: the Smith
        form of diag(1, B) makes exactly the divisions of B's own."""
        for _ in range(5):
            n = 5
            rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            b = Matrix(ZZ, rows)
            padded = Matrix(ZZ, [[1] + [0] * n] + [[0] + r for r in rows])
            form_b, calls_b = self.count_divmods(monkeypatch, b)
            form_p, calls_p = self.count_divmods(monkeypatch, padded)
            assert form_p.divisors == (1,) + form_b.divisors
            assert calls_p == calls_b, (rows, calls_p, calls_b)


def transpose(m):
    return Matrix(m.ring, [list(c) for c in zip(*m.rows)], m.ncols, m.nrows)


class TestTransposeInvariance:
    def test_transpose_has_the_same_divisors(self, rnd):
        """The Smith form of m^T has the divisors of m, over every ring.

        Fixed inputs come first: a 1 x 2 row is cleared by column steps
        alone (gcd(2, 3) = 1), so a reduction that skips them fails here at
        once instead of looping on the random inputs below."""
        row = Matrix(ZZ, [[2, 3]])
        for m in (row, transpose(row)):
            assert smith_normal_form(m).divisors == (1,)
            assert smith_normal_form(m, transforms=True).divisors == (1,)
        L = LaurentRing(QQ)
        t = L.t()
        lrow = Matrix(L, [[t**2 - 1, t**3 - 1]])
        for m in (lrow, transpose(lrow)):
            assert smith_normal_form(m).divisors == (t - 1,)
        for ring, gen in ring_samplers(rnd):
            for _ in range(12):
                nr, nc = rnd.randint(1, 4), rnd.randint(1, 4)
                m = Matrix(ring, [[gen() for _ in range(nc)] for _ in range(nr)], nr, nc)
                want = smith_normal_form(m).divisors
                assert smith_normal_form(transpose(m)).divisors == want, m
                assert smith_normal_form(transpose(m), transforms=True).divisors == want


class TestDeterminant:
    """The Bareiss reference route of ``conftest``, the oracle for ranks
    over Z and K[t,t^-1], held against Leibniz: its last pivot, signed by
    the row swaps, is the determinant."""

    def test_matches_leibniz(self, rnd):
        for ring, gen in ring_samplers(rnd):
            for n in range(5):
                for _ in range(4):
                    rows = [[gen() for _ in range(n)] for _ in range(n)]
                    if n >= 2 and rnd.random() < 0.3:
                        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
                    assert bareiss_det(Matrix(ring, rows, n, n)) == leibniz_det(ring, rows)

    def test_row_swaps_flip_the_sign(self):
        for ring in (ZZ, QQ, PrimeField(7), CyclotomicField(5), LaurentRing(QQ)):
            for perm in permutations(range(3)):
                rows = [[ring.one if j == perm[i] else ring.zero for j in range(3)]
                        for i in range(3)]
                want = leibniz_det(ring, rows)
                assert want in (ring.one, -ring.one)
                assert bareiss_det(Matrix(ring, rows)) == want
        # a zero leading entry forces a swap even when every minor is dense
        assert bareiss_det(Matrix(ZZ, [[0, 2, 1], [3, 1, 4], [1, 5, 9]])) == -32

    def test_singular(self):
        L = LaurentRing(QQ)
        t = L.t()
        assert bareiss_det(Matrix(ZZ, [[1, 2], [2, 4]])) == 0
        assert bareiss_det(Matrix(QQ, [[0, 1, 2], [0, 3, 4], [0, 5, 6]])) == 0
        assert bareiss_det(Matrix(L, [[t - 1, 1 - t], [t, -t]])) == L.zero

    def test_non_square_refused(self):
        with pytest.raises(ValueError):
            bareiss_det(Matrix.zero(ZZ, 2, 3))


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

    def test_laurent_inverse_with_pivot_swap(self):
        L = LaurentRing(QQ)
        t = L.t()
        # zero in the top-left corner: Smith must swap before its first pivot
        a = Matrix(L, [
            [L.zero, L.zero, t**-1],
            [L.zero, L.one, 1 - t],
            [t, 1 + t, t**2],
        ])
        inv = a.inverse()
        assert a * inv == Matrix.identity(L, 3)
        assert inv * a == Matrix.identity(L, 3)

    def test_field_inverse(self):
        K = CyclotomicField(3)
        z = K.zeta()
        b = Matrix(K, [[z, 1], [1, z]])
        assert b * b.inverse() == Matrix.identity(K, 2)

    def test_seeded_invertible_over_every_ring(self, rnd):
        for m in invertible_cases(rnd):
            eye = Matrix.identity(m.ring, m.nrows)
            inv = m.inverse()
            assert m * inv == eye, m
            assert inv * m == eye, m

    def test_gauss_jordan_matches_smith_transforms(self, rnd):
        """The Gauss-Jordan inverse against ``right * left`` of the Smith
        form with transforms, the route it replaced."""
        cases = invertible_cases(rnd)
        for m in cases:
            form = smith_normal_form(m, transforms=True)
            assert m.inverse() == form.right * form.left, m

    def test_smith_is_not_called(self, monkeypatch, rnd):
        import arrtwist.linalg as linalg

        def refuse(*args, **kwargs):
            raise AssertionError("Matrix.inverse ran a Smith form")

        cases = invertible_cases(rnd)
        monkeypatch.setattr(linalg, "smith_normal_form", refuse)
        for m in cases:
            assert m * m.inverse() == Matrix.identity(m.ring, m.nrows)

    def test_rows_needing_no_rescaling_build_no_one(self, monkeypatch, rnd):
        """``content_unit`` says "no rescaling" with None, so a row step
        builds no ``LaurentRing.one`` to compare with: the inverse builds
        one, for its identity block, and the Smith form none."""
        built = []
        one = LaurentRing.one
        monkeypatch.setattr(LaurentRing, "one", property(lambda R: built.append(R) or one.fget(R)))
        for m in invertible_cases(rnd):
            if isinstance(m.ring, LaurentRing):
                built.clear()
                inv = m.inverse()
                assert len(built) == 1, m
                built.clear()
                smith_normal_form(m)
                assert not built, m
                assert m * inv == Matrix.identity(m.ring, m.nrows)

    def test_non_unit_determinant(self):
        L = LaurentRing(QQ)
        t = L.t()
        for m in (
            Matrix(ZZ, [[2, 0], [0, 3]]),
            Matrix(ZZ, [[1, 0], [1, 2]]),  # unit column gcd, determinant 2
            Matrix(ZZ, [[1, 2], [3, 5]]) * Matrix(ZZ, [[1, 0], [0, 2]]),  # determinant -2
            Matrix(L, [[1, 1], [1, t]]),  # determinant t - 1
            Matrix(L, [[1 + t, t], [t, t * t - 1]]),  # determinant t^3 - t - 1
        ):
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        # the same Euclidean steps invert a unimodular matrix of non-units
        m = Matrix(L, [[1 + t, t], [1, 1]])
        assert m * m.inverse() == Matrix.identity(L, 2)

    def test_non_square_refused(self):
        for m in (Matrix(ZZ, [[1, 0]]), Matrix.zero(LaurentRing(QQ), 3, 2)):
            with pytest.raises(ValueError, match="square"):
                m.inverse()

    def test_singular_over_a_field(self):
        K = CyclotomicField(5)
        z = K.zeta()
        for m in (
            Matrix(QQ, [[1, 2], [2, 4]]),
            Matrix(PrimeField(7), [[1, 3], [2, 6]]),
            Matrix(K, [[z, z * z], [1, z]]),
            Matrix.zero(QQ, 3, 3),
        ):
            with pytest.raises(ZeroDivisionError):
                m.inverse()

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
