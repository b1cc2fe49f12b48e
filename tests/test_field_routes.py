"""The field-path routes held against the routes they replaced.

``linalg.rank`` runs Gaussian elimination over fields (one inverse per
pivot), ``alexander_complex`` builds each column of d_2 in one prefix pass,
and ``Arrangement`` works with primitive integer forms, which the
index-set reference route of ``conftest`` ranks over Z.  Each is compared
here with an independent route: the Smith form, the Fox derivative
specialized word by word, and the Q rank of the original forms.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from arrtwist.arrangement import Arrangement
from arrtwist.fox import (
    GroupPresentation,
    RelatorNotKilled,
    alexander_complex,
    fox_derivative,
    specialize,
    specialize_word,
)
from arrtwist.linalg import Matrix, rank, smith_normal_form
from arrtwist.rings import (
    QQ,
    CyclotomicElement,
    CyclotomicField,
    LaurentRing,
    PrimeField,
)

from conftest import IndexSetRanks, conjugated_commutators

FIELDS = [QQ, CyclotomicField(5), CyclotomicField(7), CyclotomicField(8), PrimeField(7)]


def random_scalar(rnd, ring, zero_share=0.3):
    if rnd.random() < zero_share:
        return ring.zero
    if isinstance(ring, CyclotomicField):
        return CyclotomicElement(
            ring.d,
            [Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(ring.degree)],
        )
    return ring.coerce(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)))


def random_matrix(rnd, ring, nrows, ncols):
    return Matrix(
        ring,
        [[random_scalar(rnd, ring) for _ in range(ncols)] for _ in range(nrows)],
        nrows,
        ncols,
    )


def unit_triangular(rnd, ring, n, lower):
    """A random triangular matrix with unit diagonal (always invertible)."""
    return Matrix(ring, [
        [
            ring.one if i == j
            else random_scalar(rnd, ring) if (i > j) == lower
            else ring.zero
            for j in range(n)
        ]
        for i in range(n)
    ])


def matrix_of_rank(rnd, ring, nrows, ncols, k):
    """A nrows x ncols matrix of rank exactly k: a rank-k 0/1 block moved
    around by invertible row and column operations."""
    core = Matrix(ring, [
        [ring.one if i == j and i < k else ring.zero for j in range(ncols)]
        for i in range(nrows)
    ])
    left = unit_triangular(rnd, ring, nrows, lower=True) * unit_triangular(
        rnd, ring, nrows, lower=False
    )
    right = unit_triangular(rnd, ring, ncols, lower=False) * unit_triangular(
        rnd, ring, ncols, lower=True
    )
    return left * core * right


class TestFieldRank:
    @pytest.mark.parametrize("ring", FIELDS, ids=lambda R: R.name)
    def test_random_matrices_match_smith(self, rnd, ring):
        for _ in range(12):
            m = random_matrix(rnd, ring, rnd.randint(0, 6), rnd.randint(0, 6))
            assert rank(m) == smith_normal_form(m).rank

    @pytest.mark.parametrize("ring", FIELDS, ids=lambda R: R.name)
    def test_rank_deficient_matrices(self, rnd, ring):
        for _ in range(6):
            nrows, ncols = rnd.randint(1, 6), rnd.randint(1, 6)
            k = rnd.randint(0, min(nrows, ncols))
            m = matrix_of_rank(rnd, ring, nrows, ncols, k)
            assert rank(m) == k
            assert smith_normal_form(m).rank == k

    def test_zero_rows_and_columns(self):
        K = CyclotomicField(7)
        z = K.zeta()
        m = Matrix(K, [[0, 0, 0], [0, z, 1], [0, 0, 0], [0, z * z, z]])
        assert rank(m) == 1
        assert rank(Matrix.zero(K, 3, 4)) == 0

    def test_one_inverse_per_pivot(self, rnd, monkeypatch):
        K = CyclotomicField(7)
        m = matrix_of_rank(rnd, K, 5, 5, 5)
        calls = []
        inverse = CyclotomicElement.inverse

        def counted(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(CyclotomicElement, "inverse", counted)
        assert rank(m) == 5
        assert len(calls) == 5


def random_units(rnd, ring, n):
    if isinstance(ring, LaurentRing):
        return [
            ring.coerce(Fraction(rnd.choice([1, -2, 3]), rnd.randint(1, 2)))
            * ring.t(rnd.randint(-2, 2))
            for _ in range(n)
        ]
    if isinstance(ring, CyclotomicField):
        return [ring.zeta(rnd.randint(0, ring.d - 1)) for _ in range(n)]
    return [ring.coerce(Fraction(rnd.choice([-3, -1, 1, 2]), rnd.randint(1, 3))) for _ in range(n)]


ASSEMBLY_RINGS = [QQ, CyclotomicField(5), CyclotomicField(8), LaurentRing(QQ)]


class TestFoxAssembly:
    @pytest.mark.parametrize("ring", ASSEMBLY_RINGS, ids=lambda R: R.name)
    def test_columns_are_specialized_fox_derivatives(self, rnd, ring):
        for _ in range(6):
            n = rnd.randint(2, 4)
            pres = conjugated_commutators(rnd, n, rnd.randint(1, 4))
            units = random_units(rnd, ring, n)
            cx = alexander_complex(pres, units, ring)
            d1, d2 = cx.boundary(1), cx.boundary(2)
            assert d1 == Matrix(ring, [[u - ring.one for u in units]])
            for k, r in enumerate(pres.relators):
                for j in range(n):
                    assert d2[j, k] == specialize(fox_derivative(r, j), units, ring)

    def test_one_inverse_per_distinct_unit(self, rnd, monkeypatch):
        K = CyclotomicField(7)
        calls = []
        unit_inverse = K.unit_inverse

        def counted(u):
            calls.append(u)
            return unit_inverse(u)

        monkeypatch.setattr(K, "unit_inverse", counted)
        pres = conjugated_commutators(rnd, 4, 3)
        for units, distinct in (([K.zeta(3)] * 4, 1), ([K.zeta(1), K.zeta(2)] * 2, 2)):
            calls.clear()
            d2 = alexander_complex(pres, units, K).boundary(2)
            assert len(calls) == distinct
            for k, r in enumerate(pres.relators):
                for j in range(4):
                    assert d2[j, k] == specialize(fox_derivative(r, j), units, K)

    def test_first_surviving_relator_named(self):
        L = LaurentRing(QQ)
        t = L.t()
        pres = GroupPresentation(2, ["aba-1b-1", "ab", "a"])
        units = [t, L.t(2)]
        survivor = pres.relators[1]
        text = (
            f"relator {survivor!r} specializes to "
            f"{L.format(specialize_word(survivor, units, L))}, not 1"
        )
        with pytest.raises(RelatorNotKilled) as err:
            alexander_complex(pres, units, L)
        assert str(err.value) == text == "relator ab specializes to t^3, not 1"

    def test_inverse_letters_in_a_surviving_relator(self):
        K = CyclotomicField(5)
        pres = GroupPresentation(2, ["a-1b-1a-1"])
        units = [K.zeta(1), K.zeta(2)]
        img = specialize_word(pres.relators[0], units, K)
        with pytest.raises(RelatorNotKilled, match="a-1b-1a-1") as err:
            alexander_complex(pres, units, K)
        assert str(err.value).endswith(f"specializes to {K.format(img)}, not 1")


def q_rank(forms):
    return rank(Matrix(QQ, [list(f) for f in forms]))


class TestArrangementIntegerRanks:
    def test_fractional_forms(self):
        arr = Arrangement.from_json({
            "r": 3,
            "forms": [["1/2", 0, 0], [0, "2/3", "-4/9"], [1, "1/2", 1], ["3/7", "3/7", "-6/7"]],
        })
        ranks = IndexSetRanks(arr)
        for k in range(1, 5):
            for sub in combinations(range(4), k):
                assert ranks.rank_of(sub) == q_rank(arr.forms[i] for i in sub)
        assert arr.forms[0] == (Fraction(1, 2), 0, 0)  # reports keep the input

    def test_random_arrangements(self, rnd):
        checked = 0
        while checked < 8:
            r = rnd.randint(2, 4)
            forms = [
                [Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(r)]
                for _ in range(r + 2)
            ]
            try:
                arr = Arrangement(r, forms)
            except ValueError:
                continue  # a zero or repeated hyperplane
            checked += 1
            ranks = IndexSetRanks(arr)
            for k in range(1, len(forms) + 1):
                for sub in combinations(range(len(forms)), k):
                    assert ranks.rank_of(sub) == q_rank(arr.forms[i] for i in sub)
