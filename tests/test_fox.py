import re
from fractions import Fraction

import pytest

from arrtwist.chain import decide_isomorphic
from arrtwist.fox import (
    FreeWord,
    GroupPresentation,
    GroupRingElement,
    NotMeridianMarked,
    RelatorNotKilled,
    alexander_complex,
    fox_derivative,
    specialize,
)
from arrtwist.koszul import UnitAssignment, build_koszul
from arrtwist.rings import CyclotomicField, LaurentRing, QQ
from conftest import random_word


def gre(word_text, coeff=1):
    return GroupRingElement.from_word(FreeWord.parse(word_text), coeff)


def substitute(w, images):
    """Apply the endomorphism x_i -> images[i] to a word."""
    out = FreeWord()
    for x in w.letters:
        img = images[abs(x) - 1]
        out = out * (img if x > 0 else img.inverse())
    return out


def substitute_gre(e, images):
    out = GroupRingElement()
    for w, c in e.terms.items():
        out = out + GroupRingElement.from_word(substitute(w, images), c)
    return out


class TestWords:
    def test_parse_and_reduce(self):
        assert repr(FreeWord.parse("aba-1b-1")) == "aba-1b-1"
        assert FreeWord.parse("aa-1") == FreeWord()
        assert FreeWord.parse("x1 x2-1", names=["x1", "x2"]).letters == (1, -2)

    def test_spaces_are_ignored_without_names(self):
        assert FreeWord.parse("ab a-1 b-1") == FreeWord.parse("aba-1b-1")
        assert FreeWord.parse(" a\tb-1 ") == FreeWord.parse("ab-1")

    def test_named_tokens_need_names(self):
        with pytest.raises(ValueError, match="bad word syntax"):
            FreeWord.parse("x1 x2")

    @pytest.mark.parametrize(
        "text, rest", [("AbA-1B-1", "AbA-1B-1"), ("éb", "éb"), ("ab-1C", "C")]
    )
    def test_letters_are_a_to_z_only(self, text, rest):
        # upper case used to fold into lower case, and any other alphabetic
        # character was read as a generator past z
        with pytest.raises(ValueError, match=re.escape(f"bad word syntax at {rest!r}")):
            FreeWord.parse(text)

    def test_inverse(self):
        w = FreeWord.parse("ab-1c")
        assert (w * w.inverse()) == FreeWord()


class TestFoxDerivative:
    def test_axioms(self):
        assert fox_derivative(FreeWord.parse("ab"), 0) == GroupRingElement.one()
        assert fox_derivative(FreeWord.parse("ab"), 1) == gre("a")

    def test_inverse_letter(self):
        assert fox_derivative(FreeWord.parse("a-1"), 0) == gre("a-1", -1)

    def test_commutator(self):
        # d(y x y^-1 x^-1)/dx = y - yxy^-1x^-1  (generators a=x, b=y)
        d = fox_derivative(FreeWord.parse("bab-1a-1"), 0)
        assert d == gre("b") + gre("bab-1a-1", -1)

    def test_fundamental_identity_bulk(self, rnd):
        # sum_i dw/dx_i (x_i - 1) == w - 1, on >= 1000 random words
        count = 0
        while count < 1000:
            n = rnd.randint(1, 4)
            w = random_word(rnd, n, 12)
            total = GroupRingElement()
            for i in range(n):
                xi = GroupRingElement.from_word(FreeWord.generator(i))
                total = total + fox_derivative(w, i) * (xi - GroupRingElement.one())
            assert total == GroupRingElement.from_word(w) - GroupRingElement.one()
            count += 1

    def test_chain_rule(self, rnd):
        # d(beta(w))/dx_m = sum_p beta(dw/dx_p) d(beta(x_p))/dx_m
        for _ in range(200):
            n = rnd.randint(1, 3)
            images = [random_word(rnd, n, 4) for _ in range(n)]
            w = random_word(rnd, n, 8)
            bw = substitute(w, images)
            for m in range(n):
                lhs = fox_derivative(bw, m)
                rhs = GroupRingElement()
                for p in range(n):
                    rhs = rhs + substitute_gre(fox_derivative(w, p), images) * fox_derivative(
                        images[p], m
                    )
                assert lhs == rhs, (w, images, m)


class TestSpecialize:
    def test_commutator_value(self):
        L = LaurentRing(QQ)
        t = L.t()
        e = gre("b") + gre("bab-1a-1", -1)
        assert specialize(e, [t, t], L) == t - 1

    def test_identity(self):
        L = LaurentRing(QQ)
        assert specialize(GroupRingElement.one(), [L.t()], L) == L.one

    def test_zeta_inverse(self):
        K = CyclotomicField(3)
        z = K.zeta()
        assert specialize(gre("a-1"), [z], K) == K.zeta(2)


class TestAlexanderComplex:
    def test_free_group_zeta(self):
        K = CyclotomicField(3)
        z = K.zeta()
        c = alexander_complex(GroupPresentation(2), [z, z], K)
        assert c.homology(0).free_rank == 0
        assert c.homology(1).free_rank == 1

    def test_z2_trivial_units(self):
        p = GroupPresentation.commutative(2)
        c = alexander_complex(p, [QQ.one, QQ.one], QQ)
        assert c.homology(0).free_rank == 1
        assert c.homology(1).free_rank == 2

    def test_z2_laurent_matches_koszul(self):
        L = LaurentRing(QQ)
        t = L.t()
        c = alexander_complex(GroupPresentation.commutative(2), [t, t], L)
        h1 = c.homology(1)
        assert h1.free_rank == 0 and list(h1.torsion) == [t - 1]
        k = build_koszul(UnitAssignment(L, [t, t]))
        for q in (0, 1):
            assert c.homology(q) == k.homology(q)

    def test_koszul_agreement_various_units(self, rnd):
        L = LaurentRing(QQ)
        for n in (2, 3):
            p = GroupPresentation.commutative(n)
            for _ in range(6):
                weights = [rnd.randint(-3, 3) for _ in range(n)]
                units = [L.t(w) for w in weights]
                c = alexander_complex(p, units, L)
                k = build_koszul(UnitAssignment(L, units))
                for q in (0, 1):
                    assert c.homology(q) == k.homology(q), (weights, q)

    def test_augmentation_h0(self, rnd):
        # H_0 = base ring iff all units are 1
        L = LaurentRing(QQ)
        p = GroupPresentation.commutative(2)
        c = alexander_complex(p, [L.one, L.one], L)
        assert c.homology(0) .free_rank == 1 and not c.homology(0).torsion
        c = alexander_complex(p, [L.t(2), L.one], L)
        h0 = c.homology(0)
        assert h0.free_rank == 0 and h0.torsion

    def test_relator_not_killed(self):
        L = LaurentRing(QQ)
        p = GroupPresentation(2, ["ab"])  # not meridian-marked; fine
        with pytest.raises(RelatorNotKilled):
            alexander_complex(p, [L.t(), L.t()], L)

    def test_degree2_isomorphic_to_koszul_truncation(self):
        # Z^2 with units (t, t): same divisor data as the Koszul complex
        L = LaurentRing(QQ)
        t = L.t()
        c = alexander_complex(GroupPresentation.commutative(2), [t, t], L)
        k = build_koszul(UnitAssignment(L, [t, t]))
        ok, report = decide_isomorphic(c, k)
        assert ok, report


class TestPresentationValidation:
    def test_meridian_marking_rejects_unbalanced(self):
        with pytest.raises(NotMeridianMarked):
            GroupPresentation(2, ["ab"], meridian_marked=True)

    def test_json_roundtrip(self):
        p = GroupPresentation.from_json(
            '{"generators": 2, "relators": ["aba-1b-1"], "meridians": true}'
        )
        assert p.n == 2 and p.meridian_marked
        p2 = GroupPresentation.from_json(p.to_json())
        assert p2.relators == p.relators
