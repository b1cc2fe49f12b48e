import json
import random
from math import gcd

import pytest

from arrtwist import milnor
from arrtwist.chain import FreeChainComplex, Homology
from arrtwist.fox import FreeWord, GroupPresentation, NotMeridianMarked, alexander_complex
from arrtwist.koszul import Disagreement
from arrtwist.milnor import MilnorSpectrum, obstruction_report, spectrum_from_presentation
from arrtwist.rings import QQ, CyclotomicField, LaurentRing

from conftest import conjugated_commutators, random_word


def pencil_presentation():
    """pi_1 of the complement of three concurrent lines: F_2."""
    return GroupPresentation(2, (), meridian_marked=True)


def phi3_presentation():
    """<a..e | [a, b], [b, c], [c, d], [d, e^3]>: the Alexander module over
    Q[s, s^-1] has torsion divisors (s - 1, s - 1, s - 1, s^3 - 1).  Every
    Fox derivative of a meridian-marked relator vanishes at s = 1, so every
    divisor carries Phi_1; beyond it the torsion is Phi_3, and b_1^t rises
    exactly at the t with e = 6 / gcd(t, 6) = 3, that is t = 2, 4."""
    return GroupPresentation(
        5, ["aba-1b-1", "bcb-1c-1", "cdc-1d-1", "deeed-1e-1e-1e-1"], meridian_marked=True
    )


def generic_lines_presentation():
    """pi_1 of three lines in general position: Z^2."""
    return GroupPresentation.commutative(2)


class TestSpectrum:
    def test_pencil(self):
        # oracle: chi(F) = 3 chi(M) = -3 for the degree-3 fiber, so b_1 = 4
        s = spectrum_from_presentation(pencil_presentation())
        assert s.values == (2, 1, 1)
        assert s.b1_total == 4

    def test_three_generic_lines(self):
        # oracle: F is homotopy equivalent to a (C*)^2-like surface, b_1 = 2
        s = spectrum_from_presentation(generic_lines_presentation())
        assert s.values == (2, 0, 0)
        assert s.b1_total == 2

    def test_two_hyperplanes_free_z(self):
        s = spectrum_from_presentation(GroupPresentation(1, (), meridian_marked=True))
        assert s.values == (1, 0)
        assert s.b1_total == 1

    def test_one_assembly(self, monkeypatch):
        # every b_1^t, both routes, is read off one presentation complex
        rings = []
        original = milnor.alexander_complex
        monkeypatch.setattr(
            milnor, "alexander_complex", lambda *args: rings.append(args[2]) or original(*args)
        )
        spectrum_from_presentation(GroupPresentation.commutative(5))
        assert rings == [LaurentRing(QQ)]

    def test_requires_marking(self):
        with pytest.raises(NotMeridianMarked):
            spectrum_from_presentation(GroupPresentation(2))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MilnorSpectrum(5, [4, 0, 1, 0, 1, 0])  # b_1^0 != n
        with pytest.raises(ValueError):
            MilnorSpectrum(5, [5, 1, 0, 0, 1, 0])  # symmetry violated

    def test_non_integral_inputs_refused(self):
        # int() used to read these as n = 2, values (2, 1, 1): a valid spectrum
        for n, values, bad in ((2.7, [2, 1, 1], "2.7"), (2, [2, 1.9, 1.2], "1.9")):
            with pytest.raises(ValueError, match="must be an integer") as err:
                MilnorSpectrum(n, values)
            assert bad in str(err.value)

    def test_tietze_invariance(self):
        # Z^2 presented two ways: with one commutator, and with a redundant
        # conjugated copy of it
        p1 = GroupPresentation.commutative(2)
        extra = FreeWord.parse("a") * p1.relators[0] * FreeWord.parse("a-1")
        p2 = GroupPresentation(2, [p1.relators[0], extra], meridian_marked=True)
        s1 = spectrum_from_presentation(p1)
        s2 = spectrum_from_presentation(p2)
        assert s1.values == s2.values


class TestObstruction:
    def test_quoted_example_n5(self):
        s = MilnorSpectrum(5, [5, 0, 1, 0, 1, 0])
        rep = obstruction_report(s)
        assert s.b1_total == 7
        assert not rep["divides"] and not rep["constant_tail"]
        assert rep["verdict"] == "obstructed"
        assert "certificate" in rep

    def test_quoted_example_n8(self):
        s = MilnorSpectrum(8, [8, 0, 0, 1, 0, 0, 1, 0, 0])
        rep = obstruction_report(s)
        assert s.b1_total == 10
        assert rep["verdict"] == "obstructed"

    def test_pencil_not_obstructed(self):
        rep = obstruction_report(spectrum_from_presentation(pencil_presentation()))
        assert rep["constant_tail"] and rep["divides"]
        assert rep["verdict"] == "not_obstructed"

    def test_constant_tail_implies_divides(self):
        for n, tail_value in ((3, 0), (3, 2), (5, 1)):
            values = [n] + [tail_value] * n
            rep = obstruction_report(MilnorSpectrum(n, values))
            assert rep["divides"]


class TestNonabelianSpectrum:
    def test_conjugated_commutator_relator(self):
        # <a, b | [a, bab^-1]>: a one-relator meridian-marked group whose
        # computed spectrum must pass the constructor's symmetry checks
        r = (
            FreeWord.parse("a")
            * FreeWord.parse("bab-1")
            * FreeWord.parse("a").inverse()
            * FreeWord.parse("bab-1").inverse()
        )
        p = GroupPresentation(2, [r], meridian_marked=True)
        s = spectrum_from_presentation(p)
        assert s.values == (2, 0, 0)
        assert s.b1_total == 2


class TestGaloisClasses:
    def perturb(self, monkeypatch, es):
        """Specialize at s = 1 instead of s = zeta_e, for e in ``es``, in the
        cyclotomic route (route 2) of the gcd classes e = (n+1)/gcd(t, n+1)."""
        original = milnor._at_root_of_unity

        def perturbed(cx, e):
            if e not in es:
                return original(cx, e)
            K = CyclotomicField(e)
            return cx.tensor_substitute(K, lambda p: K.coerce(sum(p.coeffs.values())))

        monkeypatch.setattr(milnor, "_at_root_of_unity", perturbed)

    def test_one_perturbed_t_disagrees(self, monkeypatch):
        # t = 2 has gcd 2 with n + 1 = 6: its class is e = 3 (t = 2, 4)
        self.perturb(monkeypatch, [3])
        with pytest.raises(Disagreement, match="gcd"):
            spectrum_from_presentation(GroupPresentation.commutative(5))

    def test_perturbed_conjugate_pair_disagrees(self, monkeypatch):
        # t = 2 and t = 3 are complex conjugates for n + 1 = 5, and with
        # t = 1, 4 they form the whole gcd-1 class e = 5; the conjugation
        # check alone would accept (4, 4, 4, 4, 4), the route comparison not
        self.perturb(monkeypatch, [5])
        with pytest.raises(Disagreement, match="gcd"):
            spectrum_from_presentation(GroupPresentation.commutative(4))

    @pytest.mark.parametrize("pres", (GroupPresentation.commutative(5), phi3_presentation()))
    def test_flipped_phi_e_rule_disagrees(self, monkeypatch, pres):
        # route 1 counts the torsion divisors that Phi_e does NOT divide
        original = milnor._vanishes_at_root
        monkeypatch.setattr(milnor, "_vanishes_at_root", lambda d, phi: not original(d, phi))
        with pytest.raises(Disagreement, match="gcd"):
            spectrum_from_presentation(pres)

    def test_dropped_torsion_divisor_disagrees(self, monkeypatch):
        # route 1 loses the s^3 - 1 divisor, so b_1^2 = b_1^4 read 0 there
        original = FreeChainComplex.homology

        def dropped(cx, q):
            h = original(cx, q)
            if cx.ring == LaurentRing(QQ) and q == 1:
                return Homology(h.free_rank, h.torsion[:-1])
            return h

        monkeypatch.setattr(FreeChainComplex, "homology", dropped)
        with pytest.raises(Disagreement, match="gcd"):
            spectrum_from_presentation(phi3_presentation())

    @pytest.mark.parametrize("pres", (GroupPresentation.commutative(5), phi3_presentation()))
    def test_dropped_tor_term_disagrees(self, monkeypatch, pres):
        # without H_0 = L/(s - 1), route 1 reads b_1^0 = n - 1 at e = 1
        original = FreeChainComplex.homology

        def dropped(cx, q):
            h = original(cx, q)
            if cx.ring == LaurentRing(QQ) and q == 0:
                return Homology(h.free_rank)
            return h

        monkeypatch.setattr(FreeChainComplex, "homology", dropped)
        with pytest.raises(Disagreement, match=r"gcd\(0, 6\) = 6") as err:
            spectrum_from_presentation(pres)
        bad = [c for c in json.loads(str(err.value)) if not c["agree"]]
        assert [c["values"] for c in bad] == [[4, 5]]

    def test_untwisted_class_has_two_routes(self, monkeypatch):
        # the rank route at e = 1 read at s = -1 instead: b_1^0 disagrees
        original = milnor._at_root_of_unity
        monkeypatch.setattr(
            milnor, "_at_root_of_unity", lambda cx, e: original(cx, 2 if e == 1 else e)
        )
        with pytest.raises(Disagreement, match="gcd") as err:
            spectrum_from_presentation(GroupPresentation.commutative(5))
        bad = [c for c in json.loads(str(err.value)) if not c["agree"]]
        assert len(bad) == 1 and bad[0]["name"].startswith("b_1^0,")

    @pytest.mark.parametrize("n", (4, 6))
    def test_prime_n_plus_1_never_obstructed(self, rnd, n):
        # every t in 1..n has gcd 1 with the prime n + 1: the tail is constant
        presentations = [GroupPresentation.commutative(n), GroupPresentation(n, (), meridian_marked=True)]
        presentations += [conjugated_commutators(rnd, n, rnd.randint(1, n)) for _ in range(6)]
        for pres in presentations:
            rep = obstruction_report(spectrum_from_presentation(pres))
            assert rep["constant_tail"] and rep["verdict"] == "not_obstructed", pres.relators


def reference_spectrum(pres):
    """The spectrum by the all-t loop: b_1^t from its own presentation
    complex over Q(zeta_(n+1)) with every meridian sent to zeta^t, for
    every t = 1..n, and equal values required within each gcd class."""
    n = pres.n
    assert alexander_complex(pres, [QQ.one] * n, QQ).homology(1).free_rank == n
    K = CyclotomicField(n + 1)
    values = [n]
    by_gcd = {}
    for t in range(1, n + 1):
        values.append(alexander_complex(pres, [K.zeta(t)] * n, K).homology(1).free_rank)
        assert by_gcd.setdefault(gcd(t, n + 1), values[t]) == values[t]
    return tuple(values)


def zero_sum_word(rnd, n, length):
    """A shuffled word whose exponent sums all vanish."""
    letters = list(random_word(rnd, n, length).letters)
    for i, s in enumerate(FreeWord(letters).exponent_sums(n)):
        letters += [-(i + 1) if s > 0 else i + 1] * abs(s)
    rnd.shuffle(letters)
    return FreeWord(letters)


def power_relator(rnd, n):
    """(x_i x_j)^k (x_i^-1 x_j^-1)^k for random i != j and k = 1..4: its
    Fox derivatives carry (s^2k - 1) / (s + 1), whose cyclotomic factors
    vary the tail."""
    i, j = rnd.sample(range(n), 2)
    k = rnd.randint(1, 4)
    xi, xj = FreeWord.generator(i), FreeWord.generator(j)
    return FreeWord((xi * xj).letters * k + (xi.inverse() * xj.inverse()).letters * k)


def random_marked_presentation(rnd, n):
    rels = []
    for _ in range(rnd.randint(0, n + 1)):
        kind = rnd.randrange(3) if n >= 2 else 0
        if kind == 0:
            rels.append(zero_sum_word(rnd, n, 8))
        elif kind == 1:
            rels += conjugated_commutators(rnd, n, 1).relators
        else:
            rels.append(power_relator(rnd, n))
    return GroupPresentation(n, rels, meridian_marked=True)


class TestAgainstAllT:
    def presentations(self):
        rnd = random.Random(1414)
        out = [random_marked_presentation(rnd, n) for _ in range(30) for n in range(1, 8)]
        for n in range(0, 8):
            out += [GroupPresentation.commutative(n), GroupPresentation(n, (), meridian_marked=True)]
        out += [GroupPresentation(1, ["1", "aa-1"], meridian_marked=True), phi3_presentation()]
        return out

    def test_one_complex_matches_every_t(self):
        presentations = self.presentations()
        assert len(presentations) >= 200
        varied = 0
        for pres in presentations:
            want = reference_spectrum(pres)
            assert spectrum_from_presentation(pres).values == want, pres.relators
            varied += len(set(want[1:])) > 1
        assert varied >= 30

    def test_phi3_rises_at_e_3_only(self):
        assert spectrum_from_presentation(phi3_presentation()).values == (5, 0, 1, 0, 1, 0)
        assert reference_spectrum(phi3_presentation()) == (5, 0, 1, 0, 1, 0)
