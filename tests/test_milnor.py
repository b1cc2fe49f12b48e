import pytest

from arrtwist import milnor
from arrtwist.fox import FreeWord, GroupPresentation, NotMeridianMarked
from arrtwist.koszul import Disagreement
from arrtwist.milnor import MilnorSpectrum, obstruction_report, spectrum_from_presentation
from arrtwist.rings import CyclotomicField

from conftest import conjugated_commutators


def pencil_presentation():
    """pi_1 of the complement of three concurrent lines: F_2."""
    return GroupPresentation(2, (), meridian_marked=True)


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
    def perturb(self, monkeypatch, ts):
        """Compute b_1^t for t in ``ts`` with trivial units instead."""
        original = milnor.alexander_complex

        def perturbed(pres, units, ring):
            if isinstance(ring, CyclotomicField) and any(units[0] == ring.zeta(t) for t in ts):
                units = [ring.one] * len(units)
            return original(pres, units, ring)

        monkeypatch.setattr(milnor, "alexander_complex", perturbed)

    def test_one_perturbed_t_disagrees(self, monkeypatch):
        self.perturb(monkeypatch, [2])
        with pytest.raises(Disagreement, match="gcd"):
            spectrum_from_presentation(GroupPresentation.commutative(5))

    def test_perturbed_conjugate_pair_disagrees(self, monkeypatch):
        # t = 2 and t = 3 are complex conjugates for n + 1 = 5, so the
        # conjugation check alone would accept (4, 0, 4, 4, 0)
        self.perturb(monkeypatch, [2, 3])
        with pytest.raises(Disagreement, match="gcd"):
            spectrum_from_presentation(GroupPresentation.commutative(4))

    @pytest.mark.parametrize("n", (4, 6))
    def test_prime_n_plus_1_never_obstructed(self, rnd, n):
        # every t in 1..n has gcd 1 with the prime n + 1: the tail is constant
        presentations = [GroupPresentation.commutative(n), GroupPresentation(n, (), meridian_marked=True)]
        presentations += [conjugated_commutators(rnd, n, rnd.randint(1, n)) for _ in range(6)]
        for pres in presentations:
            rep = obstruction_report(spectrum_from_presentation(pres))
            assert rep["constant_tail"] and rep["verdict"] == "not_obstructed", pres.relators
