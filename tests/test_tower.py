import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest

from arrtwist import tower
from arrtwist.chain import decide_isomorphic
from arrtwist.fox import FreeWord, GroupPresentation, alexander_complex, fox_derivative
from arrtwist.koszul import Disagreement, UnitAssignment, build_koszul
from arrtwist.linalg import Matrix, smith_normal_form
from arrtwist.rings import LaurentRing, QQ
from arrtwist.tower import (
    DegreeUnavailable,
    TowerCharacter,
    TowerInvalid,
    TowerSpec,
    build_tower_complex,
    check_tower,
    jacobian_rep,
    pi_p_presentation_fibertype,
    rank_formula_general,
    rank_formula_nonresonant,
)
from conftest import random_tower, random_tower_character

L = LaurentRing(QQ)


def f2_semi_f1():
    """F_2 |x F_1 with y conjugating x_2 by x_1."""
    return TowerSpec(
        [1, 2],
        monodromy={(3, (2, 0)): ["x1", "x1 x2 x1-1"]},
        names={2: ["y1"], 3: ["x1", "x2"]},
    )


def commuting_three_level_tower():
    """y1 and z1 act on level 4 by powers of one automorphism."""
    return TowerSpec(
        [1, 1, 2],
        monodromy={
            (4, (2, 0)): ["x1", "x1 x2 x1-1"],
            (4, (3, 0)): ["x1", "x1 x1 x2 x1-1 x1-1"],
        },
        names={2: ["y1"], 3: ["z1"], 4: ["x1", "x2"]},
    )


def incompatible_relator_tower():
    # y and z both act on level 4, but their (nontrivial) actions do not
    # commute while the trivial level-3 action says they must
    return TowerSpec(
        [1, 1, 2],
        monodromy={
            (4, (2, 0)): ["x1", "x1 x2 x1-1"],
            (4, (3, 0)): ["x2-1 x1 x2", "x2"],
        },
        names={2: ["y1"], 3: ["z1"], 4: ["x1", "x2"]},
    )


def boundaries_vanish_at_one(cx):
    for b in cx.boundaries:
        for row in b.rows:
            for x in row:
                if sum(x.coeffs.values(), Fraction(0)) != 0:
                    return False
    return True


class TestCheckTower:
    def test_conjugation_valid(self):
        assert check_tower(f2_semi_f1())["valid"]

    def test_swapped_generator_invalid(self):
        tw = TowerSpec(
            [1, 2],
            monodromy={(3, (2, 0)): ["x2", "x1 x2 x1-1"]},
            names={2: ["y1"], 3: ["x1", "x2"]},
        )
        rep = check_tower(tw)
        assert not rep["valid"] and rep["homology_violations"]

    def test_squared_generator_invalid(self):
        tw = TowerSpec(
            [1, 2],
            monodromy={(3, (2, 0)): ["x1 x1", "x2"]},
            names={2: ["y1"], 3: ["x1", "x2"]},
        )
        rep = check_tower(tw)
        assert not rep["valid"] and rep["homology_violations"]

    def test_incompatible_relator_detected(self):
        rep = check_tower(incompatible_relator_tower())
        assert not rep["valid"] and rep["relator_violations"]

    @pytest.mark.parametrize("levels", (9, 10, 13))
    def test_every_generator_gets_a_probe_weight(self, levels):
        # 2 * levels generators; the first generators of levels 2 and 3 act
        # on the top level by two automorphisms that do not commute, so the
        # relator of that pair fails there.  Past 18 generators the top
        # level's generators used to get probe weight 0, which hid it.
        top = levels + 1
        x1, x2 = f"g{top}_1", f"g{top}_2"
        tw = TowerSpec([2] * levels, monodromy={
            (top, (2, 0)): [f"{x2} {x1} {x2}-1", x2],
            (top, (3, 0)): [x1, f"{x1} {x2} {x1}-1"],
        })
        rep = check_tower(tw)
        assert not rep["valid"] and not rep["homology_violations"]
        assert rep["relator_violations"] == [{"level": top, "pair": ("g2_1", "g3_1")}]


class TestJacobianRep:
    def test_identity_element(self):
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[3], [1, 2]])
        from arrtwist.linalg import Matrix

        assert jacobian_rep(tw, 3, [], ch) == Matrix.identity(L, 2)

    def test_conjugation_example(self):
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[3], [1, 2]])  # a=1, b=2, c=3
        J = jacobian_rep(tw, 3, "y1", ch)
        t = L.t()
        assert J.rows[0] == [t**3, t**3 * (1 - t**-2)]
        assert J.rows[1] == [L.zero, t**3 * t**-1]

    def test_trivial_monodromy_is_scalar(self):
        tw = TowerSpec([2, 2], names={2: ["y1", "y2"], 3: ["x1", "x2"]})
        ch = TowerCharacter.from_lists(tw, [[5, 1], [1, 2]])
        J = jacobian_rep(tw, 3, "y1", ch)
        t = L.t()
        assert J.rows == [[t**5, L.zero], [L.zero, t**5]]

    def test_multiplicative(self, rnd):
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[3], [1, 2]])
        J = jacobian_rep(tw, 3, "y1", ch)
        assert jacobian_rep(tw, 3, "y1 y1", ch) == J * J
        assert jacobian_rep(tw, 3, [((2, 0), 1), ((2, 0), -1)], ch) == J * J.inverse()
        for _ in range(10):
            e1 = [((2, 0), rnd.choice([1, -1])) for _ in range(rnd.randint(0, 3))]
            e2 = [((2, 0), rnd.choice([1, -1])) for _ in range(rnd.randint(0, 3))]
            lhs = jacobian_rep(tw, 3, e1 + e2, ch)
            rhs = jacobian_rep(tw, 3, e1, ch) * jacobian_rep(tw, 3, e2, ch)
            assert lhs == rhs

    def test_slot_identity(self):
        # sum_k' rho(g)[k',k] (t^-w(x_k') - 1) = t^w(g) (t^-w(x_k) - 1)
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[3], [1, 2]])
        t = L.t()
        sig = [t**-1 - 1, t**-2 - 1]
        for element, tw_weight in (("y1", 3), ([((2, 0), -1)], -3)):
            rho = jacobian_rep(tw, 3, element, ch)
            for k in range(2):
                lhs = sum((rho[kp, k] * sig[kp] for kp in range(2)), L.zero)
                assert lhs == sig[k] * t**tw_weight


class TestBuildComplex:
    def test_direct_product_of_f1s_is_koszul(self):
        tw = TowerSpec([1, 1, 1])
        ch = TowerCharacter.from_lists(tw, [[1], [2], [5]])
        cx = build_tower_complex(tw, ch)
        kz = build_koszul(UnitAssignment(L, [L.t(1), L.t(2), L.t(5)]))
        assert cx.ranks == kz.ranks
        ok, report = decide_isomorphic(cx, kz)
        assert ok, report

    def test_f2_semi_f1_shape_and_degree2_agreement(self):
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[3], [1, 2]])
        cx = build_tower_complex(tw, ch)
        assert cx.ranks == (1, 3, 2)
        # standard presentation: generators x1, x2, y (a, b, c); relators are
        # the conjugation relations
        r1 = FreeWord.parse("cac-1a-1")
        r2 = FreeWord.parse("cbc-1") * FreeWord.parse("aba-1").inverse()
        pres = GroupPresentation(3, [r1, r2])
        ac = alexander_complex(pres, [L.t(1), L.t(2), L.t(3)], L)
        for q in (0, 1):
            assert cx.homology(q) == ac.homology(q)

    def test_poincare_ranks_and_one_specialization(self):
        tw = commuting_three_level_tower()
        ch = TowerCharacter.from_lists(tw, [[1], [2], [3, 4]])
        cx = build_tower_complex(tw, ch)
        assert list(cx.ranks) == tw.poincare_coefficients() == [1, 4, 5, 2]
        assert boundaries_vanish_at_one(cx)

    def test_rejects_invalid(self):
        tw = TowerSpec(
            [1, 2],
            monodromy={(3, (2, 0)): ["x2", "x1"]},
            names={2: ["y1"], 3: ["x1", "x2"]},
        )
        ch = TowerCharacter.from_lists(tw, [[1], [1, 1]])
        with pytest.raises(TowerInvalid):
            build_tower_complex(tw, ch)

    def test_each_distinct_jacobian_inverted_once(self, monkeypatch):
        # y1, y2, z1, z2 act alike with equal weights, so their Jacobians on
        # level 4 coincide under several generators and chains
        act = ["x1", "x1 x2 x1-1"]
        tw = TowerSpec(
            [2, 2, 2],
            monodromy={(4, g): act for g in [(2, 0), (2, 1), (3, 0), (3, 1)]},
            names={2: ["y1", "y2"], 3: ["z1", "z2"], 4: ["x1", "x2"]},
        )
        ch = TowerCharacter.from_lists(tw, [[1, 1], [-1, -1], [2, 1]])
        seen = []
        inverse = Matrix.inverse

        def counted(m):
            seen.append(tuple(map(tuple, m.rows)))
            return inverse(m)

        monkeypatch.setattr(Matrix, "inverse", counted)
        cx = build_tower_complex(tw, ch)
        assert seen and len(seen) == len(set(seen))
        assert list(cx.ranks) == tw.poincare_coefficients() == [1, 6, 12, 8]
        assert boundaries_vanish_at_one(cx)


class ReferenceEvaluator:
    """The Jacobian representations as the evaluator first computed them:
    every chain, the one-level and the empty one included, evaluated through
    products of representations on the rest of the chain (1 x 1 matrices at
    the end), the Fox derivatives taken afresh for every entry, and inverses
    read off the Smith transforms as ``right * left``."""

    def __init__(self, tw, ch):
        self.tw, self.ch = tw, ch
        self.cache = {}

    def size(self, chain):
        return prod(self.tw.d(j) for j in chain)

    def letter(self, gen, sign, chain):
        key = (gen, sign, chain)
        if key in self.cache:
            return self.cache[key]
        if not chain:
            out = Matrix(L, [[L.t(sign * self.ch.of(gen))]])
        elif sign < 0:
            form = smith_normal_form(self.letter(gen, 1, chain), transforms=True)
            assert all(d == L.one for d in form.divisors)
            out = form.right * form.left
        else:
            J, rest = chain[0], chain[1:]
            d, s = self.tw.d(J), self.size(rest)
            gen_rest = self.letter(gen, 1, rest)
            out = Matrix.zero(L, d * s, d * s)
            for c, w in enumerate(self.tw.action(J, gen)):
                for r in range(d):
                    val = None
                    for word, coeff in fox_derivative(w, r).bar().terms.items():
                        letters = [((J, abs(x) - 1), 1 if x > 0 else -1) for x in word.letters]
                        term = coeff * self.word(letters, rest)
                        val = term if val is None else val + term
                    if val is not None:
                        out.paste(r * s, c * s, val * gen_rest)
        self.cache[key] = out
        return out

    def word(self, letters, chain):
        out = Matrix.identity(L, self.size(chain))
        for gen, sign in letters:
            out = out * self.letter(gen, sign, chain)
        return out


def chains_above(tw, level):
    """Every chain (j1 < j2 < ...) of levels above ``level``, the empty one
    included."""
    above = [j for j in tw.levels() if j > level]
    return [c for k in range(len(above) + 1) for c in combinations(above, k)]


class TestAssemblyRoutes:
    def towers(self):
        yield f2_semi_f1(), [[3], [1, 2]]
        yield commuting_three_level_tower(), [[1], [2], [3, 4]]
        for seed in range(40):
            rnd = random.Random(seed)
            tw = random_tower(rnd, max_levels=4, max_d=2 if seed % 2 else 3)
            yield tw, [[rnd.randint(-3, 3) for _ in range(tw.d(j))] for j in tw.levels()]

    def test_every_chain_against_the_reference(self):
        """rho of every generator and sign on every chain, read by the
        evaluator (one-level chains off the Fox derivatives, the empty chain
        as one monomial, Gauss-Jordan inverses) and by the reference."""
        compared = 0
        for tw, weights in self.towers():
            ch = TowerCharacter.from_lists(tw, weights)
            ev, ref = tower._Evaluator(tw, ch), ReferenceEvaluator(tw, ch)
            for gen in tw.generators():
                for chain in chains_above(tw, gen[0]):
                    for sign in (1, -1):
                        assert ev.rho_letter(gen, sign, chain) == ref.letter(gen, sign, chain)
                        compared += 1
                    if chain:
                        letters = [(gen, 1), (gen, -1), (gen, -1)]
                        assert ev.rho_word(letters, chain) == ref.word(letters, chain)
        assert compared > 800

    @staticmethod
    def count_smith_transforms(monkeypatch):
        """Wrap ``smith_normal_form`` wherever the package binds it; the list
        returned collects the ``transforms`` flag of every call."""
        import sys

        from arrtwist import linalg

        original, flags = linalg.smith_normal_form, []

        def counted(m, transforms=False):
            flags.append(transforms)
            return original(m, transforms)

        for name, mod in list(sys.modules.items()):
            if name.startswith("arrtwist"):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, counted)
        return flags

    def test_builds_run_no_smith_with_transforms(self, monkeypatch):
        flags = self.count_smith_transforms(monkeypatch)
        for tw, weights in self.towers():
            cx = build_tower_complex(tw, TowerCharacter.from_lists(tw, weights))
            cx.homology(1)
        # matrix units: commuting Jacobians of one automorphism, inverted once each
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[1], [2, 3]])
        J = jacobian_rep(tw, 3, "y1", ch)
        cx = build_koszul(UnitAssignment(L, [J, J * J, L.t(2)]), 3)
        cx.homology(1)
        build_koszul(UnitAssignment.from_weights(L, [1, 2, 3, 4]), 4)
        assert flags and not any(flags)

    def test_one_fox_derivative_per_word_and_slot(self, monkeypatch):
        calls = []
        original = tower.fox_derivative

        def counted(w, i):
            calls.append((w.letters, i))
            return original(w, i)

        monkeypatch.setattr(tower, "fox_derivative", counted)
        for tw, weights in self.towers():
            calls.clear()
            build_tower_complex(tw, TowerCharacter.from_lists(tw, weights))
            expect = {
                (w.letters, r)
                for J in tw.levels()
                for gen in tw.generators() if gen[0] < J
                for w in tw.action(J, gen)
                for r in range(tw.d(J))
            }
            assert len(calls) == len(set(calls)), "a Fox derivative was taken twice"
            assert set(calls) == expect


class TestAssemblyPinned:
    """SHA-256 digests of ``build_tower_complex(...).to_json()``, recorded
    from the assembly that placed every block inside the tower evaluator,
    before the level step moved to ``chain.extend_by_free``."""

    DIGESTS = json.loads((Path(__file__).parent / "tower_digests.json").read_text())

    @staticmethod
    def cases():
        f2, three = f2_semi_f1(), commuting_three_level_tower()
        boolean = TowerSpec([1, 1, 1, 1])
        yield "f2_semi_f1 3;1,2", f2, TowerCharacter.from_lists(f2, [[3], [1, 2]])
        yield "f2_semi_f1 1;1,1", f2, TowerCharacter.from_lists(f2, [[1], [1, 1]])
        yield "three_level 1;2;3,4", three, TowerCharacter.from_lists(three, [[1], [2], [3, 4]])
        yield "boolean_4 1;1;1;1", boolean, TowerCharacter.from_lists(boolean, [[1]] * 4)
        for seed in range(120):
            rnd = random.Random(seed)
            tw = random_tower(rnd, max_levels=4, max_d=3)
            yield f"seed {seed}", tw, random_tower_character(rnd, tw)

    def test_digests(self):
        seen = {
            name: hashlib.sha256(build_tower_complex(tw, ch).to_json().encode()).hexdigest()
            for name, tw, ch in self.cases()
        }
        assert seen == self.DIGESTS

    def test_dd_gate_backs_up_check_tower(self, monkeypatch):
        # with check_tower fooled, the one d.d = 0 gate still refuses
        monkeypatch.setattr(tower, "check_tower", lambda tw: {"valid": True})
        tw = incompatible_relator_tower()
        ch = TowerCharacter.from_lists(tw, [[1], [2], [3, 4]])
        with pytest.raises(TowerInvalid, match="not a complex"):
            build_tower_complex(tw, ch)


class TestTor:
    def test_f1_tower_gcd_torsion(self):
        # Tor_0 = K[t,t^-1] / (t^g - 1), g = gcd of the weights
        for weights, g in (([2, 4], 2), ([3, 5], 1), ([-6, 4], 2)):
            tw = TowerSpec([1, 1])
            ch = TowerCharacter.from_lists(tw, [[weights[0]], [weights[1]]])
            h0 = build_tower_complex(tw, ch).homology(0)
            t = L.t()
            assert h0.free_rank == 0
            assert list(h0.torsion) == [t**g - 1]

    def test_conjugation_tower_tor0(self):
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[1], [1, 1]])
        h0 = build_tower_complex(tw, ch).homology(0)
        t = L.t()
        assert h0.free_rank == 0 and list(h0.torsion) == [t - 1]

    def test_zero_weights_free_of_poincare_rank(self):
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[0], [0, 0]])
        cx = build_tower_complex(tw, ch)
        for q, c in enumerate(tw.poincare_coefficients()):
            assert cx.homology(q).free_rank == c and not cx.homology(q).torsion


class TestPiPresentationFibertype:
    def test_boolean_tower_matches_koszul_path(self):
        tw = TowerSpec([1, 1, 1, 1])
        ch = TowerCharacter.from_lists(tw, [[1], [1], [1], [1]])
        ps = pi_p_presentation_fibertype(tw, 2, ch)
        from arrtwist.arrangement import Arrangement, Character
        from arrtwist.koszul import pi_p_presentation_boolean

        psK = pi_p_presentation_boolean(
            Arrangement.generic(3, 5), Character([-4, 1, 1, 1, 1])
        )
        assert ps.cokernel == psK.cokernel
        # same entries up to basis order and unit normalization
        from collections import Counter

        def multiset(m):
            return Counter(
                L.format(L.canonical(x)) for row in m.rows for x in row if x
            )

        assert multiset(ps.matrix) == multiset(psK.matrix)

    @pytest.mark.parametrize("p", (-1, 1, 9))
    def test_bad_p_refused_before_any_work(self, monkeypatch, p):
        # the top degree is the number of levels: no probe, boundary or gate runs
        monkeypatch.setattr(tower, "build_tower_complex", lambda *a: pytest.fail("built"))
        tw = f2_semi_f1()  # two levels: p = 0 only
        with pytest.raises(DegreeUnavailable):
            pi_p_presentation_fibertype(tw, p, TowerCharacter.from_lists(tw, [[1], [1, 1]]))

    def test_bad_p_refused_before_an_invalid_tower(self):
        tw = incompatible_relator_tower()
        ch = TowerCharacter.from_lists(tw, [[1], [1], [1, 1]])
        with pytest.raises(DegreeUnavailable):
            pi_p_presentation_fibertype(tw, 9, ch)
        with pytest.raises(TowerInvalid):
            pi_p_presentation_fibertype(tw, 1, ch)

    def test_too_short_complex(self):
        tw = f2_semi_f1()
        ch = TowerCharacter.from_lists(tw, [[1], [1, 1]])
        with pytest.raises(DegreeUnavailable):
            pi_p_presentation_fibertype(tw, 2, ch)

    def test_zero_weights_full_rank(self):
        tw = TowerSpec([1, 1, 1, 1])
        ch = TowerCharacter.from_lists(tw, [[0], [0], [0], [0]])
        ps = pi_p_presentation_fibertype(tw, 2, ch)
        assert ps.cokernel.free_rank == tw.poincare_coefficients()[3]
        assert not ps.cokernel.torsion


class TestRankFormulas:
    def test_trivial_character_five_lines(self):
        assert rank_formula_general(3, 3, [1, 4, 6, 4]) == 4

    def test_nonresonant_five_lines(self):
        assert rank_formula_general(3, 3, [0, 0, 0, 0]) == 3

    def test_four_lines_agrees_with_cokernel(self):
        # Tor_3 = ker of an injective boundary = 0 for any nonzero character,
        # so the formula gives (+1)[1 - 0] = 1 = the direct cokernel rank
        assert rank_formula_general(1, 3, [0, 0, 0, 0]) == 1

    def test_nonresonant_cases(self):
        assert rank_formula_nonresonant(3, 3, 5) == 3
        assert rank_formula_nonresonant(1, 3, 4, b_r_pi=1) == 1
        assert rank_formula_nonresonant(5, 3, 5, b_r_pi=6) == 5  # r+1<m ignores b_r

    def test_non_integral_b_r_refused(self):
        # int() used to truncate 1.8 to rank 1
        with pytest.raises(ValueError, match="must be an integer, got 1.8"):
            rank_formula_nonresonant(1, 3, 4, b_r_pi=1.8)


class TestRandomizedGates:
    def test_small_random_towers(self, rnd):
        # a lighter version of the acceptance gate, run across module tests
        for _ in range(12):
            tw = random_tower(rnd, max_levels=3, max_d=3)
            assert check_tower(tw)["valid"]
            ch = random_tower_character(rnd, tw)
            cx = build_tower_complex(tw, ch)  # validates d.d = 0
            assert list(cx.ranks) == tw.poincare_coefficients()
            assert boundaries_vanish_at_one(cx)


class TestJson:
    def test_sample_wire_format(self):
        text = """
        {"exponents": [2, 1],
         "generators": {"level_2": ["y1"], "level_3": ["x1", "x2"]},
         "monodromy": {"level_3": {"y1": ["x1", "x1 x2 x1-1"]}}}
        """
        tw = TowerSpec.from_json(text)
        assert tw.exponents == [1, 2]  # ascending by level internally
        assert tw.d(3) == 2
        assert check_tower(tw)["valid"]
        again = TowerSpec.from_json(tw.to_json())
        assert again.exponents == tw.exponents
        assert again.monodromy.keys() == tw.monodromy.keys()

    @pytest.mark.parametrize("key", ["levelx", "foo_3", "level_2_3", "level_", "3"])
    def test_monodromy_key_is_exactly_level_j(self, key):
        # "foo_3" and "level_2_3" used to be read as level 3
        text = json.dumps({
            "exponents": [2, 1],
            "generators": {"level_2": ["y1"], "level_3": ["x1", "x2"]},
            "monodromy": {key: {"y1": ["x1", "x1 x2 x1-1"]}},
        })
        with pytest.raises(TowerInvalid, match=re.escape(f"bad monodromy key {key!r}")):
            TowerSpec.from_json(text)
