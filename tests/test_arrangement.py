import json
from fractions import Fraction
from itertools import combinations
from math import comb, inf

import pytest

from arrtwist import arrangement, cli
from arrtwist.arrangement import (
    Arrangement,
    Character,
    GirthTooSmall,
    InvalidCharacter,
    LatticeTooLarge,
    NotEssential,
)

NEAR_PENCIL = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]


class TestLattice:
    def test_three_generic_lines(self):
        a = Arrangement.generic(3, 3)
        flats = a.intersection_lattice()
        assert sum(1 for f in flats if f.codim == 1) == 3
        assert sum(1 for f in flats if f.codim == 2) == 3
        assert all(f.codim < 3 for f in flats)

    def test_pencil_in_p1(self):
        # three points in P^1: only the singletons are projective flats
        a = Arrangement.generic(2, 3)
        flats = a.intersection_lattice()
        assert len(flats) == 3
        assert all(len(f.indices) == 1 for f in flats)

    def test_boolean_all_proper_subsets(self):
        a = Arrangement.boolean(4)
        flats = a.intersection_lattice()
        assert len(flats) == 2**4 - 2
        for f in flats:
            assert f.codim == len(f.indices)

    def test_closure_idempotent_and_monotone(self):
        a = Arrangement(3, NEAR_PENCIL)
        for size in (1, 2, 3):
            for sub in combinations(range(4), size):
                cl = a.closure(frozenset(sub))
                assert a.closure(cl) == cl
                assert frozenset(sub) <= cl


class TestGirth:
    def test_three_generic_lines_independent(self):
        assert Arrangement.generic(3, 3).girth() == inf

    def test_four_generic_lines(self):
        assert Arrangement.generic(3, 4).girth() == 4

    def test_near_pencil(self):
        assert Arrangement(3, NEAR_PENCIL).girth() == 3

    def test_at_least_three_when_finite(self):
        for arr in (
            Arrangement.generic(3, 5),
            Arrangement(3, NEAR_PENCIL),
            Arrangement.generic(2, 4),
        ):
            c = arr.girth()
            assert c == inf or c >= 3


class TestDenseEdges:
    def test_boolean_only_hyperplanes(self):
        a = Arrangement.boolean(4)
        dense = a.dense_edges()
        assert len(dense) == 4
        assert all(len(f.indices) == 1 for f in dense)

    def test_pencil_center_dense(self):
        a = Arrangement(2, [[1, 0], [0, 1], [1, 1]])
        dense = a.dense_edges()
        assert any(f.indices == frozenset({0, 1, 2}) for f in dense)

    def test_generic_double_points_not_dense(self):
        a = Arrangement.generic(3, 3)
        dense = a.dense_edges()
        assert all(len(f.indices) == 1 for f in dense)

    def test_singletons_always_present(self):
        for arr in (Arrangement.generic(3, 5), Arrangement(3, NEAR_PENCIL)):
            dense = {f.indices for f in arr.dense_edges()}
            for i in range(arr.n + 1):
                assert frozenset({i}) in dense


def bipartition_connected(arr, flat):
    """Matroid connectivity by brute force: no bipartition of the flat with
    additive rank (the oracle for the fundamental-graph test)."""
    ground = sorted(flat)
    total = arr._rank_of(flat)
    first, rest = ground[0], ground[1:]
    for size in range(len(rest)):
        for part in combinations(rest, size):
            p1 = frozenset((first,) + part)
            if arr._rank_of(p1) + arr._rank_of(frozenset(ground) - p1) == total:
                return False
    return True


def braid(k):
    """Deconed A_k: x_i - x_j on k+1 points with x_0 := 0, in k coordinates."""
    forms = []
    for i, j in combinations(range(k + 1), 2):
        v = [0] * (k + 1)
        v[i], v[j] = 1, -1
        forms.append(v[1:])
    return Arrangement(k, forms)


def random_sign_arrangement(rnd, r, count):
    """``count`` pairwise non-proportional forms with entries in {-1, 0, 1}."""
    forms = []
    while len(forms) < count:
        v = [rnd.choice((-1, 0, 1)) for _ in range(r)]
        if any(v) and v not in forms and [-x for x in v] not in forms:
            forms.append(v)
    return Arrangement(r, forms)


class TestLocalizationConnected:
    def test_matches_bipartition_search(self, rnd):
        arrangements = [braid(k) for k in (3, 4, 5)]
        arrangements += [
            random_sign_arrangement(rnd, r, rnd.randint(r, 8))
            for r in (3, 4)
            for _ in range(12)
        ]
        for arr in arrangements:
            dense = {f.indices for f in arr.dense_edges()}
            for flat in arr.central_flats():
                # the 15-form center of A_5 alone would cost 2^14 bipartitions;
                # test_braid_dense_edges covers it by the closed form
                if 1 < len(flat) <= 10:
                    assert (flat in dense) == bipartition_connected(arr, flat), (
                        arr.forms, sorted(flat))

    def test_braid_dense_edges(self):
        # dense edges of A_k are the flats of one block: C(k+1, m) per size m >= 2
        for k in (3, 4, 5):
            dense = braid(k).dense_edges()
            for m in range(2, k + 2):
                assert sum(1 for f in dense if f.codim == m - 1) == comb(k + 1, m)


class TestNonresonance:
    def test_boolean_generic_weights(self):
        a = Arrangement.boolean(4)
        ok, viol = a.is_nonresonant(Character.from_tail([1, 1, 1]))
        assert ok and not viol

    def test_boolean_zero_h0_weight(self):
        a = Arrangement.boolean(4)
        ok, viol = a.is_nonresonant(Character([0, 1, -1, 0]))
        assert not ok
        assert any(f.indices == frozenset({0}) for f in viol)

    def test_all_zero_weights_resonant(self):
        for arr in (Arrangement.generic(3, 4), Arrangement(3, NEAR_PENCIL)):
            ok, viol = arr.is_nonresonant(Character([0] * (arr.n + 1)))
            assert not ok

    def test_character_must_sum_to_zero(self):
        with pytest.raises(InvalidCharacter):
            Character([1, 1, 1])

    def test_non_integral_weights_refused(self):
        # int() would read [1.5, -1.5] as the character (1, -1)
        for bad in ([1.5, -1.5], [Fraction(1, 2), Fraction(-1, 2)]):
            with pytest.raises(ValueError, match="must be an integer"):
                Character(bad)
        with pytest.raises(ValueError, match="must be an integer"):
            Character.from_tail([0.5, 1])
        assert Character([-2, 1.0, 1]).weights == (-2, 1, 1)

    def test_nonresonant_characters_exist(self):
        # small search succeeds for every fixture
        for arr in (
            Arrangement.generic(3, 4),
            Arrangement.generic(3, 5),
            Arrangement(3, NEAR_PENCIL),
            Arrangement.boolean(4),
        ):
            found = False
            n = arr.n
            for tail_first in range(1, 4):
                tail = [tail_first] + [1] * (n - 1)
                ok, _ = arr.is_nonresonant(Character.from_tail(tail))
                if ok:
                    found = True
                    break
            assert found, arr.forms


class TestBetti:
    def test_generic_binomials(self):
        for r, count in ((3, 4), (3, 5), (3, 8), (4, 6), (5, 7)):
            a = Arrangement.generic(r, count)
            n = count - 1
            b = a.betti_data()
            assert list(b.betti) == [comb(n, q) for q in range(r)], (r, count)
            assert b.euler == sum((-1) ** q * comb(n, q) for q in range(r))

    def test_five_generic_lines(self):
        b = Arrangement.generic(3, 5).betti_data()
        assert b.betti == (1, 4, 6) and b.euler == 3

    def test_three_points_in_p1(self):
        b = Arrangement.generic(2, 3).betti_data()
        assert b.betti == (1, 2) and b.euler == -1

    def test_near_pencil_lattice_values(self):
        # hand-computed: flats off H_0 are {1},{2},{3} and {1,3},{2,3}
        b = Arrangement(3, NEAR_PENCIL).betti_data()
        assert b.betti == (1, 3, 2) and b.euler == 0

    def test_invariants(self):
        for arr in (Arrangement.generic(3, 6), Arrangement(3, NEAR_PENCIL)):
            b = arr.betti_data()
            assert b.betti[0] == 1
            assert b.betti[1] == arr.n
            assert b.euler == sum((-1) ** q * v for q, v in enumerate(b.betti))

    def test_non_essential_rejected(self):
        flat = Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        with pytest.raises(NotEssential):
            flat.betti_data()


class TestGenericPositionProfile:
    def test_four_generic_lines(self):
        p, gp = Arrangement.generic(3, 4).generic_position_profile()
        assert p == 2 and gp

    def test_boolean(self):
        p, gp = Arrangement.boolean(4).generic_position_profile()
        assert p == inf and not gp

    def test_six_generic_in_p3(self):
        p, gp = Arrangement.generic(4, 6).generic_position_profile()
        assert p == 3 and gp

    def test_refuses_girth_three(self):
        with pytest.raises(GirthTooSmall):
            Arrangement(3, NEAR_PENCIL).generic_position_profile()


class TestJson:
    def test_roundtrip(self):
        a = Arrangement(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, Fraction(1, 2), 1]])
        b = Arrangement.from_json(a.to_json())
        assert b.forms == a.forms and b.r == a.r


def closure_flats(arr):
    """Every flat by breadth-first search over closures, one closure per
    (flat, form): the oracle for the residual search."""
    flats = {frozenset(): 0}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for flat in frontier:
            for i in range(len(arr.forms)):
                if i not in flat:
                    new = arr.closure(flat | {i})
                    if new not in flats:
                        flats[new] = arr._rank_of(new)
                        nxt.append(new)
        frontier = nxt
    return flats


def stirling2(n, k):
    """Partitions of an n-set into k blocks."""
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def proportional(u, v):
    return all(u[a] * v[b] == u[b] * v[a] for a, b in combinations(range(len(u)), 2))


class TestLatticeAgainstClosureSearch:
    def test_random_degenerate_arrangements(self, rnd):
        checked = 0
        while checked < 300:
            r = rnd.randint(2, 5)
            count = rnd.randint(2, 8 if r < 5 else 7)
            forms = [
                [Fraction(rnd.randint(-2, 2), rnd.choice((1, 1, 1, 2, 3))) for _ in range(r)]
                for _ in range(count)
            ]
            try:
                arr = Arrangement(r, forms)
            except ValueError:
                continue  # a zero or repeated hyperplane
            checked += 1
            got = arr.central_flats()
            want = closure_flats(Arrangement(r, forms))
            assert got == want, forms
            assert list(got) == list(want), forms  # same discovery order

    @pytest.mark.parametrize("k", (4, 5, 6))
    def test_braid_flats_are_set_partitions(self, k):
        # flats of A_k are the partitions of k+1 points; codim c has S(k+1, k+1-c)
        flats = braid(k).central_flats()
        for c in range(k + 1):
            assert sum(1 for v in flats.values() if v == c) == stirling2(k + 1, k + 1 - c)
        assert len(flats) == {4: 52, 5: 203, 6: 877}[k]

    def test_repeated_hyperplane_named_as_before(self, rnd):
        # the first proportional pair in (i, j) order, as pairwise ranks found it
        seen = 0
        while seen < 40:
            r = rnd.randint(2, 4)
            forms = [[rnd.randint(-2, 2) for _ in range(r)] for _ in range(rnd.randint(2, 7))]
            if not all(any(f) for f in forms):
                continue
            pairs = [(i, j) for i, j in combinations(range(len(forms)), 2)
                     if proportional(forms[i], forms[j])]
            if not pairs:
                continue
            seen += 1
            with pytest.raises(ValueError) as err:
                Arrangement(r, forms)
            assert str(err.value) == f"hyperplanes {pairs[0][0]} and {pairs[0][1]} coincide"


def subset_girth(arr):
    """The least size of a dependent subset, by ranking every subset."""
    m = len(arr.forms)
    for k in range(1, m + 1):
        if any(arr._rank_of(sub) < k for sub in combinations(range(m), k)):
            return k
    return inf


class TestReadOffTheLattice:
    def test_girth_and_essential_match_subset_search(self, rnd):
        arrangements = [
            Arrangement.generic(3, 4),  # girth 4
            Arrangement.generic(4, 6),  # girth 5
            Arrangement.boolean(4),  # independent: inf
            Arrangement(3, NEAR_PENCIL),  # girth 3
            Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]),  # not essential
            Arrangement(4, [[1, 0, 0, 0], [0, 1, 0, 0]]),  # independent, not essential
        ]
        while len(arrangements) < 206:
            r = rnd.randint(2, 5)
            forms = [[rnd.randint(-2, 2) for _ in range(r)] for _ in range(rnd.randint(1, 7))]
            try:
                arrangements.append(Arrangement(r, forms))
            except ValueError:
                continue  # a zero or repeated hyperplane
        seen = set()
        for arr in arrangements:
            want = subset_girth(Arrangement(arr.r, arr.forms))
            essential = arr._rank_of(range(len(arr.forms))) == arr.r
            assert arr.girth() == want, arr.forms
            assert arr.is_essential() == essential, arr.forms
            seen.add(want if want in (3, 4, inf) else "other")
            seen.add(essential)
        assert seen == {3, 4, inf, "other", True, False}

    @pytest.mark.parametrize("arr", [braid(4), Arrangement.generic(4, 8)], ids=["A4", "generic48"])
    def test_no_rank_call(self, arr, monkeypatch):
        def refuse(m):
            raise AssertionError("rank called on an arrangement path")

        monkeypatch.setattr(arrangement, "rank", refuse)
        arr = Arrangement(arr.r, arr.forms)  # nothing cached
        weights = Character.from_tail(range(1, arr.n + 1))
        assert arr.is_essential()
        if arr.girth() == 3:
            with pytest.raises(GirthTooSmall):
                arr.generic_position_profile()
        else:
            assert arr.generic_position_profile() == (arr.r - 1, True)
        assert arr.dense_edges()
        arr.is_nonresonant(weights)
        assert arr.betti_data().betti[0] == 1


def basis_flats(arr):
    """The echelon-basis search that ``central_flats`` ran before it carried
    residuals, copied unchanged: each flat carries an integer echelon basis
    as (pivot, vector) pairs, every outside form is reduced modulo it, and a
    cover's basis is its parent's plus one residual.  The reference for the
    flats and their discovery order."""
    flats = {frozenset(): 0}
    frontier = [(frozenset(), ())]
    while frontier:
        nxt = []
        for flat, basis in frontier:
            covers = {}  # residual -> its forms, by first index
            for i, v in enumerate(arr._int_forms):
                if i in flat:
                    continue
                for p, b in basis:
                    if v[p]:
                        v = [b[p] * x - v[p] * y for x, y in zip(v, b)]
                covers.setdefault(arrangement._primitive(v), []).append(i)
            for residual, members in covers.items():
                new = flat.union(members)
                if new not in flats:
                    flats[new] = len(basis) + 1
                    pivot = next(j for j, x in enumerate(residual) if x)
                    nxt.append((new, basis + ((pivot, residual),)))
        frontier = nxt
    return flats


def quadratic_moebius(flats):
    """Moebius values by the defining recursion, copied unchanged: mu(0, S)
    is minus the sum over every flat strictly below S."""
    order = sorted(flats, key=lambda s: (flats[s], sorted(s)))
    mu = {}
    for s in order:
        below = sum(mu[t] for t in mu if t < s)
        mu[s] = 1 if not s else -below
    return mu


def assert_matches_basis_search(forms, r):
    arr = Arrangement(r, forms)
    want = basis_flats(Arrangement(r, forms))
    got = arr.central_flats()
    assert list(got.items()) == list(want.items()), forms  # order included
    assert arr.moebius() == quadratic_moebius(want), forms
    return arr


class TestResidualSearch:
    def test_random_arrangements_match_the_basis_search(self, rnd):
        seen = set()
        checked = 0
        while checked < 320:
            r = rnd.randint(1, 5)
            count = rnd.randint(1, 9 if r < 5 else 8)
            span = r - 1 if r > 1 and rnd.random() < 0.3 else r  # last coordinate 0: not essential
            forms = [
                [Fraction(rnd.randint(-2, 2), rnd.choice((1, 1, 2, 3))) for _ in range(span)]
                + [0] * (r - span)
                for _ in range(count)
            ]
            if count > 2 and rnd.random() < 0.3:  # a dependent triple: girth 3
                forms[-1] = [x + y for x, y in zip(forms[0], forms[1])]
            try:
                Arrangement(r, forms)
            except ValueError:
                continue  # a zero or repeated hyperplane
            checked += 1
            arr = assert_matches_basis_search(forms, r)
            seen.add((r, arr.is_essential(), arr.girth() == 3))
        for r in range(2, 6):  # every rank, degenerate and non-essential
            assert {(r, True, True), (r, True, False)} <= seen, r
            assert (r, False, r > 2) in seen, r  # r = 2: a single form
        assert (1, True, False) in seen

    @pytest.mark.parametrize("k", range(2, 8))
    def test_braid_matches_the_basis_search(self, k):
        arr = assert_matches_basis_search(braid(k).forms, k)
        assert len(arr.central_flats()) == {2: 5, 3: 15, 4: 52, 5: 203, 6: 877, 7: 4140}[k]

    @pytest.mark.parametrize(
        "arr, bound", [(Arrangement.generic(4, 10), 460), (braid(4), 290)], ids=["generic410", "A4"]
    )
    def test_one_reduction_per_outside_form_below_the_top(self, arr, bound, monkeypatch):
        # the echelon-basis search made 1300 and 370 calls here: it reduced
        # every outside form of every flat, codim r - 1 included, from scratch
        calls = []
        primitive = arrangement._primitive

        def counting(ints):
            calls.append(1)
            return primitive(ints)

        arr = Arrangement(arr.r, arr.forms)  # nothing cached
        monkeypatch.setattr(arrangement, "_primitive", counting)
        flats = arr.central_flats()
        # one residual per outside form of each flat below codim r - 1
        assert bound == sum(len(arr.forms) - len(s) for s, c in flats.items() if c < arr.r - 1)
        assert len(calls) <= bound, len(calls)


class TestLatticeBudget:
    def test_default_admits_braid_a7_and_generic_6_12(self):
        assert arrangement.MAX_FLATS > 4140 and arrangement.MAX_FLATS > 1587
        assert len(Arrangement.generic(6, 12).central_flats()) == 1587

    def test_refused_by_the_command_line(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "a4.json"
        path.write_text(braid(4).to_json())
        monkeypatch.setattr(arrangement, "MAX_FLATS", 20)  # A_4 has 52 flats
        code = cli.main(["arr", "lattice", "--arrangement", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["error"] == "LatticeTooLarge" and "20 flats" in report["reason"]
        with pytest.raises(LatticeTooLarge):
            Arrangement(4, braid(4).forms).betti_data()
