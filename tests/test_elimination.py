"""One cached elimination per boundary.

``FreeChainComplex`` ranks a boundary over every ring by the divisor
count of ``linalg.reduce_boundary``; the fraction-free Bareiss rank of
``conftest`` and fresh Smith forms are the independent routes these tests
hold it against, on Koszul, tower, Alexander and scrambled complexes over
Z, three Laurent rings and three fields.  The call-count tests pin the
reuse: no command reduces the same boundary twice, builds the Z^n complex
twice or past the degrees it reads, or validates a tower twice, the towers
whose Smith forms blew up leave at most small residuals, and field
complexes split every pivot and leave no residual.
"""

import hashlib
import json
import sys
from fractions import Fraction
from math import comb, gcd

import pytest

from arrtwist.arrangement import Arrangement, Character
from arrtwist.chain import FreeChainComplex, Homology
from arrtwist.cli import build_parser, main
from arrtwist.fox import GroupPresentation, alexander_complex
from arrtwist.koszul import (
    Disagreement,
    UnitAssignment,
    build_koszul,
    complete_homology_generic_position,
    pi_p_presentation_boolean,
)
from arrtwist.linalg import Matrix, rank, reduce_boundary, smith_normal_form
from arrtwist.rings import QQ, ZZ, LaurentRing, ring_from_string
from arrtwist.tower import boolean_pi_rank, build_tower_complex, check_tower

from conftest import bareiss_rank, conjugated_commutators, random_tower, random_tower_character

L = LaurentRing(QQ)
LQ, LF5, LC3 = (ring_from_string(s) for s in ("laurent", "laurent:F5", "laurent:cyclotomic:3"))
F5, C5 = ring_from_string("F5"), ring_from_string("cyclotomic:5")
FIELDS = [QQ, F5, C5]
REDUCTION_RINGS = [ZZ, LQ, LF5, LC3, *FIELDS]


def random_weights(rnd, n, g):
    """n weights whose gcd is exactly g (all zero when g = 0)."""
    if g == 0:
        return [0] * n
    while True:
        w = [g * rnd.randint(-3, 3) for _ in range(n)]
        w[rnd.randrange(n)] = g
        if gcd(*w) == g:
            return w


def bareiss_homology(cx, q):
    """H_q by the route the cache replaced: two Bareiss ranks plus a
    Smith form of d_(q+1) for the torsion."""
    free = cx.ranks[q] - bareiss_rank(cx.boundary(q)) - bareiss_rank(cx.boundary(q + 1))
    if cx.ring.is_field or q == cx.top:
        return Homology(free)
    divisors = smith_normal_form(cx.boundary(q + 1)).divisors
    return Homology(free, (d for d in divisors if not cx.ring.is_unit(d)))


def assert_routes_agree(cx):
    for q in range(0, cx.top + 2):
        assert cx.boundary_rank(q) == bareiss_rank(cx.boundary(q)), q
    for q in range(cx.top + 1):
        assert cx.homology(q) == bareiss_homology(cx, q), q


class TestRankRoutes:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_koszul_smith_rank_is_bareiss_rank(self, rnd, n, g):
        w = random_weights(rnd, n, g)
        cx = build_koszul(UnitAssignment(L, [L.t(x) for x in w]))
        assert_routes_agree(cx)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_koszul_closed_form(self, rnd, n, g):
        """The Koszul complex over a PID is unchanged by a change of basis of
        its generators, so only g = gcd(weights) matters: for g != 0,
        H_q = (K[t,t^-1]/(t^g - 1))^C(n-1,q), and for g = 0, H_q is free of
        rank C(n,q).  Past n = 6 the complex stops at degree 3, which fixes
        H_0..H_2."""
        w = random_weights(rnd, n, g)
        top = n if n <= 6 else 3
        cx = build_koszul(UnitAssignment(L, [L.t(x) for x in w]), top)
        # H_top of a truncated complex would need d_(top+1)
        for q in range(n + 1) if top == n else range(top):
            if g:
                want = Homology(0, (L.t(g) - 1,) * comb(n - 1, q))
            else:
                want = Homology(comb(n, q))
            assert cx.homology(q) == want, q

    def test_tower_smith_rank_is_bareiss_rank(self, rnd):
        for _ in range(8):
            tw = random_tower(rnd)
            cx = build_tower_complex(tw, random_tower_character(rnd, tw))
            assert_routes_agree(cx)

    def test_integer_koszul(self, rnd):
        for n in range(1, 6):
            units = [rnd.choice([1, -1]) for _ in range(n)]
            cx = build_koszul(UnitAssignment(ZZ, units))
            assert_routes_agree(cx)

    @pytest.mark.parametrize("R", FIELDS, ids=lambda R: R.name)
    def test_field_complexes_take_the_same_reduction(self, rnd, monkeypatch, R):
        """Over a field every nonzero entry is a unit, so each boundary is
        reduced once, by the routine of every other ring, every pivot splits
        and no Smith form runs."""
        reductions = _count_calls(monkeypatch, reduce_boundary)
        smith = _count_calls(monkeypatch, smith_normal_form)
        cxs = [build_koszul(UnitAssignment(R, [R.one] * 3)),
               build_koszul(UnitAssignment(R, random_units(rnd, R, 4)))]
        homology = [[cx.homology(q) for q in range(cx.top + 1)] for cx in cxs]
        assert [h.free_rank for h in homology[0]] == [1, 3, 3, 1]
        assert all(not h.torsion for hs in homology for h in hs)
        assert sorted(map(id, (m for m, _ in reductions))) == sorted(
            id(d) for cx in cxs for d in cx.boundaries)
        assert all(len(split) == len(divisors) for _, (divisors, split) in reductions)
        assert not smith

    def test_cokernel(self):
        cx = FreeChainComplex(ZZ, [2, 1], [Matrix(ZZ, [[2], [0]])])
        assert cx.cokernel(1) == Homology(1, (2,))
        assert cx.cokernel(2) == Homology(1)  # zero map out of nothing
        assert cx.cokernel(0) == Homology(0)


class TestSharedComplex:
    def test_reused_complex_gives_the_same_answers(self):
        arr = Arrangement.generic(3, 6)
        ch = Character.from_tail([1, 1, 2, 1, 1])
        u = UnitAssignment.from_character(ch)
        full = build_koszul(u)
        a = complete_homology_generic_position(arr, u, full)
        b = complete_homology_generic_position(arr, u)
        assert a.entries == b.entries and a.top_rank_direct == b.top_rank_direct

    def test_boolean_pi_rank_matches_presentation(self):
        arr = Arrangement.generic(3, 6)
        ch = Character.from_tail([2, 0, 2, -2, 4])
        pi = boolean_pi_rank(arr, ch)
        ps = pi_p_presentation_boolean(arr, ch)
        assert pi.presentation.cokernel == ps.cokernel
        assert pi.presentation.matrix == ps.matrix
        assert pi.formula == ps.cokernel.free_rank

    def test_presentation_checks_follow_the_pi_checks(self):
        # four generic lines in P^2: pi_1 is Z^3, and its presentation complex
        # has the Z^n complex's H_0 and H_1
        arr = Arrangement.generic(3, 4)
        ch = Character.from_tail([1, 1, 1])
        plain = boolean_pi_rank(arr, ch).checks
        pi = boolean_pi_rank(arr, ch, GroupPresentation.commutative(3))
        assert pi.checks[:3] == plain
        assert [c["name"] for c in pi.checks] == [
            "top-degree homology: kappa formula vs kernel rank",
            "pi_p rank: cokernel vs Euler-characteristic formula",
            "pi_p rank: nonresonant combinatorial value",
            "H_0: presentation complex vs Z^n complex",
            "H_1: presentation complex vs Z^n complex",
        ]
        h0, h1 = ({"free_rank": 0, "torsion": ["-1 + t"] * k} for k in (1, 2))
        assert [c["values"] for c in pi.checks[3:]] == [[h0, h0], [h1, h1]]

    def test_wrong_presentation_is_a_disagreement(self):
        # F_3 has the right H_0 but a free H_1 of rank 2
        arr = Arrangement.generic(3, 4)
        with pytest.raises(Disagreement, match="H_1: presentation complex") as err:
            boolean_pi_rank(arr, Character.from_tail([1, 1, 1]),
                            GroupPresentation(3, (), meridian_marked=True))
        assert '"agree": false' in str(err.value)


def _count_calls(monkeypatch, fn):
    """Wrap ``fn`` at every arrtwist binding site; return the list of
    (first argument, result) per call."""
    calls = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args[0], out))
        return out

    for name, mod in list(sys.modules.items()):
        if name == "arrtwist" or name.startswith("arrtwist."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def _fingerprint(m):
    return (m.ring.name, m.nrows, m.ncols, tuple(map(tuple, m.format_entries())))


GENERIC_6 = {
    "r": 4,
    "forms": [[i**k for k in range(4)] for i in range(6)],
}

COMMUTATIVE_5 = {
    "generators": 5,
    "relators": [f"{a}{b}{a}-1{b}-1" for i, a in enumerate("abcde") for b in "abcde"[i + 1 :]],
    "meridians": True,
}


class TestOneEliminationPerBoundary:
    @pytest.fixture
    def counted(self, monkeypatch):
        reductions = _count_calls(monkeypatch, reduce_boundary)
        builds = _count_calls(monkeypatch, build_koszul)
        ranks = _count_calls(monkeypatch, rank)
        smith = _count_calls(monkeypatch, smith_normal_form)
        yield reductions, builds
        full = builds[0][1]
        # Laurent ranks come from the cached reductions: neither rank nor a
        # Smith form runs on a boundary itself
        assert not [m for m, _ in ranks + smith if any(m is d for d in full.boundaries)]

    def _run(self, capsys, tmp_path, *argv):
        arr = tmp_path / "a.json"
        arr.write_text(json.dumps(GENERIC_6))
        pres = tmp_path / "p.json"
        pres.write_text(json.dumps(COMMUTATIVE_5))
        argv = [str(arr) if a == "@arr" else str(pres) if a == "@pres" else a for a in argv]
        code = main(argv)
        capsys.readouterr()
        assert code == 0

    def _assert_once_per_boundary(self, reductions, builds):
        prints = [_fingerprint(m) for m, _ in reductions]
        assert len(prints) == len(set(prints))
        assert len(builds) == 1
        full = builds[0][1]
        koszul = [m for m, _ in reductions if any(m is d for d in full.boundaries)]
        assert 0 < len(koszul) <= full.top

    @pytest.mark.parametrize("weights", ["-6,1,1,2,1,1", "0,0,0,0,0,0"])
    def test_homology_full(self, capsys, tmp_path, counted, weights):
        reductions, builds = counted
        self._run(capsys, tmp_path, "homology", "koszul", "--arrangement", "@arr",
                  f"--weights={weights}", "--full")
        self._assert_once_per_boundary(reductions, builds)

    @pytest.mark.parametrize(
        "argv",
        [
            ("pi", "rank", "--arrangement", "@arr", "--weights=-6,1,1,2,1,1"),
            ("pi", "rank", "--arrangement", "@arr", "--weights=-4,2,0,2,-2,2"),
            ("crosscheck", "--arrangement", "@arr", "--weights=-6,1,1,2,1,1"),
            ("crosscheck", "--arrangement", "@arr", "--weights=-5,1,1,1,1,1",
             "--presentation", "@pres"),
        ],
    )
    def test_pi_rank_and_crosscheck(self, capsys, tmp_path, counted, argv):
        reductions, builds = counted
        self._run(capsys, tmp_path, *argv)
        self._assert_once_per_boundary(reductions, builds)


GENERIC_R3_N6 = {
    "r": 3,
    "forms": [[i**k for k in range(3)] for i in range(7)],
}


@pytest.mark.parametrize(
    "argv, top",
    [
        # complete homology reads d_1 .. d_(r-1)
        (("homology", "koszul", "--full"), 2),
        # Tor ranks up to r and the presentation d_(r+1)
        (("pi", "rank"), 4),
        (("crosscheck",), 4),
    ],
)
def test_koszul_built_only_to_the_degrees_read(capsys, tmp_path, monkeypatch, argv, top):
    """r = 3, n = 6: no command builds a boundary above the degree it reads."""
    tops = []

    def wrapper(u, top_degree=None):
        tops.append(top_degree)
        return build_koszul(u, top_degree)

    for name, mod in list(sys.modules.items()):
        if name == "arrtwist" or name.startswith("arrtwist."):
            if getattr(mod, "build_koszul", None) is build_koszul:
                monkeypatch.setattr(mod, "build_koszul", wrapper)
    arr = tmp_path / "a.json"
    arr.write_text(json.dumps(GENERIC_R3_N6))
    code = main([*argv, "--arrangement", str(arr), "--weights=-6,1,1,1,1,1,1"])
    capsys.readouterr()
    assert code == 0
    assert tops == [top]


TOWER_3_LEVELS = {
    "exponents": [2, 1, 1],
    "generators": {"level_2": ["y1"], "level_3": ["z1"], "level_4": ["x1", "x2"]},
    "monodromy": {"level_4": {"y1": ["x1", "x1 x2 x1-1"], "z1": ["x1", "x1 x2 x1-1"]}},
    "weights": {"y1": 1, "z1": -1, "x1": 2, "x2": 1},
}


@pytest.mark.parametrize(
    "argv",
    [("homology", "tower", "--tower"), ("pi", "rank", "--p", "1", "--tower")],
)
def test_tower_commands_validate_once(capsys, tmp_path, monkeypatch, argv):
    checks = _count_calls(monkeypatch, check_tower)
    tw = tmp_path / "t.json"
    tw.write_text(json.dumps(TOWER_3_LEVELS))
    code = main([*argv, str(tw)])
    capsys.readouterr()
    assert code == 0
    assert len(checks) == 1 and checks[0][1]["valid"]


def test_seed_flag_is_gone():
    assert "--seed" not in build_parser().format_help()
    with pytest.raises(SystemExit):
        main(["--seed", "1", "arr", "girth", "--arrangement", "x.json"])


# -- the split-pivot reduction against the Smith form ----------------------


def from_laurent(R):
    """The ring map Z[t,t^-1] -> R on integer-coefficient entries: t -> t
    over a Laurent ring, t -> -1 over Z, t -> zeta over Q(zeta_5) and
    t -> 2 over Q and F_5."""
    if R is ZZ:
        return lambda x: sum(c * (-1) ** (e % 2) for e, c in x.coeffs.items())
    if R is C5:
        return lambda x: sum((R.zeta(e) * c for e, c in x.coeffs.items()), R.zero)
    if R.is_field:
        return lambda x: sum((R.coerce(c * Fraction(2) ** e) for e, c in x.coeffs.items()), R.zero)
    return lambda x: sum((R.t(e) * c for e, c in x.coeffs.items()), R.zero)


def random_units(rnd, R, n):
    if R is ZZ:
        return [rnd.choice([1, -1]) for _ in range(n)]
    if R is C5:
        return [R.zeta(rnd.randint(0, 4)) for _ in range(n)]
    if R.is_field:
        return [R.coerce(rnd.choice([1, -1, 2, Fraction(1, 2)])) for _ in range(n)]
    return [R.t(rnd.randint(-2, 2)) for _ in range(n)]


def small_elements(R):
    """Non-unit pivots and unimodular step coefficients over R; over a
    field every nonzero element is a unit, so the pivots are units too."""
    if R is ZZ:
        return [2, 3, 4, 6, -9], [1, -1, 2, -3]
    if R.is_field:
        z = R.zeta() if R is C5 else R.coerce(2)
        return [R.one, -z, z * z - R.one, R.coerce(Fraction(3, 2))], [R.one, -R.one, z, R.one - z]
    t, one = R.t(), R.one
    return [t - 1, t + 1, t * t - 1, (t - 1) * (t - 1), t * t + t + one], [one, -one, t, one - t]


def unimodular(rnd, R, n, coefs):
    """A random product of elementary row additions, and its inverse."""
    u = Matrix.identity(R, n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rnd.sample(range(n), 2)
        e = Matrix.identity(R, n)
        e.rows[i][j] = R.coerce(rnd.choice(coefs))
        u = e * u
    return u, u.inverse()


def scrambled_complex(rnd, R, top=3):
    """A direct sum of pieces R --v--> R in random degrees and of free
    summands, with each C_q then changed by a random unimodular matrix, so
    that entries need not divide their rows and columns."""
    values, coefs = small_elements(R)
    pieces = [(rnd.randint(1, top), R.coerce(rnd.choice(values))) for _ in range(rnd.randint(2, 7))]
    ranks = [0] * (top + 1)
    for q in (rnd.randint(0, top) for _ in range(rnd.randint(0, 2))):
        ranks[q] += 1
    placed = []
    for q, v in pieces:
        placed.append((q, ranks[q], ranks[q - 1], v))
        ranks[q] += 1
        ranks[q - 1] += 1
    bnds = [Matrix.zero(R, ranks[q - 1], ranks[q]) for q in range(1, top + 1)]
    for q, src, dst, v in placed:
        bnds[q - 1].rows[dst][src] = v
    change = [unimodular(rnd, R, n, coefs) for n in ranks]
    bnds = [change[q - 1][0] * d * change[q][1] for q, d in enumerate(bnds, start=1)]
    return FreeChainComplex(R, ranks, bnds)


def seeded_complexes(rnd, R):
    """Koszul, tower, Alexander and scrambled complexes over R."""
    out = []
    for n in (2, 3, 4):
        out.append(build_koszul(UnitAssignment(R, random_units(rnd, R, n))))
    for _ in range(3):
        tw = random_tower(rnd)
        cx = build_tower_complex(tw, random_tower_character(rnd, tw))
        out.append(cx.tensor_substitute(R, from_laurent(R)) if R is not LQ else cx)
    for _ in range(3):
        n = rnd.randint(2, 4)
        pres = conjugated_commutators(rnd, n, rnd.randint(1, 4))
        out.append(alexander_complex(pres, random_units(rnd, R, n), R))
    out.extend(scrambled_complex(rnd, R) for _ in range(6))
    return out


def smith_homology(cx, q):
    """H_q from fresh Smith forms of d_q and d_(q+1)."""
    below, above = (smith_normal_form(cx.boundary(k)).divisors for k in (q, q + 1))
    free = cx.ranks[q] - len(below) - len(above)
    return Homology(free, (d for d in above if not cx.ring.is_unit(d)))


class TestReduceBoundary:
    @pytest.mark.parametrize("R", REDUCTION_RINGS, ids=lambda R: R.name)
    def test_chains_with_split_rows_dropped_are_smith_chains(self, rnd, R):
        """Each d_q reduced without the rows of d_(q-1)'s split columns, as
        the complex does when asked in ascending order, has the divisor
        chain of the Smith form of the whole d_q."""
        dropped = 0
        for cx in seeded_complexes(rnd, R):
            split = frozenset()
            for q in range(1, cx.top + 1):
                d = cx.boundary(q)
                divisors, split_next = reduce_boundary(d, split)
                assert divisors == smith_normal_form(d).divisors, (q, cx.to_json())
                dropped += len(split)
                split = split_next
        assert dropped

    @pytest.mark.parametrize("R", REDUCTION_RINGS, ids=lambda R: R.name)
    def test_ascending_and_descending_degrees_agree(self, rnd, R):
        for cx in seeded_complexes(rnd, R):
            up, down = (FreeChainComplex(R, cx.ranks, cx.boundaries) for _ in range(2))
            want = [smith_homology(cx, q) for q in range(cx.top + 1)]
            assert [up.homology(q) for q in range(cx.top + 1)] == want
            assert [down.homology(q) for q in reversed(range(cx.top + 1))] == want[::-1]

    def test_scrambled_pivots_leave_residuals(self, rnd, monkeypatch):
        """Some scrambled entries fail the divisibility test, so the
        residual Smith form runs, and the chains still match.  Over a field
        every pivot is a unit and splits, so no residual is left."""
        residuals = _count_calls(monkeypatch, smith_normal_form)
        for R in REDUCTION_RINGS:
            for _ in range(4):
                cx = scrambled_complex(rnd, R)
                for q in range(1, cx.top + 1):
                    assert reduce_boundary(cx.boundary(q))[0] == smith_normal_form(cx.boundary(q)).divisors
        assert {m.ring.name for m, _ in residuals} == {
            R.name for R in REDUCTION_RINGS if not R.is_field}

    def test_a_row_the_pivot_does_not_divide_stays(self):
        # 2 divides its column but not its row: nothing splits, and the
        # residual Smith form finds gcd(2, 3) = 1
        assert reduce_boundary(Matrix(ZZ, [[2, 3]])) == ((1,), frozenset())
        assert reduce_boundary(Matrix(ZZ, [[2], [3]])) == ((1,), frozenset())

    def test_pivots_out_of_chain_order(self):
        assert reduce_boundary(Matrix(ZZ, [[3, 0], [0, 2]]))[0] == (1, 6)
        assert reduce_boundary(Matrix(ZZ, [[2, 0], [0, 3]]))[0] == (1, 6)
        t = L.t()
        m = Matrix(L, [[t + 1, L.zero], [L.zero, t - 1]])
        assert reduce_boundary(m) == ((L.one, t * t - 1), frozenset({0, 1}))

    def test_dropped_rows_are_not_read(self):
        m = Matrix(ZZ, [[2, 0], [5, 7], [0, 4]])
        assert reduce_boundary(m, frozenset({1})) == ((2, 4), frozenset({0, 1}))


def _vanish_at_one(cx):
    return all(sum(x.coeffs.values()) == 0 for d in cx.boundaries for row in d.rows for x in row)


class TestMinimality:
    """The complexes come from minimal CW structures, so every boundary
    vanishes under the augmentation t -> 1 (epsilon . d = 0); this is why
    every pivot of their reductions splits."""

    def test_koszul_boundaries_vanish_at_one(self, rnd):
        for n in range(1, 7):
            cx = build_koszul(UnitAssignment(L, random_units(rnd, L, n)))
            assert _vanish_at_one(cx)

    def test_tower_boundaries_vanish_at_one(self, rnd):
        for _ in range(12):
            tw = random_tower(rnd, max_levels=4)
            assert _vanish_at_one(build_tower_complex(tw, random_tower_character(rnd, tw)))

    def test_an_augmented_boundary_is_seen(self):
        L1 = FreeChainComplex(L, [1, 1], [Matrix(L, [[L.t() + 1]])])
        assert not _vanish_at_one(L1)


def _conjugation_tower(exponents, weights, backwards):
    """The tower file of the CI scale step: on each level, every lower
    generator k acts by x_1 -> x_2 x_1 x_2^-1, or by x_1 -> x_2^-1 x_1 x_2
    when ``backwards(k)``."""
    by_level = exponents[::-1]
    levels = range(2, len(by_level) + 2)
    names = {j: [f"g{j}x{k + 1}" for k in range(by_level[j - 2])] for j in levels}
    mono = {}
    for j in levels:
        x, c = names[j][0], names[j][1]
        words = {False: [f"{c} {x} {c}-1"] + names[j][1:], True: [f"{c}-1 {x} {c}"] + names[j][1:]}
        lower = [g for i in levels if i < j for g in names[i]]
        mono[f"level_{j}"] = {g: words[backwards(k)] for k, g in enumerate(lower)}
    gens = [g for j in levels for g in names[j]]
    return {"exponents": exponents, "generators": {f"level_{j}": names[j] for j in levels},
            "monodromy": mono, "weights": dict(zip(gens, weights))}


# The two towers whose Smith forms blew up: the [3,3,3,3] tower in the slow
# direction (53 s, all of it in the Smith form of d_4) and the [2,2,2,2,2]
# tower with the two directions alternating (not done in 500 s).  Each
# entry holds the tower, the digest of its report as the Smith forms gave
# it (None where they did not finish), and the residual cells left to the
# Smith form: the slow tower's d_3 keeps a 1 x 6 row of t^k - 1 (k = 2..6)
# whose columns hold nothing else, so no row step can split it.
SLOW_TOWERS = {
    "slow_3333": (_conjugation_tower([3, 3, 3, 3], [k % 5 - 2 for k in range(12)], lambda k: True),
                  "62ff0983b10e9e5c7132d431b21e58d88fc5f39993c0198694d7c970f1c80d6f", 6 + 8 * 15),
    "alternating_22222": (_conjugation_tower([2] * 5, [(-1) ** k for k in range(10)],
                                             lambda k: k % 2 == 1), None, 0),
}


@pytest.mark.parametrize("name", SLOW_TOWERS)
def test_slow_towers_split_their_pivots(capsys, tmp_path, monkeypatch, name):
    """A guard by count, not by wall time: each boundary is reduced once,
    no Smith form runs on a boundary, and the residuals stay as small as
    they are."""
    spec, digest, residual_cells = SLOW_TOWERS[name]
    reductions = _count_calls(monkeypatch, reduce_boundary)
    smith = _count_calls(monkeypatch, smith_normal_form)
    builds = _count_calls(monkeypatch, build_tower_complex)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(spec))
    assert main(["homology", "tower", "--tower", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    boundaries = builds[0][1].boundaries
    assert sorted(map(id, (m for m, _ in reductions))) == sorted(map(id, boundaries))
    assert not [m for m, _ in smith if any(m is d for d in boundaries)]
    assert sum(m.nrows * m.ncols for m, _ in smith) <= residual_cells
    assert report["ranks"] == report["poincare_coefficients"]
    assert report["tor"]["0"] == {"free_rank": 0, "torsion": ["-1 + t"]}
    if digest:
        canon = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(canon).hexdigest() == digest


def test_field_koszul_at_scale_splits_every_pivot(capsys, tmp_path, monkeypatch):
    """The CI field scale step as a guard by work: complete homology over
    Q(zeta_12) at r = 6, n + 1 = 12 (weights 1..11) reduces each boundary
    once, runs no Smith form, and gives the closed form: H_0..H_4 = 0 and
    H_5 free of rank C(10, 5) = 252."""
    reductions = _count_calls(monkeypatch, reduce_boundary)
    smith = _count_calls(monkeypatch, smith_normal_form)
    builds = _count_calls(monkeypatch, build_koszul)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"r": 6, "forms": [[i**k for k in range(6)] for i in range(12)]}))
    assert main(["homology", "koszul", "--arrangement", str(path), "--full",
                 "--weights", ",".join(map(str, range(1, 12))), "--ring", "cyclotomic:12"]) == 0
    report = json.loads(capsys.readouterr().out)
    boundaries = builds[0][1].boundaries
    assert sorted(map(id, (m for m, _ in reductions))) == sorted(map(id, boundaries))
    assert not smith
    want = {str(q): {"free_rank": 0, "torsion": []} for q in range(5)}
    want["5"] = {"free_rank": comb(10, 5), "torsion": []}
    assert report["homology"] == want
