"""One cached elimination per boundary.

``FreeChainComplex`` ranks a boundary over Z and K[t,t^-1] by the divisor
count of its Smith form, as ``linalg.rank`` does there; the fraction-free
Bareiss rank of ``conftest`` is the independent route these tests hold it
against.  The call-count tests pin the reuse: no command eliminates the
same boundary twice, builds the Z^n complex twice or past the degrees it
reads, or validates a tower twice.
"""

import json
import sys
from math import comb, gcd

import pytest

from arrtwist.arrangement import Arrangement, Character
from arrtwist.chain import FreeChainComplex, Homology
from arrtwist.cli import build_parser, main
from arrtwist.koszul import (
    UnitAssignment,
    build_koszul,
    complete_homology_generic_position,
    pi_p_presentation_boolean,
)
from arrtwist.linalg import Matrix, rank, smith_normal_form
from arrtwist.rings import QQ, ZZ, LaurentRing
from arrtwist.tower import boolean_pi_rank, build_tower_complex, check_tower

from conftest import bareiss_rank, random_tower, random_tower_character

L = LaurentRing(QQ)


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
    return Homology(free, smith_normal_form(cx.boundary(q + 1)).nontrivial(cx.ring))


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

    def test_field_complex_keeps_bareiss(self, monkeypatch):
        cx = build_koszul(UnitAssignment(QQ, [1, 1, 1]))
        monkeypatch.setattr(
            "arrtwist.chain.smith_normal_form",
            lambda m: pytest.fail("Smith form over a field"),
        )
        assert [cx.homology(q).free_rank for q in range(4)] == [1, 3, 3, 1]

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
        smith = _count_calls(monkeypatch, smith_normal_form)
        builds = _count_calls(monkeypatch, build_koszul)
        ranks = _count_calls(monkeypatch, rank)
        yield smith, builds
        full = builds[0][1]
        # Laurent ranks come from the cached Smith forms: rank never runs on them
        assert not [m for m, _ in ranks if any(m is d for d in full.boundaries)]

    def _run(self, capsys, tmp_path, *argv):
        arr = tmp_path / "a.json"
        arr.write_text(json.dumps(GENERIC_6))
        pres = tmp_path / "p.json"
        pres.write_text(json.dumps(COMMUTATIVE_5))
        argv = [str(arr) if a == "@arr" else str(pres) if a == "@pres" else a for a in argv]
        code = main(argv)
        capsys.readouterr()
        assert code == 0

    def _assert_once_per_boundary(self, smith, builds):
        prints = [_fingerprint(m) for m, _ in smith]
        assert len(prints) == len(set(prints))
        assert len(builds) == 1
        full = builds[0][1]
        koszul = [m for m, _ in smith if any(m is d for d in full.boundaries)]
        assert 0 < len(koszul) <= full.top

    @pytest.mark.parametrize("weights", ["-6,1,1,2,1,1", "0,0,0,0,0,0"])
    def test_homology_full(self, capsys, tmp_path, counted, weights):
        smith, builds = counted
        self._run(capsys, tmp_path, "homology", "koszul", "--arrangement", "@arr",
                  f"--weights={weights}", "--full")
        self._assert_once_per_boundary(smith, builds)

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
        smith, builds = counted
        self._run(capsys, tmp_path, *argv)
        self._assert_once_per_boundary(smith, builds)


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
