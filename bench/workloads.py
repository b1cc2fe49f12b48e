"""Seeded job lists for the benchmark workloads, and their oracles.

Every job is one ``arrtwist`` command line plus the input files it reads.
Jobs come in four families (koszul, milnor, tower, arrangement); a workload
runs the job lists of two families.  The seed picks weights, forms, words and
monodromy; the size classes (rank r, hyperplane count n+1, group sizes,
tower exponents) are fixed per family, so two seeds give different inputs of
the same cost class.

Each job carries an oracle: a function of the parsed JSON report that returns
a list of problems, computed from closed forms that do not come from the
program (binomial homology of the Koszul complex, Milnor-spectrum
invariants, Poincare polynomials of towers, braid and generic lattice
counts).  This module imports nothing from arrtwist.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class Job:
    """One CLI invocation: ``argv`` names files by the keys of ``files``."""

    def __init__(self, kind, argv, files, sizes, oracle, expect_exit=0):
        self.id = ""
        self.kind = kind
        self.argv = argv
        self.files = files
        self.sizes = sizes
        self.oracle = oracle
        self.expect_exit = expect_exit

    def resolved_argv(self, workdir):
        prefix = workdir.rstrip("/") + "/"
        return [prefix + a[1:] if a.startswith("@") else a for a in self.argv]


# -- exact helpers (independent of the program) ------------------------------


def _rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _girth(forms):
    m, r = len(forms), len(forms[0])
    for k in range(3, min(m, r + 1) + 1):
        for sub in combinations(range(m), k):
            if _rank([forms[i] for i in sub]) < k:
                return k
    return None


def _tail_weights(rnd, n, g):
    """n weights with gcd exactly g (all zero when g == 0)."""
    if g == 0:
        return [0] * n
    while True:
        w = [rnd.choice((-2, -1, 1, 2)) for _ in range(n)]
        if gcd(*w) == 1:
            return [g * x for x in w]


def _weights_arg(w):
    return "--weights=" + ",".join(str(x) for x in w)


def _moment_forms(rnd, r, m):
    """m forms in generic position: distinct points on the moment curve,
    each form scaled by a random nonzero integer."""
    xs = rnd.sample(range(-12, 13), m)
    scales = [rnd.choice((-2, -1, 1, 2, 3)) for _ in xs]
    return [[s * x**k for k in range(r)] for s, x in zip(scales, xs)]


def _arr_file(r, forms):
    return json.dumps({"r": r, "forms": forms})


def _poincare(exponents):
    coeffs = [1]
    for d in exponents:
        coeffs = [a + d * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


# -- koszul --------------------------------------------------------------------


def _torsion_string(g):
    return "-1 + t" if g == 1 else f"-1 + t^{g}"


def _koszul_expected(n, q, g):
    """H_q of the Koszul complex of Z^n with units t^gamma_i, g = gcd."""
    if g == 0:
        return {"free_rank": comb(n, q), "torsion": []}
    return {"free_rank": 0, "torsion": [_torsion_string(g)] * comb(n - 1, q)}


def _top_rank(n, r, g):
    return comb(n - 1, r - 1) if g else comb(n, r - 1)


def _pi_rank(n, r, g):
    return comb(n - 1, r - 1) if g else comb(n, r)


def _oracle_homology(n, r, g, full):
    def check(rep):
        bad = []
        hom = rep.get("homology", {})
        for q in range(r - 1):
            if hom.get(str(q)) != _koszul_expected(n, q, g):
                bad.append(f"H_{q} differs from the closed form")
        if full:
            top = _top_rank(n, r, g)
            if hom.get(str(r - 1)) != {"free_rank": top, "torsion": []}:
                bad.append(f"top H_{r - 1} is not free of rank {top}")
            if [rep.get("top_rank_formula"), rep.get("top_rank_direct")] != [top, top]:
                bad.append("top-degree routes disagree with the closed form")
        elif set(hom) != {str(q) for q in range(r - 1)}:
            bad.append("generic-range degrees are not q < r - 1")
        return bad

    return check


def _oracle_pi(n, r, g, gamma0):
    def check(rep):
        bad = []
        want = _pi_rank(n, r, g)
        if rep.get("rank") != want or rep.get("rank_formula") != want:
            bad.append(f"pi rank is not {want}")
        if rep.get("matrix_shape") != [comb(n, r), comb(n, r + 1)]:
            bad.append("presentation matrix shape is not C(n,r) x C(n,r+1)")
        factors = [_torsion_string(g)] * comb(n - 1, r) if g else []
        if rep.get("invariant_factors") != factors:
            bad.append("invariant factors differ from the closed form")
        if rep.get("nonresonant") != (gamma0 != 0):
            bad.append("nonresonance is not gamma_0 != 0")
        return bad

    return check


def _oracle_crosscheck(n, r, g, with_presentation):
    def check(rep):
        bad = []
        if rep.get("all_agree") is not True:
            bad.append("crosscheck routes disagree")
        checks = {c["name"]: c["values"] for c in rep.get("checks", [])}
        top = _top_rank(n, r, g)
        if checks.get("top-degree homology: kappa formula vs kernel rank") != [top, top]:
            bad.append("top-degree check differs from the closed form")
        pi = _pi_rank(n, r, g)
        if checks.get("pi_p rank: cokernel vs Euler-characteristic formula") != [pi, pi]:
            bad.append("pi rank check differs from the closed form")
        if with_presentation:
            for q in (0, 1):
                want = _koszul_expected(n, q, g)
                vals = checks.get(f"H_{q}: presentation complex vs Z^n complex")
                if vals != [want, want]:
                    bad.append(f"H_{q} presentation check differs from the closed form")
        return bad

    return check


def _oracle_refusal(error):
    def check(rep):
        return [] if rep.get("error") == error else [f"expected refusal {error}"]

    return check


def _zn_presentation(rnd, n):
    """Z^n: one commutator per pair, seeded orientation and order."""
    rels = []
    for i, j in combinations(range(n), 2):
        a, b = (i, j) if rnd.random() < 0.5 else (j, i)
        rels.append(f"{LETTERS[a]}{LETTERS[b]}{LETTERS[a]}-1{LETTERS[b]}-1")
    rnd.shuffle(rels)
    return {"generators": n, "relators": rels, "meridians": True}


# (command, r, n+1, gcd class, count): the koszul size classes.  Costs on a
# 2-core host: r=3/n+1=6 jobs about 0.05 s, r=4/n+1=7 --full about 0.6 s,
# pi rank at r=3/n+1=7 about 1 s; n+1 = 8 pushes single jobs to 6-35 s.
KOSZUL_CLASSES = [
    ("full", 3, 6, 1, 3), ("full", 3, 7, 2, 3), ("full", 4, 6, 1, 3),
    ("full", 4, 7, 1, 2), ("full", 4, 7, 0, 1), ("full", 5, 6, 2, 2),
    ("range", 3, 7, 1, 3), ("range", 4, 6, 2, 3), ("range", 4, 7, 1, 1), ("range", 5, 7, 0, 1),
    ("pi", 3, 6, 1, 3), ("pi", 4, 6, 2, 3), ("pi", 3, 7, 1, 1), ("pi", 4, 7, 0, 1),
    ("cross", 3, 6, 1, 1), ("cross", 4, 6, 1, 1),
    ("cross+pres", 3, 6, 2, 1), ("cross+pres", 4, 6, 1, 1),
]


def koszul_jobs(rnd):
    jobs = []
    for cmd, r, m, g, count in KOSZUL_CLASSES:
        n = m - 1
        for _ in range(count):
            forms = _moment_forms(rnd, r, m)
            w = _tail_weights(rnd, n, g)
            files = {"arr.json": _arr_file(r, forms)}
            sizes = {"r": r, "n_plus_1": m, "gcd": g}
            base = ["--arrangement", "@arr.json", _weights_arg(w)]
            if cmd in ("full", "range"):
                argv = ["homology", "koszul"] + base + (["--full"] if cmd == "full" else [])
                oracle = _oracle_homology(n, r, g, cmd == "full")
            elif cmd == "pi":
                argv = ["pi", "rank"] + base
                oracle = _oracle_pi(n, r, g, -sum(w))
            else:
                argv = ["crosscheck"] + base
                if cmd == "cross+pres":
                    files["pres.json"] = json.dumps(_zn_presentation(rnd, n))
                    argv += ["--presentation", "@pres.json"]
                oracle = _oracle_crosscheck(n, r, g, cmd == "cross+pres")
            jobs.append(Job(f"koszul-{cmd}", argv, files, sizes, oracle))
    # Refusals: a girth-3 arrangement (generic range needs c > 3) and a
    # girth-4 arrangement of rank 4 given --full (needs c = r + 1).
    for r, m, extra, error, full in ((3, 6, 2, "GirthTooSmall", False),
                                     (4, 6, 3, "NotGenericPosition", True)):
        while True:
            forms = _moment_forms(rnd, r, m - 1)
            forms.append([sum(col) for col in zip(*forms[:extra])])
            if _girth(forms) == extra + 1:
                break
        w = _tail_weights(rnd, m - 1, 1)
        argv = ["homology", "koszul", "--arrangement", "@arr.json", _weights_arg(w)]
        jobs.append(Job("koszul-refusal", argv + (["--full"] if full else []),
                        {"arr.json": _arr_file(r, forms)},
                        {"r": r, "n_plus_1": m, "gcd": 1, "girth": extra + 1},
                        _oracle_refusal(error), expect_exit=2))
    return jobs


# -- milnor --------------------------------------------------------------------


def _random_word(rnd, n, length):
    return "".join(
        LETTERS[rnd.randrange(n)] + ("-1" if rnd.random() < 0.5 else "")
        for _ in range(length)
    )


def _inverse_word(word):
    toks = []
    i = 0
    while i < len(word):
        inv = word[i + 1 : i + 3] == "-1"
        toks.append(word[i] + ("" if inv else "-1"))
        i += 3 if inv else 1
    return "".join(reversed(toks))


def _oracle_milnor(n, closed_form):
    def check(rep):
        bad = []
        spec = rep.get("spectrum") or []
        if len(spec) != n + 1 or spec[0] != n:
            return [f"b_1^0 is not n = {n}"]
        by_gcd = {}
        for t in range(1, n + 1):
            if by_gcd.setdefault(gcd(t, n + 1), spec[t]) != spec[t]:
                bad.append(f"b_1^{t} differs from another t with gcd {gcd(t, n + 1)}")
        if closed_form is not None and spec != closed_form:
            bad.append(f"spectrum is not {closed_form}")
        tail = spec[1:]
        constant = len(set(tail)) <= 1
        divides = sum(spec) % n == 0
        want = "not_obstructed" if constant and divides else "obstructed"
        if rep.get("b1_total") != sum(spec) or rep.get("verdict") != want:
            bad.append("obstruction verdict inconsistent with the spectrum")
        return bad

    return check


# (kind, n, relator count, count)
MILNOR_CLASSES = [
    ("Zn", 5, None, 4), ("Zn", 6, None, 1), ("Zn", 7, None, 1),
    ("free", 5, 0, 1), ("free", 7, 0, 1),
    ("comm", 4, 2, 4), ("comm", 5, 3, 5), ("comm", 6, 3, 6), ("comm", 7, 4, 6),
]


def milnor_jobs(rnd):
    jobs = []
    for kind, n, k, count in MILNOR_CLASSES:
        for _ in range(count):
            if kind == "Zn":
                pres = _zn_presentation(rnd, n)
                closed = [n] + [0] * n
            elif kind == "free":
                pres = {"generators": n, "relators": [], "meridians": True}
                closed = [n] + [n - 1] * n
            else:
                rels = []
                for _ in range(k):
                    i, j = rnd.sample(range(n), 2)
                    c = f"{LETTERS[i]}{LETTERS[j]}{LETTERS[i]}-1{LETTERS[j]}-1"
                    w = _random_word(rnd, n, rnd.randint(0, 2))
                    rels.append(w + c + _inverse_word(w))
                pres = {"generators": n, "relators": rels, "meridians": True}
                closed = None
            sizes = {"generators": n, "relators": len(pres["relators"])}
            jobs.append(Job(f"milnor-{kind}", ["milnor", "spectrum", "--presentation", "@pres.json"],
                            {"pres.json": json.dumps(pres)}, sizes, _oracle_milnor(n, closed)))
    return jobs


# -- tower ---------------------------------------------------------------------


def _random_tower(rnd, exponents):
    """A valid tower with the given exponents (innermost level first, as in
    the file format): per level one basis-conjugating automorphism
    x_k -> x_l x_k x_l^-1, and every lower generator acting by it or by its
    inverse (powers of one automorphism commute, so the relators act
    consistently).  Weights are +-1."""
    by_level = exponents[::-1]  # level 2 (quotient end) first
    levels = list(range(2, len(by_level) + 2))
    names = {j: [f"g{j}x{k + 1}" for k in range(by_level[j - 2])] for j in levels}
    monodromy = {}
    for j in levels:
        d = by_level[j - 2]
        if d < 2:
            continue
        k = rnd.randrange(d)
        l = rnd.choice([x for x in range(d) if x != k])
        for i in levels[: j - 2]:
            for lower in names[i]:
                c, c_inv = names[j][l], names[j][l] + "-1"
                if rnd.random() < 0.5:
                    c, c_inv = c_inv, c
                words = list(names[j])
                words[k] = f"{c} {names[j][k]} {c_inv}"
                monodromy.setdefault(f"level_{j}", {})[lower] = words
    weights = {nm: rnd.choice((-1, 1)) for j in levels for nm in names[j]}
    return {
        "exponents": list(exponents),
        "generators": {f"level_{j}": names[j] for j in levels},
        "monodromy": monodromy,
        "weights": weights,
    }


def _oracle_tower(exponents):
    poincare = _poincare(exponents)

    def check(rep):
        bad = []
        if rep.get("ranks") != poincare or rep.get("poincare_coefficients") != poincare:
            bad.append(f"ranks are not the Poincare coefficients {poincare}")
        if sorted(rep.get("tor", {}), key=int) != [str(q) for q in range(len(poincare))]:
            bad.append("Tor is not reported in every degree")
        return bad

    return check


def _oracle_tower_pi(exponents, p):
    poincare = _poincare(exponents)

    def check(rep):
        want = [poincare[p + 1], poincare[p + 2]]
        if rep.get("matrix_shape") != want or rep.get("p") != p:
            return [f"presentation matrix shape is not {want}"]
        return []

    return check


# Fixed exponent classes, innermost level first.  [1,2,2,2] reaches 18 x 20
# boundaries; its cost varies 0.6-1.9 s with the seed, so one instance only.
# The [3,3,2,3] tower (about 190 s of rank) is out.
TOWER_CLASSES = [
    ([2, 1], 1), ([3, 2], 1), ([2, 3], 1), ([3, 3], 1),
    ([1, 3, 1], 1), ([2, 1, 2], 1), ([2, 3, 1], 2), ([3, 1, 3], 2), ([2, 2, 2], 2),
    ([3, 2, 2], 2), ([1, 1, 2, 2], 4), ([2, 1, 1, 2], 3), ([1, 2, 2, 2], 1),
]


def tower_jobs(rnd):
    jobs = []
    for exponents, count in TOWER_CLASSES:
        for _ in range(count):
            files = {"tower.json": json.dumps(_random_tower(rnd, exponents))}
            sizes = {"exponents": exponents}
            jobs.append(Job("tower-homology", ["homology", "tower", "--tower", "@tower.json"],
                            files, sizes, _oracle_tower(exponents)))
            p = len(exponents) - 2
            jobs.append(Job("tower-pi", ["pi", "rank", "--tower", "@tower.json", "--p", str(p)],
                            files, sizes, _oracle_tower_pi(exponents, p)))
    return jobs


# -- arrangement ---------------------------------------------------------------


def _stirling2(n, k):
    s = [[0] * (k + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            s[i][j] = j * s[i - 1][j] + s[i - 1][j - 1]
    return s[n][k]


def _unimodular(rnd, r):
    """A random integer matrix of determinant +-1 (product of elementary
    row operations); applying it to the forms keeps the arrangement."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(2 * r):
        i, j = rnd.sample(range(r), 2)
        c = rnd.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _braid(rnd, k):
    """Deconed A_k: forms x_i - x_j on k+1 points with x_0 := 0, in random
    coordinates and random hyperplane order.  Returns (forms, pairs)."""
    pairs = list(combinations(range(k + 1), 2))
    rnd.shuffle(pairs)
    u = _unimodular(rnd, k)
    forms = []
    for i, j in pairs:
        v = [0] * (k + 1)
        v[i], v[j] = 1, -1
        v = v[1:]
        forms.append([sum(v[a] * u[a][b] for a in range(k)) for b in range(k)])
    return forms, pairs


def _arr_oracle(kind, r, m, what, pairs=None, weights=None):
    if kind == "generic":
        flats = {q: comb(m, q) for q in range(1, r)}
        betti = [comb(m - 1, q) for q in range(r)]
        girth, dense = r + 1, m + 1
    else:
        k = r
        flats = {q: _stirling2(k + 1, k + 1 - q) for q in range(1, r)}
        poly = [1]
        for i in range(2, k + 1):
            poly = [a + i * b for a, b in zip(poly + [0], [0] + poly)]
        betti, girth, dense = poly, 3, 2 ** (k + 1) - k - 2

    def check(rep):
        if what == "lattice":
            counts = {}
            for f in rep.get("flats", []):
                counts[f["codim"]] = counts.get(f["codim"], 0) + 1
            ok = counts == flats and rep.get("n_plus_1") == m and rep.get("r") == r
            return [] if ok else [f"flat counts are not {flats}"]
        if what == "dense":
            n_dense = len(rep.get("dense_edges", []))
            return [] if n_dense == dense else [f"{n_dense} dense edges, expected {dense}"]
        if what == "betti":
            eul = sum((-1) ** q * b for q, b in enumerate(betti))
            ok = rep.get("betti") == betti and rep.get("euler") == eul
            return [] if ok else [f"Betti numbers are not {betti}"]
        if what == "girth":
            return [] if rep.get("girth") == girth else [f"girth is not {girth}"]
        # nonres: dense edges inside H_0, projectively visible, zero weight sum
        if kind == "generic":
            want = [[0]] if weights[0] == 0 else []
        else:
            want = []
            for size in range(2, r + 1):  # blocks B with codim |B| - 1 < r
                for block in combinations(range(r + 1), size):
                    members = [h for h, (i, j) in enumerate(pairs) if i in block and j in block]
                    if 0 in members and sum(weights[h] for h in members) == 0:
                        want.append(sorted(members))
        got = rep.get("violators")
        ok = sorted(got or []) == sorted(want) and rep.get("nonresonant") == (not want)
        return [] if ok else ["nonresonance violators differ from the combinatorial count"]

    return check


# (kind, r, n+1) shapes; every shape runs all five subcommands.  Deconed A_5
# is out: its dense-edge search alone takes about 18 s.
ARRANGEMENT_CLASSES = [
    ("braid", 3, 6), ("braid", 3, 6), ("braid", 4, 10), ("braid", 4, 10),
    ("generic", 3, 8), ("generic", 3, 10), ("generic", 3, 10),
    ("generic", 4, 8), ("generic", 4, 8), ("generic", 4, 8), ("generic", 4, 10),
]


def arrangement_jobs(rnd):
    jobs = []
    for kind, r, m in ARRANGEMENT_CLASSES:
        if kind == "braid":
            forms, pairs = _braid(rnd, r)
        else:
            forms, pairs = _moment_forms(rnd, r, m), None
        files = {"arr.json": _arr_file(r, forms)}
        sizes = {"r": r, "n_plus_1": m, "type": kind}
        tail = [rnd.randint(-3, 3) for _ in range(m - 1)]
        weights = [-sum(tail)] + tail
        for what in ("lattice", "dense", "betti", "girth", "nonres"):
            argv = ["arr", what, "--arrangement", "@arr.json"]
            if what == "nonres":
                argv.append(_weights_arg(tail))
            jobs.append(Job(f"arr-{what}", argv, files, sizes,
                            _arr_oracle(kind, r, m, what, pairs, weights)))
    return jobs


FAMILIES = {
    "koszul": koszul_jobs,
    "milnor": milnor_jobs,
    "tower": tower_jobs,
    "arrangement": arrangement_jobs,
}
# laurent: every scalar is a Laurent polynomial, Smith forms and inverses run.
# field: cyclotomic and rational scalars only, rank only, no Smith form.
WORKLOADS = {
    "laurent": ("koszul", "tower"),
    "field": ("milnor", "arrangement"),
}


def make_jobs(workload, seed):
    """The job list of a workload; equal seeds give equal lists."""
    jobs = []
    for family in WORKLOADS[workload]:
        jobs += FAMILIES[family](random.Random(f"{family}:{seed}"))
    for k, job in enumerate(jobs):
        job.id = f"{k:03d}-{job.kind}"
    return jobs
