"""Iterated semidirect products of free groups with homologically trivial
monodromy, and their character-specialized equivariant chain complexes.

A tower F_(d_l) |x ... |x F_(d_2) is specified by the free ranks d_j of its
levels (level 2 is the quotient end) and, for every generator y of a lower
level i and every level j > i, the word alpha_y(x_k) by which y conjugates
the k-th generator of level j.  The complex of the whole group is assembled
level by level, one mapping-cone step of :func:`arrtwist.chain.extend_by_free`
per level: C_q = D_q (+) (D_(q-1))^d for the complex D of the sub-tower.
The step's slots are rho(x_k^-1) - 1, and its twisted copy is the sub-tower
boundary with every group element g replaced by its Jacobian
representation -- the matrix

    rho(g) = t^(w(g)) * Jbar(g)^T,    Jbar(g)_{kc} = nu(iota(d alpha_g(x_k) / d x_c)),

where iota is the group-ring involution and nu the character.  rho is
multiplicative, so it extends from generators to arbitrary words using exact
matrix inverses over K[t,t^-1] for inverse letters; the boundary entries of
deeper levels are evaluated lazily through chains of such representations
instead of being held as noncommutative group-ring elements.  On a one-level
chain the matrix is read straight off the Fox derivatives, nu of a word
being t to its weight, and on the empty chain rho(g) is the one monomial
t^(w(g)); each monodromy word's Fox derivatives are taken once per tower,
for the validation probes and the build together.  Every complex
is validated against d . d = 0 at construction; together with the
specialization checks (t -> 1 ranks, Koszul reduction, degree <= 1 agreement
with the presentation complex) that gate pins all sign and side conventions.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, count, islice
from math import comb, prod

from .chain import FreeChainComplex, _as_count, _json_object, _shaped, extend_by_free
from .fox import FreeWord, alexander_complex, fox_derivative
from .koszul import (
    PresentationSummary,
    UnitAssignment,
    _check,
    build_koszul,
    check_generic_position,
    complete_homology_generic_position,
    require_agreement,
)
from .linalg import Matrix
from .rings import LaurentPoly, LaurentRing, QQ, Refusal, _is_prime


class TowerInvalid(ValueError):
    pass


class DegreeUnavailable(Refusal):
    pass


class TowerSpec:
    """Exponents d_2..d_l plus monodromy words.

    ``monodromy[(j, (i, a))]`` lists, for the a-th generator of level i < j,
    the images of the d_j generators of level j (as words in level j).
    Missing entries default to the trivial action.
    """

    def __init__(self, exponents, monodromy=None, names=None):
        self.exponents = [_as_count(d, "an exponent") for d in exponents]  # d_2..d_l
        if any(d < 1 for d in self.exponents):
            raise TowerInvalid("free ranks must be positive")
        self.names = {}
        for j in self.levels():
            given = (names or {}).get(j)
            if given is not None:
                if len(given) != self.d(j):
                    raise TowerInvalid(f"level {j} needs {self.d(j)} generator names")
                self.names[j] = list(given)
            else:
                self.names[j] = [f"g{j}_{k + 1}" for k in range(self.d(j))]
        self.index = {  # name -> (level, idx)
            nm: (j, a) for j in self.levels() for a, nm in enumerate(self.names[j])
        }
        if len(self.index) != sum(self.exponents):
            raise TowerInvalid("generator names must be globally unique")
        self.monodromy = {}
        for key, words in (monodromy or {}).items():
            j, lower = key
            i, a = lower
            if not (2 <= i < j <= self.top_level()):
                raise TowerInvalid(f"bad monodromy key {key}")
            if len(words) != self.d(j):
                raise TowerInvalid(
                    f"monodromy of {self.names[i][a]} on level {j} needs {self.d(j)} words"
                )
            parsed = []
            for w in words:
                word = w if isinstance(w, FreeWord) else FreeWord.parse(w, names=self.names[j])
                if word.max_generator() > self.d(j):
                    raise TowerInvalid(f"monodromy word {w!r} leaves level {j}")
                parsed.append(word)
            self.monodromy[(j, (i, a))] = parsed
        self._fox = {}  # (word letters, slot) -> terms of iota(d word / d x_slot)

    # -- shape helpers ------------------------------------------------------

    def levels(self):
        return range(2, len(self.exponents) + 2)

    def top_level(self):
        return len(self.exponents) + 1

    def d(self, j):
        return self.exponents[j - 2]

    def generators(self):
        return [(j, a) for j in self.levels() for a in range(self.d(j))]

    def action(self, j, lower):
        """Images of level-j generators under the lower generator; trivial
        when unspecified."""
        key = (j, lower)
        if key in self.monodromy:
            return self.monodromy[key]
        return [FreeWord.generator(k) for k in range(self.d(j))]

    def name(self, gen):
        j, a = gen
        return self.names[j][a]

    def _fox_bar(self, w: FreeWord, r):
        """The terms (word, coefficient) of iota(d w / d x_r), the group-ring
        involution of a Fox derivative: computed once per (word, slot) and
        shared by every evaluator of this tower."""
        key = (w.letters, r)
        terms = self._fox.get(key)
        if terms is None:
            terms = self._fox[key] = list(fox_derivative(w, r).bar().terms.items())
        return terms

    def poincare_coefficients(self):
        """Coefficients of prod_j (1 + d_j T); entry q is the q-th Betti
        number of the tower group."""
        coeffs = [1]
        for dj in self.exponents:
            nxt = [0] * (len(coeffs) + 1)
            for q, c in enumerate(coeffs):
                nxt[q] += c
                nxt[q + 1] += c * dj
            coeffs = nxt
        return coeffs

    # -- I/O ----------------------------------------------------------------

    @classmethod
    def from_json(cls, text):
        """Wire format: exponents listed from the innermost (normal) level
        outward, i.e. [d_l, ..., d_2], matching the semidirect product
        notation; monodromy keyed by level and lower-generator name."""
        data = _json_object(text, "a tower")
        exps = _shaped(data["exponents"], list, "exponents")[::-1]  # to d_2..d_l; checked by cls
        nlevels = len(exps)
        names = {}
        generators = _shaped(data.get("generators") or {}, dict, "generators")
        for j in range(2, nlevels + 2):
            given = generators.get(f"level_{j}")
            if given:
                names[j] = _shaped(given, list, f"generators level_{j}")
        tmp = cls(exps, names=names)  # names resolved; now parse monodromy
        mono = {}
        for level_key, per_gen in _shaped(data.get("monodromy") or {}, dict, "monodromy").items():
            level = re.fullmatch(r"level_([0-9]+)", str(level_key))
            if level is None:
                raise TowerInvalid(f"bad monodromy key {level_key!r}: expected level_<j>")
            j = int(level[1])
            for gen_name, words in _shaped(per_gen, dict, f"monodromy {level_key}").items():
                if gen_name not in tmp.index:
                    raise TowerInvalid(f"unknown generator {gen_name!r} in monodromy")
                mono[(j, tmp.index[gen_name])] = words
        return cls(exps, monodromy=mono, names=tmp.names)

    def to_json(self):
        mono = {}
        for (j, lower), words in self.monodromy.items():
            level = mono.setdefault(f"level_{j}", {})
            level[self.name(lower)] = [
                " ".join(
                    self.names[j][abs(x) - 1] + ("" if x > 0 else "-1")
                    for x in w.letters
                )
                or "1"
                for w in words
            ]
        return json.dumps(
            {
                "exponents": self.exponents[::-1],
                "generators": {f"level_{j}": self.names[j] for j in self.levels()},
                "monodromy": mono,
            }
        )


class TowerCharacter:
    """An integer weight for every generator of every level."""

    def __init__(self, weights):
        # weights: {(level, idx): int}; from_lists and from_names end here
        self.weights = {k: _as_count(v, "a weight") for k, v in weights.items()}

    @classmethod
    def from_lists(cls, tw: TowerSpec, per_level):
        w = {}
        for j, vals in zip(tw.levels(), per_level):
            if len(vals) != tw.d(j):
                raise ValueError(f"level {j} needs {tw.d(j)} weights")
            for a, v in enumerate(vals):
                w[(j, a)] = v
        return cls(w)

    @classmethod
    def from_names(cls, tw: TowerSpec, named):
        w = {}
        for nm, v in named.items():
            if nm not in tw.index:
                raise ValueError(f"unknown generator {nm!r}")
            w[tw.index[nm]] = v
        return cls(w)

    def of(self, gen):
        return self.weights.get(gen, 0)


def check_tower(tw: TowerSpec):
    """Validate the two structural requirements.

    (1) exactly: every monodromy word abelianizes to its own generator.
    (2) the conjugation relators of the sub-tower act consistently, checked
        through the Jacobian representations at probe characters (an exact
        matrix identity; composing the substitutions directly would need
        inverse automorphisms, which the input does not carry).

    Returns {"valid": bool, "homology_violations": [...],
    "relator_violations": [...]}.
    """
    homology_bad = []
    for (j, lower), words in tw.monodromy.items():
        for k, w in enumerate(words):
            expect = [0] * tw.d(j)
            expect[k] = 1
            if w.exponent_sums(tw.d(j)) != expect:
                homology_bad.append(
                    {"level": j, "generator": tw.name(lower), "slot": k,
                     "word": repr(w)}
                )
    relator_bad = []
    if not homology_bad:
        gens = tw.generators()
        # the first max(#generators, 18) primes: every generator weighs > 0
        probe = list(islice(filter(_is_prime, count(2)), max(len(gens), 18)))
        for primes in (probe, probe[::-1]):  # two probe characters
            ev = _Evaluator(tw, TowerCharacter(dict(zip(gens, primes))))
            for j in tw.levels():  # level-major, so the report order is fixed
                for i, ip in combinations(range(2, j), 2):
                    for a in range(tw.d(i)):
                        for b in range(tw.d(ip)):
                            y, z = (i, a), (ip, b)
                            lhs = ev.rho_word([(y, 1), (z, 1)], (j,))
                            conj = tw.action(ip, y)[b]  # alpha_y(z), level-ip word
                            rhs = ev.rho_level_word(conj, ip, (j,)) * ev.rho_letter(y, 1, (j,))
                            if lhs != rhs:
                                viol = {"level": j, "pair": (tw.name(y), tw.name(z))}
                                if viol not in relator_bad:
                                    relator_bad.append(viol)
    return {
        "valid": not homology_bad and not relator_bad,
        "homology_violations": homology_bad,
        "relator_violations": relator_bad,
    }


class _Evaluator:
    """Jacobian representations evaluated through interpretation chains.

    A chain (j1, j2, ..., jm) with j1 < j2 < ... denotes: represent on level
    j1, with the matrix entries themselves represented on level j2, and so
    on; the empty chain is the character t^w, one monomial.  Block sizes
    multiply.  A one-level chain (J,) is read straight off the Fox
    derivatives of the monodromy words, entry (r, c) of rho(y) being
    t^(w(y)) * nu(iota(d alpha_y(x_c) / d x_r)); longer chains evaluate
    those derivatives' words on the rest of the chain.  Representations
    and inverses are cached per evaluator, Fox derivatives per tower.
    """

    def __init__(self, tw: TowerSpec, ch: TowerCharacter):
        self.tw = tw
        self.ch = ch
        self.ring = LaurentRing(QQ)
        self._rho_cache = {}
        self._word_cache = {}
        self._inverse_cache = {}

    def size(self, chain):
        return prod(self.tw.d(j) for j in chain)

    def rho_letter(self, gen, sign, chain) -> Matrix:
        key = (gen, sign, chain)
        if key in self._rho_cache:
            return self._rho_cache[key]
        if not chain:
            out = Matrix(self.ring, [[self.ring.t(sign * self.ch.of(gen))]], 1, 1)
        elif sign < 0:
            out = self.inverse(self.rho_letter(gen, 1, chain))
        else:
            J, rest = chain[0], chain[1:]
            if gen[0] >= J:
                raise TowerInvalid(f"{self.tw.name(gen)} cannot act on level {J}")
            if rest:
                out = self._rho_nested(gen, J, rest)
            else:
                out = self._rho_one_level(gen, J)
        self._rho_cache[key] = out
        return out

    def _rho_one_level(self, gen, J) -> Matrix:
        """rho(gen) on the one-level chain (J,), read off the Fox
        derivatives: entry (r, c) is t^(w(gen)) * nu(iota(d alpha(x_c) / d x_r)),
        and nu of a level-J word is t to its weight."""
        d = self.tw.d(J)
        weights = [self.ch.of((J, k)) for k in range(d)]
        shift = self.ch.of(gen)
        rows = [[None] * d for _ in range(d)]
        for c, w in enumerate(self.tw.action(J, gen)):
            for r in range(d):
                coeffs = {}
                for word, coeff in self.tw._fox_bar(w, r):
                    e = shift + sum(weights[x - 1] if x > 0 else -weights[-x - 1]
                                    for x in word.letters)
                    coeffs[e] = coeffs.get(e, 0) + coeff
                rows[r][c] = LaurentPoly(self.ring.base, coeffs)
        return Matrix(self.ring, rows, d, d)

    def _rho_nested(self, gen, J, rest) -> Matrix:
        """rho(gen) on the chain (J,) + rest: the block (r, c) is
        iota(d alpha(x_c) / d x_r) evaluated on ``rest``, times rho(gen) on
        ``rest``."""
        d = self.tw.d(J)
        s = self.size(rest)
        gen_rest = self.rho_letter(gen, 1, rest)
        out = Matrix.zero(self.ring, d * s, d * s)
        for c, w in enumerate(self.tw.action(J, gen)):
            for r in range(d):
                val = None
                for word, coeff in self.tw._fox_bar(w, r):
                    term = self.rho_level_word(word, J, rest)
                    if coeff != 1:
                        term = coeff * term
                    val = term if val is None else val + term
                if val is not None:  # a zero derivative leaves a zero block
                    out.paste(r * s, c * s, val * gen_rest)
        return out

    def inverse(self, m: Matrix) -> Matrix:
        """``m.inverse()``, computed once per distinct matrix content: equal
        Jacobians recur under different generators and chains.  Every entry
        is over this evaluator's ring, so its sorted terms identify it and
        the key hashes no ring."""
        key = tuple(tuple(tuple(sorted(x.coeffs.items())) for x in row) for row in m.rows)
        if key not in self._inverse_cache:
            self._inverse_cache[key] = m.inverse()
        return self._inverse_cache[key]

    def rho_level_word(self, w: FreeWord, level, chain) -> Matrix:
        """rho of a single-level word (letters all at ``level``)."""
        key = (w.letters, level, chain)
        if key in self._word_cache:
            return self._word_cache[key]
        letters = [((level, abs(x) - 1), 1 if x > 0 else -1) for x in w.letters]
        out = self.rho_word(letters, chain)
        self._word_cache[key] = out
        return out

    def rho_word(self, letters, chain) -> Matrix:
        """rho of a mixed-level word given as ((level, idx), sign) pairs."""
        if not letters:
            return Matrix.identity(self.ring, self.size(chain))
        (gen, sign), *rest = letters
        out = self.rho_letter(gen, sign, chain)
        for gen, sign in rest:
            out = out * self.rho_letter(gen, sign, chain)
        return out

    # -- the recursive complex ---------------------------------------------

    def pieces(self, j, chain):
        """(block ranks, scalar boundaries) of the level-<=j sub-tower with
        coefficients twisted through ``chain``; block size = size(chain):
        one ``extend_by_free`` step with slots rho(x_k^-1) - 1, twisting
        through (j,) + chain.  Each (j, chain) is reached once."""
        if j == 1:
            return [1], []
        d_ranks, d_bnds = self.pieces(j - 1, chain)
        _, t_bnds = self.pieces(j - 1, (j,) + chain)
        eye = Matrix.identity(self.ring, self.size(chain))
        slots = [self.rho_letter((j, k), -1, chain) - eye for k in range(self.tw.d(j))]
        return extend_by_free(d_ranks, d_bnds, t_bnds, slots, self.size(chain))


def jacobian_rep(tw: TowerSpec, level, element, ch: TowerCharacter) -> Matrix:
    """rho(g) on the given level: an invertible d_level x d_level matrix over
    Q[t,t^-1], multiplicative in g.

    ``element`` is a mixed word below ``level``: either a string of
    space-separated generator names ('y1 x1-1') or ((level, idx), sign)
    pairs.

    >>> tw = TowerSpec([1, 2], monodromy={(3, (2, 0)): ["x1", "x1 x2 x1-1"]},
    ...                names={2: ["y1"], 3: ["x1", "x2"]})
    >>> ch = TowerCharacter.from_lists(tw, [[3], [1, 2]])
    >>> jacobian_rep(tw, 3, "y1", ch).format_entries()
    [['t^3', '-t + t^3'], ['0', 't^2']]
    """
    if isinstance(element, str):
        gens = tw.generators()
        word = FreeWord.parse(element, names=[tw.name(g) for g in gens])
        element = [(gens[abs(x) - 1], 1 if x > 0 else -1) for x in word.letters]
    ev = _Evaluator(tw, ch)
    return ev.rho_word(list(element), (level,))


def build_tower_complex(tw: TowerSpec, ch: TowerCharacter) -> FreeChainComplex:
    """The specialized chain complex of the whole tower over Q[t,t^-1].

    Ranks are the coefficients of prod (1 + d_j T).  This is the one tower
    validation gate: an inconsistent tower raises TowerInvalid carrying the
    JSON of the :func:`check_tower` report (the d.d = 0 gate backs it up).
    """
    report = check_tower(tw)
    if not report["valid"]:
        raise TowerInvalid(json.dumps(report))
    ev = _Evaluator(tw, ch)
    ranks, bnds = ev.pieces(tw.top_level(), ())
    try:
        return FreeChainComplex(ev.ring, ranks, bnds)
    except Refusal:  # e.g. SpanTooLarge: a budget, not an inconsistent tower
        raise
    except ValueError as e:  # backstop: check_tower should refuse first
        raise TowerInvalid(f"assembled boundaries are not a complex: {e}") from e


def pi_p_presentation_fibertype(
    tw: TowerSpec, p: int, ch: TowerCharacter
) -> PresentationSummary:
    """The (p+2)-nd boundary of the tower complex as a presentation matrix,
    with its cokernel summary.  The caller asserts the geometric hypotheses
    (fiber-type ambient, p = r - 1).  A p outside the complex is refused
    before any work: the top degree is the number of levels."""
    top = len(tw.exponents)
    if p < 0:
        raise DegreeUnavailable(f"p must be nonnegative, got {p}")
    if p + 2 > top:
        raise DegreeUnavailable(
            f"complex has top degree {top}; boundary {p + 2} does not exist"
        )
    return PresentationSummary.of_boundary(build_tower_complex(tw, ch), p + 2)


def rank_formula_general(chi: int, r: int, tor_ranks) -> int:
    """(-1)^(r-1) [ chi - sum_(q=0)^r (-1)^q tor_ranks[q] ]."""
    if r < 3:
        raise ValueError("the rank formula needs r >= 3")
    tor_ranks = list(tor_ranks)
    if len(tor_ranks) < r + 1:
        raise ValueError(f"need Tor ranks for q = 0..{r}")
    alt = sum((-1) ** q * tor_ranks[q] for q in range(r + 1))
    return (-1) ** (r - 1) * (chi - alt)


def rank_formula_nonresonant(chi: int, r: int, m: int, b_r_pi=None) -> int:
    """The pi_p rank of a nonresonant character by the case split:
    (-1)^(r-1) chi when r+1 < m, and b_r(pi), the r-th Betti number of the
    tower group (prod d_j when the complex has dimension r), when r+1 = m."""
    if r < 3:
        raise ValueError("needs r >= 3")
    if r + 1 < m:
        return (-1) ** (r - 1) * chi
    if r + 1 > m:
        raise ValueError("a proper section needs r < m")
    if b_r_pi is None:
        raise ValueError("r+1 = m needs b_r(pi)")
    return _as_count(b_r_pi, "b_r(pi)")


class BooleanPiRank:
    """The pi_p rank of a generic-position arrangement with Boolean ambient
    by three routes, all read from one Z^n complex.

    ``presentation`` is d_(p+2) with its cokernel; ``formula`` is
    :func:`rank_formula_general` on the Tor ranks of the complex;
    ``nonresonant_rank`` is the combinatorial value, or None when the
    character is resonant.  ``homology`` is the complete twisted homology,
    read from the same complex.  ``checks`` lists the paired routes as
    compared, each {"name", "values", "agree"}; every one agrees.
    """

    __slots__ = (
        "p",
        "presentation",
        "homology",
        "formula",
        "nonresonant",
        "nonresonant_rank",
        "checks",
    )

    def __init__(self, p, presentation, homology, formula,
                 nonresonant, nonresonant_rank, checks):
        self.p = p
        self.presentation = presentation
        self.homology = homology
        self.formula = formula
        self.nonresonant = nonresonant
        self.nonresonant_rank = nonresonant_rank
        self.checks = checks


def boolean_pi_rank(arr, character, group_presentation=None) -> BooleanPiRank:
    """Every route to the pi_p rank of a generic-position arrangement with
    Boolean ambient, from a single build of the Z^n complex.

    The routes read the Tor ranks up to degree r and the presentation
    d_(p+2) = d_(r+1), so the complex is built up to degree min(n, r + 1).
    Its per-boundary cache means each boundary is eliminated once for the
    presentation, the complete homology and the Tor ranks together.
    The checks start from the complete homology's top-degree check (kappa
    formula vs kernel rank); then the cokernel rank is compared with the
    Euler-characteristic formula and, for a nonresonant character, with
    the combinatorial value.  ``group_presentation``, a presentation of the
    complement's fundamental group, adds H_0 and H_1 of its complex,
    specialized by the same character, against the Z^n complex.  All go
    through :func:`arrtwist.koszul.require_agreement` at once, so any
    mismatch raises Disagreement.
    """
    u = UnitAssignment.from_character(character)
    check_generic_position(arr, u)
    p = arr.r - 1
    full = build_koszul(u, min(arr.n, arr.r + 1))
    presentation = PresentationSummary.of_boundary(full, p + 2)
    homology = complete_homology_generic_position(arr, u, full)
    tor_ranks = [full.homology(q).free_rank for q in range(arr.r + 1)]
    formula = rank_formula_general(homology.chi, arr.r, tor_ranks)
    nonresonant, _ = arr.is_nonresonant(character)
    rank = presentation.cokernel.free_rank
    checks = homology.checks + [
        _check("pi_p rank: cokernel vs Euler-characteristic formula", rank, formula),
    ]
    nonresonant_rank = None
    if nonresonant:
        nonresonant_rank = rank_formula_nonresonant(
            homology.chi, arr.r, arr.n + 1, b_r_pi=comb(arr.n, arr.r)
        )
        checks.append(
            _check("pi_p rank: nonresonant combinatorial value", rank, nonresonant_rank)
        )
    if group_presentation is not None:
        ac = alexander_complex(group_presentation, u.units, u.ring)
        # generic position forces r >= 3, so H_0 and H_1 are complete-homology entries
        for q in (0, 1):
            checks.append(_check(
                f"H_{q}: presentation complex vs Z^n complex",
                ac.homology(q).describe(u.ring), homology[q].describe(u.ring),
            ))
    return BooleanPiRank(
        p, presentation, homology, formula,
        nonresonant, nonresonant_rank, require_agreement(checks),
    )
