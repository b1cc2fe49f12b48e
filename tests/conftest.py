import random

import pytest

from arrtwist.fox import FreeWord, GroupPresentation
from arrtwist.rings import ZZ, _poly_divmod, cyclotomic_poly
from arrtwist.tower import TowerSpec, TowerCharacter


# -- reference routes: the fraction-free (Bareiss) rank, and flats by
# closures of ranked index sets.  The library ranks over every ring by one
# split-pivot reduction (``linalg.reduce_boundary``) and finds flats without
# ranking, so these stay independent.


def bareiss(R, a, nr, nc):
    """Fraction-free elimination of the rows ``a`` (consumed).

    Returns ``(rank, sign, last)``: ``sign`` is the parity of the row swaps
    and ``last`` the last pivot (``R.one`` if there is none).  For a square
    matrix of full rank, ``sign * last`` is its determinant.
    """
    r = 0
    sign = 1
    prev = R.one
    for c in range(nc):
        if r >= nr:
            break
        # smallest-size nonzero pivot in this column keeps entries tame
        cand = [i for i in range(r, nr) if not R.is_zero(a[i][c])]
        if not cand:
            continue
        piv = min(cand, key=lambda i: R.euclid_size(a[i][c]))
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = R.exact_div(a[r][c] * a[i][j] - a[i][c] * a[r][j], prev)
            a[i][c] = R.zero
        prev = a[r][c]
        r += 1
    return r, sign, prev


def bareiss_rank(m):
    """Rank of a ``Matrix`` over the fraction field of its ring, by Bareiss."""
    return bareiss(m.ring, [r[:] for r in m.rows], m.nrows, m.ncols)[0]


def bareiss_det(m):
    """Determinant of a square ``Matrix``, by Bareiss."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    R = m.ring
    r, sign, last = bareiss(R, [row[:] for row in m.rows], m.nrows, m.ncols)
    if r < m.nrows:
        return R.zero
    return -last if sign < 0 else last


class IndexSetRanks:
    """Ranks and closures of sets of an arrangement's hyperplane indices,
    each rank a Bareiss rank of the primitive integer forms, cached."""

    def __init__(self, arr):
        self.forms = arr._int_forms
        self.cache = {}

    def rank_of(self, indices):
        key = frozenset(indices)
        if key not in self.cache:
            rows = [list(self.forms[i]) for i in sorted(key)]
            self.cache[key] = bareiss(ZZ, rows, len(rows), len(self.forms[0]))[0]
        return self.cache[key]

    def closure(self, indices):
        k = self.rank_of(indices)
        return frozenset(
            i
            for i in range(len(self.forms))
            if i in indices or self.rank_of(frozenset(indices) | {i}) == k
        )


# -- reference route for Q(zeta_d): the schoolbook product of coefficient
# vectors, reduced by division with remainder by Phi_d.  The library folds
# high powers through its table of roots of unity and divides no polynomial.


def poly_mul(a, b):
    """Product of two coefficient vectors, constant term first, trimmed."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reduce_by_division(coeffs, d):
    """``coeffs`` modulo Phi_d by division with remainder, padded to length
    phi(d)."""
    modulus = cyclotomic_poly(d)
    rem = _poly_divmod(coeffs, modulus)[1]
    return rem + (0,) * (len(modulus) - 1 - len(rem))


def random_word(rnd, n_gens, max_len=12):
    letters = [
        rnd.choice([1, -1]) * rnd.randint(1, n_gens)
        for _ in range(rnd.randint(0, max_len))
    ]
    return FreeWord(letters)


def conjugated_commutators(rnd, n, m):
    """m relators w [x_i, x_j] w^-1: each dies under any commuting units."""
    rels = []
    for _ in range(m):
        i, j = rnd.sample(range(n), 2)
        w = random_word(rnd, n, 6)
        x = random_word(rnd, n, 2) * FreeWord.generator(i)
        y = FreeWord.generator(j) * random_word(rnd, n, 2)
        rels.append(w * x * y * x.inverse() * y.inverse() * w.inverse())
    return GroupPresentation(n, rels, meridian_marked=True)


def _mccool_move(rnd, d):
    """A basis-conjugating move x_k -> x_l^e x_k x_l^-e (an automorphism)."""
    if d < 2:
        return None
    k = rnd.randrange(d)
    l = rnd.choice([x for x in range(d) if x != k])
    e = rnd.choice([1, -1])
    return (k, l, e)


def _apply_move(word, move):
    if move is None:
        return word
    k, l, e = move
    out = FreeWord()
    conj = FreeWord.generator(l, e)
    for x in word.letters:
        if abs(x) - 1 == k:
            base = FreeWord((x,))
            out = out * conj * base * conj.inverse()
        else:
            out = out * FreeWord((x,))
    return out


def random_tower(rnd, max_levels=3, max_d=3):
    """A random valid tower: per level one basis-conjugating automorphism,
    every lower generator acting by a power of it (powers of a common
    automorphism commute, so the sub-tower relators act consistently)."""
    nlevels = rnd.randint(1, max_levels)
    exponents = [rnd.randint(1, max_d) for _ in range(nlevels)]
    tw0 = TowerSpec(exponents)
    monodromy = {}
    for j in tw0.levels():
        d = tw0.d(j)
        move = _mccool_move(rnd, d)
        if move is None:
            continue
        gens_below = [(i, a) for i in tw0.levels() if i < j for a in range(tw0.d(i))]
        for lower in gens_below:
            power = rnd.randint(0, 2)
            if power == 0:
                continue
            words = []
            for k in range(d):
                w = FreeWord.generator(k)
                for _ in range(power):
                    w = _apply_move(w, move)
                words.append(w)
            monodromy[(j, lower)] = words
    return TowerSpec(exponents, monodromy=monodromy)


def random_tower_character(rnd, tw, lo=-3, hi=3):
    return TowerCharacter(
        {g: rnd.randint(lo, hi) for g in tw.generators()}
    )


@pytest.fixture
def rnd():
    return random.Random(20240814)
