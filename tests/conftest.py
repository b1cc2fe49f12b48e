import random

import pytest

from arrtwist.fox import FreeWord, GroupPresentation
from arrtwist.tower import TowerSpec, TowerCharacter


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
