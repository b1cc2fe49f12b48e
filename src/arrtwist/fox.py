"""Free-group words, Fox derivatives, and presentation chain complexes.

Words are stored as tuples of nonzero signed integers (letter ``k+1`` is the
k-th generator, negation is inversion), freely reduced at construction.
Fox derivatives satisfy the defining axioms

    d(x_j)/d(x_i) = delta_ij,      d(uv)/d(x_i) = du/d(x_i) + u . dv/d(x_i),

from which d(x_i^-1)/d(x_i) = -x_i^-1 follows.  Specializing a group-ring
element through an assignment of commuting units gives the Alexander-type
boundary matrices of a finite presentation; degrees <= 1 of the resulting
complex compute H_0 and H_1 of any space with that fundamental group.
"""

from __future__ import annotations

import json

from .chain import FreeChainComplex, _as_count, _json_object, _shaped
from .linalg import Matrix


class RelatorNotKilled(ValueError):
    """A relator does not specialize to 1 under the unit assignment."""


class NotMeridianMarked(ValueError):
    pass


def _reduce(letters):
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class FreeWord:
    """A freely reduced word in a free group.

    >>> w = FreeWord.parse("aba-1b-1")
    >>> w
    aba-1b-1
    >>> w * w.inverse()
    1
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _reduce(letters)

    @classmethod
    def generator(cls, i, exponent=1):
        return cls([(i + 1) if exponent > 0 else -(i + 1)])

    @classmethod
    def parse(cls, text, names=None):
        """Parse compact one-letter syntax ('aba-1b-1', letters a-z,
        whitespace ignored) or, with ``names`` giving the generator order, space-separated
        named tokens ('x1 x2-1')."""
        if not isinstance(text, str):
            raise ValueError(f"a word must be a string, got {text!r}")
        tokens = text.split()
        if tokens in ([], ["1"]):
            return cls()
        letters = []
        if names is not None:
            for tok in tokens:
                inv = tok.endswith("-1")
                name = tok[:-2] if inv else tok
                try:
                    idx = list(names).index(name)
                except ValueError:
                    raise ValueError(f"unknown generator {name!r}") from None
                letters.append(-(idx + 1) if inv else idx + 1)
            return cls(letters)
        text = "".join(tokens)
        i = 0
        while i < len(text):
            ch = text[i]
            if not "a" <= ch <= "z":
                raise ValueError(f"bad word syntax at {text[i:]!r}")
            idx = ord(ch) - ord("a")
            i += 1
            if text[i : i + 2] == "-1":
                letters.append(-(idx + 1))
                i += 2
            else:
                letters.append(idx + 1)
        return cls(letters)

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    def inverse(self):
        return FreeWord(tuple(-x for x in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def max_generator(self):
        return max((abs(x) for x in self.letters), default=0)

    def exponent_sums(self, n):
        """Abelianized image in Z^n."""
        out = [0] * n
        for x in self.letters:
            out[abs(x) - 1] += 1 if x > 0 else -1
        return out

    def __repr__(self):
        if not self.letters:
            return "1"
        out = []
        for x in self.letters:
            out.append(chr(ord("a") + abs(x) - 1) + ("" if x > 0 else "-1"))
        return "".join(out)


class GroupRingElement:
    """A finitely supported Z-combination of free words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls({w: coeff})

    @classmethod
    def one(cls):
        return cls({FreeWord(): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement({w: c * other for w, c in self.terms.items()})
        if isinstance(other, FreeWord):
            other = GroupRingElement.from_word(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElement(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        if isinstance(other, FreeWord):
            return GroupRingElement.from_word(other) * self
        return NotImplemented

    def bar(self):
        """The group-ring involution w -> w^-1."""
        return GroupRingElement({w.inverse(): c for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0].letters), t[0].letters)):
            bits.append(f"{c:+d}*{w!r}")
        return " ".join(bits)


def fox_derivative(w: FreeWord, i: int) -> GroupRingElement:
    """The Fox derivative d(w)/d(x_i), i 0-based.

    >>> fox_derivative(FreeWord.parse("ab"), 0) == GroupRingElement.one()
    True
    >>> fox_derivative(FreeWord.parse("a-1"), 0) == GroupRingElement.from_word(FreeWord.parse("a-1"), -1)
    True
    """
    terms = {}
    prefix = FreeWord()
    for x in w.letters:
        if x > 0:
            if x - 1 == i:
                terms[prefix] = terms.get(prefix, 0) + 1
            prefix = prefix * FreeWord((x,))
        else:
            prefix = prefix * FreeWord((x,))
            if -x - 1 == i:
                terms[prefix] = terms.get(prefix, 0) - 1
    return GroupRingElement(terms)


def specialize_word(w: FreeWord, units, ring):
    """Image of a word under x_i -> units[i] in a commutative ring."""
    out = ring.one
    for x in w.letters:
        u = units[abs(x) - 1]
        out = out * (u if x > 0 else ring.unit_inverse(u))
    return out


def specialize(e, units, ring):
    """Ring-homomorphic image of a group-ring element.

    >>> from arrtwist.rings import LaurentRing, QQ
    >>> L = LaurentRing(QQ)
    >>> e = fox_derivative(FreeWord.parse("bab-1a-1"), 0)
    >>> specialize(e, [L.t(), L.t()], L) == L.t() - 1
    True
    """
    if isinstance(e, FreeWord):
        return specialize_word(e, units, ring)
    out = ring.zero
    for w, c in e.terms.items():
        out = out + c * specialize_word(w, units, ring)
    return out


class GroupPresentation:
    """<x_1..x_n | r_1..r_m>, optionally meridian-marked.

    Meridian marking asserts the generators are meridians of the n
    non-distinguished hyperplanes of an arrangement, so every relator must
    abelianize to zero (H_1 is free on the meridians); the constructor
    enforces this.
    """

    __slots__ = ("n", "relators", "meridian_marked")

    def __init__(self, n, relators=(), meridian_marked=False, names=None):
        self.n = _as_count(n, "the generator count")
        if self.n < 0:
            raise ValueError(f"generator count must be nonnegative, got {self.n}")
        self.relators = [
            r if isinstance(r, FreeWord) else FreeWord.parse(r, names=names)
            for r in relators
        ]
        for r in self.relators:
            if r.max_generator() > self.n:
                raise ValueError(f"relator {r!r} uses an undeclared generator")
        self.meridian_marked = bool(meridian_marked)
        if self.meridian_marked:
            for r in self.relators:
                if any(r.exponent_sums(self.n)):
                    raise NotMeridianMarked(
                        f"relator {r!r} has nonzero abelianization"
                    )

    @classmethod
    def commutative(cls, n):
        """<x_1..x_n | all commutators> (the free abelian group Z^n),
        meridian-marked."""
        rels = []
        for i in range(n):
            for j in range(i + 1, n):
                a, b = FreeWord.generator(i), FreeWord.generator(j)
                rels.append(a * b * a.inverse() * b.inverse())
        return cls(n, rels, meridian_marked=True)

    @classmethod
    def from_json(cls, text):
        data = _json_object(text, "a presentation")
        relators = data.get("relators", [])
        if not isinstance(relators, list):
            raise ValueError(f"relators must be a list of words, got {relators!r}")
        names = data.get("names")
        return cls(
            data["generators"],
            relators,
            meridian_marked=_shaped(data.get("meridians", False), bool, "meridians"),
            names=None if names is None else _shaped(names, list, "names"),
        )

    def to_json(self):
        return json.dumps(
            {
                "generators": self.n,
                "relators": [repr(r) for r in self.relators],
                "meridians": self.meridian_marked,
            }
        )


def alexander_complex(pres: GroupPresentation, units, ring) -> FreeChainComplex:
    """The degree <= 2 equivariant complex of the presentation, specialized.

    d_1 is the 1 x n row with entries phi(x_j) - 1; d_2 has the specialized
    Fox derivatives of the relators as columns (entry (j, k) is
    phi(d r_k / d x_j)).  Each column comes from one left-to-right pass over
    its relator with a running prefix image p: the letter x_i adds p to
    entry i and then multiplies p by phi(x_i); x_i^-1 first multiplies p by
    phi(x_i)^-1 and then subtracts it.  The final p is phi(r_k), and the
    fundamental identity makes d_1 . d_2 = 0 as long as every relator dies
    under phi; otherwise the input is rejected.
    """
    n, m = pres.n, len(pres.relators)
    units = [ring.coerce(u) for u in units]
    if len(units) != n:
        raise ValueError(f"need {n} units, got {len(units)}")
    for u in units:
        if not ring.is_unit(u):
            raise ValueError(f"{ring.format(u)} is not invertible in {ring.name}")
    inverses = [ring.unit_inverse(u) for u in units]
    columns = []
    for r in pres.relators:
        col = [ring.zero] * n
        prefix = ring.one
        for x in r.letters:
            if x > 0:
                col[x - 1] = col[x - 1] + prefix
                prefix = prefix * units[x - 1]
            else:
                prefix = prefix * inverses[-x - 1]
                col[-x - 1] = col[-x - 1] - prefix
        if not ring.is_zero(prefix - ring.one):
            raise RelatorNotKilled(
                f"relator {r!r} specializes to {ring.format(prefix)}, not 1"
            )
        columns.append(col)
    d1 = Matrix(ring, [[u - ring.one for u in units]], 1, n)
    d2 = Matrix(ring, [[col[j] for col in columns] for j in range(n)], n, m)
    return FreeChainComplex(ring, (1, n, m), [d1, d2])
