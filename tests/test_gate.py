"""The d . d = 0 gate of ``FreeChainComplex`` on every ring.

Over Q[t,t^-1] the gate runs on packed integers (Kronecker substitution);
every other ring, and a complex whose packed entries would pass the bit
budget, takes matrix products.  Both routes must give the same verdict and
name the same first failing degree; the randomized checks hold the packed
verdict against ``(d_q * d_(q+1)).is_zero()`` pair by pair.
"""

import random
from fractions import Fraction

import pytest

from arrtwist import chain
from arrtwist.chain import FreeChainComplex, SpanTooLarge
from arrtwist.fox import alexander_complex
from arrtwist.koszul import UnitAssignment, build_koszul
from arrtwist.linalg import Matrix
from arrtwist.rings import ring_from_string
from arrtwist.tower import build_tower_complex

from conftest import conjugated_commutators, random_tower, random_tower_character

L = ring_from_string("laurent")

# per ring: two entries a, b with a * b != 0 (and 2ab != 0)
PAIRS = {
    "Z": ("2", "-3"),
    "Q": ("1/2", "3"),
    "F5": ("2", "3"),
    "cyclotomic:5": ("z5 + 1", "2*z5^3 - 1/3"),
    "laurent": ("1/2*t^-2 - 3", "t - 2/3"),
    "laurent:F5": ("t + 2", "3*t^-1 - 1"),
}
LAURENT_PAIRS = [
    ("t - 1", "t^2 - 1"),                      # int coefficients
    ("1/2*t - 1/3", "3/7 + 5*t^3"),            # Fraction coefficients
    ("t^-3 - 2*t^-1", "4*t^-5 + t^2"),         # negative exponents
    ("-1/6*t^-4 + 9*t^4", "t^-1 - 1/5*t^-7"),  # both
]


def complex_of(R, flats, ranks):
    """The complex with the given ranks and row-major entry strings."""
    bnds = []
    for q, flat in enumerate(flats, start=1):
        nr, nc = ranks[q - 1], ranks[q]
        vals = [R.parse(v) for v in flat]
        bnds.append(Matrix(R, [vals[i * nc:(i + 1) * nc] for i in range(nr)], nr, nc))
    return FreeChainComplex(R, ranks, bnds)


def square(R, a, b, sign):
    """d_1 = [a, b] and d_2 = [b, sign * a]^T: a complex exactly when
    sign = -1 (then d_1 d_2 = ab - ba)."""
    x, y = R.parse(a), R.parse(b)
    d1 = Matrix(R, [[x, y]])
    d2 = Matrix(R, [[y], [x if sign > 0 else -x]])
    return FreeChainComplex(R, (1, 2, 1), [d1, d2])


class TestVerdicts:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_accept_and_refuse_on_every_ring(self, name):
        R = ring_from_string(name)
        a, b = PAIRS[name]
        assert square(R, a, b, -1).ranks == (1, 2, 1)
        with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0: not a chain complex$"):
            square(R, a, b, 1)

    @pytest.mark.parametrize("a, b", LAURENT_PAIRS)
    def test_laurent_over_q(self, a, b):
        assert square(L, a, b, -1).top == 2
        with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0"):
            square(L, a, b, 1)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_first_failing_degree_is_named(self, name):
        """A failing pair at q = 2 only, and failing pairs at q = 1 and 2."""
        R = ring_from_string(name)
        a, b = PAIRS[name]
        zero = ["0"]
        with pytest.raises(ValueError, match=r"^d_2 \. d_3 != 0"):
            complex_of(R, [zero, [a], [b]], (1, 1, 1, 1))
        with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0"):
            complex_of(R, [[a], [b], [a]], (1, 1, 1, 1))
        assert complex_of(R, [[a], zero, [b]], (1, 1, 1, 1)).top == 3

    def test_zero_and_single_boundaries(self):
        assert complex_of(L, [["0", "0"], ["0", "0"]], (1, 2, 1)).top == 2
        assert complex_of(L, [["0", "0"], ["t^-2 - 1/3", "0"]], (1, 2, 1)).top == 2
        assert complex_of(L, [["1/2*t^-9 + t^4", "7"], ["0", "0"]], (1, 2, 1)).top == 2
        assert complex_of(L, [["1/2*t^-9 + t^4", "-3/4*t"]], (1, 2)).top == 1
        assert complex_of(L, [[]], (0, 3)).top == 1
        assert FreeChainComplex(L, (4,), []).top == 0

    @pytest.mark.parametrize("j", [1, 2, 3, 6, 20, 64])
    def test_products_that_vanish_at_a_narrower_x(self, j):
        """(c - t) * 1 with c = 2^j: the bound ncols N_1 N_2 is c + 1, so
        2^k is the least power of two past c + 1, and c - t vanishes at
        t = c, one bit narrower.  Likewise for a Fraction multiple and
        negative exponents."""
        c = 2 ** j
        with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0"):
            complex_of(L, [[f"{c} - t"], ["1"]], (1, 1, 1))
        with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0"):
            complex_of(L, [[f"{c}*t^-3 - t^-2"], ["1/3*t^-1"]], (1, 1, 1))

    def test_fraction_coefficients_count(self):
        """Entries with denominators only: each must survive the packing."""
        for s in ("1/2", "1/2*t", "2/3*t^-1 - 1/5", "1/4 - 1/4*t^2"):
            with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0"):
                complex_of(L, [[s], ["1"]], (1, 1, 1))
            with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0"):
                complex_of(L, [["1/3"], [s]], (1, 1, 1))
        assert complex_of(L, [["1/2 - 1/2*t", "1/3 - 1/3*t"], ["2/3", "-1"]], (1, 2, 1)).top == 2


def _perturbed(rnd, cx):
    """The boundaries of ``cx`` with one nonzero entry changed by +-t^k, by
    a rational multiple of itself or by one of another entry of its
    boundary."""
    bnds = [Matrix(L, [row[:] for row in d.rows]) for d in cx.boundaries]
    nonzero = [(q, i, j) for q, d in enumerate(bnds) for i, row in enumerate(d.rows)
               for j, x in enumerate(row) if x]
    q, i, j = rnd.choice(nonzero)
    row = bnds[q].rows[i]
    kind = rnd.randrange(3)
    if kind == 0:
        row[j] = row[j] + rnd.choice([1, -1]) * L.t(rnd.randint(-3, 3))
    else:
        _, i2, j2 = rnd.choice([e for e in nonzero if e[0] == q])
        r = Fraction(rnd.choice([-3, -1, 1, 2, 5]), rnd.choice([1, 2, 7]))
        row[j] = row[j] + r * (row[j] if kind == 1 else bnds[q].rows[i2][j2])
    return bnds


def _laurent_complexes(rnd):
    out = []
    for n in (2, 3, 4):
        out.append(build_koszul(UnitAssignment(L, [L.t(rnd.randint(-2, 2)) for _ in range(n)])))
    for _ in range(4):
        tw = random_tower(rnd)
        out.append(build_tower_complex(tw, random_tower_character(rnd, tw)))
    for _ in range(3):
        n = rnd.randint(2, 4)
        pres = conjugated_commutators(rnd, n, rnd.randint(1, 4))
        out.append(alexander_complex(pres, [L.t(rnd.randint(-2, 2)) for _ in range(n)], L))
    return [cx for cx in out if len(cx.boundaries) >= 2]


class TestRandomized:
    @pytest.mark.parametrize("seed", range(6))
    def test_packed_verdict_matches_products(self, seed):
        rnd = random.Random(seed)
        refused = 0
        for cx in _laurent_complexes(rnd):
            for bnds in [cx.boundaries] + [_perturbed(rnd, cx) for _ in range(4)]:
                packed = chain._packed(L, bnds)
                assert packed is not None
                verdicts = [chain._packed_nonzero(packed[q - 1], packed[q])
                            for q in range(1, len(bnds))]
                assert verdicts == [not (bnds[q - 1] * bnds[q]).is_zero()
                                    for q in range(1, len(bnds))]
                if any(verdicts):
                    refused += 1
                    first = verdicts.index(True) + 1
                    with pytest.raises(ValueError, match=rf"^d_{first} \. d_{first + 1} != 0"):
                        FreeChainComplex(L, cx.ranks, bnds)
                else:
                    FreeChainComplex(L, cx.ranks, bnds)
        assert refused > 0


class TestRoutes:
    @staticmethod
    def _count_products(monkeypatch):
        calls = []
        product = Matrix.__mul__

        def spy(self, other):
            calls.append((self.nrows, self.ncols))
            return product(self, other)

        monkeypatch.setattr(Matrix, "__mul__", spy)
        return calls

    def test_laurent_over_q_runs_no_product(self, monkeypatch):
        cx = build_koszul(UnitAssignment(L, [L.t(1), L.t(-2), L.t(3)]))
        calls = self._count_products(monkeypatch)
        FreeChainComplex(L, cx.ranks, cx.boundaries)
        assert calls == []

    @pytest.mark.parametrize("name", ["Z", "Q", "F5", "cyclotomic:5", "laurent:F5"])
    def test_other_rings_take_products(self, monkeypatch, name):
        R = ring_from_string(name)
        a, b = PAIRS[name]
        calls = self._count_products(monkeypatch)
        square(R, a, b, -1)
        assert calls == [(1, 2)]

    def test_past_the_bit_budget_products_take_over(self, monkeypatch):
        """k = 3 here (ncols N_1 N_2 = 4), so an exponent range of 70 000
        packs to about 210 000 bits, past the budget of 65 536."""
        calls = self._count_products(monkeypatch)
        wide = ["t^70000 - 1", "1 - t^70000"]
        assert complex_of(L, [wide, ["1", "1"]], (1, 2, 1)).top == 2
        assert calls == [(1, 2)]
        assert chain._packed(L, complex_of(L, [wide, ["1", "1"]], (1, 2, 1)).boundaries) is None
        narrow = ["t^7000 - 1", "1 - t^7000"]
        del calls[:]
        assert complex_of(L, [narrow, ["1", "1"]], (1, 2, 1)).top == 2
        assert calls == []
        with pytest.raises(ValueError, match=r"^d_1 \. d_2 != 0"):
            complex_of(L, [wide, ["1", "-1"]], (1, 2, 1))


class TestSpanBudget:
    """Tested only by its refusal, at a lowered budget."""

    @pytest.mark.parametrize("name", ["laurent", "laurent:F5"])
    def test_span_past_the_budget_is_refused_before_the_gate(self, monkeypatch, name):
        monkeypatch.setattr(chain, "MAX_SPAN", 4)
        R = ring_from_string(name)
        assert complex_of(R, [["t^4 - 1"]], (1, 1)).top == 1
        assert complex_of(R, [["t^-2 + t^2"], ["0"]], (1, 1, 1)).top == 2
        with pytest.raises(SpanTooLarge, match="d_2 has span 5"):
            complex_of(R, [["0"], ["t^-1 - t^4"]], (1, 1, 1))
        # not a complex either: the span is checked first
        with pytest.raises(SpanTooLarge):
            complex_of(R, [["1"], ["t^5 - 1"]], (1, 1, 1))
        # entries far apart, each of span 0
        assert complex_of(R, [["t^-3", "t^3"]], (1, 2)).top == 1

    def test_other_rings_have_no_span(self, monkeypatch):
        monkeypatch.setattr(chain, "MAX_SPAN", 0)
        assert complex_of(ring_from_string("Z"), [["2"], ["0"]], (1, 1, 1)).top == 2
