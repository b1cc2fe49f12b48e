"""Presentations and ranks of character-abelianized higher homotopy groups.

For generic-position arrangements the first nonzero higher homotopy group
admits an explicit presentation matrix over K[t, t^-1]: a single boundary of
the ambient complex, specialized through the character.  Its cokernel rank
is pinned down three independent ways -- by Smith reduction, by an
Euler-characteristic formula over the Tor ranks, and (for nonresonant
characters) by a purely combinatorial value.
"""

from math import comb

from arrtwist import (
    Arrangement,
    Character,
    TowerCharacter,
    TowerSpec,
    UnitAssignment,
    build_koszul,
    pi_p_presentation_boolean,
    pi_p_presentation_fibertype,
    rank_formula_general,
    rank_formula_nonresonant,
)
from arrtwist.rings import LaurentRing, QQ

L = LaurentRing(QQ)
a5 = Arrangement.generic(3, 5)
chi = a5.betti_data().euler

print("= five generic lines, nonresonant weights (-4, 1, 1, 1, 1) =")
ch = Character([-4, 1, 1, 1, 1])
ps = pi_p_presentation_boolean(a5, ch)
print("presentation matrix (4 rows, 1 column):")
for row in ps.matrix.format_entries():
    print("  ", row)
print("cokernel: free rank", ps.cokernel.free_rank, "invariant factors",
      [L.format(d) for d in ps.cokernel.torsion])

tor = [build_koszul(UnitAssignment.from_character(ch)).homology(q).free_rank for q in range(4)]
print("Tor free ranks:", tor)
print("Euler formula value:", rank_formula_general(chi, 3, tor))
print("combinatorial value:", rank_formula_nonresonant(chi, 3, 5))

print()
print("= the same arrangement at the trivial character =")
ch0 = Character([0, 0, 0, 0, 0])
ps0 = pi_p_presentation_boolean(a5, ch0)
tor0 = [build_koszul(UnitAssignment.from_character(ch0)).homology(q).free_rank for q in range(4)]
print("cokernel rank:", ps0.cokernel.free_rank, "= C(4,3) =", comb(4, 3))
print("Euler formula value:", rank_formula_general(chi, 3, tor0))

print()
print("= four generic lines: the boundary source is empty =")
a4 = Arrangement.generic(3, 4)
ps4 = pi_p_presentation_boolean(a4, Character([-3, 1, 1, 1]))
print("matrix shape:", ps4.matrix.nrows, "x", ps4.matrix.ncols)
print("cokernel rank:", ps4.cokernel.free_rank, "= top Betti number of the 3-torus")

print()
print("= the tower route gives the same module =")
tw = TowerSpec([1, 1, 1, 1])  # the ambient coordinate arrangement as a tower
chT = TowerCharacter.from_lists(tw, [[1], [1], [1], [1]])
psT = pi_p_presentation_fibertype(tw, 2, chT)
print("fibertype cokernel: free rank", psT.cokernel.free_rank, "invariant factors",
      [L.format(d) for d in psT.cokernel.torsion])
print("matches the direct route:", psT.cokernel == ps.cokernel)
