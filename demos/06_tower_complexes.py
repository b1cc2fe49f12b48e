"""Chain complexes of iterated semidirect products of free groups.

Fundamental groups of fiber-type arrangement complements decompose as
towers F_(d_l) |x ... |x F_(d_2) with monodromies acting trivially on
homology.  Specializing through an integer weight per generator, the
package assembles the equivariant chain complex of the whole tower over
Q[t, t^-1]; boundary blocks for lower-level group elements are their
Jacobian representations (Fox derivatives of the monodromy words).
"""

from arrtwist import (
    TowerCharacter,
    TowerSpec,
    build_tower_complex,
    check_tower,
    jacobian_rep,
)
from arrtwist.rings import LaurentRing, QQ

L = LaurentRing(QQ)

print("= F_2 semidirect F_1, the generator y conjugating x_2 by x_1 =")
tw = TowerSpec(
    [1, 2],
    monodromy={(3, (2, 0)): ["x1", "x1 x2 x1-1"]},
    names={2: ["y1"], 3: ["x1", "x2"]},
)
print("validation:", check_tower(tw))

ch = TowerCharacter.from_lists(tw, [[3], [1, 2]])  # weights y=3, x1=1, x2=2
rho = jacobian_rep(tw, 3, "y1", ch)
print("Jacobian representation of y on level 3:")
for row in rho.format_entries():
    print("  ", row)
print("rho(y) rho(y)^-1 = identity:", (rho * rho.inverse()).format_entries())

print()
cx = build_tower_complex(tw, ch)
print("complex ranks:", cx.ranks, "(coefficients of (1+T)(1+2T))")
print("d_1 =", cx.boundary(1).format_entries())
print("d_2 =")
for row in cx.boundary(2).format_entries():
    print("  ", row)

print()
print("= Tor groups at weights (1, 1, 1) =")
cx1 = build_tower_complex(tw, TowerCharacter.from_lists(tw, [[1], [1, 1]]))
for q in range(cx1.top + 1):
    h = cx1.homology(q)
    print(f"  Tor_{q}: free rank {h.free_rank}, torsion", [L.format(d) for d in h.torsion])

print()
print("= a three-level tower (commuting inner monodromies) =")
tw3 = TowerSpec(
    [1, 1, 2],
    monodromy={
        (4, (2, 0)): ["x1", "x1 x2 x1-1"],
        (4, (3, 0)): ["x1", "x1 x1 x2 x1-1 x1-1"],
    },
    names={2: ["y1"], 3: ["z1"], 4: ["x1", "x2"]},
)
ch3 = TowerCharacter.from_lists(tw3, [[1], [2], [3, 4]])
cx3 = build_tower_complex(tw3, ch3)
print("ranks:", cx3.ranks, "= coefficients of (1+T)^2 (1+2T)")
for q in range(cx3.top + 1):
    h = cx3.homology(q)
    print(f"  H_{q}: free rank {h.free_rank}, torsion", [L.format(d) for d in h.torsion])
