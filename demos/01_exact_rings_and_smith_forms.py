"""Exact scalar arithmetic and Smith normal forms.

The library works over Z, Q, prime fields, cyclotomic fields Q(zeta_d), and
Laurent polynomial rings K[t, t^-1].  Matrices over any of these support
exact rank computation (one elimination for every ring: pivots that divide
their row and column split off, which over a field is every pivot, and any
rest goes to the Smith form) and, over the Euclidean rings,
Smith normal form with optional transform tracking -- the engine behind
every homology computation in the package.
"""

from fractions import Fraction

from arrtwist import (
    CyclotomicField,
    LaurentRing,
    Matrix,
    QQ,
    ZZ,
    cyclotomic_poly,
    kernel_basis,
    rank,
    smith_normal_form,
)

print("= cyclotomic fields =")
print("Phi_6 coefficients (constant term first):", [str(c) for c in cyclotomic_poly(6)])
K = CyclotomicField(3)
z = K.zeta()
print("zeta_3^3 =", K.format(z * z * z))
print("1 / (1 - zeta_3) =", K.format((K.one - z).inverse()))

print()
print("= Laurent polynomials =")
L = LaurentRing(QQ)
t = L.t()
g = L.gcd(t**6 - 1, t**4 - 1)
print("gcd(t^6 - 1, t^4 - 1) =", L.format(g))
u = Fraction(3, 4) * t**-2
print("is", L.format(u), "a unit?", L.is_unit(u))

print()
print("= Smith normal forms =")
m = Matrix(ZZ, [[4, 0], [0, 6]])
form = smith_normal_form(m, transforms=True)
print("divisors of diag(4, 6):", form.divisors)
print("left * m * right is diagonal:", (form.left * m * form.right).rows)

m2 = Matrix(L, [[t - 1, 0], [0, t - 1]])
print(
    "divisors of diag(t-1, t-1):",
    [L.format(d) for d in smith_normal_form(m2).divisors],
)

print()
print("= kernels over a PID =")
m3 = Matrix(L, [[t - 1, 1 - t]])
kb = kernel_basis(m3)
print("kernel basis of [t-1, 1-t]:", kb.format_entries())
print("rank of a 3x4 zero matrix over Q:", rank(Matrix.zero(QQ, 3, 4)))
