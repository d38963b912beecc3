"""Tour of the arithmetic layer: deterministic small finite fields,
Frobenius, truncated Laurent series, and exact rank computations."""

from bktame import TruncSeries, build_field
from bktame.gfarith import gauss_rank

# Fields are pinned to the lexicographically smallest monic irreducible
# modulus, so GF(9) is always F_3[x]/(x^2 + 1).
F9 = build_field(3, 2)
print("GF(9) modulus coefficients (constant term first):", F9.modulus)

g = F9.multiplicative_generator()
print("multiplicative generator:", g, "of order", g.multiplicative_order())
# Frobenius is x -> x^p; on GF(p^2) applying it twice is the identity.
print("Frobenius applied twice is the identity:", (g ** 3) ** 3 == g)

# Truncated series track exactly which coefficients are known: a product
# is known only below min(N1 + low2, N2 + low1).
s = TruncSeries(F9, {-1: 1, 2: g}, trunc_order=5)
t = TruncSeries(F9, {1: 1}, trunc_order=4)
print("\nseries s:", s)
print("series t:", t)
print("s * t:", s * t)
print("s + t:", s + t)

# Dense row reduction over any of these fields: rank, kernel, cokernel.
# Rows hold field-element indices; over a prime field that is the residue.
F3 = build_field(3, 1)
rows = [[1, 2, 0],
        [2, 1, 0]]
rank = gauss_rank([list(r) for r in rows], F3)
print("\nrank/kernel/cokernel of a 2x3 map over GF(3):",
      (rank, 3 - rank, 2 - rank))
