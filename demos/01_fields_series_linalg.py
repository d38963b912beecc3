"""Tour of the arithmetic layer: deterministic small finite fields,
Frobenius, index arithmetic, and exact rank and kernel computations."""

from bktame import build_field
from bktame.gfarith import gauss_rank, nullspace_basis

# Fields are pinned to the lexicographically smallest monic irreducible
# modulus, so GF(9) is always F_3[x]/(x^2 + 1).
F9 = build_field(3, 2)
print("GF(9) modulus coefficients (constant term first):", F9.modulus)

# An element is its base-p index sum(coeffs[j] * 3^j), and all arithmetic
# is FieldSpec on bare indices; FieldElem only holds an index.
gen = F9.multiplicative_generator()
g = gen.idx
powers = [1]
while F9.mul(powers[-1], g) != 1:
    powers.append(F9.mul(powers[-1], g))
print("multiplicative generator:", gen, "has index", g, "and order", len(powers))
# Frobenius is x -> x^p; on GF(p^2) applying it twice is the identity.
frob = lambda x: F9.mul(F9.mul(x, x), x)
print("Frobenius applied twice is the identity:", frob(frob(g)) == g)

x = F9.elem((0, 1)).idx
print("\nx has index", x, "and x * x has index", F9.mul(x, x), "= -1 =", F9.neg(1))
print("1 / x has index", F9.inv(x), "= -x =", F9.neg(x))

# Dense row reduction over any of these fields: rank, kernel, cokernel.
# Rows hold field-element indices; over a prime field that is the residue.
F3 = build_field(3, 1)
rows = [[1, 2, 0],
        [2, 1, 0]]
rank = gauss_rank([list(r) for r in rows], F3)
print("\nrank/kernel/cokernel of a 2x3 map over GF(3):",
      (rank, 3 - rank, 2 - rank))

# A kernel basis, as index lists; each vector is checked against the rows.
basis = nullspace_basis(rows, 3, F3)
print("kernel basis over GF(3):", basis)
for vec in basis:
    for row in rows:
        total = 0
        for a, b in zip(row, vec):
            total = F3.add(total, F3.mul(a, b))
        assert total == 0

# The same over GF(9): the rows (1, g) and (g, g^2) are proportional.
rows9 = [[1, g], [g, F9.mul(g, g)]]
print("kernel basis of [[1, g], [g, g^2]] over GF(9):",
      nullspace_basis(rows9, 2, F9))
