"""Tour of the arithmetic layer: deterministic small finite fields,
Frobenius, index arithmetic, and exact rank and kernel computations."""

import itertools

from bktame import build_field
from bktame.gfarith import gauss_rank

# Fields are pinned to the lexicographically smallest monic irreducible
# modulus, so GF(9) is always F_3[x]/(x^2 + 1).
F9 = build_field(3, 2)
print("GF(9) modulus coefficients (constant term first):", F9.modulus)

# An element is its base-p index sum(coeffs[j] * 3^j), and all arithmetic
# is FieldSpec on those indices; elem reads a coefficient tuple as an index.
g = F9.multiplicative_generator()
powers = [1]
while F9.mul(powers[-1], g) != 1:
    powers.append(F9.mul(powers[-1], g))
print("multiplicative generator: index", g, "of order", len(powers))
# Frobenius is x -> x^p; on GF(p^2) applying it twice is the identity.
frob = lambda x: F9.mul(F9.mul(x, x), x)
print("Frobenius applied twice is the identity:", frob(frob(g)) == g)

x = F9.elem((0, 1))
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


def kernel(F, rows, ncols):
    """Every vector of F^ncols that the rows send to zero, by listing F^ncols."""
    def dot(row, x):
        total = 0
        for a, b in zip(row, x):
            total = F.add(total, F.mul(a, b))
        return total
    return [x for x in itertools.product(range(F.order), repeat=ncols)
            if all(dot(row, x) == 0 for row in rows)]


# The kernel dimension is the column count minus the rank: listing every
# vector confirms |ker| = 3^(3 - rank).
ker = kernel(F3, rows, 3)
print("kernel over GF(3):", ker)
assert len(ker) == 3 ** (3 - rank)

# The same over GF(9): the rows (1, g) and (g, g^2) are proportional.
rows9 = [[1, g], [g, F9.mul(g, g)]]
rank9 = gauss_rank([list(r) for r in rows9], F9)
print("rank and kernel dimension of [[1, g], [g, g^2]] over GF(9):", (rank9, 2 - rank9))
assert len(kernel(F9, rows9, 2)) == 9 ** (2 - rank9)
