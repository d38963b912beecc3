"""The Jordan-Holder oracle for Serre weights: Brauer characters on the
two tori of GL2(F_q).

The Jordan-Holder factors of a mod-p representation of GL2(F_q) are fixed
by its Brauer character, and every p-regular element is conjugate into the
split torus (F_q^x)^2 or the nonsplit torus F_{q^2}^x.  So a representation
is known by the multiset of its torus characters: the pairs (a, b) mod
q - 1 of diag(x, y) -> x^a y^b, keyed (SPLIT, a, b), and the exponents n
mod q^2 - 1 of z -> z^n, keyed (NONSPLIT, n).  Both functions below
return such a multiset as a sorted list of keys.

The oracle reads only the digits t, s of the weights, the kind and
exponents k0, k0p of the type, and q; it shares nothing with the shape
calculus that attaches weights to a type.
"""

from .tametypes import PS

SPLIT = "split"
NONSPLIT = "nonsplit"


def jh_oracle(tau):
    """Torus characters of the reduction of sigma(tau): det^{k0} for a
    scalar type, Ind(x^{k0} (x) x^{k0p}) for principal series and
    Theta(z^{k0}) for a cuspidal type.

    Restricted to a torus, each is induced from the centre F_q^x (the q - 1
    split pairs with a + b = k0 + k0p, and the q + 1 nonsplit exponents
    = k0 + k0p mod q - 1), plus the split pairs (k0, k0p) and (k0p, k0) for
    principal series, less the nonsplit exponents k0 and q k0 for cuspidal
    types.  Returns the multiset as a sorted list of keys.
    """
    q = tau.ctx.q
    qm1, qq = q - 1, q * q - 1
    k0, k0p = tau.k0, tau.k0p
    if tau.kind != PS:
        central, keys, missing = k0 % qm1, [], (k0, k0 * q % qq)
    elif k0 == k0p:
        return sorted([(SPLIT, k0, k0), (NONSPLIT, k0 * (q + 1) % qq)])
    else:
        central, keys, missing = (k0 + k0p) % qm1, [(SPLIT, k0, k0p), (SPLIT, k0p, k0)], ()
    keys += [(SPLIT, a, (central - a) % qm1) for a in range(qm1)]
    keys += [(NONSPLIT, n) for n in range(central, qq, qm1) if n not in missing]
    return sorted(keys)


def weights_character(weights):
    """Torus characters of the direct sum of the weights F(t, s) =
    (x)_j (Sym^{s_j})^{(p^j)} (x) det^T with T = sum t_j p^j, as a sorted
    list of keys.

    Over 0 <= k_j <= s_j, with K = sum k_j p^j, a = T + sum s_j p^j - K and
    b = T + K give the split pair (a, b) mod q - 1 and the nonsplit exponent
    a + q b mod q^2 - 1, from a and b unreduced.
    """
    keys = []
    for w in weights:
        powers = [w.p ** j for j in range(w.f)]
        q = w.p ** w.f
        qm1, qq = q - 1, q * q - 1
        T = sum(t * pw for t, pw in zip(w.t, powers))
        top = T + sum(s * pw for s, pw in zip(w.s, powers))
        Ks = [0]
        for s, pw in zip(w.s, powers):
            Ks = [K + k * pw for K in Ks for k in range(s + 1)]
        for K in Ks:
            a, b = top - K, T + K
            keys += [(SPLIT, a % qm1, b % qm1), (NONSPLIT, (a + q * b) % qq)]
    return sorted(keys)
