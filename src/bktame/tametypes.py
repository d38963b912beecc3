"""Local contexts, tame inertial types, their digit vectors, and type
enumeration.

A context fixes (p, f, e).  A type is an ordered pair of tame-inertia
character exponents (k0, k0p); principal series types take exponents mod
p^f - 1, cuspidal types mod p^{2f} - 1 with the second exponent the
q-power twist of the first.  The digit vector gamma encodes the ratio of
the two characters in base p.
"""

from dataclasses import dataclass

from .errors import BadResidue, CuspidalDegenerate, NotPrime, NotSupported, check
from .gfarith import build_field, is_prime

PS = "ps"
CUSPIDAL = "cusp"
KINDS = (PS, CUSPIDAL)

MAX_P = 13
MAX_F = 4
MAX_E = 6


@dataclass(frozen=True)
class LocalContext:
    """The arithmetic frame (p, f, e); f' and the ramification of the
    auxiliary extension depend on the type kind."""

    p: int
    f: int
    e: int

    def __post_init__(self):
        if not all(type(x) is int for x in (self.p, self.f, self.e)):
            raise NotSupported("p, f and e must be ints, got %r" % ((self.p, self.f, self.e),))
        if not is_prime(self.p):
            raise NotPrime("p = %d is not prime" % self.p)
        if self.p == 2:
            raise NotSupported("p must be odd")
        if not (self.p <= MAX_P and 1 <= self.f <= MAX_F and 1 <= self.e <= MAX_E):
            raise NotSupported("context (p=%d, f=%d, e=%d) beyond desk-scale caps"
                               % (self.p, self.f, self.e))
        # per-kind invariants, computed once; not fields, so eq/hash/repr ignore them
        fprime = {PS: self.f, CUSPIDAL: 2 * self.f}
        ekk = {kind: self.p ** fp - 1 for kind, fp in fprime.items()}
        object.__setattr__(self, "_fprime", fprime)
        object.__setattr__(self, "_ekk", ekk)
        object.__setattr__(self, "_eprime", {kind: self.e * n for kind, n in ekk.items()})
        object.__setattr__(self, "_ppow", {
            kind: tuple(pow(self.p, i, ekk[kind]) for i in range(fp))
            for kind, fp in fprime.items()})

    @property
    def q(self):
        return self.p ** self.f

    def fprime(self, kind):
        return _of_kind(self._fprime, kind)

    def ekk(self, kind):
        """Ramification of the auxiliary Kummer extension: p^{f'} - 1."""
        return _of_kind(self._ekk, kind)

    def eprime(self, kind):
        return _of_kind(self._eprime, kind)

    def p_powers(self, kind):
        """p^i mod p^{f'} - 1, for i = 0..f'-1."""
        return _of_kind(self._ppow, kind)

    def coefficient_field(self, kind):
        """GF(p^{f'}); the coefficient field all module data lives in."""
        return build_field(self.p, self.fprime(kind))


def _of_kind(table, kind):
    try:
        return table[kind]
    except (KeyError, TypeError):
        raise NotSupported("unknown type kind %r" % (kind,)) from None


@dataclass(frozen=True)
class TameType:
    """An ordered pair of inertial-character exponents over a context."""

    ctx: LocalContext
    kind: str
    k0: int
    k0p: int

    @property
    def fprime(self):
        return self.ctx.fprime(self.kind)

    @property
    def ekk(self):
        return self.ctx.ekk(self.kind)

    @property
    def is_scalar(self):
        return self.kind == PS and self.k0 == self.k0p

    @property
    def kvec(self):
        """k_i = p^i k0 mod p^{f'} - 1, for i = 0..f'-1."""
        return self._frobenius_orbit(self.k0)

    @property
    def kpvec(self):
        return self._frobenius_orbit(self.k0p)

    def _frobenius_orbit(self, k):
        ekk = self.ekk
        return tuple(pw * k % ekk for pw in self.ctx.p_powers(self.kind))

    def label(self):
        if self.is_scalar:
            return "scalar:%d" % self.k0
        if self.kind == PS:
            return "ps:%d,%d" % (self.k0, self.k0p)
        return "cusp:%d" % self.k0


def make_type(ctx, kind, k0, k0p=None):
    """Validated tame type; cuspidal input supplies only k0."""
    ekk = ctx.ekk(kind)
    if not 0 <= k0 < ekk:
        raise BadResidue("k0 = %d not reduced mod %d" % (k0, ekk))
    if kind == PS:
        if k0p is None:
            raise BadResidue("principal series types need both exponents")
        if not 0 <= k0p < ekk:
            raise BadResidue("k0p = %d not reduced mod %d" % (k0p, ekk))
        return TameType(ctx, PS, k0, k0p)
    if k0p is not None:
        raise BadResidue("cuspidal types derive the second exponent")
    derived = k0 * ctx.q % ekk
    if derived == k0:
        raise CuspidalDegenerate("k0 = %d is fixed by the q-power map" % k0)
    return TameType(ctx, CUSPIDAL, k0, derived)


def gamma_digits(tau):
    """Digit vector with sum_j p^j gamma[i-j] = [k_i - k'_i] for every i.

    The representative is the unique vector in [0, p-1]^{f'} that is not
    all p-1 (all zeros exactly for scalar types); since the j = 0 term is
    the only one prime to p, each digit is just [k_i - k'_i] mod p, and
    k_i - k'_i = p^i (k0 - k0p) is one Frobenius orbit.
    """
    p, fp = tau.ctx.p, tau.fprime
    gamma = tuple(k % p for k in tau._frobenius_orbit(tau.k0 - tau.k0p))
    check(not all(g == p - 1 for g in gamma), "digit vector is all p-1")
    check(tau.is_scalar == all(g == 0 for g in gamma), "zero digits iff scalar")
    if tau.kind == CUSPIDAL:
        f = tau.ctx.f
        check(all(gamma[i] + gamma[(i + f) % fp] == p - 1 for i in range(fp)),
              "cuspidal digits are not complementary under the shift by f")
    return gamma


def _cuspidal_orbit_rep(ctx, k0):
    return min(k0, k0 * ctx.q % ctx.ekk(CUSPIDAL))


def enumerate_types(ctx, kinds=KINDS, canonical=False):
    """All tame types for the context, in a deterministic order.

    Ordered enumeration lists every principal-series pair (k0, k0p) and
    every nondegenerate cuspidal exponent.  With canonical=True the pairs
    (k0, k0p) ~ (k0p, k0) and cuspidal orbits k0 ~ q*k0 are identified;
    swapping the pair replaces each shape by its complement downstream.
    Scalars come first, then the other principal-series pairs in (k0, k0p)
    order, then the cuspidal exponents.
    """
    out = []
    if PS in kinds:
        n = ctx.ekk(PS)
        out.extend(make_type(ctx, PS, k, k) for k in range(n))
        out.extend(make_type(ctx, PS, k0, k0p) for k0 in range(n)
                   for k0p in range(k0 if canonical else n) if k0p != k0)
    if CUSPIDAL in kinds:
        n = ctx.ekk(CUSPIDAL)
        cusp = []
        for k0 in range(n):
            if k0 * ctx.q % n == k0:
                continue
            if canonical and _cuspidal_orbit_rep(ctx, k0) != k0:
                continue
            cusp.append(make_type(ctx, CUSPIDAL, k0))
        out.extend(cusp)
    return out
