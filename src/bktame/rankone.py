"""Rank-one Breuil-Kisin modules with tame descent data over a finite
coefficient field: validation, alpha invariants, associated Galois
characters, and the Hom criterion.

A module M(r, a, c) is stored as the integer vector r (Frobenius
u-exponents, entries in [0, e']), the coefficient vector a (nonzero
indices of GF(p^{f'}), see gfarith), and the descent-character vector c
(residues mod p^{f'} - 1), all of length f' and periodic with period
dividing f.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (CongruenceFailed, ContextMismatch, KindMismatch,
                     NotSupported, PeriodError, RangeError, ZeroCoefficient,
                     check)
from .tametypes import CUSPIDAL, LocalContext


@dataclass(frozen=True)
class RankOneBK:
    ctx: LocalContext
    kind: str
    r: tuple
    a: tuple
    c: tuple

    @property
    def fprime(self):
        return self.ctx.fprime(self.kind)

    @property
    def ekk(self):
        return self.ctx.ekk(self.kind)

    @property
    def field(self):
        return self.ctx.coefficient_field(self.kind)

    def unram_product(self):
        """Index of the product of the a_i over f consecutive indices.

        Periodicity makes the f'-fold product the square of the f-fold one
        in cuspidal contexts; character comparisons use the f-fold product.
        """
        field = self.field
        prod = 1
        for i in range(self.ctx.f):
            prod = field.mul(prod, self.a[i])
        return prod

    @cached_property
    def alpha_vector(self):
        """The unique integer solution of p*alpha_{i-1} - alpha_i = r_i.

        alpha_i = (p^{f'-1} r_{i-f'+1} + ... + r_i) / (p^{f'} - 1); the
        congruence checked at validation makes the division exact.  It reads
        only p, f' and r, so equal inputs share one computation (_alpha).
        """
        return _alpha(self.ctx.p, self.fprime, self.ekk, self.r)

    @cached_property
    def galois_character(self):
        """Associated Galois character: tame exponent c_0 - alpha_0, unramified
        part the product of the a_i over i = 0..f-1."""
        return GaloisChar((self.c[0] - self.alpha_vector[0]) % self.ekk,
                          self.unram_product())


@dataclass(frozen=True)
class GaloisChar:
    """Tame character exponent (normalised at index 0) plus unramified part,
    the index of the product of the a_i."""

    tame_exp: int
    unram: int


def validate(ctx, kind, r, a, c):
    """Check all structure invariants and return the module.

    Requires: int entries r_i in [0, e']; a_i nonzero in GF(p^{f'}), each
    read by FieldSpec.elem (an int is an index in [0, p^{f'}), a tuple its
    coefficients mod p); int c_i residues mod p^{f'} - 1; all three vectors
    periodic with period dividing f; and p*c_{i-1} = c_i + r_i mod
    p^{f'} - 1 for every i.  Reads and checks the coefficients here;
    _module makes the integer checks.
    """
    fp = ctx.fprime(kind)
    r, c = tuple(r), tuple(c)
    if not all(type(x) is int for x in r + c):
        raise RangeError("r and c entries must be ints")
    a = tuple(map(ctx.coefficient_field(kind).elem, a))
    if not (len(r) == len(a) == len(c) == fp):
        raise RangeError("vectors must have length f' = %d" % fp)
    if not all(a):
        raise ZeroCoefficient("coefficients must be nonzero")
    return _module(ctx, kind, r, a, c)


def _module(ctx, kind, r, a, c):
    """The module, after validate's integer checks: r and c ranges,
    periodicity of r, c and a, and the congruence.  Takes int tuples of
    length f' and nonzero coefficient indices, as the module builders make
    them."""
    fp, f = ctx.fprime(kind), ctx.f
    ekk, ep = ctx.ekk(kind), ctx.eprime(kind)
    if min(r) < 0 or max(r) > ep:
        raise RangeError("r entries must lie in [0, %d]" % ep)
    if min(c) < 0 or max(c) >= ekk:
        raise RangeError("c entries must be residues mod %d" % ekk)
    # period dividing f: v[i + f] == v[i] for every i < f' - f
    if r[f:] != r[:fp - f] or c[f:] != c[:fp - f] or a[f:] != a[:fp - f]:
        raise PeriodError("vectors must be periodic with period dividing f")
    for i in range(fp):
        if (ctx.p * c[i - 1] - c[i] - r[i]) % ekk != 0:
            raise CongruenceFailed("p*c[%d] != c[%d] + r[%d] mod %d"
                                   % ((i - 1) % fp, i, i, ekk))
    return RankOneBK(ctx, kind, r, a, c)


def random_module(ctx, kind, rng):
    """Uniform-ish valid module: free residues c, Frobenius exponents drawn
    from the congruence class forced by c, unit coefficients drawn by index."""
    fp, f = ctx.fprime(kind), ctx.f
    ekk, ep = ctx.ekk(kind), ctx.eprime(kind)
    field = ctx.coefficient_field(kind)
    c_half = [rng.below(ekk) for _ in range(f)]
    c = tuple(c_half[i % f] for i in range(fp))
    r_half = []
    for i in range(f):
        base = (ctx.p * c[(i - 1) % fp] - c[i]) % ekk
        r_half.append(rng.choice(range(base, ep + 1, ekk)))
    r = tuple(r_half[i % f] for i in range(fp))
    a_half = [1 + rng.below(field.order - 1) for _ in range(f)]
    a = tuple(a_half[i % f] for i in range(fp))
    return _module(ctx, kind, r, a, c)


def exhaustive_modules(ctx, kind):
    """Every valid module of an f = 1 context."""
    if ctx.f != 1:
        raise NotSupported("exhaustive sweeps are desk-scale: f = 1 only")
    fp = ctx.fprime(kind)
    ekk, ep = ctx.ekk(kind), ctx.eprime(kind)
    q = ctx.coefficient_field(kind).order
    mods = []
    for c0 in range(ekk):
        base = (ctx.p * c0 - c0) % ekk
        for r0 in range(base, ep + 1, ekk):
            for a in range(1, q):
                mods.append(_module(ctx, kind, (r0,) * fp, (a,) * fp, (c0,) * fp))
    return mods


@lru_cache(maxsize=4096)
def _alpha(p, fp, ekk, r):
    out = []
    for i in range(fp):
        num = 0
        for t in range(fp):
            num += p ** (fp - 1 - t) * r[(i - fp + 1 + t) % fp]
        check(num % ekk == 0, "alpha numerator not divisible")
        out.append(num // ekk)
    check(all(p * out[i - 1] - out[i] == r[i] for i in range(fp)),
          "alpha breaks p*alpha[i-1] - alpha[i] = r[i]")
    return tuple(out)


def _same_frame(m, n):
    if m.ctx != n.ctx or m.kind != n.kind:
        raise ContextMismatch("modules live over different contexts/kinds")


def hom_dim(m, n):
    """dim Hom(M, N) in {0, 1}: same character and alpha(M) >= alpha(N)."""
    _same_frame(m, n)
    if m.galois_character != n.galois_character:
        return 0
    return 1 if all(x >= y for x, y in zip(m.alpha_vector, n.alpha_vector)) else 0


def twist_conjugate(mod):
    """Index shift by f on all three vectors (unramified conjugate twist)."""
    if mod.kind != CUSPIDAL:
        raise KindMismatch("conjugate twist needs a cuspidal-kind context")
    f, fp = mod.ctx.f, mod.fprime
    shift = lambda v: tuple(v[(i + f) % fp] for i in range(fp))
    return RankOneBK(mod.ctx, mod.kind, shift(mod.r), shift(mod.a), shift(mod.c))
