"""Shapes and refined shapes of typed pairs of rank-one modules, the
closed-form Ext/Hom/kExt dimensions, their brute-force truncated-complex
oracles, and the irreducible-locus dimension bound.

A shape is the subset J of Z/f'Z where the first module's descent
character matches the first type character; a refined shape adds the
vector y selecting the Frobenius exponents r.  The oracles row-reduce the
explicit two-term complex of a pair at two truncation levels and insist
the answers agree.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (InvalidShape, NoNonzeroMap, RangeError, TruncationUnstable,
                     check)
from .gfarith import gauss_rank
from .rankone import _alpha, _module, _same_frame, hom_dim, twist_conjugate
from .tametypes import CUSPIDAL, TameType, gamma_digits


@dataclass(frozen=True)
class Shape:
    tau: TameType
    J: frozenset

    def __post_init__(self):
        fp = self.tau.fprime
        if any(not 0 <= i < fp for i in self.J):
            raise InvalidShape("shape indices must lie in Z/%dZ" % fp)
        if self.tau.is_scalar and self.J:
            raise InvalidShape("scalar types only admit the empty shape")
        if self.tau.kind == CUSPIDAL:
            f = self.tau.ctx.f
            if any((i in self.J) == ((i + f) % fp in self.J) for i in range(fp)):
                raise InvalidShape("cuspidal shapes satisfy i in J iff i+f not in J")

    def key(self):
        return tuple(sorted(self.J))

    @cached_property
    def transitions(self):
        """Indices i with exactly one of i-1, i in J (computed once per shape)."""
        fp, J = self.tau.fprime, self.J
        return frozenset(i for i in range(fp) if ((i - 1) % fp in J) != (i in J))

    @cached_property
    def gamma(self):
        """gamma_digits of the type (computed once per shape)."""
        return gamma_digits(self.tau)

    @cached_property
    def gamma_star(self):
        """Digit vector twisted by the shape: complemented where i-1 lies in J.

        At every transition the defining identity
        p*[d_{i-1} - c_{i-1}] - [c_i - d_i] = gamma*_i (p^{f'} - 1) is checked.
        All zeros for a scalar type.  Computed once per shape.
        """
        tau, gamma, J = self.tau, self.gamma, self.J
        p, fp, ekk = tau.ctx.p, tau.fprime, tau.ekk
        gs = tuple(p - 1 - gamma[i] if (i - 1) % fp in J else gamma[i]
                   for i in range(fp))
        c, d = self.cd
        for i in self.transitions:
            lhs = p * ((d[i - 1] - c[i - 1]) % ekk) - (c[i] - d[i]) % ekk
            check(lhs == gs[i] * ekk, "twisted digit identity failed")
        return gs

    @cached_property
    def twist(self):
        """The shape's twist sum T: over i with i-1 in J, the t-digit
        gamma_i + [i not in J] times p^{f'-i}, mod p^{f'} - 1 (computed once).
        Index i is the paper's embedding sigma_i, sigma_{i+1}^p = sigma_i, so
        its digits sit at p^{-i}, as in gamma_digits.  The descent exponent
        is k0 - T (char_TN); the weight's det exponent is k0' + T."""
        tau, J, gamma = self.tau, self.J, self.gamma
        fp, ppow = tau.fprime, tau.ctx.p_powers(tau.kind)
        return sum((gamma[i] + (i not in J)) * ppow[-i % fp]
                   for i in range(fp) if (i - 1) % fp in J) % tau.ekk

    @cached_property
    def cd(self):
        """Descent exponents (c, d) of the shape's standard pair: c_i is k_i
        for i in J and k'_i elsewhere, d_i the other one (computed once)."""
        kv, kpv = self.tau.kvec, self.tau.kpvec
        c = tuple(kv[i] if i in self.J else kpv[i] for i in range(self.tau.fprime))
        d = tuple(kpv[i] if i in self.J else kv[i] for i in range(self.tau.fprime))
        return c, d

    @cached_property
    def kext_count(self):
        """Transitions (i-1, i), i = 0..f-1, with vanishing twisted digit:
        the closed-form kExt dimension away from the exceptional branch
        (computed once)."""
        gs, low = self.gamma_star, _reduced_mod_f(self.transitions, self.tau)
        return sum(1 for i in range(self.tau.ctx.f) if i in low and gs[i] == 0)

    @cached_property
    def y_ranges(self):
        """The range of each y_i: [1, e] where i is a transition mod f, else [0, e]."""
        tau = self.tau
        low = _reduced_mod_f(self.transitions, tau)
        return tuple(range(1 if i in low else 0, tau.ctx.e + 1) for i in range(tau.ctx.f))


@dataclass(frozen=True)
class RefinedShape:
    shape: Shape
    y: tuple

    def __post_init__(self):
        ranges = self.shape.y_ranges
        if len(self.y) != len(ranges):
            raise InvalidShape("y must have length f")
        for i, (yi, rng) in enumerate(zip(self.y, ranges)):
            if not rng.start <= yi < rng.stop:
                raise InvalidShape("y[%d] = %d outside [%d, %d]"
                                   % (i, yi, rng.start, rng.stop - 1))

    @property
    def is_maximal(self):
        return all(yi == self.shape.tau.ctx.e for yi in self.y)


def _to_shape(tau, J):
    """The one gate for a shape argument: a Shape of tau itself, or the
    indices of one.  A Shape of another type is refused."""
    if not isinstance(J, Shape):
        return Shape(tau, frozenset(J))
    if J.tau != tau:
        raise InvalidShape("a shape of %s given for %s" % (J.tau.label(), tau.label()))
    return J


def _reduced_mod_f(indices, tau):
    return {i % tau.ctx.f for i in indices}


def shapes_for(tau):
    """All shapes for the type, deterministically ordered.

    Principal series: every subset of Z/fZ.  Cuspidal: the 2^f subsets
    determined on 0..f-1 and extended by complementation.  Scalar: empty
    shape only.
    """
    if tau.is_scalar:
        return [Shape(tau, frozenset())]
    f = tau.ctx.f
    out = []
    for mask in range(2 ** f):
        part = {i for i in range(f) if (mask >> i) & 1}
        if tau.kind == CUSPIDAL:
            J = part | {i + f for i in range(f) if i not in part}
        else:
            J = part
        out.append(Shape(tau, frozenset(J)))
    return sorted(out, key=lambda s: s.key())


def is_admissible(shape, gamma):
    """Whether the shape lies in P_tau, given gamma = gamma_digits(tau):
    its transitions avoid the forbidden digit values, i.e. leaving J
    requires gamma_i != p-1 and entering J requires gamma_i != 0.

    tau may be any type in shape.tau's (kind, scalar) group, which share
    their shapes and transitions; ptau passes one shape list per group."""
    J, p = shape.J, shape.tau.ctx.p
    return all(gamma[i] != (0 if i in J else p - 1) for i in shape.transitions)


def p_tau(tau):
    """The admissible shapes, in the order of shapes_for."""
    gamma = gamma_digits(tau)
    return [shape for shape in shapes_for(tau) if is_admissible(shape, gamma)]


def refined_shapes(tau, J):
    """All admissible y-vectors for the shape, lexicographically ordered."""
    shape = _to_shape(tau, J)
    return [RefinedShape(shape, y) for y in itertools.product(*shape.y_ranges)]


def refined_count(tau, J):
    """len(refined_shapes(tau, J)), without building the refined shapes."""
    return math.prod(len(rng) for rng in _to_shape(tau, J).y_ranges)


def maximal_refined(tau, J):
    shape = _to_shape(tau, J)
    return RefinedShape(shape, (tau.ctx.e,) * tau.ctx.f)


def build_MN(tau, refined):
    """The standard pair of the refined shape: descent exponents split by
    J, Frobenius exponents from y, all coefficients one, determinant
    exponents complementary (r_i + s_i = e').  Both modules get every
    integer check (rankone._module); the pair must then carry the type's
    descent exponents {k_i, k'_i} at every index."""
    shape = _to_shape(tau, refined.shape)
    ctx, kind = tau.ctx, tau.kind
    f, fp, ekk, ep = ctx.f, ctx.fprime(kind), ctx.ekk(kind), ctx.eprime(kind)
    c, d = shape.cd
    trans, y = shape.transitions, refined.y
    r = tuple([ekk * y[i % f] - ((c[i] - d[i]) % ekk if i in trans else 0)
               for i in range(fp)])
    s = tuple([ep - ri for ri in r])
    ones = (1,) * fp
    m = _module(ctx, kind, r, ones, c)
    n = _module(ctx, kind, s, ones, d)
    kv, kpv = tau.kvec, tau.kpvec
    check(all({m.c[i], n.c[i]} == {kv[i], kpv[i]} and m.r[i] + n.r[i] == ep
              for i in range(fp)), "standard pair is not of the type")
    return m, n


def _ext_beyond_hom(m, n):
    """dim Ext^1(M, N) - dim Hom(M, N): per index, the count of degrees in
    [0, r_i) congruent to r_i + c_i - d_i mod p^{f'} - 1."""
    _same_frame(m, n)
    ekk = m.ekk
    total = 0
    for i in range(m.ctx.f):
        residue = (m.r[i] + m.c[i] - n.c[i]) % ekk
        total += max(0, (m.r[i] - residue + ekk - 1) // ekk)
    return total


def ext_dim(m, n):
    """Closed-form dim Ext^1(M, N): Hom contribution plus, per index, the
    count of admissible degrees below r_i."""
    return hom_dim(m, n) + _ext_beyond_hom(m, n)


def _default_trunc(ctx):
    return -((ctx.p * ctx.e + 1) // -(ctx.p - 1)) + 1


def _oracle_system(m, n):
    """The whole input of the truncated-complex solve of the pair: the
    frame, r over one period, the residues (m.c - n.c) mod p^{f'} - 1, and
    both coefficient vectors as indices divided by the unit m.a[0], which
    scales the whole matrix and so changes no rank."""
    f, ekk, field = m.ctx.f, m.ekk, m.field
    unit = field.inv(m.a[0])
    return (m.ctx, m.kind, m.r[:f], n.r[:f],
            tuple((m.c[i] - n.c[i]) % ekk for i in range(f)),
            tuple(field.mul(x, unit) for x in m.a[:f]),
            tuple(field.mul(x, unit) for x in n.a[:f]))


def _complex_matrix(system, level):
    """The truncated differential of the explicit two-term complex.

    Returns (rows, keys): dense rows of field-element indices, one per
    monomial of the degree-constrained target truncated at v^level, and
    the (index, degree) key of each column, a monomial of the domain
    basis.  v = u^{p^{f'}-1}.  Reads only the system (_oracle_system).
    """
    ctx, kind, mr, nr, in_cls, ma, na = system
    f = ctx.f
    ekk = ctx.ekk(kind)
    field = ctx.coefficient_field(kind)
    out_slot = {}
    for i in range(f):
        out_cls = (mr[i] + in_cls[i]) % ekk
        for k in range(level):
            out_slot[(i, out_cls + k * ekk)] = i * level + k
    keys = [(i, in_cls[i] + k * ekk) for i in range(f) for k in range(level)]
    rows = [[0] * len(keys) for _ in range(f * level)]
    for col, (i, deg) in enumerate(keys):
        slot = out_slot.get((i, mr[i] + deg))
        if slot is not None:
            rows[slot][col] = field.add(rows[slot][col], ma[i], -1)
        j = (i + 1) % f
        slot = out_slot.get((j, nr[j] + ctx.p * deg))
        if slot is not None:
            rows[slot][col] = field.add(rows[slot][col], na[j])
    return rows, keys


def _nullities(rows, ncols, keep, field):
    """Kernel dimensions of the matrix with ncols columns and of its
    restriction to the columns keep, from one elimination: with the kept
    columns first, the pivots among the first len(keep) columns are those
    of the kept submatrix."""
    kept = set(keep)
    order = list(keep) + [col for col in range(ncols) if col not in kept]
    reduced = [[row[col] for col in order] for row in rows]
    rank = gauss_rank(reduced, field)
    lead = len(keep)
    kept_rank = sum(1 for row in reduced[:rank] if any(row[:lead]))
    return ncols - rank, lead - kept_rank


def _dims_at_level(system, level):
    rows, keys = _complex_matrix(system, level)
    ctx, kind, mr = system[:3]
    field = ctx.coefficient_field(kind)
    # the matrix is square (f * level on both sides), so the cokernel that
    # is Ext has the dimension of the kernel.  Hom is the kernel after
    # quotienting the domain by the preimage of v^level under the
    # Frobenius-precomposition map: keep only columns whose monomial
    # survives multiplication by u^{r_i}.
    bound = level * ctx.ekk(kind)
    keep = [idx for idx, (i, deg) in enumerate(keys) if mr[i] + deg < bound]
    return _nullities(rows, len(keys), keep, field)


def oracle_dims(m, n, trunc=None):
    """(dim Ext^1, dim Hom) by row reduction of the truncated complex,
    checked at two truncation levels.  Each distinct system is solved
    once (_oracle_solve)."""
    _same_frame(m, n)
    level = _default_trunc(m.ctx) if trunc is None else trunc
    if level < 1:
        raise RangeError("truncation level must be at least 1, got %d" % level)
    return _oracle_solve(_oracle_system(m, n), level)


@lru_cache(maxsize=1 << 15)   # oracle -p 7 -f 1 --exhaustive meets 23,472 systems
def _oracle_solve(system, level):
    first = _dims_at_level(system, level)
    second = _dims_at_level(system, level + 1)
    if first != second:
        raise TruncationUnstable("levels %d and %d disagree: %r vs %r"
                                 % (level, level + 1, first, second))
    return first


def kext_dim(tau, J, prod_a, prod_b):
    """Closed-form dimension of the kernel of Ext^1 -> Ext^1[1/u] for the
    maximal pair of the shape, with prescribed unramified products, each
    read by FieldSpec.elem of the type's coefficient field.

    Counts transitions (i-1, i) with vanishing twisted digit among
    i = 0..f-1 (Shape.kext_count); when e = 1, the products agree, and the
    count is f, the dimension drops to f - 1.
    """
    count = _to_shape(tau, J).kext_count
    field = tau.ctx.coefficient_field(tau.kind)
    if field.elem(prod_a) == field.elem(prod_b) and tau.ctx.e == 1 and count == tau.ctx.f:
        return tau.ctx.f - 1
    return count


def kext_dim_oracle(m, n):
    """Brute-force kExt dimension via the principal-part solver.

    Solves for tuples of principal parts (degrees >= -e' in the admissible
    congruence class) on which the two sides of the Frobenius commutation
    agree modulo integral series, then corrects by the difference between
    Galois-level Hom and the module-level Hom of the truncated complex.
    Each distinct system (_oracle_system) is solved once (_kext_solve).
    """
    _same_frame(m, n)
    return _kext_solve(_oracle_system(m, n))


@lru_cache(maxsize=4096)   # oracle -p 7 -f 2 --samples 1 meets 384 systems
def _kext_solve(system):
    ctx, kind, mr, nr, residues, ma, na = system
    f, p, ekk, ep = ctx.f, ctx.p, ctx.ekk(kind), ctx.eprime(kind)
    field = ctx.coefficient_field(kind)
    # (index j, pole order D > 0 in the class of n.c_j - m.c_j) for mu_j = t u^{-D}
    unknowns = [(j, D) for j in range(f)
                for D in range(-residues[j] % ekk or ekk, ep + 1, ekk)]
    rows = {}   # (index i, negative degree) -> row of field-element indices
    for col, (j, D) in enumerate(unknowns):
        i = (j + 1) % f
        for key, val in (((j, mr[j] - D), ma[j]), ((i, nr[i] - p * D), field.neg(na[i]))):
            if key[1] < 0:
                row = rows.setdefault(key, [0] * len(unknowns))
                row[col] = field.add(row[col], val)
    # solutions must respect the sharper pole bound floor(e'/(p-1)): the
    # kernel lies where the columns past it vanish iff dropping them keeps
    # its dimension
    bound = ep // (p - 1)
    keep = [idx for idx, (_, D) in enumerate(unknowns) if D <= bound]
    hom_quot, kept = _nullities(list(rows.values()), len(unknowns), keep, field)
    check(kept == hom_quot, "principal-part solution breaks the pole bound")
    # Galois-level Hom: equal tame exponents c_0 - alpha_0 and equal
    # unramified products; dividing both a vectors by m.a[0] keeps both tests
    fp = ctx.fprime(kind)
    alpha_m = _alpha(p, fp, ekk, mr * (fp // f))
    alpha_n = _alpha(p, fp, ekk, nr * (fp // f))
    prod_m = prod_n = 1
    for i in range(f):
        prod_m, prod_n = field.mul(prod_m, ma[i]), field.mul(prod_n, na[i])
    hom_galois = (residues[0] - alpha_m[0] + alpha_n[0]) % ekk == 0 and prod_m == prod_n
    return hom_quot - (int(hom_galois) - _oracle_solve(system, _default_trunc(ctx))[1])


def family_dim(tau, refined):
    """Generic Ext rank over the distinct-twist locus: the sum of the y_i."""
    return sum(refined.y)


def irred_bound(m, n):
    """Dimension bound for the locus of irreducible enrichments built from
    the pair over the quadratic unramified extension.

    Requires a nonzero map N -> M^(f).  Returns the exponent gaps x_i,
    the bound D = 1 + sum ceil(x_i / (p^{f'}-1)), and the coarse cap
    1 + ceil(e/(p-1)) f; checks x_i = x_{i+f} and the character congruence
    x_i = d_i - c_{i+f} mod p^{f'}-1.
    """
    _same_frame(m, n)
    twisted = twist_conjugate(m)
    if hom_dim(n, twisted) != 1:
        raise NoNonzeroMap("no nonzero map from N to the conjugate twist of M")
    f, fp, ekk = m.ctx.f, m.fprime, m.ekk
    am, an = m.alpha_vector, n.alpha_vector
    x = tuple(an[i] - am[(i + f) % fp] for i in range(fp))
    check(all(x[i] == x[(i + f) % fp] for i in range(fp)),
          "exponent gaps are not periodic with period f")
    check(all((x[i] - (n.c[i] - m.c[(i + f) % fp])) % ekk == 0 for i in range(fp)),
          "exponent gap congruence failed")
    D = 1 + sum(-(-x[i] // ekk) for i in range(f))
    cap = 1 + -(-m.ctx.e // (m.ctx.p - 1)) * f
    check(D <= cap, "dimension bound exceeds the coarse cap")
    return {"x": x, "D": D, "cap": cap}
