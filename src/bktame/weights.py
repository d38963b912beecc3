"""Serre weights, the weights attached to shapes of a tame type,
Jordan-Holder sets, descent characters of the standard submodules,
Dieudonne vanishing patterns and component labels, and the integer
decomposition solver with the cycle of each decomposition.

Weights are stored in the normal form (t, s) with both vectors of length
f and digits in [0, p-1], t never all p-1; two det-twists are identified
when sum t_j p^j agrees mod p^f - 1.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidShape, NotInPTau, ScalarType, SteinbergWeight, check
from .gfarith import _digits
from .intlinalg import IntegerColumnSolver
from .rng import SplitMix64
from .shapes import _to_shape, p_tau
from .tametypes import CUSPIDAL, enumerate_types

ZERO = "zero"
UNIT = "unit"
GENERIC = "genericCoefficient"

BOTH_IN = "bothIn"
BOTH_OUT = "bothOut"
OUT_OF_J = "outOfJ"
INTO_J = "intoJ"


@dataclass(frozen=True)
class SerreWeight:
    p: int
    f: int
    t: tuple
    s: tuple

    def __post_init__(self):
        rng = range(self.p)
        if len(self.t) != self.f or len(self.s) != self.f:
            raise InvalidShape("weight vectors must have length f")
        if any(x not in rng for x in self.t) or any(x not in rng for x in self.s):
            raise InvalidShape("weight digits must lie in [0, p-1]")
        if all(x == self.p - 1 for x in self.t):
            raise InvalidShape("t must not be all p-1")

    @property
    def is_steinberg(self):
        return all(x == self.p - 1 for x in self.s)

    @property
    def dim(self):
        prod = 1
        for x in self.s:
            prod *= x + 1
        return prod

    def label(self):
        return "t=%s,s=%s" % (list(self.t), list(self.s))


def sigma_tau_J(tau, J):
    """The Serre weight attached to a shape in the admissible set.

    J, gamma and s_J are indexed by the paper's embeddings sigma_i, with
    sigma_{i+1}^p = sigma_i, so index i carries the Frobenius twist p^{-i};
    a SerreWeight puts s_j on (Sym^{s_j})^{(p^j)}, hence s_j = s_J[-j mod f],
    where s_J = gamma* (Shape.gamma_star) less one at each transition.  The
    det exponent is k0' + T (Shape.twist), divided by q + 1 for cuspidal
    types once it is checked to factor through the norm.
    """
    shape = _to_shape(tau, J)
    if not shape.admissible:
        raise NotInPTau("shape %s is not admissible for %s"
                        % (sorted(shape.J), tau.label()))
    p, f, q, trans = tau.ctx.p, tau.ctx.f, tau.ctx.q, shape.transitions
    sJ = [g - (i in trans) for i, g in enumerate(shape.gamma_star)]
    det = (tau.k0p + shape.twist) % tau.ekk
    if tau.kind == CUSPIDAL:
        check(sJ[:f] == sJ[f:], "cuspidal s-vector must be f-periodic")
        check(det % (q + 1) == 0, "det character must factor through the norm")
        det //= q + 1
    return SerreWeight(p, f, _digits(det, p, f), tuple(sJ[-j % f] for j in range(f)))


@lru_cache(maxsize=None)
def jh_factors(tau):
    """Weights of the admissible shapes; checked pairwise distinct.  Each
    has multiplicity one in the cycle Z(tau)."""
    weights = [sigma_tau_J(tau, shape) for shape in p_tau(tau)]
    check(len(set(weights)) == len(weights), "weights of one type must be distinct")
    return frozenset(weights)


def char_TN(tau, J):
    """Tame exponent (normalised at index 0) of the descent character of
    the standard maximal submodule of the shape: k0 - T (Shape.twist).

    For cuspidal types the result is checked to be fixed by the q-power
    map, so it really is the exponent of a character of the base field.
    """
    exp = (tau.k0 - _to_shape(tau, J).twist) % tau.ekk
    if tau.kind == CUSPIDAL:
        check(exp * tau.ctx.q % tau.ekk == exp, "descent exponent must have niveau one")
    return exp


# (j in J, j + 1 in J) -> (case tag, F value, V value)
_DIEUDONNE = {
    (True, True): (BOTH_IN, ZERO, UNIT),
    (False, False): (BOTH_OUT, UNIT, ZERO),
    (True, False): (OUT_OF_J, GENERIC, ZERO),
    (False, True): (INTO_J, ZERO, GENERIC),
}
check(all((fval == ZERO) != (vval == ZERO) for _, fval, vval in _DIEUDONNE.values()),
      "exactly one of F and V must vanish")


def dieudonne_pattern(tau, J):
    """Per-index vanishing of F: D_j -> D_{j+1} and V: D_{j+1} -> D_j, as
    one (case tag, F value, V value) per index j < f'.

    Within J the Frobenius vanishes and V is a unit; outside J the roles
    swap; at a boundary the non-vanishing operator carries the lowest
    coefficient of the extension parameter, which is generically nonzero.

    Orientation: j is the paper's embedding sigma_j (sigma_{j+1}^p =
    sigma_j), as for J and gamma; a Frobenius semilinear for the Witt
    vectors maps the sigma_j-part to the sigma_{j+1}-part, as in
    shapes._complex_matrix.  No weight digit is read, so no j -> -j.
    """
    if tau.is_scalar:
        raise ScalarType("vanishing patterns ask for a nonscalar type")
    Jset, fp = _to_shape(tau, J).J, tau.fprime
    return tuple(_DIEUDONNE[j in Jset, (j + 1) % fp in Jset] for j in range(fp))


def divisor_support(tau, J):
    """Indices j in [0, f) whose Frobenius divisor contains the component:
    exactly those with j+1 in J (computed mod f', reported mod f), the j
    where dieudonne_pattern's F: D_j -> D_{j+1} vanishes; same orientation."""
    if tau.is_scalar:
        raise ScalarType("divisor supports ask for a nonscalar type")
    Jset, fp = _to_shape(tau, J).J, tau.fprime
    return frozenset(j for j in range(tau.ctx.f) if (j + 1) % fp in Jset)


def components_count(tau):
    """Number of component labels: 2^f for nonscalar types, 1 for scalar."""
    return 1 if tau.is_scalar else 2 ** tau.ctx.f


def all_weights(ctx):
    """Every non-Steinberg weight, ordered by (t, s)."""
    p, f = ctx.p, ctx.f
    # digit vectors in tuple order, less the last one, all p - 1
    vectors = list(itertools.product(range(p), repeat=f))[:-1]
    return [SerreWeight(p, f, t, s) for t in vectors for s in vectors]


@lru_cache(maxsize=None)
def _bm_system(ctx, permute_seed=None):
    """Types, weight index, elimination order, factorised 0/1 matrix."""
    types = enumerate_types(ctx, canonical=True)
    weights = all_weights(ctx)
    w_index = {w: i for i, w in enumerate(weights)}
    order = list(range(len(types)))
    if permute_seed is not None:
        SplitMix64(permute_seed).shuffle(order)
    columns = []
    for j in order:
        col = {}
        for w in jh_factors(types[j]):
            col[w_index[w]] = 1
        columns.append(col)
    solver = IntegerColumnSolver(columns, len(weights))
    return types, w_index, order, solver


def solve_n_tau(ctx, weight, permute_seed=None):
    """Integers n with sum_tau n_tau [weight set of tau] = [weight].

    Solved by integer column elimination over the canonical unordered type
    list (scalars, then principal series by exponent pair, then cuspidal
    orbit representatives); a permutation seed reorders the elimination to
    exhibit independence of the choice.
    """
    if weight.is_steinberg:
        raise SteinbergWeight("no decomposition for Steinberg weights")
    types, w_index, order, solver = _bm_system(ctx, permute_seed)
    combo = solver.solve({w_index[weight]: 1})
    return {types[order[j]]: v for j, v in sorted(combo.items())}


def c_sigma_cycle(n_tau):
    """The cycle sum_tau n_tau Z(tau) of a decomposition from solve_n_tau,
    as a {weight: nonzero multiplicity} dict; equal to the unit cycle
    {weight: 1} whenever it solves exactly."""
    mult = {}
    for tau, coeff in n_tau.items():
        for w in jh_factors(tau):
            mult[w] = mult.get(w, 0) + coeff
    return {w: m for w, m in mult.items() if m}


def verify_orthogonality(ctx):
    """sum_tau n_tau(w) m_{w'}(tau) = delta_{w,w'} over all non-Steinberg
    pairs, for the solver's own output: row w of that product is the cycle
    of w's decomposition, since every multiplicity m_{w'}(tau) is 0 or 1."""
    return all(c_sigma_cycle(solve_n_tau(ctx, w)) == {w: 1}
               for w in all_weights(ctx))
