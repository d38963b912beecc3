"""Serre weights, the weights attached to shapes of a tame type,
Jordan-Holder sets, descent characters of the standard submodules,
Dieudonne vanishing patterns and component labels, and the integer
decomposition solver with the cycle of each decomposition.

Weights are stored in the normal form (t, s) with both vectors of length
f and digits in [0, p-1], t never all p-1; two det-twists are identified
when sum t_j p^j agrees mod p^f - 1.

The decompositions solve A n = [w], where A has a row per non-Steinberg
weight, a column per canonical type and a 1 where the weight lies in the
type's Jordan-Holder set.  Every Jordan-Holder factor of sigma(tau) has the
central character of sigma(tau), so A is block diagonal with one block per
central character 2T + sum s_j p^j mod q - 1 (SerreWeight.central_character);
_bm_system checks that no type's weights span two blocks.  Each block is
factorised on its own, with its rows in increasing order and its columns in
the elimination order.  IntegerColumnSolver takes the rows in order, a row's
holders are live columns of that row's block, and a solve skips the pivots
of other blocks, whose residual entries are 0; so the block solvers do the
same steps in the same order as one solver over A, and give the same
decompositions.
"""

import itertools
from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class SerreWeight:
    p: int
    f: int
    t: tuple
    s: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rng = range(self.p)
        if len(self.t) != self.f or len(self.s) != self.f:
            raise InvalidShape("weight vectors must have length f")
        if any(x not in rng for x in self.t) or any(x not in rng for x in self.s):
            raise InvalidShape("weight digits must lie in [0, p-1]")
        if all(x == self.p - 1 for x in self.t):
            raise InvalidShape("t must not be all p-1")
        # the hash dataclass would generate, made once: weights are the keys
        # of every cycle, and c_sigma_cycle hashes each weight of each type
        object.__setattr__(self, "_hash", hash((self.p, self.f, self.t, self.s)))

    def __hash__(self):
        return self._hash

    @property
    def is_steinberg(self):
        return all(x == self.p - 1 for x in self.s)

    @property
    def central_character(self):
        """Exponent of the central character: 2T + sum s_j p^j mod q - 1,
        with T = sum t_j p^j."""
        value = sum((2 * t + s) * self.p ** j for j, (t, s) in enumerate(zip(self.t, self.s)))
        return value % (self.p ** self.f - 1)

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
    # each weight as the context's one object for it: the sets of all types
    # hold no copies (at p=3 f=4, 7 MB for them instead of 18 MB)
    table = _interned(tau.ctx)
    return frozenset(table.setdefault(w, w) for w in weights)


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


@lru_cache(maxsize=None)
def _interned(ctx):
    """{w: w} over the context's weights made so far: its one object for
    each.  Filled as weights are met, so one type's weights intern 2^f
    objects, not the (q - 1)^2 of all_weights."""
    return {}


@lru_cache(maxsize=None)
def _weight_tuple(ctx):
    """Every non-Steinberg weight, interned, in (t, s) order."""
    p, f = ctx.p, ctx.f
    table = _interned(ctx)
    # digit vectors in tuple order, less the last one, all p - 1
    vectors = list(itertools.product(range(p), repeat=f))[:-1]
    return tuple(table.setdefault(w, w) for w in
                 (SerreWeight(p, f, t, s) for t in vectors for s in vectors))


def all_weights(ctx):
    """Every non-Steinberg weight, ordered by (t, s); the weights are made
    once per context."""
    return list(_weight_tuple(ctx))


@lru_cache(maxsize=None)
def _bm_system(ctx, permute_seed=None):
    """The 0/1 matrix of the canonical types' weight sets, one block per
    central character, each block factorised on its own.

    Returns (rows, blocks): rows maps each weight to its central character
    and its row in that block, and blocks maps a central character to the
    block's types in elimination order and the block's solver.
    """
    types = enumerate_types(ctx, canonical=True)
    order = list(range(len(types)))
    if permute_seed is not None:
        SplitMix64(permute_seed).shuffle(order)
    rows, sizes = {}, {}   # a block's rows in increasing global order
    for w in _weight_tuple(ctx):
        char = w.central_character
        rows[w] = char, sizes.get(char, 0)
        sizes[char] = rows[w][1] + 1
    columns = {char: ([], []) for char in sizes}   # a block's columns in order
    for j in order:
        z = jh_factors(types[j])
        chars = {rows[w][0] for w in z}
        check(len(chars) == 1, "the weights of %s span %d central characters"
              % (types[j].label(), len(chars)))
        block_types, block_columns = columns[chars.pop()]
        block_types.append(types[j])
        block_columns.append({rows[w][1]: 1 for w in z})
    blocks = {char: (block_types, IntegerColumnSolver(block_columns, sizes[char]))
              for char, (block_types, block_columns) in columns.items()}
    return rows, blocks


def solve_n_tau(ctx, weight, permute_seed=None):
    """Integers n with sum_tau n_tau [weight set of tau] = [weight].

    Solved by integer column elimination over the canonical unordered type
    list (scalars, then principal series by exponent pair, then cuspidal
    orbit representatives); a permutation seed reorders the elimination to
    exhibit independence of the choice.  Only the block of the weight's
    central character is eliminated, which gives the decomposition of the
    whole matrix (see the module docstring).
    """
    if weight.is_steinberg:
        raise SteinbergWeight("no decomposition for Steinberg weights")
    rows, blocks = _bm_system(ctx, permute_seed)
    char, row = rows[weight]
    block_types, solver = blocks[char]
    combo = solver.solve({row: 1})
    return {block_types[j]: v for j, v in sorted(combo.items())}


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
