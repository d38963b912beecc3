"""The Brauer-character oracle for Serre weights (bktame.brauer): it agrees
with jh_factors, it confirms the bm decompositions without reading
jh_factors, it names nothing of the shape calculus, and it catches a
dualised type and the weights read in the p^j orientation."""

import ast
import os
from collections import Counter

import pytest

from bktame import (CUSPIDAL, PS, LocalContext, SerreWeight, TameType,
                    all_weights, enumerate_types, gamma_digits, jh_factors,
                    p_tau, sigma_tau_J, solve_n_tau)
from bktame.brauer import jh_oracle, weights_character
from bktame.gfarith import _digits

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src",
                           "bktame", "brauer.py")
# what attaches weights to a type; the oracle must reach none of it
_WEIGHT_CALCULUS = ("gamma_digits", "p_tau", "jh_factors", "sigma_tau_J", "Shape", "twist")
_WEIGHT_MODULES = ("shapes", "weights")


def _agrees(tau, weights):
    return weights_character(weights) == jh_oracle(tau)


@pytest.mark.parametrize("p, f, canonical",
                         [(p, f, False) for p in (3, 5, 7) for f in (1, 2)] + [(3, 3, True)])
def test_jh_oracle_matches_every_type(p, f, canonical):
    ctx = LocalContext(p, f, 1)
    bad = [tau.label() for tau in enumerate_types(ctx, canonical=canonical)
           if not _agrees(tau, jh_factors(tau))]
    assert not bad


def test_jh_oracle_examples():
    # p = 3, f = 1: Ind(x^1 (x) x^0) = F(0, 1) + F(1, 1), both of dimension 2
    ctx = LocalContext(3, 1, 1)
    tau = TameType(ctx, PS, 1, 0)
    assert jh_oracle(tau) == [("nonsplit", 1), ("nonsplit", 3), ("nonsplit", 5),
                              ("nonsplit", 7), ("split", 0, 1), ("split", 0, 1),
                              ("split", 1, 0), ("split", 1, 0)]
    assert _agrees(tau, [SerreWeight(3, 1, (0,), (1,)), SerreWeight(3, 1, (1,), (1,))])
    # Theta(z^1) has dimension q - 1 = 2: the split pairs with a + b = 1 and
    # the exponents 5 and 7, which are 1 mod 2 but neither 1 nor 3
    assert jh_oracle(TameType(ctx, CUSPIDAL, 1, 3)) == [
        ("nonsplit", 5), ("nonsplit", 7), ("split", 0, 1), ("split", 1, 0)]
    assert jh_oracle(TameType(ctx, PS, 1, 1)) == [("nonsplit", 4), ("split", 1, 1)]


@pytest.mark.parametrize("p, f", [(3, 1), (3, 2), (5, 1), (5, 2), (3, 3)])
def test_bm_character_identity(p, f):
    # sum_tau n_tau chi(sigma(tau)) = chi(sigma) on both tori, from the
    # solver's n_tau and the oracle's characters alone
    ctx = LocalContext(p, f, 1)
    chars = {}
    for w in all_weights(ctx):
        total = Counter()
        for tau, n in solve_n_tau(ctx, w).items():
            if tau not in chars:
                chars[tau] = Counter(jh_oracle(tau))
            for key, mult in chars[tau].items():
                total[key] += n * mult
        for key in weights_character([w]):
            total[key] -= 1
        assert not any(total.values()), w.label()


def test_oracle_names_no_weight_calculus():
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=ORACLE_PATH)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
            modules = names + [(getattr(node, "module", None) or "").rpartition(".")[2]]
            found += ["%d %s" % (node.lineno, m) for m in modules if m in _WEIGHT_MODULES]
        else:
            continue
        found += ["%d %s" % (node.lineno, name) for name in names if name in _WEIGHT_CALCULUS]
    assert not found, "the oracle names the weight calculus: %s" % found


@pytest.mark.parametrize("p, f", [(3, 2), (5, 2), (3, 3)])
def test_oracle_rejects_the_dual_type(p, f):
    # sigma(tau) with every exponent negated is the dual representation; its
    # characters must not match tau's weights, except where the dual is tau
    # itself up to swapping the pair
    ctx = LocalContext(p, f, 1)
    caught = selfdual = 0
    for tau in enumerate_types(ctx, canonical=True):
        ekk = tau.ekk
        dual = TameType(ctx, tau.kind, -tau.k0 % ekk, -tau.k0p % ekk)
        if {dual.k0, dual.k0p} == {tau.k0, tau.k0p}:
            selfdual += 1
            continue
        caught += not _agrees(dual, jh_factors(tau))
    assert caught and caught + selfdual == len(enumerate_types(ctx, canonical=True))


def _unreindexed_weight(tau, shape):
    """The weight with s_J and the t-digits read in the p^j orientation:
    s_j = s_J[j], and for principal series t from t_J[j] plus digit j of k0'."""
    p, f, fp, q = tau.ctx.p, tau.ctx.f, tau.fprime, tau.ctx.q
    gamma, J = gamma_digits(tau), shape.J
    sJ, tJ = [], []
    for i in range(fp):
        prev = (i - 1) % fp in J
        sJ.append((p - 1 - gamma[i] if prev else gamma[i]) - (prev != (i in J)))
        tJ.append(gamma[i] + (i not in J) if prev else 0)
    if tau.kind == PS:
        det = tau.k0p + sum(tJ[j] * p ** j for j in range(f))
    else:
        det = (tau.k0p + shape.twist) % tau.ekk // (q + 1)
    return SerreWeight(p, f, _digits(det % (q - 1), p, f), tuple(sJ[:f]))


def test_oracle_rejects_weights_read_in_the_p_j_orientation():
    # at f <= 2, j -> -j mod f is the identity and the two readings agree
    for p, f in [(3, 1), (3, 2), (5, 2)]:
        for tau in enumerate_types(LocalContext(p, f, 1), canonical=True):
            for shape in p_tau(tau):
                assert _unreindexed_weight(tau, shape) == sigma_tau_J(tau, shape)
    # at f = 3 every type with more than one weight tells them apart
    types = enumerate_types(LocalContext(3, 3, 1), canonical=True)
    caught = [tau for tau in types
              if not _agrees(tau, [_unreindexed_weight(tau, s) for s in p_tau(tau)])]
    assert len(caught) == sum(len(p_tau(tau)) > 1 for tau in types) > 0
