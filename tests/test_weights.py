import itertools
import tracemalloc

import pytest

from bktame import (CUSPIDAL, PS, LocalContext, NotInPTau, ScalarType,
                    SerreWeight, Shape, SteinbergWeight, all_weights,
                    build_MN, c_sigma_cycle, char_TN, components_count,
                    dieudonne_pattern, divisor_support, enumerate_types,
                    jh_factors, make_type, maximal_refined, p_tau,
                    shapes_for, sigma_tau_J, solve_n_tau,
                    verify_orthogonality)
from bktame import shapes, tametypes, weights
from bktame.intlinalg import IntegerColumnSolver
from bktame.rng import SplitMix64
from bktame.weights import BOTH_IN, BOTH_OUT, GENERIC, INTO_J, UNIT, ZERO

CTX = LocalContext(3, 1, 1)
TAU_PS = make_type(CTX, PS, 1, 0)
TAU_C = make_type(CTX, CUSPIDAL, 1)


def test_sigma_tau_J_weights_are_in_normal_form():
    # det exponents k0' + T that reach q - 1 are reduced: a raw t of (2,) at
    # p = 3 f = 1, or digits (2, 2) at f = 2, become t = 0; (1,) stays
    w = sigma_tau_J(make_type(CTX, PS, 0, 1), {0})
    assert (w.t, w.s) == ((0,), (1,))
    assert sigma_tau_J(make_type(CTX, PS, 1, 1), frozenset()).t == (1,)
    w = sigma_tau_J(make_type(LocalContext(3, 2, 1), PS, 2, 6), {1})
    assert (w.t, w.s) == ((0, 0), (0, 0))
    wrapped = 0
    for p, f in [(3, 1), (3, 2), (5, 2), (3, 3)]:
        ctx = LocalContext(p, f, 1)
        q = ctx.q
        for tau in enumerate_types(ctx, canonical=True):
            for shape in p_tau(tau):
                w = sigma_tau_J(tau, shape)
                det = (tau.k0p + shape.twist) % tau.ekk
                det //= 1 if tau.kind == PS else q + 1
                value = sum(x * p ** j for j, x in enumerate(w.t))
                assert value == det % (q - 1)
                wrapped += tau.kind == PS and tau.k0p + shape.twist >= q - 1
    assert wrapped


def test_weight_validation():
    with pytest.raises(Exception):
        SerreWeight(3, 1, (2,), (0,))  # t all p-1
    w = SerreWeight(3, 1, (0,), (2,))
    assert w.is_steinberg and w.dim == 3


def test_sigma_tau_J_examples():
    w_empty = sigma_tau_J(TAU_PS, frozenset())
    assert (w_empty.t, w_empty.s) == ((0,), (1,))
    w_full = sigma_tau_J(TAU_PS, {0})
    assert (w_full.t, w_full.s) == ((1,), (1,))
    w_c = sigma_tau_J(TAU_C, {1})
    assert (w_c.t, w_c.s) == ((1,), (1,))
    scalar = make_type(CTX, PS, 1, 1)
    w_s = sigma_tau_J(scalar, frozenset())
    assert (w_s.t, w_s.s) == ((1,), (0,))


def test_sigma_tau_J_rejects_inadmissible_shape():
    with pytest.raises(NotInPTau):
        sigma_tau_J(TAU_C, {0})


def test_cuspidal_norm_factorisation_value():
    # t-digits (1, 0) at p^{f'-i}: T = 1 * 3^2 mod 8 = 1
    assert Shape(TAU_C, frozenset({1})).twist == 1
    # det exponent k0' + T = 3 + 1 = 4 is (q + 1) * 1, so t = (1,); s_J = (1, 1)
    w = sigma_tau_J(TAU_C, {1})
    assert (w.t, w.s) == ((1,), (1,))


def test_jh_factors_examples():
    ps_weights = jh_factors(TAU_PS)
    assert {(w.t, w.s) for w in ps_weights} == {((0,), (1,)), ((1,), (1,))}
    assert sum(w.dim for w in ps_weights) == CTX.q + 1
    c_weights = jh_factors(TAU_C)
    assert {(w.t, w.s) for w in c_weights} == {((1,), (1,))}
    assert sum(w.dim for w in c_weights) == CTX.q - 1
    scalar = make_type(CTX, PS, 0, 0)
    assert sum(w.dim for w in jh_factors(scalar)) == 1


def test_jh_factors_derives_gamma_once_per_type_and_class(monkeypatch):
    # p_tau reads admissibility from the class data, and gamma*, T and
    # admissibility come from gamma derived once per (kind, delta), never
    # per type; no Frobenius orbit
    digits, orbits = [], []

    def counting(log, fn):
        def wrapper(*args):
            log.append(args)
            return fn(*args)
        return wrapper

    delta_digits = counting(digits, tametypes._delta_digits)
    for module in (tametypes, shapes):
        monkeypatch.setattr(module, "_delta_digits", delta_digits)
    monkeypatch.setattr(tametypes.TameType, "_frobenius_orbit",
                        counting(orbits, tametypes.TameType._frobenius_orbit))
    ctx = LocalContext(3, 2, 1)
    types = enumerate_types(ctx, canonical=True)
    weights.jh_factors.cache_clear()
    shapes._shape_classes.cache_clear()
    try:
        assert all(jh_factors(tau) for tau in types)
    finally:
        weights.jh_factors.cache_clear()
        shapes._shape_classes.cache_clear()
    classes = {(tau.kind, (tau.k0 - tau.k0p) % tau.ekk) for tau in types}
    assert len(digits) == len(classes)
    assert orbits == []


@pytest.mark.parametrize("p,f", [(3, 2), (5, 1)])
def test_dimension_identity(p, f):
    ctx = LocalContext(p, f, 1)
    for tau in enumerate_types(ctx, canonical=True):
        total = sum(w.dim for w in jh_factors(tau))
        expect = 1 if tau.is_scalar else (ctx.q + 1 if tau.kind == PS else ctx.q - 1)
        assert total == expect


def test_char_TN_examples():
    assert char_TN(TAU_PS, {0}) == 0
    assert char_TN(TAU_PS, frozenset()) == 1
    exp = char_TN(TAU_C, {1})
    assert exp * 3 % 8 == exp  # niveau-one condition
    assert exp == 0


def test_char_TN_agrees_with_alpha_route():
    for tau in (TAU_PS, TAU_C, make_type(CTX, PS, 1, 1)):
        for shape in shapes_for(tau):
            _, n = build_MN(tau, maximal_refined(tau, shape))
            assert char_TN(tau, shape) == n.galois_character.tame_exp


def test_char_TN_injective_on_admissible_shapes():
    for p, f in [(3, 1), (3, 2), (5, 1)]:
        ctx = LocalContext(p, f, 1)
        for tau in enumerate_types(ctx, canonical=True):
            exps = [char_TN(tau, s) for s in p_tau(tau)]
            assert len(set(exps)) == len(exps)


def test_dieudonne_pattern_examples():
    pat = dieudonne_pattern(TAU_PS, {0})
    assert pat == ((BOTH_IN, ZERO, UNIT),)
    pat2 = dieudonne_pattern(TAU_PS, frozenset())
    assert pat2 == ((BOTH_OUT, UNIT, ZERO),)
    pat3 = dieudonne_pattern(TAU_C, {1})
    assert pat3[0] == (INTO_J, ZERO, GENERIC)
    with pytest.raises(ScalarType):
        dieudonne_pattern(make_type(CTX, PS, 1, 1), frozenset())


def test_dieudonne_table_has_one_vanishing_operator_per_entry():
    assert sorted(weights._DIEUDONNE) == sorted(itertools.product((False, True), repeat=2))
    for _tag, fval, vval in weights._DIEUDONNE.values():
        assert [fval, vval].count(ZERO) == 1


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_all_weights_matches_a_sorted_brute_force(p, f):
    # every base-p digit vector but the all-(p - 1) one, constant digit first
    vectors = [tuple(v // p ** j % p for j in range(f)) for v in range(p ** f - 1)]
    reference = sorted((SerreWeight(p, f, t, s) for t in vectors for s in vectors),
                       key=lambda w: (w.t, w.s))
    assert all_weights(LocalContext(p, f, 1)) == reference


def test_divisor_support_examples():
    assert divisor_support(TAU_PS, {0}) == frozenset({0})
    assert divisor_support(TAU_PS, frozenset()) == frozenset()
    ctx32 = LocalContext(3, 2, 1)
    tau = make_type(ctx32, PS, 1, 0)
    assert divisor_support(tau, {1}) == frozenset({0})
    assert divisor_support(TAU_C, {1}) == frozenset({0})


def test_divisor_support_injective_with_image_2_to_f():
    for p, f in [(3, 1), (3, 2), (5, 1)]:
        ctx = LocalContext(p, f, 1)
        for tau in enumerate_types(ctx, canonical=True):
            if tau.is_scalar:
                assert components_count(tau) == 1
                continue
            supports = {tuple(sorted(divisor_support(tau, s))) for s in shapes_for(tau)}
            assert len(supports) == 2 ** f == components_count(tau)


def test_z_tau_examples():
    scalar = make_type(CTX, PS, 0, 0)
    assert len(jh_factors(scalar)) == 1
    z = jh_factors(TAU_PS)
    assert {(w.t, w.s) for w in z} == {((0,), (1,)), ((1,), (1,))}
    assert len(z) == len(p_tau(TAU_PS))
    assert len(jh_factors(TAU_C)) == 1


def test_solve_n_tau_examples():
    w01 = SerreWeight(3, 1, (0,), (1,))
    n = solve_n_tau(CTX, w01)
    assert {t.label(): v for t, v in n.items()} == {"ps:1,0": 1, "cusp:1": -1}
    w00 = SerreWeight(3, 1, (0,), (0,))
    n2 = solve_n_tau(CTX, w00)
    assert acc_weights(n2) == {w00: 1}
    w10 = SerreWeight(3, 1, (1,), (0,))
    assert acc_weights(solve_n_tau(CTX, w10)) == {w10: 1}
    with pytest.raises(SteinbergWeight):
        solve_n_tau(CTX, SerreWeight(3, 1, (0,), (2,)))


def acc_weights(n_tau):
    acc = {}
    for tau, coeff in n_tau.items():
        for w in jh_factors(tau):
            acc[w] = acc.get(w, 0) + coeff
    return {w: m for w, m in acc.items() if m}


def test_c_sigma_cycle_is_unit():
    for w in all_weights(CTX):
        assert c_sigma_cycle(solve_n_tau(CTX, w)) == {w: 1}


def test_verify_orthogonality_p3_f1():
    assert verify_orthogonality(CTX)


def test_identities_survive_permuted_elimination_order():
    for seed in (1, 99):
        for w in all_weights(CTX):
            assert c_sigma_cycle(solve_n_tau(CTX, w, permute_seed=seed)) == {w: 1}


def test_c_sigma_cycle_drops_cancelled_weights():
    # w = ps:1,0 - cusp:1; the weight (1, 1) of both types cancels, and the
    # cycle keeps no zero entry for it
    w = SerreWeight(3, 1, (0,), (1,))
    n = solve_n_tau(CTX, w)
    assert {t.label(): v for t, v in n.items()} == {"ps:1,0": 1, "cusp:1": -1}
    shared = SerreWeight(3, 1, (1,), (1,))
    assert all(shared in jh_factors(t) for t in n)
    assert c_sigma_cycle(n) == {w: 1}


@pytest.mark.parametrize("p, f", [(5, 2), (3, 3)])
@pytest.mark.parametrize("seed", [None, 4])
def test_block_solves_equal_one_solver_over_the_whole_matrix(p, f, seed):
    # one solver over every weight's row and every type's column, in the
    # elimination order of the seed: the central-character blocks give each
    # weight the same decomposition, with its types in the same order
    ctx = LocalContext(p, f, 1)
    types = enumerate_types(ctx, canonical=True)
    order = list(range(len(types)))
    if seed is not None:
        SplitMix64(seed).shuffle(order)
    rows = {w: i for i, w in enumerate(all_weights(ctx))}
    whole = IntegerColumnSolver([{rows[w]: 1 for w in jh_factors(types[j])} for j in order],
                                len(rows))
    for w, i in rows.items():
        combo = whole.solve({i: 1})
        expect = [(types[order[j]], v) for j, v in sorted(combo.items())]
        assert list(solve_n_tau(ctx, w, permute_seed=seed).items()) == expect


@pytest.mark.parametrize("f", [2, 4])
def test_jh_factors_of_one_type_interns_only_its_own_weights(monkeypatch, f):
    # one type at p=13, as components --type asks for it: its weights are
    # interned alone, not beside the 168^2 (f=2) or 28,560^2 (f=4) weights
    # of all_weights, which take 4.8 MB at f=2 and more than the host at f=4
    ctx = LocalContext(13, f, 1)
    tau = make_type(ctx, PS, 1, 0)

    def every_weight(ctx):
        raise AssertionError("jh_factors of one type built every weight")

    monkeypatch.setattr(weights, "_weight_tuple", every_weight)
    tracemalloc.start()
    try:
        z = jh_factors(tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(weights._interned(ctx)) == len(z) <= 2 ** f
    assert peak < 1 << 20


def test_jh_factors_and_all_weights_share_one_object_per_weight():
    ctx = LocalContext(3, 2, 1)
    ids = {id(w) for w in all_weights(ctx)}
    assert all(id(w) in ids for tau in enumerate_types(ctx, canonical=True)
               for w in jh_factors(tau))


def test_central_character_is_constant_on_each_type():
    # every Jordan-Holder factor of sigma(tau) has the central character of
    # sigma(tau): k0 + k0' mod q - 1 for principal series, k0 for cuspidal
    for p, f in [(3, 2), (5, 2), (3, 3)]:
        ctx = LocalContext(p, f, 1)
        qm1 = ctx.q - 1
        for tau in enumerate_types(ctx, canonical=True):
            want = (tau.k0 + (tau.k0p if tau.kind == PS else 0)) % qm1
            assert {w.central_character for w in jh_factors(tau)} == {want}
