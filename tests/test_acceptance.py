"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its elapsed time and enforcing the stated time budget.

Criterion 3's vanishing-iff-admissible clause is implemented exactly as
stated and is expected to fail: the closed form's exceptional branch
(equal unramified products, e = 1, every index a transition with zero
twisted digit) drives the kernel-Ext dimension to f - 1 = 0 for cuspidal
types with f = 1 even though the shape is inadmissible, and the
brute-force oracle confirms the 0.  See notes in the repository README.
"""

import math
import time

from bktame import (CUSPIDAL, PS, LocalContext, all_weights, build_MN,
                    c_sigma_cycle, char_TN, components_count, divisor_support,
                    enumerate_types, exhaustive_modules, ext_dim, family_dim,
                    gamma_digits, hom_dim, irred_bound, jh_factors, kext_dim,
                    kext_dim_oracle, maximal_refined, oracle_dims, p_tau,
                    random_module, refined_shapes, shapes_for, sigma_tau_J,
                    solve_n_tau, twist_conjugate, validate,
                    verify_orthogonality)
from bktame.cli import run
from bktame.rng import SplitMix64


def report(number, name, ok, started, budget):
    elapsed = time.monotonic() - started
    print("ACCEPTANCE %d %s: %s (%.2fs, budget %ds)"
          % (number, name, "PASS" if ok else "FAIL", elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (number, budget)
    return elapsed


def test_criterion_1_dimension_identity():
    started = time.monotonic()
    for p in (3, 5, 7):
        for f in (1, 2):
            ctx = LocalContext(p, f, 1)
            for tau in enumerate_types(ctx):
                total = sum(w.dim for w in jh_factors(tau))
                expect = 1 if tau.is_scalar else (
                    ctx.q + 1 if tau.kind == PS else ctx.q - 1)
                assert total == expect, (tau.label(), total, expect)
    report(1, "dimension identity", True, started, 5)


def test_criterion_2_ext_hom_oracle_equivalence():
    started = time.monotonic()
    ctx = LocalContext(3, 1, 1)
    for kind in (PS, CUSPIDAL):
        mods = exhaustive_modules(ctx, kind)
        for m in mods:
            for n in mods:
                assert (ext_dim(m, n), hom_dim(m, n)) == oracle_dims(m, n)
    for p, f, e in ((3, 2, 2), (5, 1, 3), (5, 2, 1)):
        sweep_ctx = LocalContext(p, f, e)
        rng = SplitMix64(20240 + p * 10 + f)
        for kind in (PS, CUSPIDAL):
            for _ in range(100):
                m = random_module(sweep_ctx, kind, rng)
                n = random_module(sweep_ctx, kind, rng)
                assert (ext_dim(m, n), hom_dim(m, n)) == oracle_dims(m, n)
    report(2, "ext/hom oracle equivalence", True, started, 60)


def test_criterion_3_kext_equivalence_and_vanishing():
    started = time.monotonic()
    exceptional = 0
    spotlight_seen = False
    iff_violations = []
    for p in (3, 5):
        for f in (1, 2):
            for e in (1, 2):
                ctx = LocalContext(p, f, e)
                for tau in enumerate_types(ctx, canonical=True):
                    if tau.is_scalar:
                        continue
                    field = ctx.coefficient_field(tau.kind)
                    gen = field.multiplicative_generator()
                    admissible = {s.key() for s in p_tau(tau)}
                    for shape in shapes_for(tau):
                        m, n = build_MN(tau, maximal_refined(tau, shape))
                        v_eq = kext_dim(tau, shape, 1, 1)
                        assert v_eq == kext_dim_oracle(m, n)
                        n_g = validate(ctx, tau.kind, n.r,
                                       (gen,) * tau.fprime, n.c)
                        v_ne = kext_dim(tau, shape, 1, gen)
                        assert v_ne == kext_dim_oracle(m, n_g)
                        bound = math.ceil(e / (p - 1)) * f
                        assert v_eq <= bound and v_ne <= bound
                        if v_eq != v_ne:
                            exceptional += 1
                            if (p, f, e, tau.label(), shape.key()) == \
                                    (3, 1, 1, "cusp:1", (0,)):
                                spotlight_seen = True
                        if (v_eq == 0) != (shape.key() in admissible):
                            iff_violations.append(
                                (p, f, e, tau.label(), sorted(shape.J), v_eq))
    assert exceptional >= 1, "no exceptional-branch instance exercised"
    assert spotlight_seen, "p=3 cusp:1 J={0} exceptional instance missing"
    ok = not iff_violations
    report(3, "kext equivalence and vanishing iff admissible", ok, started, 60)
    assert ok, (
        "kext_dim(tau, J, 1, 1) = 0 does not imply J admissible: the "
        "exceptional branch yields 0 for cuspidal f=1 e=1 types at equal "
        "unramified products although the shape is outside the admissible "
        "set, and the brute-force oracle confirms the 0 on every instance; "
        "violations (p, f, e, type, J, kext): %r" % (iff_violations,))


def test_criterion_4_character_injectivity():
    started = time.monotonic()
    for p in (3, 5, 7):
        for f in (1, 2):
            ctx = LocalContext(p, f, 1)
            for tau in enumerate_types(ctx, canonical=True):
                exps = [char_TN(tau, s) for s in p_tau(tau)]
                assert len(set(exps)) == len(exps), tau.label()
                for shape in shapes_for(tau):
                    _, n = build_MN(tau, maximal_refined(tau, shape))
                    assert char_TN(tau, shape) == n.galois_character.tame_exp
    report(4, "descent-character injectivity and alpha-route agreement",
           True, started, 10)


def test_criterion_5_cycle_identities():
    started = time.monotonic()
    for p in (3, 5):
        for f in (1, 2):
            ctx = LocalContext(p, f, 1)
            assert verify_orthogonality(ctx)
            for w in all_weights(ctx):
                assert c_sigma_cycle(solve_n_tau(ctx, w)) == {w: 1}
                assert c_sigma_cycle(solve_n_tau(ctx, w, permute_seed=1)) == {w: 1}
            # Z(tau) is reduced: each admissible shape gives its own weight
            for tau in enumerate_types(ctx, canonical=True):
                assert len(jh_factors(tau)) == len(p_tau(tau))
    report(5, "cycle decomposition, orthogonality, permuted order",
           True, started, 30)


def test_criterion_6_component_labels():
    started = time.monotonic()
    for p in (3, 5):
        for f in (1, 2):
            ctx = LocalContext(p, f, 1)
            for tau in enumerate_types(ctx, canonical=True):
                if tau.is_scalar:
                    continue
                shapes = shapes_for(tau)
                supports = {tuple(sorted(divisor_support(tau, s)))
                            for s in shapes}
                assert len(supports) == len(shapes) == 2 ** f
                assert components_count(tau) == 2 ** f
    report(6, "divisor supports are injective with image size 2^f",
           True, started, 1)


def test_criterion_7_family_dimensions():
    started = time.monotonic()
    for p in (3, 5):
        for f in (1, 2):
            for e in (1, 2, 3):
                ctx = LocalContext(p, f, e)
                for tau in enumerate_types(ctx, canonical=True):
                    for shape in shapes_for(tau):
                        for rs in refined_shapes(tau, shape):
                            dim = family_dim(tau, rs)
                            if rs.is_maximal:
                                assert dim == e * f
                            else:
                                assert dim < e * f
    report(7, "family dimensions peak exactly at maximal refined shapes",
           True, started, 5)


def test_criterion_8_irreducible_locus_bound():
    started = time.monotonic()
    checked = 0
    for p in (3, 5):
        for f in (1, 2):
            for e in (1, 2):
                ctx = LocalContext(p, f, e)
                for tau in enumerate_types(ctx, kinds=(CUSPIDAL,),
                                           canonical=True):
                    for shape in shapes_for(tau):
                        m, n = build_MN(tau, maximal_refined(tau, shape))
                        if hom_dim(n, twist_conjugate(m)) != 1:
                            continue
                        res = irred_bound(m, n)
                        cap = 1 + math.ceil(e / (p - 1)) * f
                        assert res["D"] <= cap == res["cap"]
                        fp = tau.fprime
                        for i in range(fp):
                            gap = res["x"][i] - (n.c[i] - m.c[(i + f) % fp])
                            assert gap % tau.ekk == 0
                        checked += 1
    assert checked > 0
    report(8, "irreducible-locus dimension bound (%d instances)" % checked,
           True, started, 5)


def test_criterion_9_digit_and_weight_well_formedness():
    started = time.monotonic()
    for p in (3, 5, 7):
        for f in (1, 2):
            ctx = LocalContext(p, f, 1)
            for tau in enumerate_types(ctx):
                gamma = gamma_digits(tau)
                fp, ekk = tau.fprime, tau.ekk
                for i in range(fp):
                    total = sum(p ** j * gamma[(i - j) % fp] for j in range(fp))
                    assert total == (tau.kvec[i] - tau.kpvec[i]) % ekk
                if tau.kind == CUSPIDAL:
                    assert all(gamma[i] + gamma[(i + f) % fp] == p - 1
                               for i in range(fp))
                    for shape in p_tau(tau):
                        # periodicity of s and norm divisibility are checked
                        # inside sigma_tau_J; the niveau-one condition inside
                        # char_TN
                        char_TN(tau, shape)
                        sigma_tau_J(tau, shape)
    report(9, "digit vectors and cuspidal weights are well formed",
           True, started, 5)


def test_criterion_10_cli_determinism():
    started = time.monotonic()
    argv = ["oracle", "-p", "3", "-f", "1", "-e", "1",
            "--samples", "25", "--seed", "314159", "--format", "json"]
    first, code_a = run(argv)
    second, code_b = run(argv)
    ok = first == second and code_a == code_b == 0
    report(10, "seeded oracle reports are byte-identical", ok, started, 10)
    assert ok
