import os
import subprocess
import sys

import pytest

from bktame import (CUSPIDAL, PS, BadResidue, CuspidalDegenerate,
                    LocalContext, NotSupported, TameType, enumerate_types,
                    gamma_digits, make_type)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def ctx31():
    return LocalContext(3, 1, 1)


def test_context_caps():
    with pytest.raises(NotSupported):
        LocalContext(2, 1, 1)
    with pytest.raises(NotSupported):
        LocalContext(17, 1, 1)
    with pytest.raises(NotSupported):
        LocalContext(3, 5, 1)
    ctx = LocalContext(3, 2, 2)
    assert ctx.q == 9
    assert ctx.fprime(PS) == 2 and ctx.fprime(CUSPIDAL) == 4
    assert ctx.ekk(PS) == 8 and ctx.ekk(CUSPIDAL) == 80
    assert ctx.eprime(CUSPIDAL) == 160
    for per_kind in (ctx.fprime, ctx.ekk, ctx.eprime):
        with pytest.raises(NotSupported):
            per_kind("sym2")
    # the per-kind tables are not fields: equality, hash and repr see (p, f, e)
    twin = LocalContext(3, 2, 2)
    assert twin == ctx and hash(twin) == hash(ctx)
    assert twin != LocalContext(3, 2, 1)
    assert repr(ctx) == "LocalContext(p=3, f=2, e=2)"


@pytest.mark.parametrize("p,f,e", [(3, 1, 1.5), (3.0, 1, 1), ("3", 1, 1), (3, True, 1)])
def test_context_refuses_non_int_parameters(p, f, e):
    # a float e would give a float e', and a float or str p a bare
    # TypeError from the primality test
    with pytest.raises(NotSupported):
        LocalContext(p, f, e)


def test_make_type_examples():
    ctx = ctx31()
    tau = make_type(ctx, PS, 1, 0)
    assert not tau.is_scalar and tau.kvec == (1,) and tau.kpvec == (0,)
    scal = make_type(ctx, PS, 1, 1)
    assert scal.is_scalar
    with pytest.raises(CuspidalDegenerate):
        make_type(ctx, CUSPIDAL, 4)  # 3*4 = 4 mod 8
    with pytest.raises(BadResidue):
        make_type(ctx, PS, 2, 0)  # not reduced mod 2
    with pytest.raises(BadResidue):
        make_type(ctx, CUSPIDAL, 1, 3)  # second exponent is derived


def test_cuspidal_derived_exponent():
    tau = make_type(ctx31(), CUSPIDAL, 1)
    assert tau.k0p == 3
    assert tau.kvec == (1, 3) and tau.kpvec == (3, 1)


def test_gamma_examples():
    tau = make_type(LocalContext(5, 2, 1), PS, 7, 0)
    gamma = tuple(gamma_digits(tau))
    assert gamma == (2, 1)
    # re-substitution at i = 1: [k_1 - k'_1] = 11 = gamma_1 + 5 gamma_0
    assert (tau.kvec[1] - tau.kpvec[1]) % 24 == gamma[1] + 5 * gamma[0]

    assert tuple(gamma_digits(make_type(ctx31(), PS, 1, 1))) == (0,)

    tau_c = make_type(ctx31(), CUSPIDAL, 1)
    gamma_c = tuple(gamma_digits(tau_c))
    assert gamma_c == (0, 2)
    assert gamma_c[0] + gamma_c[1] == 2  # complement rule at p = 3


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_gamma_round_trip_full_relation(p, f):
    ctx = LocalContext(p, f, 1)
    for tau in enumerate_types(ctx):
        gamma = gamma_digits(tau)
        fp, ekk = tau.fprime, tau.ekk
        for i in range(fp):
            total = sum(p ** j * gamma[(i - j) % fp] for j in range(fp))
            assert total == (tau.kvec[i] - tau.kpvec[i]) % ekk
        if tau.kind == CUSPIDAL:
            assert all(gamma[i] + gamma[(i + f) % fp] == p - 1 for i in range(fp))


def test_k_vector_periodicity():
    tau = make_type(LocalContext(3, 2, 1), CUSPIDAL, 7)
    kv = tau.kvec
    assert all(kv[i] == pow(3, i + tau.fprime, tau.ekk) * 7 % tau.ekk
               for i in range(tau.fprime))


def test_enumeration_counts_p3_f1():
    ctx = ctx31()
    ordered_ps = enumerate_types(ctx, kinds=(PS,))
    assert len(ordered_ps) == 4
    assert sum(1 for t in ordered_ps if t.is_scalar) == 2
    canonical = enumerate_types(ctx, canonical=True)
    nonscalar_ps = [t for t in canonical if t.kind == PS and not t.is_scalar]
    assert len(nonscalar_ps) == 1
    cusp = [t for t in canonical if t.kind == CUSPIDAL]
    assert sorted(t.k0 for t in cusp) == [1, 2, 5]  # orbits {1,3},{2,6},{5,7}


def _types_by_brute_force(ctx, kinds, canonical):
    """Filter every candidate exponent, then sort: scalars, the other
    principal-series pairs, then cuspidal exponents, each in numeric order."""
    out = []
    if PS in kinds:
        n = ctx.ekk(PS)
        pairs = [(k0, k0p) for k0 in range(n) for k0p in range(n)]
        scalars = sorted(pair for pair in pairs if pair[0] == pair[1])
        others = sorted(pair for pair in pairs
                        if pair[0] != pair[1] and not (canonical and pair[0] < pair[1]))
        out += [TameType(ctx, PS, k0, k0p) for k0, k0p in scalars + others]
    if CUSPIDAL in kinds:
        n = ctx.ekk(CUSPIDAL)
        twist = {k0: k0 * ctx.q % n for k0 in range(n)}
        keep = sorted(k0 for k0 in range(n)
                      if twist[k0] != k0 and not (canonical and twist[k0] < k0))
        out += [TameType(ctx, CUSPIDAL, k0, twist[k0]) for k0 in keep]
    return out


@pytest.mark.parametrize("p,f", [(p, f) for p in (3, 5, 7) for f in (1, 2)])
def test_enumeration_matches_a_brute_force_reference(p, f):
    ctx = LocalContext(p, f, 1)
    for kinds in ((), (PS,), (CUSPIDAL,), (PS, CUSPIDAL)):
        for canonical in (False, True):
            assert (enumerate_types(ctx, kinds=kinds, canonical=canonical)
                    == _types_by_brute_force(ctx, kinds, canonical))


def test_enumeration_counts_p5_f1():
    ctx = LocalContext(5, 1, 1)
    cusp = [t for t in enumerate_types(ctx, canonical=True) if t.kind == CUSPIDAL]
    assert len(cusp) == (24 - 4) // 2  # = 10


def test_ps_swap_complements_gamma():
    ctx = LocalContext(5, 2, 1)
    for tau in enumerate_types(ctx, kinds=(PS,), canonical=True):
        if tau.is_scalar:
            continue
        gamma = tuple(gamma_digits(tau))
        swapped = tuple(gamma_digits(TameType(ctx, PS, tau.k0p, tau.k0)))
        # digit-wise complement of the not-all-(p-1) normal form
        assert swapped == tuple(4 - g for g in gamma)


def test_gamma_digits_checks_survive_python_O():
    cases = [
        # a cuspidal type whose second exponent is not the q-power twist of
        # the first (built directly, bypassing make_type) has all-zero digits
        ("from bktame import CUSPIDAL, LocalContext, TameType, gamma_digits\n"
         "gamma_digits(TameType(LocalContext(3, 1, 1), CUSPIDAL, 1, 1))\n",
         "zero digits iff scalar"),
        # a module built directly, bypassing validate, with r = 1 at p = 3,
        # f = 1: the alpha numerator 1 is not divisible by p - 1 = 2
        ("from bktame import PS, LocalContext, RankOneBK\n"
         "RankOneBK(LocalContext(3, 1, 1), PS, (1,), (1,), (0,)).alpha_vector\n",
         "alpha numerator not divisible"),
        # a cuspidal type with exponents (0, 2), built directly: its digits
        # pass gamma_digits, but the admissible shape {1} gives a det
        # exponent that is not a norm, and the shape {0} a descent exponent
        # that is not of niveau one
        ("from bktame import CUSPIDAL, LocalContext, TameType, sigma_tau_J\n"
         "sigma_tau_J(TameType(LocalContext(3, 1, 1), CUSPIDAL, 0, 2), {1})\n",
         "det character must factor through the norm"),
        ("from bktame import CUSPIDAL, LocalContext, TameType, char_TN\n"
         "char_TN(TameType(LocalContext(3, 1, 1), CUSPIDAL, 0, 2), {0})\n",
         "descent exponent must have niveau one"),
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    for body, message in cases:
        script = ("from bktame import InternalError\n"
                  "try:\n" + "".join("    " + line + "\n" for line in body.splitlines())
                  + "except InternalError as exc:\n"
                  "    print('debug=%s raised: %s' % (__debug__, exc))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.startswith("debug=False raised: " + message)
