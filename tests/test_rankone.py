import pytest

from bktame import (CUSPIDAL, PS, CongruenceFailed, ContextMismatch,
                    KindMismatch, LocalContext, PeriodError, RangeError,
                    ZeroCoefficient, alpha, build_field, galois_char, hom_dim,
                    oracle_dims, random_module, same_generic_fibre,
                    twist_conjugate, validate)
from bktame.rng import SplitMix64

CTX = LocalContext(3, 1, 1)


def test_validate_examples():
    m = validate(CTX, PS, (2,), (1,), (1,))
    assert m.r == (2,) and m.c == (1,)
    etale = validate(CTX, PS, (0,), (1,), (0,))
    assert etale.r == (0,)
    with pytest.raises(CongruenceFailed):
        validate(CTX, PS, (1,), (1,), (1,))  # 3*1 != 1+1 mod 2


def test_validate_error_cases():
    with pytest.raises(RangeError):
        validate(CTX, PS, (4,), (1,), (0,))  # r outside [0, e'=2]
    with pytest.raises(ZeroCoefficient):
        validate(CTX, PS, (2,), (0,), (1,))
    with pytest.raises(PeriodError):
        validate(CTX, CUSPIDAL, (2, 6), (1, 1), (1, 3))
    with pytest.raises(RangeError):
        validate(CTX, PS, (2,), (1,), (3,))  # c not reduced mod 2


def test_validate_error_types_and_order():
    gf9 = build_field(3, 2).one()
    with pytest.raises(ContextMismatch):
        validate(CTX, PS, (2,), (gf9,), (1,))  # a GF(9) coefficient in GF(3)
    with pytest.raises(RangeError):
        validate(CTX, PS, (2, 2), (1,), (1,))  # wrong vector length
    with pytest.raises(RangeError):
        validate(CTX, PS, (2, 2), (gf9,), (1,))  # the length is checked first
    with pytest.raises(PeriodError):
        validate(CTX, CUSPIDAL, (2, 2), (1, 2), (1, 1))  # a alone is not periodic
    with pytest.raises(RangeError):
        validate(CTX, CUSPIDAL, (9, 9), (1, 2), (1, 1))  # r range before periodicity


def test_alpha_examples():
    assert alpha(validate(CTX, PS, (2,), (1,), (1,))) == (1,)
    assert alpha(validate(CTX, PS, (0,), (1,), (0,))) == (0,)
    cusp = validate(CTX, CUSPIDAL, (2, 2), (1, 1), (1, 1))
    assert alpha(cusp) == (1, 1)  # (3*2 + 2)/8


def test_galois_char_examples():
    F3 = build_field(3, 1)
    ch = galois_char(validate(CTX, PS, (2,), (1,), (1,)))
    assert ch.tame_exp == 0 and ch.unram == F3.one()
    ch2 = galois_char(validate(CTX, PS, (0,), (1,), (0,)))
    assert ch2.tame_exp == 0 and ch2.unram == F3.one()
    cusp = validate(CTX, CUSPIDAL, (6, 6), (1, 1), (3, 3))
    ch3 = galois_char(cusp)
    assert ch3.tame_exp == 0  # alpha_0 = (3*6+6)/8 = 3 and c_0 = 3


def test_same_generic_fibre_examples():
    m = validate(CTX, PS, (2,), (1,), (1,))
    n = validate(CTX, PS, (0,), (1,), (0,))
    assert same_generic_fibre(m, m)
    assert same_generic_fibre(m, n)
    n2 = validate(CTX, PS, (0,), (2,), (0,))
    assert not same_generic_fibre(m, n2)
    with pytest.raises(ContextMismatch):
        same_generic_fibre(m, validate(CTX, CUSPIDAL, (2, 2), (1, 1), (1, 1)))


def test_hom_dim_examples():
    m = validate(CTX, PS, (2,), (1,), (1,))
    n = validate(CTX, PS, (0,), (1,), (0,))
    assert hom_dim(m, m) == 1
    assert hom_dim(m, n) == 1
    assert hom_dim(n, m) == 0  # alpha 0 >= 1 fails


@pytest.mark.parametrize("p,f,e", [(3, 1, 1), (3, 2, 2), (5, 1, 2)])
def test_hom_dim_matches_oracle_on_random_pairs(p, f, e):
    ctx = LocalContext(p, f, e)
    rng = SplitMix64(2024)
    for kind in (PS, CUSPIDAL):
        for _ in range(100):
            m = random_module(ctx, kind, rng)
            n = random_module(ctx, kind, rng)
            assert hom_dim(m, n) == oracle_dims(m, n)[1]


def test_char_exponent_consistent_at_every_index():
    ctx = LocalContext(5, 2, 1)
    rng = SplitMix64(7)
    for kind in (PS, CUSPIDAL):
        for _ in range(50):
            m = random_module(ctx, kind, rng)
            al = alpha(m)
            ekk = m.ekk
            base = (m.c[0] - al[0]) % ekk
            for i in range(m.fprime):
                assert (m.c[i] - al[i]) % ekk == base * pow(ctx.p, i, ekk) % ekk


def test_alpha_recursion_invariant_random():
    ctx = LocalContext(3, 2, 3)
    rng = SplitMix64(11)
    for kind in (PS, CUSPIDAL):
        for _ in range(50):
            m = random_module(ctx, kind, rng)
            al = alpha(m)
            for i in range(m.fprime):
                assert 3 * al[i - 1] - al[i] == m.r[i]


def test_galois_char_invariant_under_isomorphism():
    ctx = LocalContext(3, 2, 1)
    F = build_field(3, 2)
    g = F.multiplicative_generator()
    m = validate(ctx, PS, (0, 0), (g, 1), (0, 0))
    n = validate(ctx, PS, (0, 0), (1, g), (0, 0))
    assert galois_char(m) == galois_char(n)


def test_twist_conjugate():
    m = validate(CTX, CUSPIDAL, (6, 6), (1, 1), (3, 3))
    assert twist_conjugate(m) == m  # f-periodic data is fixed
    assert twist_conjugate(twist_conjugate(m)) == m
    with pytest.raises(KindMismatch):
        twist_conjugate(validate(CTX, PS, (2,), (1,), (1,)))


def test_twist_conjugate_is_an_index_shift():
    # raw index-shift semantics, checked on a bare (unvalidated) record:
    # r = (2, 6) goes to (6, 2) and a second shift restores it
    from bktame.rankone import RankOneBK

    F9 = build_field(3, 2)
    one = F9.one()
    raw = RankOneBK(CTX, CUSPIDAL, (2, 6), (one, one), (1, 3))
    t = twist_conjugate(raw)
    assert t.r == (6, 2) and t.c == (3, 1)
    assert twist_conjugate(t) == raw
