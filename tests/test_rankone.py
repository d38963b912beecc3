import pytest

from bktame import (CUSPIDAL, PS, CongruenceFailed, ContextMismatch,
                    KindMismatch, LocalContext, PeriodError, RangeError,
                    ZeroCoefficient, build_field, hom_dim, oracle_dims,
                    random_module, twist_conjugate, validate)
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


def test_validate_refuses_non_int_r_and_c():
    # int() would truncate 2.7 and 1.2 to the valid module r=(2,), c=(1,)
    for r, c in [((2.7,), (1,)), ((2,), (1.2,)), (("x",), (1,)), ((2,), (None,))]:
        with pytest.raises(RangeError):
            validate(CTX, PS, r, (1,), c)


def test_a_coefficient_is_an_index_of_the_modules_own_field():
    # cuspidal modules at p=3, f=1 have coefficients in GF(9): 4 is the index
    # of 1 + x, not 4 mod 3
    m = validate(CTX, CUSPIDAL, (6, 6), (4, 4), (3, 3))
    assert m.a == (4, 4) and m.unram_product() == 4 == m.galois_character.unram
    assert validate(CTX, CUSPIDAL, (6, 6), ((1, 1), (1, 1)), (3, 3)) == m
    with pytest.raises(ZeroCoefficient):
        validate(CTX, CUSPIDAL, (6, 6), (0, 0), (3, 3))
    with pytest.raises(RangeError):
        validate(CTX, CUSPIDAL, (6, 6), (9, 9), (3, 3))


def test_validate_error_types_and_order():
    # index 4 and the tuple (1, 1) name GF(9) elements; an index carries no
    # field, so in a GF(3) module both are out of range
    for gf9 in (4, (1, 1)):
        with pytest.raises(RangeError):
            validate(CTX, PS, (2,), (gf9,), (1,))
    with pytest.raises(RangeError):
        validate(CTX, PS, (2, 2), (1,), (1,))  # wrong vector length
    with pytest.raises(PeriodError):
        validate(CTX, CUSPIDAL, (2, 2), (1, 2), (1, 1))  # a alone is not periodic
    with pytest.raises(RangeError):
        validate(CTX, CUSPIDAL, (9, 9), (1, 2), (1, 1))  # r range before periodicity


def test_alpha_examples():
    assert validate(CTX, PS, (2,), (1,), (1,)).alpha_vector == (1,)
    assert validate(CTX, PS, (0,), (1,), (0,)).alpha_vector == (0,)
    cusp = validate(CTX, CUSPIDAL, (2, 2), (1, 1), (1, 1))
    assert cusp.alpha_vector == (1, 1)  # (3*2 + 2)/8


def test_galois_char_examples():
    ch = validate(CTX, PS, (2,), (1,), (1,)).galois_character
    assert ch.tame_exp == 0 and ch.unram == 1
    ch2 = validate(CTX, PS, (0,), (1,), (0,)).galois_character
    assert ch2.tame_exp == 0 and ch2.unram == 1
    cusp = validate(CTX, CUSPIDAL, (6, 6), (1, 1), (3, 3))
    ch3 = cusp.galois_character
    assert ch3.tame_exp == 0  # alpha_0 = (3*6+6)/8 = 3 and c_0 = 3


def test_same_generic_fibre_examples():
    m = validate(CTX, PS, (2,), (1,), (1,))
    n = validate(CTX, PS, (0,), (1,), (0,))
    assert m.galois_character == n.galois_character
    n2 = validate(CTX, PS, (0,), (2,), (0,))
    assert m.galois_character != n2.galois_character
    assert hom_dim(m, n2) == hom_dim(n2, m) == 0
    with pytest.raises(ContextMismatch):
        hom_dim(m, validate(CTX, CUSPIDAL, (2, 2), (1, 1), (1, 1)))


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
            al = m.alpha_vector
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
            al = m.alpha_vector
            for i in range(m.fprime):
                assert 3 * al[i - 1] - al[i] == m.r[i]


def test_galois_char_invariant_under_isomorphism():
    ctx = LocalContext(3, 2, 1)
    F = build_field(3, 2)
    g = F.multiplicative_generator()
    m = validate(ctx, PS, (0, 0), (g, 1), (0, 0))
    n = validate(ctx, PS, (0, 0), (1, g), (0, 0))
    assert m.galois_character == n.galois_character


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

    raw = RankOneBK(CTX, CUSPIDAL, (2, 6), (1, 1), (1, 3))
    t = twist_conjugate(raw)
    assert t.r == (6, 2) and t.c == (3, 1)
    assert twist_conjugate(t) == raw
