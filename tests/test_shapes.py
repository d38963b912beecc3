import itertools

import pytest

from bktame import rankone, shapes
from bktame import (CUSPIDAL, PS, InternalError, InvalidShape, LocalContext, NoNonzeroMap,
                    RangeError, TruncationUnstable,
                    RefinedShape, Shape, build_MN, build_field, char_TN, dieudonne_pattern,
                    divisor_support, enumerate_types, ext_dim,
                    exhaustive_modules, family_dim,
                    gamma_digits, hom_dim, irred_bound, kext_dim, kext_dim_oracle,
                    make_type, maximal_refined, oracle_dims, p_tau, random_module,
                    refined_shapes, shapes_for, sigma_tau_J, validate)
from bktame.rng import SplitMix64
from definitions import (admissible_by_definition, gamma_by_definition,
                         gamma_star_by_definition, kext_count_by_definition,
                         twist_by_definition)

CTX = LocalContext(3, 1, 1)
TAU_PS = make_type(CTX, PS, 1, 0)
TAU_C = make_type(CTX, CUSPIDAL, 1)


def test_transitions_examples():
    assert Shape(TAU_PS, frozenset({0})).transitions == frozenset()
    assert Shape(TAU_C, frozenset({1})).transitions == frozenset({0, 1})
    assert Shape(TAU_PS, frozenset()).transitions == frozenset()


def test_shape_validation():
    with pytest.raises(InvalidShape):
        Shape(TAU_C, frozenset({0, 1}))  # violates the complement rule
    with pytest.raises(InvalidShape):
        Shape(make_type(CTX, PS, 1, 1), frozenset({0}))  # scalar


@pytest.mark.parametrize("J", [{0.5}, {"0"}, {True}, {1.0}, {0, 0.5}],
                         ids=["half", "str", "bool", "float", "int_and_half"])
def test_shape_indices_must_be_exact_ints(J):
    # a float, str or bool index is refused up front, not met later as a
    # KeyError of the class table, a TypeError, or a count for another J
    tau = make_type(LocalContext(3, 2, 1), PS, 1, 0)
    calls = [lambda: Shape(tau, frozenset(J)), lambda: kext_dim(tau, J, 1, 1),
             lambda: sigma_tau_J(tau, J), lambda: char_TN(tau, J),
             lambda: refined_shapes(tau, J), lambda: maximal_refined(tau, J)]
    for call in calls:
        with pytest.raises(InvalidShape, match="frozenset of ints"):
            call()


@pytest.mark.parametrize("J", [{0}, [0], (0,)], ids=["set", "list", "tuple"])
def test_shape_J_must_be_a_frozenset(J):
    # the frame and class memos are keyed on J: a set or list would raise
    # TypeError at first use, a tuple KeyError; the (tau, J) entry points
    # take any iterable of indices through _to_shape
    tau = make_type(LocalContext(3, 2, 1), PS, 1, 0)
    with pytest.raises(InvalidShape, match="frozenset of ints"):
        Shape(tau, J)
    assert kext_dim(tau, J, 1, 1) == kext_dim(tau, frozenset({0}), 1, 1)


@pytest.mark.parametrize("y", [(2.0,), (True,), [2], (1.5,)],
                         ids=["float", "bool", "list", "half"])
def test_refined_shape_y_must_be_a_tuple_of_exact_ints(y):
    tau = make_type(LocalContext(3, 1, 2), PS, 1, 0)
    shape = Shape(tau, frozenset({0}))
    with pytest.raises(InvalidShape, match="tuple of ints"):
        RefinedShape(shape, y)
    assert build_MN(tau, RefinedShape(shape, (2,)))[0].r == (4,)


def test_p_tau_examples():
    scalar = make_type(CTX, PS, 1, 1)
    assert [sorted(s.J) for s in p_tau(scalar)] == [[]]
    assert sorted(tuple(sorted(s.J)) for s in p_tau(TAU_PS)) == [(), (0,)]
    assert [sorted(s.J) for s in p_tau(TAU_C)] == [[1]]


def test_refined_shape_counts():
    assert len(refined_shapes(TAU_PS, {0})) == 2     # y0 in {0, 1}
    assert len(refined_shapes(TAU_C, {1})) == 1      # transition forces y0 = 1
    ctx_e2 = LocalContext(3, 1, 2)
    tau = make_type(ctx_e2, PS, 1, 0)
    assert len(refined_shapes(tau, {0})) == 3        # y0 in {0, 1, 2}
    assert maximal_refined(tau, {0}).y == (2,)


def _sweep_types():
    """Every ordered type at p in {3, 5}, f in {1, 2}, e in {1, 2, 3}, and
    at p=3 f=3 e=1."""
    contexts = [(p, f, e) for p in (3, 5) for f in (1, 2) for e in (1, 2, 3)]
    for p, f, e in contexts + [(3, 3, 1)]:
        yield from enumerate_types(LocalContext(p, f, e))


@pytest.mark.parametrize("p, f, e", [(3, 1, 1), (3, 2, 1), (5, 2, 1), (3, 3, 1), (3, 2, 2)])
def test_class_data_is_shared_per_difference_class_and_matches_definitions(p, f, e):
    # gamma, gamma*, T and the kExt count read only (kind, delta, J), with
    # delta = k0 - k0p mod p^{f'} - 1: each shape's entry must equal the
    # definitions, must have been checked on the residues of the shape's own
    # pair, and must be the one entry of every type of its class
    ctx = LocalContext(p, f, e)
    entries = {}   # (kind, delta, J) -> the entry of the first shape met
    for tau in enumerate_types(ctx):
        fp, ekk = tau.fprime, tau.ekk
        gamma = gamma_by_definition(tau.k0, tau.k0p, p, fp)
        for shape in shapes_for(tau):
            J, entry = shape.J, shape._class
            star = gamma_star_by_definition(J, gamma, p)
            assert gamma_digits(tau) == gamma
            assert shape.gamma_star == star
            assert shape.admissible == admissible_by_definition(J, gamma, p)
            assert shape.twist == twist_by_definition(J, gamma, p)
            assert shape.kext_count == kext_count_by_definition(J, star, f)
            c, d = shape.cd
            assert entry.residues == tuple((ci - di) % ekk for ci, di in zip(c, d))
            key = (tau.kind, (tau.k0 - tau.k0p) % ekk, J)
            assert entries.setdefault(key, entry) is entry
    # one entry per distinct (kind, delta, J), shared by several types
    assert len(entries) < sum(len(shapes_for(tau)) for tau in enumerate_types(ctx))


def test_admissibility_predicate_agrees_with_p_tau():
    for tau in _sweep_types():
        gamma = gamma_by_definition(tau.k0, tau.k0p, tau.ctx.p, tau.fprime)
        admissible = set(p_tau(tau))
        for shape in shapes_for(tau):
            assert shape.admissible == (shape in admissible)
            assert shape.admissible == admissible_by_definition(shape.J, gamma, tau.ctx.p)


def test_build_MN_ps_example():
    m, n = build_MN(TAU_PS, maximal_refined(TAU_PS, {0}))
    assert (m.r, m.c) == ((2,), (1,))
    assert (n.r, n.c) == ((0,), (0,))
    assert all(x == 1 for x in m.a + n.a)


def test_build_MN_cuspidal_example():
    m, n = build_MN(TAU_C, maximal_refined(TAU_C, {1}))
    assert (m.r, m.c) == ((6, 6), (3, 3))
    assert (n.r, n.c) == ((2, 2), (1, 1))


def test_build_MN_scalar():
    scalar = make_type(CTX, PS, 1, 1)
    m, n = build_MN(scalar, maximal_refined(scalar, frozenset()))
    assert m.r == (2,) and m.c == (1,) and n.r == (0,)


def _refined_shape_of_pair(m, n, tau):
    """Test-local inverse of build_MN: J is where the first module carries
    the first type character; y_i is r_i, plus the offset subtracted at a
    transition, divided by p^{f'} - 1."""
    fp, ekk = tau.fprime, tau.ekk
    for i in range(fp):
        assert {m.c[i], n.c[i]} == {tau.kvec[i], tau.kpvec[i]}
        assert m.r[i] + n.r[i] == tau.ctx.eprime(tau.kind)
    if tau.is_scalar:
        J = frozenset()
    else:
        J = frozenset(i for i in range(fp) if m.c[i] == tau.kvec[i])
    y = []
    for i in range(tau.ctx.f):
        transition = ((i - 1) % fp in J) != (i in J)
        num = m.r[i] + ((m.c[i] - n.c[i]) % ekk if transition else 0)
        assert num % ekk == 0
        y.append(num // ekk)
    return J, tuple(y)


def test_build_MN_encodes_every_refined_shape():
    taus = [TAU_PS, TAU_C] + enumerate_types(LocalContext(3, 2, 2))
    for tau in taus:
        for shape in shapes_for(tau):
            for rs in refined_shapes(tau, shape):
                m, n = build_MN(tau, rs)
                assert _refined_shape_of_pair(m, n, tau) == (shape.J, rs.y)


def test_build_MN_refuses_a_pair_off_the_type(monkeypatch):
    # both modules of the standard pair carry k: each passes the module
    # checks, but the pair is not of the principal-series type
    ctx = LocalContext(3, 2, 1)
    tau = make_type(ctx, PS, 1, 0)
    kv = tau.kvec
    assert kv != tau.kpvec
    monkeypatch.setattr(Shape, "cd", property(lambda self: (kv, kv)))
    with pytest.raises(InternalError):
        build_MN(tau, maximal_refined(tau, {0, 1}))


def test_module_builders_equal_validate():
    # the builders make their modules without coercing coefficients; each
    # equals the module validate makes from the same vectors
    def check_built(mod):
        assert mod == validate(mod.ctx, mod.kind, mod.r, mod.a, mod.c)

    for p in (3, 5, 7):
        for f in (1, 2, 3):
            ctx = LocalContext(p, f, 1 + f % 2)
            rng = SplitMix64(100 * p + f)
            for kind in (PS, CUSPIDAL):
                for _ in range(10):
                    check_built(random_module(ctx, kind, rng))
        if p < 7:
            for kind in (PS, CUSPIDAL):
                for mod in exhaustive_modules(LocalContext(p, 1, 1), kind):
                    check_built(mod)
    for m, n in _untabled_pairs():
        check_built(m)
        check_built(n)
    ctx = LocalContext(3, 2, 2)
    built = 0
    for tau in enumerate_types(ctx, canonical=True):
        for shape in shapes_for(tau):
            for rs in refined_shapes(tau, shape):
                for mod in build_MN(tau, rs):
                    check_built(mod)
                    built += 1
    assert built > 100


# every entry point that reads a shape of tau, called on a Shape or on indices
_SHAPE_CALLS = {
    "refined_shapes": lambda tau, J: refined_shapes(tau, J),
    "maximal_refined": lambda tau, J: maximal_refined(tau, J),
    "kext_dim": lambda tau, J: kext_dim(tau, J, 1, 1),
    "sigma_tau_J": lambda tau, J: sigma_tau_J(tau, J),
    "char_TN": lambda tau, J: char_TN(tau, J),
    "dieudonne_pattern": lambda tau, J: dieudonne_pattern(tau, J),
    "divisor_support": lambda tau, J: divisor_support(tau, J),
    # a refined shape of J's own type, so that build_MN's own gate is the one hit
    "build_MN": lambda tau, J: build_MN(tau, maximal_refined(getattr(J, "tau", tau), J)),
}


@pytest.mark.parametrize("name", sorted(_SHAPE_CALLS))
def test_a_shape_of_another_type_is_refused(name):
    call = _SHAPE_CALLS[name]
    other = Shape(TAU_C, frozenset({1}))
    with pytest.raises(InvalidShape):
        call(TAU_PS, other)
    # a shape of the type itself and the bare indices give the same answer
    assert call(TAU_PS, Shape(TAU_PS, frozenset({0}))) == call(TAU_PS, {0})


def test_gamma_star_and_kext_count_vanish_for_scalar_types():
    for p in (3, 5):
        for f in (1, 2):
            scalars = [tau for tau in enumerate_types(LocalContext(p, f, 1), kinds=(PS,))
                       if tau.is_scalar]
            assert len(scalars) == p ** f - 1
            for tau in scalars:
                shape = Shape(tau, frozenset())
                assert shape.gamma_star == (0,) * f
                assert shape.kext_count == 0


def test_gamma_star_examples():
    assert Shape(TAU_C, frozenset({1})).gamma_star[0] == 2   # i-1 = 1 lies in J
    assert Shape(TAU_C, frozenset({0})).gamma_star[0] == 0   # i-1 = 1 outside J
    assert Shape(TAU_PS, frozenset({0})).gamma_star[0] == 1  # complemented digit 2 - 1


def test_ext_dim_examples():
    m, n = build_MN(TAU_PS, maximal_refined(TAU_PS, {0}))
    assert ext_dim(m, n) == 2
    n_twist = validate(CTX, PS, n.r, (2,), n.c)
    assert ext_dim(m, n_twist) == 1
    etale = validate(CTX, PS, (0,), (1,), (0,))
    assert ext_dim(etale, etale) == 1


def test_ext_oracle_reproduces_examples():
    m, n = build_MN(TAU_PS, maximal_refined(TAU_PS, {0}))
    assert oracle_dims(m, n)[0] == 2
    n_twist = validate(CTX, PS, n.r, (2,), n.c)
    assert oracle_dims(m, n_twist)[0] == 1
    etale = validate(CTX, PS, (0,), (1,), (0,))
    assert oracle_dims(etale, etale)[0] == 1
    assert oracle_dims(m, m)[1] == 1
    m2, n2 = build_MN(TAU_C, maximal_refined(TAU_C, {1}))
    assert oracle_dims(m2, n2)[0] == ext_dim(m2, n2) == 2


def test_kext_examples():
    F9 = build_field(3, 2)
    assert kext_dim(TAU_PS, {0}, 1, 1) == 0           # no transitions
    assert kext_dim(TAU_C, {0}, 1, 1) == 0            # exceptional branch
    g = F9.multiplicative_generator()
    assert kext_dim(TAU_C, {0}, 1, g) == 1


def test_int_products_and_coefficients_are_indices_of_the_field():
    # a product is read once, as an index of the type's coefficient field:
    # in GF(9), 4 is 1 + x (read mod 3 it would be 1, and kext_dim would
    # count the products as equal), and 9 lies outside the field
    assert kext_dim(TAU_C, {0}, 1, 4) == kext_dim(TAU_C, {0}, 1, (1, 1)) == 1
    assert kext_dim(TAU_C, {0}, 4, (1, 1)) == 0
    for bad in (-1, 9, (1, 0, 0), 1.5, None):
        with pytest.raises(RangeError):
            kext_dim(TAU_C, {0}, 1, bad)
    with pytest.raises(RangeError):
        validate(CTX, PS, (2,), (4,), (1,))
    assert validate(CTX, PS, (2,), (2,), (1,)).a == (2,)
    assert validate(CTX, PS, (2,), ((2,),), (1,)).a == (2,)


def test_kext_oracle_reproduces_examples():
    m, n = build_MN(TAU_PS, maximal_refined(TAU_PS, {0}))
    assert kext_dim_oracle(m, n) == 0
    m0, n0 = build_MN(TAU_C, maximal_refined(TAU_C, {0}))
    assert kext_dim_oracle(m0, n0) == 0
    g = build_field(3, 2).multiplicative_generator()
    n0g = validate(CTX, CUSPIDAL, n0.r, (g, g), n0.c)
    assert kext_dim_oracle(m0, n0g) == 1
    etale = validate(CTX, PS, (0,), (1,), (0,))
    assert kext_dim_oracle(etale, etale) == 0


def test_kext_vanishing_with_generic_products_matches_admissible_set():
    # regression for the one-sided reading of the vanishing criterion: with
    # distinct unramified products the exceptional branch never fires, and
    # vanishing is exactly admissibility of the shape
    for p, f in [(3, 1), (3, 2), (5, 1)]:
        ctx = LocalContext(p, f, 1)
        from bktame import enumerate_types
        for tau in enumerate_types(ctx, canonical=True):
            if tau.is_scalar:
                continue
            F = ctx.coefficient_field(tau.kind)
            g = F.multiplicative_generator()
            admissible = {s.key() for s in p_tau(tau)}
            for shape in shapes_for(tau):
                vanishes = kext_dim(tau, shape, 1, g) == 0
                assert vanishes == (shape.key() in admissible)


def _kext_pairs(p, f, e):
    """Every pair of the oracle's kExt sweep, with the closed-form value
    criterion 3 asserts for it: the maximal pair of each shape of each
    nonscalar canonical type, with products equal and distinct."""
    ctx = LocalContext(p, f, e)
    for tau in enumerate_types(ctx, canonical=True):
        if tau.is_scalar:
            continue
        field = ctx.coefficient_field(tau.kind)
        gen = field.multiplicative_generator()
        for shape in shapes_for(tau):
            m, n = build_MN(tau, maximal_refined(tau, shape))
            n_g = validate(ctx, tau.kind, n.r, (gen,) * tau.fprime, n.c)
            yield m, n, kext_dim(tau, shape, 1, 1)
            yield m, n_g, kext_dim(tau, shape, 1, n_g.unram_product())


def _clear_memos():
    shapes._oracle_solve.cache_clear()
    shapes._kext_solve.cache_clear()
    rankone._alpha.cache_clear()


def test_kext_oracle_takes_hom_from_the_truncated_complex(monkeypatch):
    # the closed-form hom_dim raises while kext_dim_oracle runs, so the
    # oracle shares no code with the closed form it checks
    inside = []

    def closed_form_hom(m, n):
        if inside:
            raise AssertionError("kext_dim_oracle called the closed-form hom_dim")
        return hom_dim(m, n)

    def kext_oracle(m, n):
        inside.append(True)
        try:
            return shapes.kext_dim_oracle(m, n)
        finally:
            inside.pop()

    monkeypatch.setattr(shapes, "hom_dim", closed_form_hom)
    monkeypatch.setattr(rankone, "hom_dim", closed_form_hom)
    _clear_memos()
    checked = 0
    for f in (1, 2):
        for e in (1, 2):
            for m, n, closed in _kext_pairs(3, f, e):
                assert kext_oracle(m, n) == closed
                checked += 1
    assert checked and not inside


def _raw_system(m, n):
    """The pair's _oracle_system without the normalisation by m.a[0]: its
    own coefficient indices and residues."""
    f, ekk = m.ctx.f, m.ekk
    return (m.ctx, m.kind, m.r[:f], n.r[:f],
            tuple((m.c[i] - n.c[i]) % ekk for i in range(f)),
            m.a[:f], n.a[:f])


def _untabled_pairs():
    ctx = LocalContext(7, 3, 1)
    rng = SplitMix64(76)
    return [(random_module(ctx, CUSPIDAL, rng), random_module(ctx, CUSPIDAL, rng))
            for _ in range(20)]


def test_kext_and_alpha_memos_match_a_fresh_computation():
    # the memo keys hold all the data the computations read: every value
    # from the warm memos equals one computed with the memos cleared, the
    # kExt value from the pair's own coefficients and residues, not
    # normalised by m.a[0].  Every kExt-sweep pair has a = 1, so only the
    # random pairs exercise the normalisation.
    pairs = []
    for p in (3, 5):
        for f in (1, 2):
            for e in (1, 2):
                pairs.extend((m, n) for m, n, _ in _kext_pairs(p, f, e))
                ctx = LocalContext(p, f, e)
                rng = SplitMix64(1000 * p + 10 * f + e)
                for kind in (PS, CUSPIDAL):
                    for _ in range(100):
                        pairs.append((random_module(ctx, kind, rng),
                                      random_module(ctx, kind, rng)))
    pairs.extend(_untabled_pairs())
    _clear_memos()
    alpha = lambda m: rankone._alpha(m.ctx.p, m.fprime, m.ekk, m.r)
    memo = [(kext_dim_oracle(m, n), alpha(m), alpha(n)) for m, n in pairs]
    assert shapes._kext_solve.cache_info().hits > 0
    assert rankone._alpha.cache_info().hits > 0

    def fresh(fn, *args):
        _clear_memos()
        return fn(*args)

    # not m.alpha_vector: it is cached on the module, so it would give the
    # warm value
    assert memo == [(fresh(shapes._kext_solve, _raw_system(m, n)), fresh(alpha, m),
                     fresh(alpha, n)) for m, n in pairs]


def test_oracle_memo_matches_a_fresh_solve_of_the_raw_pair():
    # the memo key is the whole input of the solve: every warm-memo value
    # equals a solve, with the memo cleared, of the pair's own coefficients
    # and residues, not normalised by m.a[0]
    pairs = []
    for e in (1, 2):
        for kind in (PS, CUSPIDAL):
            mods = exhaustive_modules(LocalContext(3, 1, e), kind)
            pairs.extend((m, n) for m in mods for n in mods)
    ctx = LocalContext(3, 2, 1)
    rng = SplitMix64(32)
    for kind in (PS, CUSPIDAL):
        pairs.extend((random_module(ctx, kind, rng), random_module(ctx, kind, rng))
                     for _ in range(100))
    pairs.extend(_untabled_pairs())
    _clear_memos()
    memo = [oracle_dims(m, n) for m, n in pairs]
    info = shapes._oracle_solve.cache_info()
    assert info.hits > 10 * info.misses

    def fresh(m, n):
        _clear_memos()
        return shapes._oracle_solve(_raw_system(m, n), shapes._default_trunc(m.ctx))

    assert memo == [fresh(m, n) for m, n in pairs]


def test_oracle_memo_keeps_both_checks():
    m, n = build_MN(TAU_PS, maximal_refined(TAU_PS, {0}))
    _clear_memos()
    with pytest.raises(RangeError):
        oracle_dims(m, n, 0)
    # level 1 does not stabilise for this pair: neither the memoised level-2
    # result nor a retry answers it, so every call raises
    assert oracle_dims(m, n, 2) == (2, 1)
    for _ in range(2):
        with pytest.raises(TruncationUnstable):
            oracle_dims(m, n, 1)


def test_differential_preserves_congruence_classes():
    # the two terms of the differential land in the target classes
    from bktame.shapes import _complex_matrix
    for tau in (TAU_PS, TAU_C):
        for shape in shapes_for(tau):
            m, n = build_MN(tau, maximal_refined(tau, shape))
            rows, keys = _complex_matrix(shapes._oracle_system(m, n), 4)
            ekk = m.ekk
            out_cls = [(m.r[i] + m.c[i] - n.c[i]) % ekk for i in range(m.ctx.f)]
            assert len(keys) == len(rows[0])
            for i, deg in keys:
                assert (m.r[i] + deg) % ekk == out_cls[i]


def test_family_dim_examples():
    assert family_dim(TAU_PS, maximal_refined(TAU_PS, {0})) == 1  # e * f
    rs0 = refined_shapes(TAU_PS, {0})[0]
    assert rs0.y == (0,) and family_dim(TAU_PS, rs0) == 0
    ctx = LocalContext(3, 2, 2)
    tau = make_type(ctx, PS, 1, 0)
    assert family_dim(tau, maximal_refined(tau, frozenset())) == 4


def _generic_twist_pairs():
    """The standard pair of every refined shape of every canonical type at
    p in {3, 5}, f, e in {1, 2}, with N's coefficients all the generator, so
    that the two characters differ."""
    for p, f, e in itertools.product((3, 5), (1, 2), (1, 2)):
        ctx = LocalContext(p, f, e)
        for tau in enumerate_types(ctx, canonical=True):
            gen = ctx.coefficient_field(tau.kind).multiplicative_generator()
            for shape in shapes_for(tau):
                for rs in refined_shapes(tau, shape):
                    m, n = build_MN(tau, rs)
                    yield tau, rs, m, validate(ctx, tau.kind, n.r, (gen,) * tau.fprime, n.c)


def test_family_dim_is_the_ext_rank_of_the_generically_twisted_pair():
    # over the distinct-twist locus Hom vanishes and Ext^1 has rank sum(y):
    # the truncated-complex oracle checks family_dim on every refined shape
    checked = 0
    for tau, rs, m, n_twist in _generic_twist_pairs():
        assert oracle_dims(m, n_twist) == (family_dim(tau, rs), 0), (tau.label(), rs)
        checked += 1
    assert checked == 22290


def test_irred_bound_example():
    m, n = build_MN(TAU_C, maximal_refined(TAU_C, {0}))
    res = irred_bound(m, n)
    assert res["x"] == (2, 2) and res["D"] == 2 and res["cap"] == 2
    assert (n.c[0] - m.c[1]) % 8 == res["x"][0] % 8


def test_irred_bound_zero_gap():
    # a pair with x identically zero gives the floor value D = 1
    ctx = LocalContext(3, 1, 1)
    m = validate(ctx, CUSPIDAL, (4, 4), (1, 1), (2, 2))
    res = irred_bound(m, m)
    assert res["x"] == (0, 0) and res["D"] == 1


def test_irred_bound_requires_nonzero_map():
    m, n = build_MN(TAU_C, maximal_refined(TAU_C, {0}))
    with pytest.raises(NoNonzeroMap):
        irred_bound(n, m)  # alpha gap points the wrong way


def test_oracle_exhaustive_smallest_context():
    mods = exhaustive_modules(CTX, PS)
    assert len(mods) == 8
    for m in mods:
        for n in mods:
            ext, hom = oracle_dims(m, n)
            assert ext == ext_dim(m, n) and hom in (0, 1)


def test_oracle_agrees_over_an_untabled_field():
    # GF(7^6) has no tables
    assert LocalContext(7, 3, 1).coefficient_field(CUSPIDAL)._log is None
    for m, n in _untabled_pairs():
        assert (ext_dim(m, n), hom_dim(m, n)) == oracle_dims(m, n)
