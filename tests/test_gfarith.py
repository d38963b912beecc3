import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bktame import (CUSPIDAL, PS, FieldElem, FieldSpec, LocalContext, NotPrime,
                    DegreeTooLarge, RangeError, build_field,
                    ext_dim, hom_dim, oracle_dims, random_module)
from bktame.gfarith import _pdivmod, gauss_rank
from bktame.rng import SplitMix64
from bktame.shapes import _nullities


def test_prime_field_modulus_is_x():
    F = build_field(3, 1)
    assert F.modulus == (0, 1)
    assert F.order == 3


def test_gf9_modulus_matches_lex_search_oracle():
    # independent oracle: scan the nine monic quadratics in low-degree-first
    # lexicographic order and take the first with no root in GF(3)
    first = None
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                first = (c0, c1, 1)
                break
        if first:
            break
    assert first == (1, 0, 1)  # x^2 + 1
    assert build_field(3, 2).modulus == first


def test_build_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        build_field(4, 2)
    with pytest.raises(DegreeTooLarge):
        build_field(3, 13)


def test_build_field_is_cached_and_deterministic():
    assert build_field(5, 3) is build_field(5, 3)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (5, 4), (7, 3)])
def test_modulus_is_irreducible_by_trial_division(p, m):
    # oracle: divide by every monic polynomial of degree 1..m//2
    f = build_field(p, m).modulus

    def monics(deg):
        for idx in range(p ** deg):
            coeffs, k = [], idx
            for _ in range(deg):
                coeffs.append(k % p)
                k //= p
            yield tuple(coeffs) + (1,)

    for deg in range(1, m // 2 + 1):
        for g in monics(deg):
            assert _pdivmod(f, g, p)[1] != (), (f, g)


def _power(F, x, n):
    """Index of x^n for n >= 0, by square-and-multiply over F.mul."""
    result = 1
    while n:
        if n & 1:
            result = F.mul(result, x)
        x = F.mul(x, x)
        n >>= 1
    return result


def _order(F, x):
    """Multiplicative order of a nonzero index x, by counting steps of F.mul."""
    n, y = 1, x
    while y != 1:
        y = F.mul(y, x)
        n += 1
    return n


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 4), (5, 2), (5, 3), (7, 4), (5, 8)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms_on_random_triples(p, m, data):
    # (5, 8) has 390625 elements: no exp/log tables, so mul and inv run the
    # polynomial arithmetic
    F = build_field(p, m)
    idx = st.integers(min_value=0, max_value=F.order - 1)
    x, y, z = (F.elem(tuple(build_digits(data.draw(idx), p, m))).idx for _ in range(3))
    add, mul = F.add, F.mul
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, F.neg(x)) == 0
    if x:
        assert mul(x, F.inv(x)) == 1


def build_digits(value, p, m):
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return out


def test_elem_rejects_more_coefficients_than_the_degree():
    F = build_field(3, 2)
    with pytest.raises(RangeError):
        F.elem((1, 0, 0))
    with pytest.raises(RangeError):
        F.elem((1, 2, 1))
    assert F.elem((2,)) == F.elem((2, 0)) == F.elem(2)


def test_int_coefficients_name_prime_field_elements_only():
    # on [0, p) an int's residue and index readings agree; outside it the
    # two disagree, so elem refuses the int instead of reducing it mod p
    for p, m in [(3, 1), (3, 2), (5, 2)]:
        F = build_field(p, m)
        for k in range(p):
            assert F.elem(k).idx == k and F.elem(k) == F.elem((k,))
        for k in (-1, p, p + 1, p * p - 1):
            with pytest.raises(RangeError):
                F.elem(k)
    F9 = build_field(3, 2)
    assert F9.elem((4, 5)) == F9.elem((1, 2)) and F9.elem((-1,)) == F9.elem((2,))


def test_field_elements_equal_only_field_elements_and_hash_alike():
    # an int is never a field element, and equal elements hash equal, so
    # elements and ints can share a dict or set without aliasing
    for p, m in [(3, 1), (3, 2), (5, 1)]:
        F = build_field(p, m)
        fresh = FieldSpec(p, m, F.modulus)
        for idx in range(F.order):
            x = FieldElem(F, idx)
            assert all(x != k for k in range(-F.order, 2 * F.order))
            for twin in (F.elem(x.coeffs), FieldElem(fresh, idx)):
                assert twin == x and hash(twin) == hash(x)
        assert {F.one(): "v"}.get(1) is None
    assert build_field(3, 1).one() != build_field(5, 1).one()


def test_arithmetic_converts_no_representation(monkeypatch):
    F = build_field(7, 2)
    x, y = F.multiplicative_generator().idx, F.elem((3, 5)).idx
    ctx = LocalContext(7, 2, 1)
    rng = SplitMix64(11)
    pairs = [(random_module(ctx, kind, rng), random_module(ctx, kind, rng))
             for kind in (PS, CUSPIDAL)]

    def no_conversion(self, coeffs):
        raise AssertionError("coefficient tuple converted to an index")

    monkeypatch.setattr(FieldSpec, "_index_of_coeffs", no_conversion)
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    assert (mul(mul(add(x, y), add(x, y, -1)), inv(y))
            == add(mul(mul(x, x), inv(y)), y, -1))
    xy = mul(x, y)
    assert inv(xy) == mul(inv(x), inv(y)) == _power(F, xy, 47)
    assert _power(F, x, 48) == 1 and add(neg(x), x) == 0 and _power(F, x, 24) == neg(1)
    assert xy == mul(y, x) and x != y
    for m, n in pairs:
        assert oracle_dims(m, n) == (ext_dim(m, n), hom_dim(m, n))


# Frobenius is x -> x^p


def test_frobenius_fixes_prime_field():
    F = build_field(3, 1)
    assert _power(F, 2, 3) == 2


def test_frobenius_on_gf9_generator():
    F = build_field(3, 2)
    g = F.multiplicative_generator().idx
    assert _order(F, g) == 8
    assert _power(F, _power(F, g, 3), 3) == g


def test_multiplicative_generator_is_found_once(monkeypatch):
    F = build_field(3, 2)

    def no_search(self):
        raise AssertionError("generator searched again")

    monkeypatch.setattr(FieldSpec, "_find_generator_coeffs", no_search)
    assert _order(F, F.multiplicative_generator().idx) == 8


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 4)])
def test_frobenius_is_ring_hom_of_exact_order_m(p, m):
    F = build_field(p, m)
    g = F.multiplicative_generator().idx
    assert _order(F, g) == F.order - 1
    h = F.add(g, 1)
    frob = lambda x: _power(F, x, p)
    assert frob(F.mul(g, h)) == F.mul(frob(g), frob(h))
    assert frob(F.add(g, h)) == F.add(frob(g), frob(h))
    x, seen_identity_early = g, False
    for _ in range(m - 1):
        x = frob(x)
        seen_identity_early = seen_identity_early or x == g
    assert frob(x) == g and not seen_identity_early


# -- linear algebra --


def test_rank_identity_and_zero():
    F = build_field(3, 1)
    assert gauss_rank([[1 if i == j else 0 for j in range(3)] for i in range(3)], F) == 3
    assert gauss_rank([[0] * 5 for _ in range(2)], F) == 0


def test_smallest_ext_instance_cokernel():
    # the truncated differential of the (p,f,e) = (3,1,1) maximal-shape
    # principal-series pair, on the congruence-constrained monomial basis;
    # its cokernel dimension must agree with the known Ext dimension 2
    from bktame import LocalContext, PS, build_MN, make_type, maximal_refined
    from bktame.shapes import _complex_matrix, _oracle_system

    ctx = LocalContext(3, 1, 1)
    tau = make_type(ctx, PS, 1, 0)
    m, n = build_MN(tau, maximal_refined(tau, {0}))
    F = m.field
    for level in (2, 3):
        rows, _ = _complex_matrix(_oracle_system(m, n), level)
        assert len(rows) - gauss_rank(rows, F) == 2


def test_rank_invariant_under_seeded_shuffle():
    F = build_field(5, 1)
    rng = SplitMix64(99)
    rows = [[rng.below(5) for _ in range(6)] for _ in range(4)]
    base = gauss_rank([list(r) for r in rows], F)
    for seed in range(5):
        sh = SplitMix64(seed)
        perm_rows = sh.shuffle([list(r) for r in rows])
        cols = list(range(6))
        sh.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in perm_rows]
        assert gauss_rank(shuffled, F) == base


def _dot(F, row, x):
    total = 0
    for a, b in zip(row, x):
        total = F.add(total, F.mul(a, b))
    return total


def _brute_force_kernel_size(F, rows, ncols, values):
    """#{x in values^ncols : rows . x = 0}, by listing every x."""
    return sum(1 for x in itertools.product(values, repeat=ncols)
               if all(_dot(F, row, x) == 0 for row in rows))


@pytest.mark.parametrize("p,m,ncols", [(3, 1, 5), (3, 2, 3), (7, 2, 2), (7, 6, 3)])
def test_row_reduction_matches_brute_force_kernel(p, m, ncols):
    # both nullities of _nullities, the full matrix and random column
    # subsets in random order, against |ker| = q^(nullity).  Where F^n is
    # too large to list (GF(7^6) has no tables and 7^18 vectors) the count
    # runs over GF(p)^n on prime-subfield entries: rank does not change
    # under field extension.  The matrix solved last has entries from the
    # whole field: rows mixed by an invertible matrix and columns scaled by
    # units, which moves the kernel but keeps both nullities.
    F = build_field(p, m)
    values = range(F.order) if F.order ** ncols <= 5000 else range(p)
    rng = SplitMix64(1000 * p + m)
    unit = lambda: 1 + rng.below(F.order - 1)
    assert _nullities([], ncols, range(ncols), F) == (ncols, ncols)
    assert _nullities([], 0, [], F) == _nullities([[], []], 0, [], F) == (0, 0)
    assert _nullities([[1] * ncols], ncols, [], F) == (ncols - 1, 0)
    for trial in range(16):
        rows = [[rng.choice(values) if rng.below(3) else 0 for _ in range(ncols)]
                for _ in range(rng.below(ncols + 2))]
        keep = ([c for c in range(ncols) if rng.below(3)] if trial > 1
                else list(range(ncols)) if trial else [])
        rng.shuffle(keep)
        full, kept = _nullities(rows, ncols, keep, F)
        sub = [[row[c] for c in keep] for row in rows]
        assert _brute_force_kernel_size(F, rows, ncols, values) == len(values) ** full
        assert _brute_force_kernel_size(F, sub, len(keep), values) == len(values) ** kept
        if not rows:
            continue
        mixed = [list(row) for row in rows]
        for _ in range(2 * len(rows)):
            i, j = rng.below(len(rows)), rng.below(len(rows))
            if i != j:
                lam = rng.below(F.order)
                mixed[i] = [F.add(a, F.mul(lam, b)) for a, b in zip(mixed[i], mixed[j])]
        scales = [unit() for _ in range(ncols)]
        mixed = [[F.mul(x, s) for x, s in zip(row, scales)] for row in mixed]
        # a scaled copy of a row adds no rank
        scale = unit()
        mixed.append([F.mul(scale, x) for x in mixed[0]])
        assert _nullities(mixed, ncols, keep, F) == (full, kept)


@pytest.mark.parametrize("p,m,ncols", [(3, 1, 4), (3, 2, 3)])
def test_kernel_vanishes_off_kept_columns_iff_nullity_is_kept(p, m, ncols):
    # the pole-bound check of the kExt oracle: every kernel vector vanishes
    # on the dropped columns exactly when the nullity over the kept columns
    # equals the full nullity
    F = build_field(p, m)
    vectors = list(itertools.product(range(F.order), repeat=ncols))
    rng = SplitMix64(77 * p + m)
    seen = set()
    for _ in range(40):
        rows = [[rng.below(F.order) if rng.below(2) else 0 for _ in range(ncols)]
                for _ in range(rng.below(ncols))]
        keep = [c for c in range(ncols) if rng.below(3)]
        kernel = [x for x in vectors if all(_dot(F, row, x) == 0 for row in rows)]
        vanishes = all(x[c] == 0 for x in kernel for c in range(ncols) if c not in keep)
        full, kept = _nullities(rows, ncols, keep, F)
        assert vanishes == (kept == full)
        seen.add((vanishes, len(keep) < ncols))
    # both answers occur, and some kernel vanishes on columns it really drops
    assert seen >= {(True, True), (False, True)}
