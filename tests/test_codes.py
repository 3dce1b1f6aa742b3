import random
from fractions import Fraction

import pytest

from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.codes import (
    GRAY_BITS,
    Code,
    dual_code,
    dual_weight_enumerator_direct,
    exact_idempotents,
    gray_image,
    gray_lee_check,
    inner_distribution,
    is_additive,
    macwilliams_transform,
    translation_duality_check,
    weight_enumerator,
    z4_enumerators,
)
from schemekit.errors import (
    DimensionMismatch,
    DuplicateWords,
    NotAdditive,
    SizeCapExceeded,
)
from schemekit.exact import ExactMatrix, GaussRat, MPoly, compositions
from schemekit.genham import h_vector
from schemekit.scheme import eigenmatrix


BINARY = one_class(2)
Z4 = group_scheme([4])


def mk(words, base=BINARY):
    return Code([tuple(w) for w in words], base)


def random_code(rng, base, n, max_size):
    universe = base.v**n
    size = rng.randrange(1, min(max_size, universe) + 1)
    picks = rng.sample(range(universe), size)
    words = []
    for i in picks:
        w = []
        for _ in range(n):
            i, digit = divmod(i, base.v)
            w.append(digit)
        words.append(tuple(reversed(w)))
    return Code(words, base, n)


def random_additive_code(rng, base, n):
    """Random subgroup of the translation group, built by closing a few
    random generators under addition."""
    tr = base.translation
    width = len(tr.orders)
    zero = tuple([0] * (width * n))

    def add(a, b):
        return tuple((x + y) % m
                     for x, y, m in zip(a, b, list(tr.orders) * n))

    gens = []
    for _ in range(rng.randrange(0, 3)):
        gens.append(tuple(rng.randrange(m) for m in list(tr.orders) * n))
    group = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = add(cur, g)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    words = []
    for flat in sorted(group):
        word = []
        for j in range(n):
            chunk = flat[j * width:(j + 1) * width]
            word.append(tr.vertex(chunk))
        words.append(tuple(word))
    return Code(words, base, n)


# -- Code container ----------------------------------------------------


def test_code_rejects_duplicates():
    with pytest.raises(DuplicateWords):
        mk([(0, 1), (0, 1)])


def test_code_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        mk([(0, 1), (0,)])


def test_code_rejects_out_of_range():
    with pytest.raises(DimensionMismatch):
        mk([(0, 2)])


def test_code_infers_length():
    c = mk([(0, 1, 1)])
    assert c.n == 3
    assert len(c) == 1


# -- enumerators and distributions -------------------------------------


def test_weight_enumerator_repetition():
    W = weight_enumerator(mk([(0, 0), (1, 1)]))
    assert W == MPoly(2, {(2, 0): GaussRat(1), (0, 2): GaussRat(1)})


def test_weight_enumerator_is_homogeneous():
    rng = random.Random(7211)
    for _ in range(10):
        c = random_code(rng, BINARY, 3, 6)
        W = weight_enumerator(c)
        assert W.is_homogeneous()
        assert W.degree() == 3


def test_inner_distribution_matches_enumerator():
    c = mk([(0, 0), (1, 1), (0, 1)])
    a = inner_distribution(c)
    # order (2,0), (1,1), (0,2); nine ordered pairs over three words
    assert a == [Fraction(3, 3), Fraction(4, 3), Fraction(2, 3)]
    assert sum(a) == len(c)


@pytest.mark.parametrize("base", [one_class(3), hamming(2, 2),
                                  group_scheme([2, 2]), cycle_scheme(5)],
                         ids=["one_class", "hamming", "group", "cycle"])
def test_inner_distribution_is_enumerator_coefficients(base):
    rng = random.Random(base.v * 100 + base.d)
    for n in (1, 2, 3):
        for _ in range(3):
            code = random_code(rng, base, n, 10)
            comps = compositions(n, base.d + 1)
            W = weight_enumerator(code)
            a = inner_distribution(code)
            assert a == [W.coefficient(c).re for c in comps]
            # oracle: count the ordered pairs directly
            counts = dict.fromkeys(comps, 0)
            for x in code.words:
                for y in code.words:
                    counts[h_vector(x, y, base)] += 1
            assert a == [Fraction(counts[c], len(code)) for c in comps]


def test_enumerator_full_space():
    c = mk([(x, y) for x in range(2) for y in range(2)])
    W = weight_enumerator(c)
    # every profile appears binomial(2,k) * 1^k times per word
    assert W == MPoly(2, {(2, 0): GaussRat(1), (1, 1): GaussRat(2),
                          (0, 2): GaussRat(1)})


# -- transform vs direct oracle ----------------------------------------


def test_transform_repetition_code():
    c = mk([(0, 0), (1, 1)])
    W = weight_enumerator(c)
    out = macwilliams_transform(W, eigenmatrix(BINARY), 2, len(c))
    # the even-weight pair code of length 2 is formally self-dual
    assert out == W


def test_transform_matches_direct_oracle_binary():
    rng = random.Random(1893)
    P = eigenmatrix(BINARY)
    for _ in range(12):
        c = random_code(rng, BINARY, 2, 4)
        lhs = macwilliams_transform(weight_enumerator(c), P, 2, len(c))
        assert lhs == dual_weight_enumerator_direct(c)


def test_transform_matches_direct_oracle_z4():
    rng = random.Random(2764)
    P = eigenmatrix(Z4)
    for _ in range(8):
        c = random_code(rng, Z4, 2, 5)
        lhs = macwilliams_transform(weight_enumerator(c), P, 4, len(c))
        assert lhs == dual_weight_enumerator_direct(c)


@pytest.mark.parametrize("base", [hamming(2, 2), cycle_scheme(4)],
                         ids=["hamming", "cycle"])
def test_transform_matches_direct_oracle(base):
    rng = random.Random(base.v * 17 + base.d)
    P = eigenmatrix(base)
    for n in (1, 2):
        for _ in range(4):
            c = random_code(rng, base, n, 6)
            lhs = macwilliams_transform(weight_enumerator(c), P, base.v, len(c))
            assert lhs == dual_weight_enumerator_direct(c)


def test_transform_rejects_inhomogeneous():
    p = MPoly(2, {(1, 0): GaussRat(1), (2, 0): GaussRat(1)})
    with pytest.raises(DimensionMismatch):
        macwilliams_transform(p, eigenmatrix(BINARY), 2, 1)


def test_direct_oracle_cap():
    c = mk([(0, 0), (1, 1)])
    with pytest.raises(SizeCapExceeded):
        dual_weight_enumerator_direct(c, cap=2)


# -- idempotents --------------------------------------------------------


def test_exact_idempotents_binary():
    E = exact_idempotents(BINARY)
    ident = ExactMatrix.identity(2)
    assert E[0] + E[1] == ident
    for Ei in E:
        assert Ei @ Ei == Ei
    assert E[0] @ E[1] == E[0].scale(GaussRat(0))


def test_exact_idempotents_z4():
    E = exact_idempotents(Z4)
    total = E[0]
    for Ei in E[1:]:
        total = total + Ei
    assert total == ExactMatrix.identity(4)
    for Ei in E:
        assert Ei @ Ei == Ei


# -- additive codes and duals -------------------------------------------


def test_is_additive_witness():
    c = mk([(0, 0), (0, 1), (1, 0)])
    ok, witness = is_additive(c)
    assert not ok
    assert witness is not None


def test_dual_code_z4_two_torsion():
    c = Code([(0,), (2,)], Z4)
    d = dual_code(c)
    assert sorted(d.words) == [(0,), (2,)]


def test_dual_code_z4_diagonal():
    c = Code([(a, a) for a in range(4)], Z4)
    d = dual_code(c)
    assert sorted(d.words) == [(0, 0), (1, 3), (2, 2), (3, 1)]


def test_dual_code_binary_even_weight():
    c = mk([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    d = dual_code(c)
    assert sorted(d.words) == [(0, 0, 0), (1, 1, 1)]


def test_dual_code_rejects_non_additive():
    with pytest.raises(NotAdditive):
        dual_code(mk([(0, 0), (0, 1), (1, 0)]))


def test_dual_code_cap():
    c = mk([(0,) * 6, (1,) * 6])
    with pytest.raises(SizeCapExceeded):
        dual_code(c, cap=32)


def test_dual_size_product():
    rng = random.Random(3345)
    for base in (BINARY, Z4, group_scheme([2, 2]), one_class(3), hamming(2, 2),
                 cycle_scheme(4), group_scheme([2, 4])):
        for _ in range(6):
            c = random_additive_code(rng, base, 2)
            d = dual_code(c)
            assert len(c) * len(d) == base.v**2
            dd = dual_code(d)
            assert sorted(dd.words) == sorted(c.words)


def test_translation_duality_random():
    rng = random.Random(9182)
    for base in (BINARY, Z4):
        for _ in range(8):
            c = random_additive_code(rng, base, 2)
            assert translation_duality_check(c)


def test_translation_duality_mixed_group():
    rng = random.Random(551)
    base = group_scheme([2, 4])
    for _ in range(4):
        c = random_additive_code(rng, base, 1)
        assert translation_duality_check(c)


# -- Z4 specializations --------------------------------------------------


def test_gray_bits_table():
    assert GRAY_BITS == ((0, 0), (0, 1), (1, 1), (1, 0))


def test_gray_image_words():
    c = Code([(1, 3), (0, 2)], Z4)
    g = gray_image(c)
    assert g.n == 4
    assert sorted(g.words) == [(0, 0, 1, 1), (0, 1, 1, 0)]
    assert g.base.v == 2


def test_z4_enumerators_two_torsion():
    c = Code([(0,), (2,)], Z4)
    z = z4_enumerators(c)
    assert z.complete == MPoly(4, {(1, 0, 0, 0): GaussRat(1),
                                   (0, 0, 1, 0): GaussRat(1)})
    assert z.symmetrized == MPoly(3, {(1, 0, 0): GaussRat(1),
                                      (0, 0, 1): GaussRat(1)})
    assert z.lee == MPoly(2, {(2, 0): GaussRat(1), (0, 2): GaussRat(1)})


def test_z4_enumerators_merge_units():
    c = Code([(0,), (1,), (2,), (3,)], Z4)
    z = z4_enumerators(c)
    assert z.complete.terms[(0, 1, 0, 0)] == GaussRat(1)
    assert z.complete.terms[(0, 0, 0, 1)] == GaussRat(1)
    assert z.symmetrized.terms[(0, 1, 0)] == GaussRat(2)


def test_z4_requires_z4_base():
    with pytest.raises(DimensionMismatch):
        z4_enumerators(mk([(0, 0)]))
    with pytest.raises(DimensionMismatch):
        gray_image(mk([(0, 0)]))


def test_gray_lee_identity_small():
    assert gray_lee_check(Code([(0,), (2,)], Z4))
    assert gray_lee_check(Code([(0, 0), (1, 1), (2, 2), (3, 3)], Z4))


def test_gray_lee_identity_random():
    rng = random.Random(6417)
    for _ in range(10):
        c = random_additive_code(rng, Z4, 2)
        assert gray_lee_check(c)


def test_lee_enumerator_equals_gray_image_enumerator():
    rng = random.Random(8071)
    for _ in range(8):
        c = random_additive_code(rng, Z4, 2)
        lee = z4_enumerators(c).lee
        gray_W = weight_enumerator(gray_image(c))
        assert lee == gray_W
