import random
from fractions import Fraction

import numpy as np
import pytest

from schemekit import codes
from schemekit import scheme as scheme_module
from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.codes import (
    GRAY_BITS,
    Code,
    dual_code,
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
from schemekit.exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    compositions,
    substitute_polys,
)
from schemekit.genham import build_explicit, h_vector
from schemekit.scheme import TranslationStructure, eigenmatrix

from oracles import dual_weight_enumerator_direct, exact_idempotents


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
            word.append(int(tr.index(chunk)))
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


def test_inner_distribution_over_a_base_of_many_classes():
    # 1024 classes: one composition part per class, no recursion per part
    code = Code([(0,), (5,)], group_scheme([2] * 10), 1)
    a = inner_distribution(code)
    assert len(a) == 1024
    assert (a[0], a[5]) == (1, 1) and sum(a) == 2


def pair_count_enumerator(code):
    """The weight enumerator by the scalar definition: h_vector on every
    ordered pair, counted in a dict."""
    counts = {}
    for x in code.words:
        for y in code.words:
            h = h_vector(x, y, code.base)
            counts[h] = counts.get(h, 0) + 1
    return MPoly(code.base.d + 1,
                 {h: GaussRat(Fraction(c, len(code))) for h, c in counts.items()})


@pytest.mark.parametrize("base", [one_class(3), hamming(2, 2),
                                  group_scheme([2, 2]), cycle_scheme(5),
                                  build_explicit(cycle_scheme(4), 2)],
                         ids=["one_class", "hamming", "group", "cycle",
                              "composite"])
def test_inner_distribution_is_enumerator_coefficients(base):
    rng = random.Random(base.v * 100 + base.d)
    for n in (1, 2, 3):
        for _ in range(3):
            code = random_code(rng, base, n, 10)
            comps = compositions(n, base.d + 1)
            W = weight_enumerator(code)
            assert W == pair_count_enumerator(code)
            a = inner_distribution(code)
            assert a == [W.coefficient(c).re for c in comps]
            # oracle: count the ordered pairs directly
            counts = dict.fromkeys(comps, 0)
            for x in code.words:
                for y in code.words:
                    counts[h_vector(x, y, base)] += 1
            assert a == [Fraction(counts[c], len(code)) for c in comps]


def _random_words(seed, v, n, size):
    rng = random.Random(seed)
    words = set()
    while len(words) < size:
        words.add(tuple(rng.randrange(v) for _ in range(n)))
    return sorted(words)


@pytest.mark.parametrize("base, n, size", [
    (one_class(2), 5, 1),
    (group_scheme([4]), 3, 1),
    (group_scheme([12]), 70, 5),
    (group_scheme([12]), 35, 6),
], ids=["binary_one_word", "group4_one_word", "z12_n70", "z12_n35"])
def test_weight_enumerator_matches_pair_count(base, n, size):
    """One-word codes, and codes over Z12 (d = 11) whose profile keys are
    Python ints: n = 35 is the first length with (n+1)^(d+1) > 2^62, and
    at n = 70 an int64 key would wrap and merge distinct profiles."""
    code = Code(_random_words(base.v * 1000 + n, base.v, n, size), base)
    assert weight_enumerator(code) == pair_count_enumerator(code)


def test_weight_enumerator_over_several_row_blocks(monkeypatch):
    """A binary code whose pairs span several row blocks, the last one
    short, against a bincount of Hamming distances; the key factor is
    formed once per call, not once per block."""
    n, size = 12, 1500
    code = mk(_random_words(4242, 2, n, size))
    blocks = scheme_module._row_blocks(size, size)
    step = blocks[0].stop
    assert len(blocks) > 2 and size % step != 0
    factors = []
    key_factor = codes._key_factor
    monkeypatch.setattr(codes, "_key_factor",
                        lambda *args: factors.append(args) or key_factor(*args))
    bits = np.array(code.words) @ (1 << np.arange(n)[::-1])
    popcount = np.array([bin(x).count("1") for x in range(2**n)])
    hist = np.bincount(popcount[bits[:, None] ^ bits[None, :]].ravel(),
                       minlength=n + 1)
    want = MPoly(2, {(n - w, w): GaussRat(Fraction(int(c), size))
                     for w, c in enumerate(hist) if c})
    assert weight_enumerator(code) == want
    assert len(factors) == 1


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
    with pytest.raises(SizeCapExceeded,
                       match=r"^2\^2 oracle vertices exceeds cap 2$"):
        dual_weight_enumerator_direct(c, cap=2)
    assert dual_weight_enumerator_direct(c, cap=4) == \
        dual_weight_enumerator_direct(c)


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


def is_additive_loop(code):
    """Oracle: scan pairs (a, b) in word order for a sum outside the code."""
    exps, group = codes._flat_exponents(code)
    orders = np.array(group.orders, dtype=np.int64)
    word_set = {tuple(r) for r in exps.tolist()}
    for a in exps:
        sums = (a[None, :] + exps) % orders[None, :]
        for b, s in zip(exps.tolist(), sums.tolist()):
            if tuple(s) not in word_set:
                return False, (tuple(a.tolist()), tuple(b))
    return True, None


def _additive_variants(rng, base, n):
    """A random additive code, the same words shuffled, one word dropped
    and one word added (each placed at a random position)."""
    code = random_additive_code(rng, base, n)
    words = list(code.words)
    rng.shuffle(words)
    out = [code, Code(words, base, n)]
    if len(words) > 1:
        out.append(Code(words[1:], base, n))
    extra = tuple(rng.randrange(base.v) for _ in range(n))
    if extra not in words:
        words.insert(rng.randrange(len(words) + 1), extra)
        out.append(Code(words, base, n))
    return out


@pytest.mark.parametrize("block", [None, 7, 1],
                         ids=["default_block", "block7", "block1"])
def test_is_additive_matches_loop(block, monkeypatch):
    """Verdicts and first witnesses equal the pair loop's, also when the
    sums are formed over many short row blocks."""
    if block is not None:
        monkeypatch.setattr(scheme_module, "_BLOCK", block)
    rng = random.Random(7707)
    verdicts = set()
    for base in (BINARY, Z4, group_scheme([2, 2]), one_class(3), hamming(2, 2),
                 cycle_scheme(4), group_scheme([2, 4])):
        for n in (1, 2, 3):
            for _ in range(3):
                for code in _additive_variants(rng, base, n):
                    got = is_additive(code)
                    assert got == is_additive_loop(code)
                    verdicts.add(got[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("base, n", [(BINARY, 64), (BINARY, 70), (Z4, 32),
                                     (group_scheme([2, 4]), 40)],
                         ids=["binary64", "binary70", "z4_32", "z2z4_40"])
def test_is_additive_matches_loop_long_words(base, n):
    """Past 2^63 group elements the sums are still looked up exactly:
    {0, e1, e2} is not additive (e1 + e2 is missing); over Z2 adding
    e1 + e2 closes it."""
    zero = (0,) * n
    e1 = (1,) + zero[1:]
    e2 = (0, 1) + zero[2:]
    code = Code([zero, e1, e2], base, n)
    assert is_additive(code) == is_additive_loop(code)
    assert is_additive(code)[0] is False
    with pytest.raises(NotAdditive):  # the cap admits every candidate
        dual_code(code, cap=base.v**n)
    e12 = (1, 1) + zero[2:]
    closed = Code([zero, e1, e2, e12], base, n)
    if base is BINARY:
        assert is_additive(closed) == is_additive_loop(closed) == (True, None)
    rng = random.Random(n)
    for code in _additive_variants(rng, base, n):
        assert is_additive(code) == is_additive_loop(code)


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


@pytest.mark.parametrize("words", [[(0,) * 64, (1,) * 64],
                                   [(1,) * 64, (0, 1) * 32]],
                         ids=["additive", "not-additive"])
def test_dual_code_checks_the_cap_before_additivity(monkeypatch, words):
    """The |C|^2 closure scan is not run for a dual past the cap, so a
    code that is over it and not additive is refused for its size."""
    def fail(code):
        raise AssertionError("is_additive ran before the cap was checked")

    monkeypatch.setattr(codes, "is_additive", fail)
    with pytest.raises(SizeCapExceeded,
                       match=r"^2\^64 candidate words exceeds cap 4096$"):
        dual_code(Code(words, BINARY))


def dual_code_full_pairing(code):
    """Oracle: pair every candidate word with every word of the code."""
    exps, group = codes._flat_exponents(code)
    orders = np.array(group.orders, dtype=np.int64)
    L = int(np.lcm.reduce(orders))
    candidates = group.digits(np.arange(group.size))
    pairing = (candidates * (L // orders)) @ exps.T % L
    member = np.flatnonzero((pairing == 0).all(axis=1))
    words = TranslationStructure((code.base.v,) * code.n).digits(member)
    return [tuple(w) for w in words.tolist()]


def test_dual_code_matches_full_pairing():
    """The additive codes of test_is_additive_matches_loop, shuffled too:
    pairing with the greedy generators gives the same dual, word order
    included, and the generators span the code."""
    rng = random.Random(7707)
    checked = 0
    for base in (BINARY, Z4, group_scheme([2, 2]), one_class(3), hamming(2, 2),
                 cycle_scheme(4), group_scheme([2, 4])):
        for n in (1, 2, 3):
            for _ in range(3):
                for code in _additive_variants(rng, base, n):
                    if not is_additive(code)[0]:
                        continue
                    assert list(dual_code(code).words) == dual_code_full_pairing(code)
                    exps, group = codes._flat_exponents(code)
                    gens = codes._generators(exps, group)
                    assert len(gens) <= max(1, len(code).bit_length())
                    span = {tuple([0] * exps.shape[1])}
                    for g in gens.tolist():
                        span |= {tuple((np.add(s, t * np.array(g))
                                        % group.orders).tolist())
                                 for s in span for t in range(1, 5)}
                    assert span == {tuple(w) for w in exps.tolist()}
                    checked += 1
    assert checked > 100


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


def test_translation_duality_check_honours_the_cap():
    """The constant Z4 words of length 7 have a dual of 4^6 words among
    4^7 candidates: refused at the default cap, checked above it."""
    c = Code([(x,) * 7 for x in range(4)], Z4)
    with pytest.raises(SizeCapExceeded,
                       match=r"^4\^7 candidate words exceeds cap 4096$"):
        translation_duality_check(c)
    assert translation_duality_check(c, cap=4**7)


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


def _z4_codes(seed, count):
    """Random Z4 codes at n = 1..4, additive and not, in turn."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 1 + k % 4
        if k % 2:
            out.append(random_code(rng, Z4, n, 12))
        else:
            out.append(random_additive_code(rng, Z4, n))
    return out


def test_lee_form_matches_polynomial_substitution():
    """The re-indexed Lee form against the substitution it stands for."""
    s = MPoly.variable(0, 2)
    t = MPoly.variable(1, 2)
    for c in _z4_codes(3307, 16):
        z = z4_enumerators(c)
        assert z.lee == substitute_polys(z.symmetrized, [s * s, s * t, t * t])


def test_lee_transform_matches_polynomial_substitution():
    """The right side of the Gray/Lee identity, taken as the MacWilliams
    transform on the Lee fusion, against the substitution of its
    printed form."""
    s = MPoly.variable(0, 2)
    t = MPoly.variable(1, 2)
    for c in _z4_codes(5519, 16):
        swe = z4_enumerators(c).symmetrized
        want = substitute_polys(swe, [(s + t) ** 2, s * s - t * t, (s - t) ** 2])
        want = want * GaussRat(Fraction(1, len(c)))
        got = codes._lee(macwilliams_transform(swe, codes._LEE_P, 4, len(c)))
        assert got == want


def test_gray_lee_check_rejects_a_wrong_dual(monkeypatch):
    """With dual_code returning the code itself, a code whose size is not
    2^n has no dual of that size, and the identity fails."""
    rng = random.Random(7129)
    codes_checked = []
    while len(codes_checked) < 6:
        c = random_additive_code(rng, Z4, 1 + len(codes_checked) % 3)
        if len(c) ** 2 != 4 ** c.n:
            codes_checked.append(c)
    for c in codes_checked:
        assert gray_lee_check(c)
    monkeypatch.setattr(codes, "dual_code", lambda code, cap: code)
    for c in codes_checked:
        assert not gray_lee_check(c)
