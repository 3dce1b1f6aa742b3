"""Codes in composite schemes: enumerators, transforms, and duals.

A code is a set of words over the vertex set of a base scheme.  This
module works in integers until it returns a result.  Pair profiles are
counted as integers (`_pair_counts`) from block-wise integer profile
keys (`_profile_keys`: one exact matmul of one-hot words against a
per-code key factor, in float64 while the keys stay below 2^53).  The
weight enumerator, the inner distribution and the Z4 complete,
symmetrized and Lee forms read those counts, the Z4 forms merge them,
and each divides by |C| once per term.  The transform, the exact
substitution t -> P^-1 t scaled by v^n/|C|, multiplies one vector of
Gaussian-integer numerators with the numerator arrays of the induced
matrix of Q = v P^-1 (`exact.induced_numerators`).  A code over a
translation scheme is additive iff the span of greedily picked
generators has |C| elements; the dual of an additive code pairs those
generators with the candidates by exact character arithmetic, and the
transform of the code's enumerator must equal the dual's exactly.  The
Gray/Lee identity is the transform on the self-dual Lee fusion of Z4,
merged into the Lee monomials, so no polynomial is multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateWords,
    NotAdditive,
)
from .exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    composition_index,
    compositions,
    gauss_product,
    induced_numerators,
)
from .scheme import (
    DEFAULT_CAP,
    TranslationStructure,
    _check_power_cap,
    _first_cells,
    _first_index,
    _row_blocks,
    dual_eigenmatrix,
    eigenmatrix,
)


class Code:
    """A set of distinct words (tuples of base-vertex indices) of equal
    length n over a base scheme."""

    def __init__(self, words, base, n=None):
        words = [tuple(int(x) for x in w) for w in words]
        if not words:
            raise DimensionMismatch("a code needs at least one word")
        if n is None:
            n = len(words[0])
        if n < 1:
            raise DimensionMismatch("word length must be positive")
        seen = {}
        for k, w in enumerate(words):
            if len(w) != n:
                raise DimensionMismatch(
                    "word %d has length %d, expected %d" % (k, len(w), n))
            if any(x < 0 or x >= base.v for x in w):
                raise DimensionMismatch(
                    "word %d uses symbols outside 0..%d" % (k, base.v - 1))
            if w in seen:
                raise DuplicateWords(
                    "word %r appears at positions %d and %d" % (w, seen[w], k))
            seen[w] = k
        self.words = tuple(words)
        self.base = base
        self.n = n

    def __len__(self):
        return len(self.words)

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        return (self.n == other.n and self.base is other.base
                and set(self.words) == set(other.words))

    def __repr__(self):
        return "Code(%d words of length %d over v=%d)" % (
            len(self.words), self.n, self.base.v)


def _key_factor(ys, relation, d):
    """The right factor Y of the key product for the words ys (see
    `_profile_keys`): Y[b, j v + s] = (n+1)^relation[s, ys[b, j]].

    Its dtype is the narrowest exact one for keys below (n+1)^(d+1):
    float64 while that bound is at most 2^53, int64 while it is at most
    2^62, and Python ints (dtype object) beyond."""
    n = ys.shape[1]
    bound = (n + 1) ** (d + 1)
    dtype = (np.float64 if bound <= 2**53 else
             np.int64 if bound <= 2**62 else object)
    coord_key = np.array([(n + 1) ** r for r in range(d + 1)],
                         dtype=dtype)[relation]
    return coord_key.T[ys].reshape(len(ys), -1)


def _profile_keys(xs, ys, relation, d, factor=None):
    """Profile keys of every pair of rows of xs and ys (word arrays of
    equal length n over a base with classes 0..d, v vertices).

    Entry (a, b) is sum_j (n+1)^relation[xs[a, j], ys[b, j]], the profile
    h(xs[a], ys[b]) read as digits in base n+1, so the key is injective.
    It is the product X Y^T of the one-hot words X (X[a, j v + s] = 1
    iff xs[a, j] = s) and Y = `_key_factor(ys, relation, d)`, which a
    caller keying several row blocks against one ys passes as `factor`.
    In float64 that is one GEMM, exact since every partial sum is an
    integer below 2^53; the int64 and Python-int tiers add one gathered
    column of Y per coordinate.  Keys are int64 while (n+1)^(d+1) <= 2^62
    and Python ints beyond, so they never wrap.
    """
    if factor is None:
        factor = _key_factor(ys, relation, d)
    n, v = xs.shape[1], len(relation)
    cols = np.arange(n) * v + xs
    if factor.dtype == np.float64:
        onehot = np.zeros((len(xs), n * v))
        onehot[np.arange(len(xs))[:, None], cols] = 1
        return (onehot @ factor.T).astype(np.int64)
    key = np.zeros((len(ys), len(xs)), dtype=factor.dtype)
    for j in range(n):
        key += factor[:, cols[:, j]]
    return key.T


def _pair_counts(code):
    """The profiles of the code's ordered pairs and how many pairs have
    each: (rows, counts), the distinct profiles as tuples of d+1 class
    counts and an int64 array of their pair counts.

    The |C|^2 pairs are keyed by `_profile_keys` a block of rows at a
    time (about 2^20 pairs per block, so memory stays O(block) for large
    codes, beside the one key factor of |C| n v entries), each block's
    keys are counted with `np.unique`, the blocks' counts are merged, and
    the keys are decoded into profiles in one numpy step
    (`_key_profiles`)."""
    base, n, d = code.base, code.n, code.base.d
    size = len(code.words)
    words = np.fromiter(chain.from_iterable(code.words), np.int64,
                        size * n).reshape(size, n)
    factor = _key_factor(words, base.relation, d)
    blocks = [np.unique(_profile_keys(words[rows], words, base.relation, d,
                                      factor), return_counts=True)
              for rows in _row_blocks(size, size)]
    keys, counts = blocks[0]
    if len(blocks) > 1:
        keys, inverse = np.unique(np.concatenate([k for k, _ in blocks]),
                                  return_inverse=True)
        counts = _sum_at(inverse, np.concatenate([c for _, c in blocks]),
                         len(keys))
    return list(map(tuple, _key_profiles(keys, n, d).tolist())), counts


def _key_profiles(keys, n, d):
    """The profiles encoded by an array of `_profile_keys` keys, on a new
    trailing axis of d+1 class counts."""
    powers = np.array([(n + 1) ** r for r in range(d + 1)], dtype=keys.dtype)
    return keys[..., None] // powers % (n + 1)


def _sum_at(inverse, values, size):
    """Sums of values grouped by their entry of inverse, 0..size-1."""
    total = np.zeros(size, dtype=values.dtype)
    np.add.at(total, inverse, values)
    return total


def _poly(rows, nums, den):
    """The polynomial sum_t (nums[0][t] + nums[1][t] i) / den s^rows[t]
    (nums[1] absent for real coefficients), rows distinct exponent
    tuples: one GaussRat per nonzero term."""
    if len(nums) == 1:
        terms = {e: GaussRat(Fraction(a, den))
                 for e, a in zip(rows, nums[0].tolist()) if a}
    else:
        terms = {e: GaussRat(Fraction(a, den), Fraction(b, den))
                 for e, a, b in zip(rows, *(x.tolist() for x in nums))
                 if a or b}
    return MPoly(len(rows[0]), terms)


def weight_enumerator(code):
    """Homogeneous degree-n polynomial in d+1 variables whose coefficient
    of s^alpha is (1/|C|) times the number of pairs with profile alpha:
    the integer pair counts of `_pair_counts`, divided by |C| once per
    term."""
    rows, counts = _pair_counts(code)
    return _poly(rows, [counts], len(code))


def inner_distribution(code):
    """Vector a with a_r = (1/|C|) #{(x,y) in C^2 : class(x,y) = r},
    classes of the composite scheme in canonical composition order: the
    coefficients of the weight enumerator, read off the pair counts."""
    rows, counts = _pair_counts(code)
    index = composition_index(code.n, code.base.d + 1)
    out = [Fraction(0)] * len(index)
    for alpha, c in zip(rows, counts.tolist()):
        out[index[alpha]] = Fraction(c, len(code))
    return out


def _transform(enumerator, P, v, code_size):
    """The dual enumerator of `macwilliams_transform` as numerators:
    (rows, nums, den) for `_poly`, rows every composition of n.

    The enumerator is read as one vector of Gaussian-integer numerators
    a over one denominator D and multiplied with the numerator arrays of
    induced(Q, n), Q = `dual_eigenmatrix(P, v)`, from the induced kernel
    `exact.induced_numerators`, by `exact.gauss_product`; the result is
    over D D_Q^n |C|.  Every entry and partial sum of the product is at
    most A L^n in each part, for A = sum |Re a| + |Im a| and L the
    largest row l1 norm of Q's numerators: the kernel's bound."""
    if not enumerator.is_homogeneous() or enumerator.degree() < 0:
        raise DimensionMismatch("enumerator must be homogeneous and nonzero")
    k = enumerator.nvars
    if P.nrows != k:
        raise DimensionMismatch(
            "matrix has %d rows but polynomial has %d variables"
            % (P.nrows, k))
    n = enumerator.degree()
    index = composition_index(n, k)
    terms = enumerator.terms.items()
    D = lcm(*(f.denominator for _, c in terms for f in (c.re, c.im)))
    re, im = [0] * len(index), [0] * len(index)
    for gamma, c in terms:
        re[index[gamma]] = c.re.numerator * (D // c.re.denominator)
        im[index[gamma]] = c.im.numerator * (D // c.im.denominator)
    qre, qim, dq = dual_eigenmatrix(P, v).numerators()
    L = max(sum(map(abs, chain(qre[j], qim[j] if qim else ())))
            for j in range(k))
    A = sum(map(abs, re)) + sum(map(abs, im))
    induced = induced_numerators(qre, qim, n)
    nums = gauss_product(np.matmul, (re, im if any(im) else None),
                         (induced[0], induced[1] if qim else None), A * L**n)
    return (compositions(n, k), [x for x in nums if x is not None],
            D * dq**n * code_size)


def macwilliams_transform(enumerator, P, v, code_size):
    """The dual enumerator (v^n/|C|) W(P^-1 t), computed exactly.

    Row gamma of induced(Q, n), Q = v P^-1, holds the coefficients of
    prod_i (Q t)_i^gamma_i = v^n prod_i (P^-1 t)_i^gamma_i, so the
    transform is the coefficient vector of W times induced(Q, n), divided
    by |C|: one integer vector-matrix product on numerators (`_transform`)
    and one GaussRat per nonzero term of the result.
    """
    return _poly(*_transform(enumerator, P, v, code_size))


# -- additive codes over translation schemes ---------------------------


def _flat_exponents(code):
    """Element digits of every word, one row per word, and the product
    group of V^n they live in."""
    tr = code.base.translation
    if tr is None:
        raise DimensionMismatch("base scheme has no translation structure")
    exps = tr.digits(code.words).reshape(len(code.words), -1)
    return exps, TranslationStructure(tr.orders * code.n)


def is_additive(code):
    """True iff the word set is a subgroup of the translation group.

    Returns (True, None) or (False, (a, b)) for the first pair, scanning
    a then b in word order, whose sum a + b is not a word.  It is decided
    by the span of the words (`_generators`); the |C|^2 scan for the
    witness (`_closure_witness`) runs only for a code that is not
    additive."""
    exps, group = _flat_exponents(code)
    if _generators(exps, group) is not None:
        return True, None
    return False, _closure_witness(exps, group)


def _closure_witness(exps, group):
    """The first pair (a, b) of rows of exps, scanning a then b in row
    order, whose sum is not a row, as digit tuples, or None if the rows
    are closed under addition.  The sums are formed a block of rows at a
    time and looked up as group indices."""
    members = group.index(exps)
    for rows in _row_blocks(len(exps), exps.size):
        sums = group.index(exps[rows, None, :] + exps[None, :, :])
        bad = _first_index(np.isin(sums, members, invert=True))
        if bad is not None:
            a, b = bad[0] + rows.start, bad[1]
            return tuple(exps[a].tolist()), tuple(exps[b].tolist())
    return None


def _generators(exps, group):
    """Rows of exps (the digits of a code's words) that generate the
    code, or None if it is not additive.

    They are picked greedily in word order: a word is taken when it lies
    outside the span of those taken before it, and the span grows by the
    cosets span + t g, t = 1, 2, ..., until t g falls back into it.
    Every word then lies in the span, so the code is additive iff the
    span has |C| elements; the search stops as soon as the span would
    outgrow that, so no span larger than the code is formed."""
    orders = np.array(group.orders, dtype=np.int64)
    size = len(exps)
    in_span = {0}
    span = np.zeros((1, exps.shape[1]), dtype=np.int64)
    taken = []
    for word, index in zip(exps, group.index(exps).tolist()):
        if index in in_span:
            continue
        taken.append(word)
        cosets = [span]
        step = word
        while group.index(step) not in in_span:
            if len(span) * (len(cosets) + 1) > size:
                return None
            cosets.append((span + step) % orders)
            step = (step + word) % orders
        span = np.concatenate(cosets)
        in_span.update(group.index(span).tolist())
    return np.array(taken, dtype=np.int64).reshape(-1, exps.shape[1])


def dual_code(code, cap=DEFAULT_CAP):
    """The annihilator dual of an additive code.

    Membership is decided by exact character pairing: a is dual to x iff
    sum_j a_j x_j L/m_j = 0 (mod L) where L = lcm of the cyclic orders.
    The pairing is bilinear, so the candidates are paired with a
    generating set of the code only (`_generators`, which also decides
    that the code is additive), not every word.  SizeCapExceeded past
    cap candidate words v^n, checked first; then NotAdditive (with the
    witness pair of `is_additive`) if the code is not additive.
    """
    base, n = code.base, code.n
    _check_power_cap(base.v, n, cap, "candidate words")
    exps, group = _flat_exponents(code)
    generators = _generators(exps, group)
    if generators is None:
        raise NotAdditive(_closure_witness(exps, group))
    orders = np.array(group.orders, dtype=np.int64)
    L = lcm(*group.orders)
    weights = L // orders

    candidates = group.digits(np.arange(group.size))
    pairing = (candidates * weights[None, :]) @ generators.T % L
    member = (pairing == 0).all(axis=1)
    words = TranslationStructure((base.v,) * n).digits(np.flatnonzero(member))
    return Code(words.tolist(), base, n)


def translation_duality_check(code, cap=DEFAULT_CAP):
    """True iff the dual code's enumerator equals the transform of the
    code's enumerator, exactly.  The transform takes P's rows in the
    order of the classes of the dual words: row j holds the class sums
    of the character of class j's first element under `dual_code`'s
    pairing, rounded to Gaussian integers and looked up among P's rows.
    False if those are not P's rows in some order.  Raises as
    `dual_code` under `cap` does (NotAdditive, SizeCapExceeded)."""
    base = code.base
    P = eigenmatrix(base)
    dual = dual_code(code, cap)
    tr, c, k = base.translation, base.relation[0], base.d + 1
    digits = tr.digits(np.arange(tr.size))
    L = lcm(*tr.orders)
    pairing = (digits[_first_cells(c, k)] * (L // np.array(tr.orders))
               @ digits.T)
    sums = np.exp(2j * np.pi / L * pairing) @ (c[:, None] == np.arange(k))
    re, im, D = P.numerators()
    index = {(tuple(a), tuple(b)): i
             for i, (a, b) in enumerate(zip(re, im or [[0] * k] * k))}
    keys = np.rint(np.stack([sums.real, sums.imag], 1) * D).astype(int)
    order = [index.get(tuple(map(tuple, key))) for key in keys.tolist()]
    if set(order) != set(range(k)):
        return False
    lhs = weight_enumerator(dual)
    rhs = macwilliams_transform(weight_enumerator(code), P.permuted(order),
                                base.v, len(code))
    return lhs == rhs


# -- Z4 specializations ------------------------------------------------

# vertex identification of Z4 with binary pairs: 0->00, 1->01, 2->11, 3->10
GRAY_BITS = ((0, 0), (0, 1), (1, 1), (1, 0))


@dataclass
class Z4Enumerators:
    complete: MPoly     # 4 variables, one per difference class
    symmetrized: MPoly  # 3 variables: classes {0}, {1,3}, {2}
    lee: MPoly          # 2 variables, degree 2n


def _require_z4(code):
    tr = code.base.translation
    if code.base.v != 4 or tr is None or tuple(tr.orders) != (4,):
        raise DimensionMismatch("expected a code over the Z4 group scheme")


def _merge(rows, nums, image):
    """Terms (rows, nums) under the substitution of the monomial with
    exponents image[i] for variable i, which only moves coefficients:
    the exponent row e goes to e image, and the numerators of rows sent
    to one image are summed."""
    merged, inverse = np.unique(np.array(rows) @ np.array(image), axis=0,
                                return_inverse=True)
    return (list(map(tuple, merged.tolist())),
            [_sum_at(inverse, x, len(merged)) for x in nums])


# the monomials put for the variables by `_merge`: the symmetrized form
# is cwe(s0, s1, s2, s1), and the Lee form of a symmetrized one is
# swe(s^2, s t, t^2)
_SYMMETRIZED = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0))
_LEE = ((2, 0), (1, 1), (0, 2))


def z4_enumerators(code):
    """Complete, symmetrized, and Lee weight enumerators of a Z4 code.

    All three merge the integer pair counts of `_pair_counts` and divide
    by |C| once per term.  The symmetrized form merges the +-1 difference
    classes; the Lee form is the symmetrized form evaluated at (s^2, s t,
    t^2), which sends s0^e0 s1^e1 s2^e2 to s^(2 e0 + e1) t^(e1 + 2 e2).
    """
    _require_z4(code)
    rows, counts = _pair_counts(code)
    swe = _merge(rows, [counts], _SYMMETRIZED)
    size = len(code)
    return Z4Enumerators(_poly(rows, [counts], size), _poly(*swe, size),
                         _poly(*_merge(*swe, _LEE), size))


def gray_image(code):
    """The code's image under the vertex identification above, as a
    binary code of length 2n."""
    _require_z4(code)
    from .builders import one_class
    words = []
    for w in code.words:
        bits = []
        for x in w:
            bits.extend(GRAY_BITS[x])
        words.append(tuple(bits))
    return Code(words, one_class(2), 2 * code.n)


# The eigenmatrix of the Lee fusion {0}, {1, 3}, {2} of the Z4 scheme,
# self-dual (P^2 = 4 I); row j writes the image of s_j in the identity,
# (s+t)^2, s^2 - t^2 or (s-t)^2, over (s^2, s t, t^2).
_LEE_P = ExactMatrix([[1, 2, 1], [1, 0, -1], [1, -2, 1]])


def gray_lee_check(code, cap=DEFAULT_CAP):
    """Verify the Lee-enumerator duality identity exactly:

        W_dual(s^2, s t, t^2) = (1/|C|) W((s+t)^2, s^2 - t^2, (s-t)^2)

    with W the symmetrized enumerator.  The right side is the MacWilliams
    transform of W on the Lee fusion scheme, whose eigenmatrix `_LEE_P`
    is its own dual, read in the Lee monomials.  Raises as `dual_code`
    under `cap` does (NotAdditive, SizeCapExceeded); returns True/False.
    """
    _require_z4(code)
    lhs = z4_enumerators(dual_code(code, cap)).lee
    swe = z4_enumerators(code).symmetrized
    rows, nums, den = _transform(swe, _LEE_P, 4, len(code))
    return lhs == _poly(*_merge(rows, nums, _LEE), den)
