"""Codes in composite schemes: enumerators, transforms, and duals.

A code is a set of words over the vertex set of a base scheme.  Its
weight enumerator collects pair profiles as a homogeneous polynomial,
counted block-wise from integer profile keys (`_profile_keys`): one
exact matmul of one-hot words against a per-code key factor, in float64
while the keys stay below 2^53.  The transform sends it to the dual
enumerator, the exact substitution t -> P^-1 t scaled by v^n/|C|,
computed as the enumerator's coefficient vector times the induced matrix
of Q = v P^-1.  For additive codes over a translation scheme the dual
code is computed by character-pairing arithmetic (no root-of-unity
numerics), and the transform of the enumerator must equal the dual
code's enumerator exactly.  The Z4 Lee form re-indexes the symmetrized
enumerator's monomials, and the Gray/Lee identity is the same transform
on the self-dual Lee fusion of Z4, so no polynomial is multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    compositions,
)
from .genham import dual_eigenmatrix_gh
from .scheme import (
    DEFAULT_CAP,
    TranslationStructure,
    _check_power_cap,
    _first_cells,
    _first_index,
    _row_blocks,
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


def _key_profile(key, n, d):
    """The profile tuple encoded by a `_profile_keys` key."""
    return tuple(key // (n + 1) ** r % (n + 1) for r in range(d + 1))


def weight_enumerator(code):
    """Homogeneous degree-n polynomial in d+1 variables whose coefficient
    of s^alpha is (1/|C|) times the number of pairs with profile alpha.

    The |C|^2 ordered pairs are profiled by the vectorised key kernel
    `_profile_keys` a block of rows at a time (about 2^20 pairs per
    block, so memory stays O(block) for large codes, beside the one key
    factor of |C| n v entries) and the keys are counted with
    `np.unique`."""
    base, n = code.base, code.n
    words = np.array(code.words, dtype=np.int64)
    size = len(words)
    factor = _key_factor(words, base.relation, base.d)
    counts = {}
    for rows in _row_blocks(size, size):
        keys, freq = np.unique(
            _profile_keys(words[rows], words, base.relation, base.d, factor),
            return_counts=True)
        for k, c in zip(keys.tolist(), freq.tolist()):
            counts[k] = counts.get(k, 0) + c
    return MPoly(base.d + 1,
                 {_key_profile(k, n, base.d): GaussRat(Fraction(c, size))
                  for k, c in counts.items()})


def inner_distribution(code):
    """Vector a with a_r = (1/|C|) #{(x,y) in C^2 : class(x,y) = r},
    classes of the composite scheme in canonical composition order: the
    coefficients of the weight enumerator."""
    W = weight_enumerator(code)
    return [W.coefficient(c).re
            for c in compositions(code.n, code.base.d + 1)]


def macwilliams_transform(enumerator, P, v, code_size):
    """The dual enumerator (v^n/|C|) W(P^-1 t), computed exactly.

    Row gamma of induced(Q, n), Q = v P^-1, holds the coefficients of
    prod_i (Q t)_i^gamma_i = v^n prod_i (P^-1 t)_i^gamma_i, so the
    transform is the coefficient vector of W times induced(Q, n)
    (`genham.dual_eigenmatrix_gh`), divided by |C|.
    """
    if not enumerator.is_homogeneous() or enumerator.degree() < 0:
        raise DimensionMismatch("enumerator must be homogeneous and nonzero")
    if P.nrows != enumerator.nvars:
        raise DimensionMismatch(
            "matrix has %d rows but polynomial has %d variables"
            % (P.nrows, enumerator.nvars))
    n = enumerator.degree()
    comps = compositions(n, enumerator.nvars)
    a = ExactMatrix([[enumerator.coefficient(gamma) for gamma in comps]])
    out = a.scale(Fraction(1, code_size)) @ dual_eigenmatrix_gh(P, v, n)
    return MPoly(enumerator.nvars, dict(zip(comps, out.row(0))))


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
    a then b in word order, whose sum a + b is not a word.  The sums are
    formed a block of rows at a time and looked up as group indices."""
    exps, group = _flat_exponents(code)
    members = group.index(exps)
    for rows in _row_blocks(len(exps), exps.size):
        sums = group.index(exps[rows, None, :] + exps[None, :, :])
        missing = np.isin(sums, members, invert=True)
        bad = _first_index(missing)
        if bad is not None:
            a, b = bad[0] + rows.start, bad[1]
            return False, (tuple(exps[a].tolist()), tuple(exps[b].tolist()))
    return True, None


def _generators(exps, group):
    """Rows of exps (the digits of an additive code) that generate it,
    picked greedily in word order: a word is taken when it lies outside
    the span of those taken before it.  The span grows by the cosets
    span + t g, t = 1, 2, ..., until t g falls back into it."""
    orders = np.array(group.orders, dtype=np.int64)
    in_span = np.zeros(group.size, dtype=bool)
    in_span[0] = True
    span = np.zeros((1, exps.shape[1]), dtype=np.int64)
    taken = []
    for word, index in zip(exps, group.index(exps).tolist()):
        if len(span) == len(exps):
            break
        if in_span[index]:
            continue
        taken.append(word)
        cosets = [span]
        step = word
        while not in_span[group.index(step)]:
            cosets.append((span + step) % orders)
            step = (step + word) % orders
        span = np.concatenate(cosets)
        in_span[group.index(span)] = True
    return np.array(taken, dtype=np.int64).reshape(-1, exps.shape[1])


def dual_code(code, cap=DEFAULT_CAP):
    """The annihilator dual of an additive code.

    Membership is decided by exact character pairing: a is dual to x iff
    sum_j a_j x_j L/m_j = 0 (mod L) where L = lcm of the cyclic orders.
    The pairing is bilinear, so the candidates are paired with a
    generating set of the code only (`_generators`), not every word.
    SizeCapExceeded past cap candidate words v^n, checked first; then
    NotAdditive (with a witness pair) if the code is not additive.
    """
    base, n = code.base, code.n
    _check_power_cap(base.v, n, cap, "candidate words")
    ok, witness = is_additive(code)
    if not ok:
        raise NotAdditive(witness)
    exps, group = _flat_exponents(code)
    orders = np.array(group.orders, dtype=np.int64)
    L = lcm(*group.orders)
    weights = L // orders

    candidates = group.digits(np.arange(group.size))
    pairing = (candidates * weights[None, :]) @ _generators(exps, group).T % L
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


def _merge(poly, nvars, key):
    """The polynomial in nvars variables whose coefficient at key(e)
    sums those of poly at every e sent there: a substitution of
    monomials for variables, which only moves coefficients."""
    terms = {}
    for exps, c in poly.terms.items():
        k = key(*exps)
        terms[k] = terms.get(k, GaussRat(0)) + c
    return MPoly(nvars, terms)


def _lee(swe):
    """The Lee form swe(s^2, s t, t^2) of a symmetrized enumerator."""
    return _merge(swe, 2, lambda e0, e1, e2: (2 * e0 + e1, e1 + 2 * e2))


def z4_enumerators(code):
    """Complete, symmetrized, and Lee weight enumerators of a Z4 code.

    The symmetrized form merges the +-1 difference classes; the Lee form
    is the symmetrized form evaluated at (s^2, s t, t^2), which sends
    s0^e0 s1^e1 s2^e2 to s^(2 e0 + e1) t^(e1 + 2 e2).
    """
    _require_z4(code)
    cwe = weight_enumerator(code)
    swe = _merge(cwe, 3, lambda e0, e1, e2, e3: (e0, e1 + e3, e2))
    return Z4Enumerators(cwe, swe, _lee(swe))


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
    return lhs == _lee(macwilliams_transform(swe, _LEE_P, 4, len(code)))
