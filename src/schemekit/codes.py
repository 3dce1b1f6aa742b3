"""Codes in composite schemes: enumerators, transforms, and duals.

A code is a set of words over the vertex set of a base scheme.  Its
weight enumerator collects pair profiles as a homogeneous polynomial;
the transform sends it to the dual enumerator, the exact substitution
t -> P^-1 t scaled by v^n/|C|, computed as the enumerator's coefficient
vector times the induced matrix of Q = v P^-1.  For additive codes over
a translation scheme the dual code is computed by character-pairing
arithmetic (no root-of-unity numerics), and the transform of the
enumerator must equal the dual code's enumerator exactly.  A literal
idempotent-based oracle is provided as an independent route to the dual
enumerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateWords,
    NotAdditive,
    SizeCapExceeded,
)
from .exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    compositions,
    induced_matrix,
    substitute_polys,
)
from .genham import h_vector
from .scheme import TranslationStructure, dual_eigenmatrix, eigenmatrix


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


def weight_enumerator(code):
    """Homogeneous degree-n polynomial in d+1 variables whose coefficient
    of s^alpha is (1/|C|) times the number of pairs with profile alpha."""
    base, n = code.base, code.n
    counts = {}
    for x in code.words:
        for y in code.words:
            h = h_vector(x, y, base)
            counts[h] = counts.get(h, 0) + 1
    size = len(code.words)
    return MPoly(base.d + 1,
                 {h: GaussRat(Fraction(c, size)) for h, c in counts.items()})


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
    transform is the coefficient vector of W times induced(Q, n),
    divided by |C|.
    """
    if not enumerator.is_homogeneous() or enumerator.degree() < 0:
        raise DimensionMismatch("enumerator must be homogeneous and nonzero")
    if P.nrows != enumerator.nvars:
        raise DimensionMismatch(
            "matrix has %d rows but polynomial has %d variables"
            % (P.nrows, enumerator.nvars))
    n = enumerator.degree()
    comps = compositions(n, enumerator.nvars)
    size = GaussRat(code_size)
    scaled = {gamma: c / size for gamma, c in enumerator.terms.items()}
    a = ExactMatrix([[scaled.get(gamma, GaussRat(0)) for gamma in comps]])
    out = a @ induced_matrix(dual_eigenmatrix(P, v), n)
    return MPoly(enumerator.nvars, dict(zip(comps, out.row(0))))


def exact_idempotents(scheme):
    """The idempotents E_0..E_d as exact v x v matrices,
    E_i[x][y] = Q[class(x,y), i] / v."""
    P = eigenmatrix(scheme)
    v = scheme.v
    Q = dual_eigenmatrix(P, v)
    vg = GaussRat(v)
    rel = scheme.relation
    return [
        ExactMatrix([[Q[int(rel[x, y]), i] / vg for y in range(v)]
                     for x in range(v)])
        for i in range(scheme.d + 1)
    ]


def _arrangements(beta):
    """Distinct orderings of the multiset with beta[i] copies of i."""
    seq = []
    for i, e in enumerate(beta):
        seq.extend([i] * e)
    return sorted(set(itertools.permutations(seq)))


def dual_weight_enumerator_direct(code, cap=256):
    """Dual enumerator by literal idempotent evaluation (oracle route).

    Builds each E_beta as the symmetrized sum of Kronecker products of
    the exact base idempotents and evaluates x^T E_beta x over the code;
    the coefficient of t^beta is (v^n / |C|^2) x^T E_beta x.  This never
    touches the substitution machinery, so it is an independent check of
    the transform.
    """
    base, n = code.base, code.n
    v = base.v
    if v**n > cap:
        raise SizeCapExceeded("%d^%d exceeds oracle cap %d" % (v, n, cap))
    E = exact_idempotents(base)
    comps = compositions(n, base.d + 1)
    indices = TranslationStructure((v,) * n).index(code.words).tolist()
    size = len(code.words)
    scale = GaussRat(Fraction(v**n, size * size))
    terms = {}
    for beta in comps:
        acc = None
        for arrangement in _arrangements(beta):
            m = E[arrangement[0]]
            for i in arrangement[1:]:
                m = m.kron(E[i])
            acc = m if acc is None else acc + m
        total = GaussRat(0)
        for a in indices:
            for b in indices:
                total = total + acc[a, b]
        coeff = scale * total
        if coeff:
            terms[beta] = coeff
    return MPoly(base.d + 1, terms)


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

    Returns (True, None) or (False, witness_pair)."""
    exps, group = _flat_exponents(code)
    orders = np.array(group.orders, dtype=np.int64)
    word_set = {tuple(r) for r in exps.tolist()}
    for a in exps:
        sums = (a[None, :] + exps) % orders[None, :]
        for b, s in zip(exps.tolist(), sums.tolist()):
            if tuple(s) not in word_set:
                return False, (tuple(a.tolist()), tuple(b))
    return True, None


def dual_code(code, cap=4096):
    """The annihilator dual of an additive code.

    Membership is decided by exact character pairing: a is dual to x iff
    sum_j a_j x_j L/m_j = 0 (mod L) where L = lcm of the cyclic orders.
    Raises NotAdditive (with a witness pair) if the code is not additive.
    """
    ok, witness = is_additive(code)
    if not ok:
        raise NotAdditive(witness)
    exps, group = _flat_exponents(code)
    base, n = code.base, code.n
    v = base.v
    if group.size > cap:
        raise SizeCapExceeded("%d^%d candidate words exceeds cap %d" % (v, n, cap))
    orders = np.array(group.orders, dtype=np.int64)
    L = lcm(*group.orders)
    weights = L // orders

    candidates = group.digits(np.arange(group.size))
    pairing = (candidates * weights[None, :]) @ exps.T % L
    member = (pairing == 0).all(axis=1)
    words = TranslationStructure((v,) * n).digits(np.flatnonzero(member))
    return Code(words.tolist(), base, n)


def translation_duality_check(code):
    """True iff the dual code's enumerator equals the transform of the
    code's enumerator, exactly."""
    base = code.base
    P = eigenmatrix(base)
    dual = dual_code(code)
    lhs = weight_enumerator(dual)
    rhs = macwilliams_transform(weight_enumerator(code), P, base.v, len(code))
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


def z4_enumerators(code):
    """Complete, symmetrized, and Lee weight enumerators of a Z4 code.

    The symmetrized form merges the +-1 difference classes; the Lee form
    is the symmetrized form evaluated at (s^2, s t, t^2).
    """
    _require_z4(code)
    cwe = weight_enumerator(code)
    sym_terms = {}
    for (e0, e1, e2, e3), c in cwe.terms.items():
        key = (e0, e1 + e3, e2)
        sym_terms[key] = sym_terms.get(key, GaussRat(0)) + c
    swe = MPoly(3, sym_terms)
    s = MPoly.variable(0, 2)
    t = MPoly.variable(1, 2)
    lee = substitute_polys(swe, [s * s, s * t, t * t])
    return Z4Enumerators(cwe, swe, lee)


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


def gray_lee_check(code):
    """Verify the Lee-enumerator duality identity exactly:

        W_dual(s^2, s t, t^2) = (1/|C|) W((s+t)^2, s^2 - t^2, (s-t)^2)

    with W the symmetrized enumerator.  Raises NotAdditive for
    non-additive codes; returns True/False.
    """
    _require_z4(code)
    dual = dual_code(code)
    lhs = z4_enumerators(dual).lee
    swe = z4_enumerators(code).symmetrized
    s = MPoly.variable(0, 2)
    t = MPoly.variable(1, 2)
    rhs = substitute_polys(swe, [(s + t) ** 2, s * s - t * t, (s - t) ** 2])
    rhs = rhs * GaussRat(Fraction(1, len(code)))
    return lhs == rhs
