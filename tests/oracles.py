"""Reference implementations that the tests compare the package against.

Each is the literal, scalar definition of something the package computes
another way: the mixed-radix encoding of `TranslationStructure.digits` /
`index`, the profile class of `genham.build_explicit`, the
idempotent-based dual enumerator of `codes.macwilliams_transform`, and
the three explicit tables behind `genham.fusion_check_trans`.  They are
slow by design and live here, beside the tests, not in the package.
"""

import itertools
from fractions import Fraction

import numpy as np

from schemekit.exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    composition_index,
    compositions,
)
from schemekit.genham import TransFusion, build_explicit, h_vector
from schemekit.scheme import (
    TranslationStructure,
    _check_power_cap,
    dual_eigenmatrix,
    eigenmatrix,
)


def element(orders, vertex):
    """Element tuple of a vertex in mixed radix (big-endian)."""
    out = []
    for m in reversed(orders):
        out.append(vertex % m)
        vertex //= m
    return tuple(reversed(out))


def vertex(orders, elem):
    """Vertex of an element tuple, its digits taken mod the orders."""
    idx = 0
    for x, m in zip(elem, orders):
        idx = idx * m + (x % m)
    return idx


def class_of(base, v, w):
    """Class index of the word pair (v, w) in the composite scheme over
    `base`: the position of its profile among the compositions."""
    return composition_index(len(v), base.d + 1)[h_vector(v, w, base)]


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
    """Dual enumerator by literal idempotent evaluation.

    Builds each E_beta as the symmetrized sum of Kronecker products of
    the exact base idempotents and evaluates x^T E_beta x over the code;
    the coefficient of t^beta is (v^n / |C|^2) x^T E_beta x.  This never
    touches the induced matrices, so it is an independent check of the
    transform.  SizeCapExceeded past cap vertices v^n.
    """
    base, n = code.base, code.n
    v = base.v
    _check_power_cap(v, n, cap, "oracle vertices")
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


def fusion_check_tables(base, m, n, cap=4096):
    """The fusion of H(m, H(n, base)) onto H(m*n, base) read off tables:
    the fine and the coarse scheme are built explicitly on the identified
    vertex set V^(m*n), and each fine class maps to the coarse class of
    its cells.  SizeCapExceeded past cap vertices."""
    coarse = build_explicit(base, m * n, cap=cap)
    fine = build_explicit(build_explicit(base, n, cap=cap), m, cap=cap)
    f, c = fine.relation.ravel(), coarse.relation.ravel()
    mapping = np.full(fine.d + 1, -1, dtype=np.int64)
    mapping[f] = c
    if (mapping[f] != c).any():
        return TransFusion(False, None, None, "a fine class meets several "
                           "coarse classes")
    members = {k: tuple(np.flatnonzero(mapping == k).tolist())
               for k in range(coarse.d + 1)}
    split = {k: fs for k, fs in members.items() if len(fs) > 1}
    return TransFusion(True, tuple(int(x) for x in mapping), split)
