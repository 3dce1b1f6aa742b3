"""Composite Hamming-type schemes over an arbitrary base scheme.

For a base scheme A with classes 0..d and words v, w in V^n, the profile
h(v, w) counts how many coordinates fall in each base class.  Words with
profile summing to n, grouped by profile, form an association scheme on
V^n; its classes are indexed by compositions of n into d+1 parts in
canonical order.  The eigenmatrix of the composite scheme is the induced
action of the base eigenmatrix on degree-n monomials, which this module
both computes symbolically and cross-checks against explicit tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SizeCapExceeded
from .exact import (
    ExactMatrix,
    composition_index,
    compositions,
    induced_matrix,
)
from .scheme import (
    AssociationScheme,
    TranslationStructure,
    dual_eigenmatrix,
    eigenmatrix,
)


def h_vector(v, w, base):
    """Profile of a word pair: entry r counts coordinates with
    base relation r."""
    if len(v) != len(w):
        raise DimensionMismatch("words have different lengths")
    counts = [0] * (base.d + 1)
    for x, y in zip(v, w):
        counts[base.relation[x, y]] += 1
    return tuple(counts)


class GHScheme:
    """Symbolic handle on the composite scheme over `base` with word
    length n: class indexing and eigenmatrices without the explicit
    v^n table."""

    def __init__(self, base, n):
        if n < 1:
            raise ValueError("need n >= 1")
        self.base = base
        self.n = n

    @property
    def compositions(self):
        return compositions(self.n, self.base.d + 1)

    @property
    def num_classes(self):
        return len(self.compositions)

    @property
    def v(self):
        return self.base.v**self.n

    def class_of(self, v, w):
        return composition_index(self.n, self.base.d + 1)[h_vector(v, w, self.base)]

    def eigenmatrix(self):
        return eigenmatrix_gh(eigenmatrix(self.base), self.n)

    def __repr__(self):
        return "GHScheme(base v=%d d=%d, n=%d)" % (
            self.base.v, self.base.d, self.n)


def build_explicit(base, n, cap=4096):
    """The composite scheme as an explicit relation table on V^n.

    Vertices are words read in mixed radix (big-endian).  The table is
    verified, which asserts that the composite construction really is an
    association scheme.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    v, d = base.v, base.d
    V = v**n
    if V > cap:
        raise SizeCapExceeded("%d^%d vertices exceeds cap %d" % (v, n, cap))

    # profile of a pair, encoded injectively: sum_r count_r * (n+1)^r
    if (n + 1) ** (d + 1) > 2**62:
        raise SizeCapExceeded("profile key would overflow; reduce n or d")
    words = TranslationStructure((v,) * n).digits(np.arange(V))
    powers = (n + 1) ** np.arange(d + 1, dtype=np.int64)
    key = np.zeros((V, V), dtype=np.int64)
    for j in range(n):
        key += powers[base.relation[np.ix_(words[:, j], words[:, j])]]

    comps = compositions(n, d + 1)
    comp_keys = np.array([int(sum(c[r] * powers[r] for r in range(d + 1)))
                          for c in comps], dtype=np.int64)
    order = np.argsort(comp_keys)
    sorted_keys = comp_keys[order]
    rel = order[np.searchsorted(sorted_keys, key)]

    translation = None
    if base.translation is not None:
        translation = TranslationStructure(base.translation.orders * n)
    return AssociationScheme(rel, translation=translation, check=True)


def eigenmatrix_gh(P, n):
    """Eigenmatrix of the composite scheme: the induced action of the
    base eigenmatrix on degree-n monomials (rows/columns in canonical
    composition order)."""
    return induced_matrix(P, n)


def dual_eigenmatrix_gh(P, v, n):
    """Dual eigenmatrix of the composite scheme: the induced action of
    v*P^-1.  Equals v^n times the inverse of eigenmatrix_gh(P, n)."""
    return induced_matrix(dual_eigenmatrix(P, v), n)


@dataclass
class FormalDuality:
    identity_holds: bool
    self_dual: bool
    row_perm: tuple | None
    col_perm: tuple | None

    def __bool__(self):
        return self.identity_holds


def formal_duality_check(P, v, n):
    """Check the composite duality identity and detect self-duality.

    identity_holds: induced(v*P^-1, n) == v^n * induced(P, n)^-1 exactly.
    self_dual: some class/idempotent reordering makes v*P^-1 equal P
    (identity permutations are tried first, then, for up to 6 rows, row
    orders in lexicographic order, each with its first matching column
    order).
    """
    lhs = induced_matrix(dual_eigenmatrix(P, v), n)
    rhs = induced_matrix(P, n).inverse().scale(v**n)
    identity_holds = lhs == rhs

    dual = dual_eigenmatrix(P, v)
    row_perm = col_perm = None
    if dual == P:
        row_perm, col_perm = tuple(range(P.nrows)), tuple(range(P.ncols))
    elif P.nrows <= 6:
        columns = list(zip(*P.rows()))
        for rp in itertools.permutations(range(P.nrows)):
            col_perm = _match_columns(list(zip(*dual.permuted(rp).rows())),
                                      columns)
            if col_perm is not None:
                row_perm = rp
                break
    return FormalDuality(identity_holds, row_perm is not None, row_perm, col_perm)


def _match_columns(source, target):
    """The lexicographically first cp with source[cp[j]] == target[j] for
    every j, or None.  Equal columns are interchangeable, so giving each
    j the smallest unused equal column is never a wrong choice."""
    unused = list(range(len(source)))
    cp = []
    for col in target:
        c = next((c for c in unused if source[c] == col), None)
        if c is None:
            return None
        unused.remove(c)
        cp.append(c)
    return tuple(cp)


@dataclass
class TransFusion:
    ok: bool
    mapping: tuple | None      # fine class -> coarse class
    split_classes: dict | None  # coarse class -> tuple of fine classes
    detail: str = ""


def fusion_check_trans(base, m, n, cap=4096):
    """Check that the m-fold composite over the n-fold composite coarsens
    to the (m*n)-fold composite over the base.

    Both schemes are built explicitly on the identified vertex set
    V^(m*n); the check passes iff every class of the coarse scheme is a
    union of classes of the fine scheme.  The returned report carries the
    fine -> coarse class mapping and which coarse classes split.
    """
    if base.v ** (m * n) > cap:
        raise SizeCapExceeded("%d^%d vertices exceeds cap %d"
                              % (base.v, m * n, cap))
    coarse = build_explicit(base, m * n, cap=cap)
    inner = build_explicit(base, n, cap=cap)
    fine = build_explicit(inner, m, cap=cap)
    pairs = np.stack([fine.relation.ravel(), coarse.relation.ravel()], axis=1)
    uniq = np.unique(pairs, axis=0)
    fine_ids = uniq[:, 0]
    if len(np.unique(fine_ids)) != len(fine_ids):
        dup = fine_ids[np.flatnonzero(np.diff(fine_ids) == 0)[0]]
        return TransFusion(False, None, None,
                           "fine class %d meets several coarse classes" % int(dup))
    mapping = np.full(fine.d + 1, -1, dtype=np.int64)
    mapping[uniq[:, 0]] = uniq[:, 1]
    split = {}
    for c in range(coarse.d + 1):
        members = tuple(int(f) for f in np.flatnonzero(mapping == c))
        if len(members) > 1:
            split[c] = members
    return TransFusion(True, tuple(int(x) for x in mapping), split)
