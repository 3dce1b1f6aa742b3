"""Composite Hamming-type schemes over an arbitrary base scheme.

For a base scheme A with classes 0..d and words v, w in V^n, the profile
h(v, w) counts how many coordinates fall in each base class.  Words with
profile summing to n, grouped by profile, form an association scheme on
V^n; its classes are indexed by compositions of n into d+1 parts in
canonical order: the symmetric-group fusion of the n-th tensor power of
A (Delsarte 1973), which is how the explicit table is built.  The
eigenmatrix of the composite scheme is the induced action of the base
eigenmatrix on degree-n monomials, which this module both computes
symbolically and cross-checks against explicit tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .exact import composition_index, compositions, induced_matrix
from .scheme import DEFAULT_CAP, _labelled_power, dual_eigenmatrix, eigenmatrix


def h_vector(v, w, base):
    """Profile of a word pair: entry r counts coordinates with
    base relation r.

    This is the scalar definition: `GHScheme.class_of` reads one pair
    with it, and the tests use it as the oracle for `build_explicit` and
    for `_profile_keys`, which profiles whole arrays of pairs."""
    if len(v) != len(w):
        raise DimensionMismatch("words have different lengths")
    counts = [0] * (base.d + 1)
    for x, y in zip(v, w):
        counts[base.relation[x, y]] += 1
    return tuple(counts)


def _profile_keys(xs, ys, relation, d):
    """Profile keys of every pair of rows of xs and ys (word arrays of
    equal length n over a base with classes 0..d).

    Entry (a, b) is sum_j (n+1)^relation[xs[a, j], ys[b, j]], the profile
    h(xs[a], ys[b]) read as digits in base n+1, so the key is injective.
    Keys are int64 while (n+1)^(d+1) <= 2^62 and Python ints (dtype
    object) beyond, so they never wrap.
    """
    n = xs.shape[1]
    if (n + 1) ** (d + 1) <= 2**62:
        powers = (n + 1) ** np.arange(d + 1, dtype=np.int64)
    else:
        powers = np.array([(n + 1) ** r for r in range(d + 1)], dtype=object)
    coord_key = powers[relation]
    key = np.zeros((len(xs), len(ys)), dtype=powers.dtype)
    for j in range(n):
        key += coord_key[np.ix_(xs[:, j], ys[:, j])]
    return key


def _key_profile(key, n, d):
    """The profile tuple encoded by a `_profile_keys` key."""
    return tuple(key // (n + 1) ** r % (n + 1) for r in range(d + 1))


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


def build_explicit(base, n, cap=DEFAULT_CAP):
    """The composite scheme as an explicit relation table on V^n.

    Vertices are words read in mixed radix (big-endian).  The class of a
    word pair is its profile, the histogram of its class tuple in the n-th
    tensor power of the base, so the table is that power with each class
    tuple relabelled by its composition index; no word pair is profiled.
    The table is verified, which asserts that the composite construction
    really is an association scheme.
    """
    def profiles(tuples):
        index = composition_index(n, base.d + 1)
        counts = (tuples[:, :, None] == np.arange(base.d + 1)).sum(axis=1)
        return np.array([index[tuple(h)] for h in counts.tolist()])

    return _labelled_power(base, n, cap, profiles)


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

    identity_holds: induced(P, n) induced(v*P^-1, n) == v^n I exactly.
    self_dual: some class/idempotent reordering makes v*P^-1 equal P
    (identity permutations are tried first, then, for up to 6 rows, row
    orders in lexicographic order, each with its first matching column
    order).
    """
    dual = dual_eigenmatrix(P, v)
    product = induced_matrix(P, n) @ induced_matrix(dual, n)
    identity_holds = product.scalar_value() == v**n

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


def fusion_check_trans(base, m, n, cap=DEFAULT_CAP):
    """Check that the m-fold composite over the n-fold composite coarsens
    to the (m*n)-fold composite over the base.

    Both schemes are built explicitly on the identified vertex set
    V^(m*n); the check passes iff every class of the coarse scheme is a
    union of classes of the fine scheme.  The returned report carries the
    fine -> coarse class mapping and which coarse classes split.
    """
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
