"""Composite Hamming-type schemes over an arbitrary base scheme.

For a base scheme A with classes 0..d and words v, w in V^n, the profile
h(v, w) counts how many coordinates fall in each base class.  Words with
profile summing to n, grouped by profile, form an association scheme on
V^n; its classes are indexed by compositions of n into d+1 parts in
canonical order: the symmetric-group fusion of the n-th tensor power of
A (Delsarte 1973).  The explicit table is built as that fusion, by the
orbits of class tuples under one transposition and the n-cycle.  The
eigenmatrix of the composite scheme is the induced action of the base
eigenmatrix on degree-n monomials, computed symbolically.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatch, SizeCapExceeded
from .exact import composition_index, compositions, induced_matrix
from .scheme import DEFAULT_CAP, _orbit_power, dual_eigenmatrix, eigenmatrix


def h_vector(v, w, base):
    """Profile of a word pair: entry r counts coordinates with
    base relation r.

    This is the scalar definition: the tests use it as the oracle for
    `build_explicit` and for `codes._profile_keys`, which profiles whole
    arrays of pairs at once as integer keys (a float64 GEMM of one-hot
    words while the keys stay below 2^53, int64 or Python-int gathers
    beyond)."""
    if len(v) != len(w):
        raise DimensionMismatch("words have different lengths")
    counts = [0] * (base.d + 1)
    for x, y in zip(v, w):
        counts[base.relation[x, y]] += 1
    return tuple(counts)


class GHScheme:
    """Symbolic handle on the composite scheme over `base` with word
    length n: its classes (compositions) and eigenmatrix without the
    explicit v^n table."""

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

    def eigenmatrix(self):
        return eigenmatrix_gh(eigenmatrix(self.base), self.n)

    def __repr__(self):
        return "GHScheme(base v=%d d=%d, n=%d)" % (
            self.base.v, self.base.d, self.n)


def build_explicit(base, n, cap=DEFAULT_CAP):
    """The composite scheme as an explicit relation table on V^n.

    Vertices are words read in mixed radix (big-endian).  The class of a
    word pair is its profile, the histogram of its class tuple in the n-th
    tensor power of the base, so the table is the orbit fusion of that
    power by the symmetric group, generated by the n-cycle and one
    transposition; orbits follow their least class tuple, which is the
    canonical composition order, and no word pair is profiled.  The table
    is verified, which asserts that the composite construction really is
    an association scheme.
    """
    def generators():  # listed only once `_orbit_power`'s caps hold
        positions = list(range(n))
        yield positions[1:] + positions[:1]
        yield positions[1::-1] + positions[2:]

    return _orbit_power(base, n, generators(), cap)


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

    identity_holds: induced(P, n) induced(v*P^-1, n) == v^n I exactly,
    decided at the base as P (v*P^-1) == v I: induced_matrix is
    multiplicative, so the composite identity holds for every n >= 0
    with the base one.  n must still be an int >= 0.
    self_dual: some class/idempotent reordering makes v*P^-1 equal P
    (identity permutations are tried first, then, for up to 6 rows, row
    orders in lexicographic order, each with its first matching column
    order).
    """
    if operator.index(n) < 0:
        raise ValueError("need n >= 0")
    dual = dual_eigenmatrix(P, v)
    identity_holds = (P @ dual).scalar_value() == v

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
    """Check that H(m, H(n, base)) coarsens to H(m*n, base): the fine ->
    coarse class mapping and the coarse classes that split.  A fine class
    is a multiset of m of the N = C(n+d, d) inner classes c_j, the
    compositions of n (multisets in increasing order are in canonical
    order); its profile is the sum of its c_j, so the fusion always holds,
    `ok` True and `detail` "".  ValueError for m or n below 1, and
    SizeCapExceeded past cap fine classes, C(m+N-1, m), before listing.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    N = comb(n + base.d, base.d)
    classes = comb(m + N - 1, m)
    if classes > cap:
        raise SizeCapExceeded("%d fine classes exceeds cap %d" % (classes, cap))
    inner = np.array(compositions(n, base.d + 1), dtype=np.int64)
    fine = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(N), m)), np.int64)
    profiles = sum(inner[js] for js in fine.reshape(classes, m).T)
    coarse = composition_index(m * n, base.d + 1)
    mapping = tuple(coarse[p] for p in map(tuple, profiles.tolist()))
    fines = sorted(range(len(mapping)), key=mapping.__getitem__)
    split = {k: fs for k, group in itertools.groupby(fines, mapping.__getitem__)
             if len(fs := tuple(group)) > 1}
    return TransFusion(True, mapping, split)
