"""Built-in scheme families.

All builders produce relation tables that are valid by construction
(the unit tests run verify_axioms on small instances of each) and attach
an exact eigenmatrix whenever one exists over the Gaussian rationals.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SizeCapExceeded, SnapFailure
from .exact import ExactMatrix, GaussRat, induced_matrix
from .scheme import AssociationScheme, TranslationStructure, eigenmatrix

DEFAULT_CAP = 4096

# powers of i, for character tables over groups of exponent dividing 4
_I_POW = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))


def one_class(q):
    """The one-class scheme on q >= 2 points: equal / different."""
    if q < 2:
        raise DimensionMismatch("one_class needs q >= 2")
    rel = np.ones((q, q), dtype=np.int64)
    np.fill_diagonal(rel, 0)
    P = ExactMatrix([[1, q - 1], [1, -1]])
    return AssociationScheme(rel, P=P,
                             translation=TranslationStructure((q,)),
                             check=False)


def hamming(n, q, cap=DEFAULT_CAP):
    """The Hamming scheme H(n, q): words in {0..q-1}^n, classes by distance."""
    if n < 1 or q < 2:
        raise DimensionMismatch("hamming needs n >= 1 and q >= 2")
    v = q**n
    if v > cap:
        raise SizeCapExceeded("%d^%d vertices exceeds cap %d" % (q, n, cap))
    translation = TranslationStructure((q,) * n)
    # the class of (x, y) is the Hamming weight of y - x
    weight = (translation.digits(np.arange(v)) != 0).sum(axis=-1)
    rel = weight[translation.difference_table()]
    P = induced_matrix(ExactMatrix([[1, q - 1], [1, -1]]), n)
    return AssociationScheme(rel, P=P, translation=translation, check=False)


def group_scheme(orders, cap=DEFAULT_CAP):
    """The group scheme of Z_m1 x ... x Z_mk: one class per difference.

    When every order divides 4 the character table is Gaussian rational
    and is attached as the exact eigenmatrix, rows in mixed-radix element
    order (so row a is the character x -> prod_j i^((4/m_j) a_j x_j)).
    """
    translation = TranslationStructure(orders)
    v = translation.size
    if v > cap:
        raise SizeCapExceeded("group of order %d exceeds cap %d" % (v, cap))
    rel = translation.difference_table()
    P = None
    if all(4 % m == 0 for m in translation.orders):
        elements = translation.digits(np.arange(v))
        scale = np.array([4 // m for m in translation.orders], dtype=np.int64)
        exponents = (elements * scale) @ elements.T % 4
        P = ExactMatrix([[_I_POW[e] for e in row] for row in exponents.tolist()])
    return AssociationScheme(rel, P=P, translation=translation, check=False)


def cycle_scheme(m, cap=DEFAULT_CAP):
    """Distance scheme of the m-cycle; classes are cycle distances.

    The exact eigenmatrix is attached when the eigenvalues are Gaussian
    rationals (m in {3, 4, 6}); otherwise the scheme stays numeric-only.
    """
    if m < 3:
        raise DimensionMismatch("cycle_scheme needs m >= 3")
    if m > cap:
        raise SizeCapExceeded("%d vertices exceeds cap %d" % (m, cap))
    translation = TranslationStructure((m,))
    k = translation.difference_table()
    scheme = AssociationScheme(np.minimum(k, m - k), translation=translation,
                               check=False)
    try:
        eigenmatrix(scheme)
    except SnapFailure:
        pass  # numeric-only mode, scheme.snap_failed stays set
    return scheme
