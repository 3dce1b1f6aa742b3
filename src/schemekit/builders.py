"""Built-in scheme families.

All builders hand a class vector c to the scheme, whose table c[y - x]
is valid by construction (the unit tests run verify_axioms on small
instances of each); H(n, q) is the composite over K_q = one_class(q),
built and verified by `genham.build_explicit`.  All attach an exact
eigenmatrix whenever one exists over the Gaussian rationals.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SizeCapExceeded, SnapFailure
from .exact import ExactMatrix
from .genham import build_explicit, eigenmatrix_gh
from .scheme import (
    DEFAULT_CAP,
    AssociationScheme,
    TranslationStructure,
    _check_power_cap,
    eigenmatrix,
)


def one_class(q, cap=DEFAULT_CAP):
    """The one-class scheme on q >= 2 points: equal / different."""
    if q < 2:
        raise DimensionMismatch("one_class needs q >= 2")
    if q > cap:
        raise SizeCapExceeded("%d vertices exceeds cap %d" % (q, cap))
    P = ExactMatrix([[1, q - 1], [1, -1]])
    return AssociationScheme(np.arange(q) != 0, P=P,
                             translation=TranslationStructure((q,)),
                             check=False)


def hamming(n, q, cap=DEFAULT_CAP):
    """The Hamming scheme H(n, q), classes by distance: the n-fold
    composite over K_q = one_class(q), with P = eigenmatrix_gh of K_q's."""
    if n < 1 or q < 2:
        raise DimensionMismatch("hamming needs n >= 1 and q >= 2")
    _check_power_cap(q, n, cap, "vertices")  # as q^n, even for q > cap
    base = one_class(q, cap)
    scheme = build_explicit(base, n, cap)
    scheme.P = eigenmatrix_gh(base.P, n)
    return scheme


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
    P = None
    if all(4 % m == 0 for m in translation.orders):
        # i^e = re[e] + im[e] i for the exponents e of the characters
        exponents = translation.character_exponents()
        im = np.array([0, 1, 0, -1])[exponents]
        P = ExactMatrix.from_numerators(
            np.array([1, 0, -1, 0])[exponents].tolist(),
            im.tolist() if im.any() else None, 1)
    return AssociationScheme(np.arange(v), P=P, translation=translation,
                             check=False)


def cycle_scheme(m, cap=DEFAULT_CAP):
    """Distance scheme of the m-cycle; classes are cycle distances.

    The exact eigenmatrix is attached when the eigenvalues are Gaussian
    rationals (m in {3, 4, 6}); otherwise the scheme stays numeric-only.
    """
    if m < 3:
        raise DimensionMismatch("cycle_scheme needs m >= 3")
    if m > cap:
        raise SizeCapExceeded("%d vertices exceeds cap %d" % (m, cap))
    z = np.arange(m)
    scheme = AssociationScheme(np.minimum(z, m - z),
                               translation=TranslationStructure((m,)), check=False)
    try:
        eigenmatrix(scheme)
    except SnapFailure:
        pass  # numeric-only mode, scheme.snap_failed stays set
    return scheme
