import numpy as np
import pytest

from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.errors import DimensionMismatch, SizeCapExceeded, SnapFailure
from schemekit.exact import ExactMatrix, GaussRat
from schemekit.scheme import (
    AssociationScheme,
    certify_eigenmatrix,
    eigenmatrix,
    verify_axioms,
)


def gauss_rows(M):
    return [[str(M[i, j]) for j in range(M.ncols)] for i in range(M.nrows)]


def test_one_class_relation():
    s = one_class(3)
    assert s.v == 3
    assert s.d == 1
    assert (np.diag(s.relation) == 0).all()
    off = s.relation[~np.eye(3, dtype=bool)]
    assert (off == 1).all()
    assert list(map(int, s.valencies())) == [1, 2]


def test_one_class_eigenmatrix():
    for q in (2, 3, 4, 7):
        s = one_class(q)
        assert gauss_rows(s.P) == [["1", str(q - 1)], ["1", "-1"]]
        assert certify_eigenmatrix(s, s.P)


def test_one_class_rejects_tiny():
    with pytest.raises(DimensionMismatch):
        one_class(1)


def test_one_class_cap():
    assert one_class(4096).v == 4096
    with pytest.raises(SizeCapExceeded,
                       match="4097 vertices exceeds cap 4096"):
        one_class(4097)
    with pytest.raises(SizeCapExceeded, match="10 vertices exceeds cap 5"):
        one_class(10, cap=5)


def test_hamming_distance_relation():
    s = hamming(2, 2)
    # vertices 0..3 are big-endian digit pairs 00,01,10,11
    assert s.relation[0, 0] == 0
    assert s.relation[0, 1] == 1
    assert s.relation[0, 2] == 1
    assert s.relation[0, 3] == 2
    assert s.relation[1, 2] == 2
    assert list(map(int, s.valencies())) == [1, 2, 1]


def test_hamming_verifies_and_certifies():
    for n, q in ((2, 2), (3, 2), (2, 3)):
        s = hamming(n, q)
        assert verify_axioms(s.relation).ok
        assert certify_eigenmatrix(s, s.P)


def test_hamming_eigenmatrix_frozen():
    s = hamming(2, 2)
    assert gauss_rows(s.P) == [
        ["1", "2", "1"], ["1", "0", "-1"], ["1", "-2", "1"]]


def test_hamming_translation():
    s = hamming(2, 3)
    assert tuple(s.translation.orders) == (3, 3)
    s.translation.validate(s.relation)


def test_hamming_cap():
    with pytest.raises(SizeCapExceeded):
        hamming(13, 2)
    hamming(13, 2, cap=10000)


def test_group_scheme_difference_classes():
    s = group_scheme([4])
    # class of (x, y) is the difference y - x mod 4
    for x in range(4):
        for y in range(4):
            assert s.relation[x, y] == (y - x) % 4


def test_group_scheme_characters():
    s = group_scheme([4])
    assert gauss_rows(s.P) == [
        ["1", "1", "1", "1"],
        ["1", "i", "-1", "-i"],
        ["1", "-1", "1", "-1"],
        ["1", "-i", "-1", "i"],
    ]
    assert certify_eigenmatrix(s, s.P)


def test_group_scheme_conjugate_square():
    # squaring the order-4 character table permutes the conjugate
    # classes (rows 1 and 3); it is P times conj(P) that gives 4I
    P = group_scheme([4]).P
    four_eye = ExactMatrix.identity(4).scale(GaussRat(4))
    assert P @ P.conjugate() == four_eye
    assert P @ P == four_eye.permuted((0, 3, 2, 1), (0, 1, 2, 3))
    assert P @ P != four_eye


def test_group_scheme_klein():
    s = group_scheme([2, 2])
    assert s.v == 4
    assert s.d == 3
    assert certify_eigenmatrix(s, s.P)
    # real character table: all entries +-1
    for i in range(4):
        for j in range(4):
            assert s.P[i, j].im == 0
            assert abs(s.P[i, j].re) == 1


def test_group_scheme_no_exact_characters():
    # Z3 characters are cube roots of unity, outside the Gaussian field:
    # the builder must leave P unattached rather than attach junk
    s = group_scheme([3])
    assert s.P is None
    assert verify_axioms(s.relation).ok


def test_group_scheme_mixed_orders():
    s = group_scheme([2, 4])
    assert s.v == 8
    assert s.d == 7
    assert verify_axioms(s.relation).ok
    assert certify_eigenmatrix(s, s.P)
    s.translation.validate(s.relation)


@pytest.mark.parametrize("orders", [(4,), (2, 2), (2, 4), (4, 4)])
def test_group_scheme_P_is_the_character_table(orders):
    """The attached P, built from the exponent table as integer rows,
    is entry by entry the character value i^<a, z>, and stores no
    imaginary part when every order is at most 2."""
    s = group_scheme(list(orders))
    i_pow = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))
    table = [[i_pow[e] for e in row]
             for row in s.translation.character_exponents().tolist()]
    assert s.P == ExactMatrix(table)
    assert [list(row) for row in s.P.rows()] == table
    assert (s.P.numerators()[1] is None) == (max(orders) <= 2)


def test_cycle_scheme_relation():
    s = cycle_scheme(6)
    assert s.relation[0, 1] == 1
    assert s.relation[0, 5] == 1
    assert s.relation[0, 3] == 3
    assert s.d == 3
    assert verify_axioms(s.relation).ok


def test_cycle_four_matches_hamming_two():
    """The 4-cycle is the 2-cube in disguise: the vertex relabeling
    0,1,2,3 -> 00,01,11,10 carries one relation table to the other."""
    c = cycle_scheme(4)
    h = hamming(2, 2)
    perm = [0, 1, 3, 2]  # cycle vertex k -> cube vertex index
    relabeled = h.relation[np.ix_(perm, perm)]
    assert (c.relation == relabeled).all()


def test_cycle_five_is_numeric_only():
    s = cycle_scheme(5)
    assert s.P is None
    assert s.snap_failed


def test_cycle_exact_p_only_where_niven_allows(monkeypatch):
    """2cos(2 pi j/m) is rational for every j only at m in {3, 4, 6}: any
    other cycle is numeric-only without its intersection tensor."""
    for m in (3, 4, 6):
        assert certify_eigenmatrix(cycle_scheme(m), cycle_scheme(m).P)

    def fail(self):
        raise AssertionError("the intersection tensor was formed")

    monkeypatch.setattr(AssociationScheme, "intersection_tensor", fail)
    for m in (5, 7, 8, 12, 1024):
        s = cycle_scheme(m)
        assert s.P is None and s.snap_failed
        with pytest.raises(SnapFailure, match="numeric-only mode"):
            eigenmatrix(s)


def test_cycle_even_has_exact_p():
    s = cycle_scheme(4)
    assert s.P is not None
    assert certify_eigenmatrix(s, s.P)


def test_builders_are_translation_schemes():
    for s in (one_class(5), hamming(2, 2), group_scheme([2, 2]),
              cycle_scheme(6)):
        assert s.translation is not None
        s.translation.validate(s.relation)
