import itertools
import random

import numpy as np
import pytest

from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.errors import (
    AxiomViolation,
    ClosureFailure,
    DimensionMismatch,
    NegativeKrein,
    SnapFailure,
)
from schemekit.exact import ExactMatrix, GaussRat
from schemekit.scheme import (
    AssociationScheme,
    TranslationStructure,
    certify_eigenmatrix,
    dual_eigenmatrix,
    eigenmatrix,
    fusion,
    intersection_numbers,
    krein_parameters,
    numeric_eigenmatrix,
    orbit_fusion,
    sort_rows_canonically,
    tensor_product,
    verify_axioms,
)


def gauss_rows(M):
    return [[str(M[i, j]) for j in range(M.ncols)] for i in range(M.nrows)]


# -- axiom verification --------------------------------------------------


def test_axioms_pass_on_builders():
    for s in (one_class(2), one_class(5), cycle_scheme(4), cycle_scheme(7),
              group_scheme([4]), group_scheme([2, 2]), hamming(2, 3)):
        report = verify_axioms(s.relation)
        assert report.ok, str(report)


def test_axiom_identity_violation():
    # class 0 off the diagonal
    rel = np.array([[0, 0], [1, 0]])
    report = verify_axioms(rel)
    assert not report.ok
    assert report.first_failure().axiom == 1


def test_axiom_transpose_violation():
    # relation 1 is not matched by any transposed class
    rel = np.array([
        [0, 1, 2],
        [2, 0, 1],
        [1, 2, 0],
    ])
    # this is the cyclic Z3 difference table, which IS a scheme; break it
    rel = rel.copy()
    rel[0, 1], rel[0, 2] = 2, 1
    report = verify_axioms(rel)
    assert not report.ok


def test_axiom_intersection_violation():
    # path graph on 3 vertices: A1 A1 has non-constant diagonal
    rel = np.array([
        [0, 1, 2],
        [1, 0, 1],
        [2, 1, 0],
    ])
    report = verify_axioms(rel)
    assert not report.ok
    bad = report.first_failure()
    assert bad.axiom == 4
    assert bad.witness is not None


def test_axiom_missing_class():
    rel = np.array([[0, 2], [2, 0]])
    report = verify_axioms(rel)
    assert not report.ok


def test_scheme_constructor_checks():
    with pytest.raises(AxiomViolation):
        AssociationScheme(np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))


# -- intersection numbers ------------------------------------------------


def test_intersection_numbers_cycle4_frozen():
    p = intersection_numbers(cycle_scheme(4))
    # walking two steps of the 4-cycle: 2 ways back, 0 ways to distance 1,
    # 2 ways to the antipode
    assert p[1][1][0] == 2
    assert p[1][1][1] == 0
    assert p[1][1][2] == 2
    assert p[1][2][1] == 1
    assert p[2][2][0] == 1


def test_intersection_numbers_row_sums():
    """For (x,y) in class k, summing p_ij(k) over j counts every z with
    (x,z) in class i exactly once, so the sum is the valency v_i."""
    s = hamming(2, 3)
    p = intersection_numbers(s)
    vals = s.valencies()
    for i in range(s.d + 1):
        for k in range(s.d + 1):
            assert p[i, :, k].sum() == vals[i]


# -- translation structure ----------------------------------------------


def test_translation_roundtrip():
    tr = TranslationStructure((2, 4))
    for v in range(8):
        assert tr.vertex(tr.element(v)) == v
    assert tr.add((1, 3), (1, 2)) == (0, 1)
    assert tr.neg((1, 1)) == (1, 3)


@pytest.mark.parametrize("orders", [(2, 4), (4,), (2, 2, 2), (3, 5), (4, 2, 3)])
def test_translation_digits_and_index(orders):
    tr = TranslationStructure(orders)
    vertices = np.arange(tr.size)
    digits = tr.digits(vertices)
    assert digits.shape == (tr.size, len(orders))
    for x in range(tr.size):
        assert tuple(digits[x].tolist()) == tr.element(x)
        assert tr.index(digits[x]) == x
    assert (tr.index(digits) == vertices).all()
    # any shape gains a trailing axis, and index takes digits mod the orders
    grid = np.stack([vertices, vertices[::-1]])
    assert tr.digits(grid).shape == grid.shape + (len(orders),)
    assert (tr.index(tr.digits(grid)) == grid).all()
    shifted = digits + 3 * np.array(orders)
    assert (tr.index(shifted) == vertices).all()
    assert tr.vertex(tuple(shifted[-1].tolist())) == tr.size - 1


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 4), (4, 2), (2, 2, 2), (3, 4)])
def test_difference_table(orders):
    tr = TranslationStructure(orders)
    table = tr.difference_table()
    assert (table == group_scheme(list(orders)).relation).all()
    for x in range(tr.size):
        for y in range(tr.size):
            assert table[x, y] == tr.vertex(tr.sub(tr.element(y),
                                                   tr.element(x)))


def test_translation_validate():
    tr = TranslationStructure((4,))
    tr.validate(group_scheme([4]).relation)
    with pytest.raises(DimensionMismatch):
        tr.validate(np.zeros((3, 3), dtype=np.int64))


# -- eigenmatrix ---------------------------------------------------------


def test_eigenmatrix_one_class_frozen():
    P = eigenmatrix(one_class(2))
    assert gauss_rows(P) == [["1", "1"], ["1", "-1"]]
    P5 = eigenmatrix(one_class(5))
    assert gauss_rows(P5) == [["1", "4"], ["1", "-1"]]


def test_eigenmatrix_cycle4_frozen():
    P = eigenmatrix(cycle_scheme(4))
    assert gauss_rows(P) == [["1", "2", "1"], ["1", "0", "-1"], ["1", "-2", "1"]]


def test_eigenmatrix_computed_without_attached_P():
    s = AssociationScheme(cycle_scheme(4).relation.copy())
    assert s.P is None
    P = eigenmatrix(s)
    assert gauss_rows(P) == [["1", "2", "1"], ["1", "0", "-1"], ["1", "-2", "1"]]


def test_certify_rejects_tampered():
    s = cycle_scheme(4)
    P = eigenmatrix(s)
    assert certify_eigenmatrix(s, P)
    rows = [[P[i, j] for j in range(3)] for i in range(3)]
    rows[1][1] = GaussRat(1)
    assert not certify_eigenmatrix(s, ExactMatrix(rows))


def test_dual_eigenmatrix_pq():
    for s in (one_class(3), cycle_scheme(4), group_scheme([4])):
        P = eigenmatrix(s)
        Q = dual_eigenmatrix(P, s.v)
        assert P @ Q == ExactMatrix.identity(s.d + 1).scale(s.v)


def test_eigenmatrix_row_zero_is_valencies():
    for s in (one_class(4), hamming(2, 2), group_scheme([2, 2])):
        P = eigenmatrix(s)
        vals = s.valencies()
        assert all(P[0, j] == GaussRat(int(vals[j])) for j in range(s.d + 1))


def test_eigenmatrix_snap_failure_cycle5():
    """The 5-cycle has golden-ratio eigenvalues: exact mode must refuse."""
    s = cycle_scheme(5)
    assert s.P is None
    assert s.snap_failed
    with pytest.raises(SnapFailure):
        eigenmatrix(s)
    N = numeric_eigenmatrix(s)
    assert N.shape == (3, 3)
    assert np.allclose(N[0].real, [1, 2, 2])


def test_sort_rows_canonically():
    m = ExactMatrix([[GaussRat(0), GaussRat(1)], [GaussRat(2), GaussRat(0)]])
    s = sort_rows_canonically(m)
    assert s[0, 0] == GaussRat(2)


# -- krein ---------------------------------------------------------------


def test_krein_nonnegative_small():
    for s in (one_class(2), one_class(7), cycle_scheme(4), hamming(2, 2),
              group_scheme([2, 2])):
        q = krein_parameters(s)
        k = s.d + 1
        for i in range(k):
            for j in range(k):
                for r in range(k):
                    assert q[i, j, r].im == 0
                    assert q[i, j, r].re >= 0


def test_krein_group_convolution():
    q = krein_parameters(group_scheme([4]))
    for i in range(4):
        for j in range(4):
            for r in range(4):
                want = GaussRat(1 if r == (i + j) % 4 else 0)
                assert q[i, j, r] == want


# -- fusion / tensor / orbit fusion ---------------------------------------


def test_fusion_z4_symmetrized():
    fused = fusion(group_scheme([4]), [[0], [1, 3], [2]])
    assert fused.d == 2
    assert (fused.relation == cycle_scheme(4).relation).all()
    assert fused.translation is not None


def test_fusion_closure_failure():
    with pytest.raises(ClosureFailure):
        fusion(group_scheme([4]), [[0], [1], [2, 3]])


def test_fusion_requires_partition():
    with pytest.raises(DimensionMismatch):
        fusion(group_scheme([4]), [[0], [1, 3]])
    with pytest.raises(DimensionMismatch):
        fusion(group_scheme([4]), [[0, 1], [2, 3]])


def test_tensor_product_classes():
    a = one_class(2)
    t = tensor_product(a, a)
    assert t.v == 4
    assert t.d == 3
    assert verify_axioms(t.relation).ok
    # class of ((x1,x2),(y1,y2)) is i*(d_b+1)+j from the factor classes
    assert t.relation[0, 3] == 3  # differs in both coordinates


def test_orbit_fusion_matches_composite():
    """Full symmetric-group orbits of the tensor power give exactly the
    composite construction, class for class."""
    from schemekit.genham import build_explicit
    base = one_class(2)
    sn_generators = {
        2: [(1, 0)],
        3: [(1, 0, 2), (1, 2, 0)],  # transposition + 3-cycle generate S_3
    }
    for n in (2, 3):
        sym = orbit_fusion(base, n, sn_generators[n])
        explicit = build_explicit(base, n)
        assert (sym.relation == explicit.relation).all()


def test_orbit_fusion_trivial_group():
    """No generators: orbits are singletons, i.e. the full tensor power."""
    base = one_class(2)
    power = orbit_fusion(base, 2, [])
    t = tensor_product(base, base)
    assert (power.relation == t.relation).all()


# -- randomized closure property ------------------------------------------


def test_random_fusions_verified():
    """Any fusion that comes back is certified by the axioms; failures
    raise ClosureFailure rather than returning a bad table."""
    rng = random.Random(6021)
    s = hamming(2, 3)
    labels = list(range(1, s.d + 1))
    for _ in range(12):
        rng.shuffle(labels)
        cut = rng.randint(1, len(labels))
        blocks = [[0], labels[:cut], labels[cut:]]
        blocks = [b for b in blocks if b]
        try:
            f = fusion(s, blocks)
        except ClosureFailure:
            continue
        assert verify_axioms(f.relation).ok
