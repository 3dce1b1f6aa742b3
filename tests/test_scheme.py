import ast
import itertools
import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.errors import (
    AxiomViolation,
    ClosureFailure,
    DimensionMismatch,
    NegativeKrein,
    SingularMatrix,
    SizeCapExceeded,
    SnapFailure,
)
from schemekit import scheme as scheme_module
from schemekit.exact import ExactMatrix, GaussRat, compositions
from schemekit.genham import build_explicit, eigenmatrix_gh
from schemekit.scheme import (
    AssociationScheme,
    TranslationStructure,
    certify_eigenmatrix,
    dual_eigenmatrix,
    eigenmatrix,
    fusion,
    krein_parameters,
    numeric_eigenmatrix,
    orbit_fusion,
    sort_rows_canonically,
    tensor_product,
    verify_axioms,
)
from schemekit.scheme import _product_tensor, _translation_tensor

from oracles import element, vertex


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


def thin_s3_table():
    """The thin scheme of S_3: the class of (x, y) is x^-1 y, with the
    six permutations of (0, 1, 2) numbered in lexicographic order."""
    perms = list(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}

    def inverse(p):
        return tuple(sorted(range(3), key=p.__getitem__))

    return np.array([[index[tuple(inverse(x)[i] for i in y)] for y in perms]
                     for x in perms])


def test_non_commutative_scheme_fails_axiom_5_only():
    report = verify_axioms(thin_s3_table())
    assert [c.ok for c in report.checks] == [True, True, True, True, False]
    assert str(report.checks[4]) == \
        "axiom 5 (commutativity): FAILED (p[1][2][3] != p[2][1][3])"
    with pytest.raises(AxiomViolation) as info:
        AssociationScheme(thin_s3_table())
    assert str(info.value) == str(report.checks[4])


# -- intersection numbers ------------------------------------------------


def test_intersection_numbers_cycle4_frozen():
    p = cycle_scheme(4).intersection_tensor()
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
    p = s.intersection_tensor()
    vals = s.valencies()
    for i in range(s.d + 1):
        for k in range(s.d + 1):
            assert p[i, :, k].sum() == vals[i]


# -- translation structure ----------------------------------------------


def test_translation_roundtrip():
    tr = TranslationStructure((2, 4))
    for v in range(8):
        assert vertex(tr.orders, element(tr.orders, v)) == v
    # index reads digits mod the orders: sums and negatives of elements
    assert tr.index(np.add((1, 3), (1, 2))) == tr.index((0, 1))
    assert tr.index(np.negative((1, 1))) == tr.index((1, 3))


@pytest.mark.parametrize("orders", [(2, 4), (4,), (2, 2, 2), (3, 5), (4, 2, 3)])
def test_translation_digits_and_index(orders):
    tr = TranslationStructure(orders)
    vertices = np.arange(tr.size)
    digits = tr.digits(vertices)
    assert digits.shape == (tr.size, len(orders))
    for x in range(tr.size):
        assert tuple(digits[x].tolist()) == element(orders, x)
        assert tr.index(digits[x]) == x
    assert (tr.index(digits) == vertices).all()
    # any shape gains a trailing axis, and index takes digits mod the orders
    grid = np.stack([vertices, vertices[::-1]])
    assert tr.digits(grid).shape == grid.shape + (len(orders),)
    assert (tr.index(tr.digits(grid)) == grid).all()
    shifted = digits + 3 * np.array(orders)
    assert (tr.index(shifted) == vertices).all()
    assert vertex(orders, tuple(shifted[-1].tolist())) == tr.size - 1


@pytest.mark.parametrize("orders", [(2,) * 63, (2,) * 64, (2,) * 70, (4,) * 32,
                                    (3, 5) * 30])
def test_translation_index_is_exact_for_large_groups(orders):
    """Past 2^63 elements the index is held as Python ints, not wrapped."""
    tr = TranslationStructure(orders)
    rng = np.random.default_rng(len(orders))
    digits = rng.integers(0, 5, size=(20, len(orders))) % np.array(orders)
    digits[0] = 0
    digits[1] = np.array(orders) - 1
    got = tr.index(digits).tolist()
    assert got == [vertex(orders, row) for row in digits.tolist()]
    assert got[1] == tr.size - 1
    assert len(set(got)) == len({tuple(row) for row in digits.tolist()})


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 4), (4, 2), (2, 2, 2), (3, 4)])
def test_difference_table(orders):
    tr = TranslationStructure(orders)
    table = tr.difference_table()
    assert (table == group_scheme(list(orders)).relation).all()
    for x in range(tr.size):
        for y in range(tr.size):
            difference = np.subtract(element(orders, y), element(orders, x))
            assert table[x, y] == vertex(orders, difference)


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


def _certify_by_inverse(scheme, P):
    """Oracle: the regular-representation certificate.  With
    B_i[r][k] = p[i][k][r] and Q = v P^-1, P is the eigenmatrix iff row 0
    lists the valencies, P is invertible and B_i Q[:,j] = P[j][i] Q[:,j]
    for all i, j."""
    d, v = scheme.d, scheme.v
    if P.nrows != d + 1 or P.ncols != d + 1:
        return False
    vals = scheme.valencies()
    if any(P[0, i] != GaussRat(int(vals[i])) for i in range(d + 1)):
        return False
    tensor = scheme.intersection_tensor()
    try:
        Q = P.inverse().scale(v)
    except SingularMatrix:
        return False
    for i in range(d + 1):
        for j in range(d + 1):
            for r in range(d + 1):
                lhs = sum((int(tensor[i, k, r]) * Q[k, j] for k in range(d + 1)),
                          GaussRat(0))
                if lhs != P[j, i] * Q[r, j]:
                    return False
    return True


def _agree(scheme, P):
    verdict = certify_eigenmatrix(scheme, P)
    assert verdict == _certify_by_inverse(scheme, P)
    return verdict


def _rows(P):
    return [list(row) for row in P.rows()]


def test_certify_refuses_fractions_and_entries_above_the_valency():
    s = build_explicit(group_scheme([4]), 2)
    rows = _rows(eigenmatrix(s))
    vals = s.valencies()
    j, i = 3, 2
    for entry in (rows[j][i] + GaussRat(1) / 2, GaussRat(int(vals[i]) + 1),
                  GaussRat(0, -int(vals[i]) - 1)):
        tampered = [list(r) for r in rows]
        tampered[j][i] = entry
        assert not _agree(s, ExactMatrix(tampered))


def test_certify_refuses_fractions_before_the_identity(monkeypatch):
    s = build_explicit(group_scheme([4]), 2)
    rows = _rows(eigenmatrix(s))
    rows[3][2] = rows[3][2] + GaussRat(0, 1) / 2

    def refuse(a, b):
        raise AssertionError("a non-integer P must be refused before the identity")

    monkeypatch.setattr(scheme_module, "_row_products", refuse)
    assert not certify_eigenmatrix(s, ExactMatrix(rows))


BENCH_BASES = {
    "one_class:2": lambda: one_class(2), "one_class:3": lambda: one_class(3),
    "one_class:5": lambda: one_class(5), "cycle:4": lambda: cycle_scheme(4),
    "cycle:6": lambda: cycle_scheme(6), "group:4": lambda: group_scheme([4]),
    "group:2:2": lambda: group_scheme([2, 2]),
    "hamming:2:2": lambda: hamming(2, 2),
}


def test_certify_agrees_with_inverse_oracle_on_builders():
    for s in (one_class(2), one_class(5), cycle_scheme(3), cycle_scheme(4),
              cycle_scheme(6), group_scheme([4]), group_scheme([2, 2]),
              group_scheme([2, 4]), hamming(2, 2), hamming(3, 2), hamming(2, 3)):
        assert _agree(s, s.P)


@pytest.mark.parametrize("name", sorted(BENCH_BASES))
def test_certify_agrees_with_inverse_oracle_on_composites(name):
    base = BENCH_BASES[name]()
    for n in (1, 2):
        s = build_explicit(base, n)
        assert _agree(s, eigenmatrix(s))


def test_certify_agrees_with_inverse_oracle_on_fusions():
    cases = [fusion(group_scheme([4]), [[0], [1, 3], [2]]),
             fusion(hamming(3, 2), [[0], [1, 2], [3]]),
             orbit_fusion(one_class(2), 3, [(1, 0, 2), (1, 2, 0)]),
             orbit_fusion(one_class(3), 2, []),
             orbit_fusion(group_scheme([4]), 2, [(1, 0)])]
    for s in cases:
        assert _agree(s, eigenmatrix(s))


def test_certify_accepts_permuted_rows():
    rng = random.Random(4410)
    for s in (build_explicit(group_scheme([4]), 2), hamming(3, 2)):
        rows = _rows(eigenmatrix(s))
        for _ in range(2):
            rest = rows[1:]
            rng.shuffle(rest)
            assert _agree(s, ExactMatrix([rows[0]] + rest))


@pytest.mark.parametrize("part", ["re", "im"])
def test_certify_agrees_on_seeded_tamperings(part):
    rng = random.Random(7719 if part == "re" else 7720)
    schemes = [build_explicit(group_scheme([4]), 2), group_scheme([2, 4]),
               build_explicit(cycle_scheme(4), 2), hamming(3, 2)]
    rejected = 0
    for s in schemes:
        rows = _rows(eigenmatrix(s))
        k = len(rows)
        for _ in range(10):
            tampered = [list(r) for r in rows]
            j, i = rng.randrange(k), rng.randrange(k)
            delta = rng.choice([1, -1, 2, GaussRat(1, 2)])
            if part == "im":
                delta = GaussRat(0, 1) * delta
            tampered[j][i] = tampered[j][i] + delta
            rejected += not _agree(s, ExactMatrix(tampered))
    assert rejected == 40


def test_certify_agrees_on_malformed_rows():
    s = build_explicit(group_scheme([4]), 2)
    rows = _rows(eigenmatrix(s))
    k = len(rows)
    zero = [GaussRat(0)] * k
    cases = {
        "duplicated row": rows[:-1] + [rows[1]],
        "zero row": rows[:-1] + [zero],
        "P[j,0] != 1": rows[:-1] + [[GaussRat(2) * x for x in rows[-1]]],
        "wrong row 0": [[GaussRat(1)] * k] + rows[1:],
        "swapped row 0": [rows[1], rows[0]] + rows[2:],
        "complex row 0": [[rows[0][0] + GaussRat(0, 1)] + rows[0][1:]] + rows[1:],
    }
    for name, bad in cases.items():
        assert not _agree(s, ExactMatrix(bad)), name
    assert not _agree(s, ExactMatrix([r[:-1] for r in rows[:-1]]))
    assert not _agree(s, ExactMatrix(rows[:-1]))


def test_certify_checks_the_imaginary_part():
    """For real characters c1 != c2, x = (4 c2 - c1)/3 + 2i (c1 - c2)/3
    satisfies the real part of the character identity but not the
    imaginary part, so dropping the imaginary check would accept it."""
    for s in (one_class(2), hamming(3, 2)):
        rows = _rows(eigenmatrix(s))
        c1, c2 = rows[-1], rows[-2]
        rows[-1] = [(4 * y - x) / 3 + GaussRat(0, 2) * (x - y) / 3
                    for x, y in zip(c1, c2)]
        assert not _agree(s, ExactMatrix(rows))


def test_certify_does_not_invert(monkeypatch):
    s = build_explicit(group_scheme([4]), 2)
    assert s.d + 1 == 10
    P = eigenmatrix(s)

    def refuse(self):
        raise AssertionError("certification must not invert P")

    monkeypatch.setattr(ExactMatrix, "inverse", refuse)
    assert certify_eigenmatrix(s, P)
    rows = _rows(P)
    rows[3][2] = rows[3][2] + 1
    assert not certify_eigenmatrix(s, ExactMatrix(rows))


@pytest.mark.parametrize("m", range(3, 13))
def test_cycle_snap_outcomes(m):
    s = AssociationScheme(cycle_scheme(m).relation.copy())
    if m in (3, 4, 6):
        assert certify_eigenmatrix(s, eigenmatrix(s))
        return
    with pytest.raises(SnapFailure,
                       match="eigenvalues are not Gaussian integers$"):
        eigenmatrix(s)
    assert s.snap_failed


@pytest.mark.parametrize("miss, attempts", [(5e-9, 2), (1e-3, 1)])
def test_eigenmatrix_retries_only_a_near_miss(miss, attempts, monkeypatch):
    """The first attempt's non-valency rows are moved off the Gaussian
    integers: a miss within 1e-6 is retried and the next attempt
    certifies, while a larger miss, which no reseeding mends, ends the
    search at once in SnapFailure and numeric-only mode."""
    rel = build_explicit(cycle_scheme(4), 2).relation
    want = eigenmatrix(AssociationScheme(rel))
    exact_rows = scheme_module._numeric_eigenrows
    calls = []

    def shifted(scheme, rng):
        rows = np.array(exact_rows(scheme, rng))
        if not calls:
            is_val = np.abs(rows - scheme.valencies()).max(axis=1) < 1e-6
            rows[~is_val, -1] += miss
        calls.append(miss)
        return rows

    monkeypatch.setattr(scheme_module, "_numeric_eigenrows", shifted)
    s = AssociationScheme(rel)
    if attempts == 2:
        assert eigenmatrix(s) == want
    else:
        with pytest.raises(SnapFailure,
                           match="eigenvalues are not Gaussian integers$"):
            eigenmatrix(s)
        assert s.snap_failed
    assert len(calls) == attempts


def test_dual_eigenmatrix_pq():
    for s in (one_class(3), cycle_scheme(4), group_scheme([4])):
        P = eigenmatrix(s)
        Q = dual_eigenmatrix(P, s.v)
        assert P @ Q == ExactMatrix.identity(s.d + 1).scale(s.v)


@pytest.mark.parametrize("name", sorted(BENCH_BASES))
def test_dual_eigenmatrix_needs_no_inverse(name, monkeypatch):
    """On a base P (n = 1) and its composites up to 64 classes, Q comes
    from the orthogonality relations and equals v P^-1: the inverse
    oracle up to 10 classes, and P Q = v I (which only v P^-1 satisfies)
    beyond, at the largest n within 32 and within 64 classes."""
    base = BENCH_BASES[name]()
    P = eigenmatrix(base)
    sizes = {n: len(compositions(n, base.d + 1)) for n in range(1, 64)}
    ns = sorted({n for n, size in sizes.items() if size <= 10}
                | {max(n for n, size in sizes.items() if size <= cap)
                   for cap in (32, 64)})
    cases = [(eigenmatrix_gh(P, n), base.v**n) for n in ns]
    assert cases[-1][0].nrows > 50
    want = [M.inverse().scale(v) if M.nrows <= 10 else None for M, v in cases]

    def refuse(self):
        raise AssertionError("dual_eigenmatrix inverted P")

    monkeypatch.setattr(ExactMatrix, "inverse", refuse)
    for (M, v), Q in zip(cases, want):
        got = dual_eigenmatrix(M, v)
        if Q is None:
            assert M @ got == ExactMatrix.identity(M.nrows).scale(v)
        else:
            assert got == Q


def _tampered(P, i, j, delta):
    rows = [list(row) for row in P.rows()]
    rows[i][j] = rows[i][j] + delta
    return ExactMatrix(rows)


@pytest.mark.parametrize("P, v", [
    (ExactMatrix([[1, 2], [3, 4]]), 3),
    # orthogonality fails, though every m_j is an integer
    (ExactMatrix([[1, 2], [1, 1]]), 3),
    (_tampered(eigenmatrix(group_scheme([4])), 1, 2, GaussRat(0, 1)), 4),
    (_tampered(eigenmatrix(hamming(2, 2)), 2, 1, 1), 4),
    # a denominator, and a non-real valency
    (eigenmatrix(cycle_scheme(4)).scale(Fraction(1, 2)), 4),
    (_tampered(eigenmatrix(group_scheme([4])), 0, 1, GaussRat(0, 1)), 4),
    # an eigenmatrix with a v other than an integer
    (eigenmatrix(one_class(3)), Fraction(3, 2)),
], ids=["1234", "not-orthogonal", "tampered-group:4", "tampered-hamming:2:2",
        "denominator", "complex-valency", "fractional-v"])
def test_dual_eigenmatrix_falls_back_to_the_inverse(P, v, monkeypatch):
    calls = []
    inverse = ExactMatrix.inverse

    def spy(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(ExactMatrix, "inverse", spy)
    Q = dual_eigenmatrix(P, v)
    assert calls == [P]
    assert Q == inverse(P).scale(v)
    assert P @ Q == ExactMatrix.identity(P.nrows).scale(v)


@pytest.mark.parametrize("P, v", [
    (ExactMatrix([[1, 2], [2, 4]]), 3),
    # at v = 0, Q = 0 would satisfy P Q = v I for any P
    (ExactMatrix([[1, 1], [1, 1]]), 0),
    (ExactMatrix([[1, 1, 1], [1, 0, -1], [2, 1, 0]]), 3),
], ids=["rank-1", "v=0", "rank-2"])
def test_dual_eigenmatrix_of_a_singular_P_raises(P, v):
    with pytest.raises(SingularMatrix):
        dual_eigenmatrix(P, v)


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


def _krein_by_sums(P, v):
    """Oracle: q_ij(r) = (1/v) sum_k P[r,k] Q[k,i] Q[k,j] in GaussRat,
    scanned in (i, j, r) order; returns the tensor or the first entry
    that is not a non-negative real as (indices, value)."""
    Q = dual_eigenmatrix(P, v)
    k = P.nrows
    q = np.empty((k, k, k), dtype=object)
    for i, j, r in itertools.product(range(k), repeat=3):
        s = sum((P[r, m] * Q[m, i] * Q[m, j] for m in range(k)), GaussRat(0)) / v
        if s.im != 0 or s.re < 0:
            return (i, j, r), s
        q[i, j, r] = s
    return q


def test_krein_agrees_with_sums_oracle():
    for s in (hamming(3, 2), group_scheme([2, 4]),
              build_explicit(cycle_scheme(4), 2),
              build_explicit(group_scheme([4]), 2)):
        want = _krein_by_sums(eigenmatrix(s), s.v)
        assert (krein_parameters(s) == want).all()


def test_krein_first_witness_agrees_with_sums_oracle():
    """A scheme carrying a wrong P: NegativeKrein names the oracle's
    first witness with the same value, real and complex ones alike, on
    int64 numerators and, past a 2^40 entry, on Python ints."""
    rng = random.Random(3306)
    base = build_explicit(group_scheme([4]), 2)
    rows = _rows(eigenmatrix(base))
    k = len(rows)
    kinds = set()
    tamperings = [(rng.randrange(1, k), rng.randrange(k),
                   rng.choice([1, -1, GaussRat(0, 1), GaussRat(1, -2) / 3]))
                  for _ in range(12)]
    for j, i, delta in tamperings + [(3, 5, 2**40)]:
        tampered = [list(r) for r in rows]
        tampered[j][i] = tampered[j][i] + delta
        P = ExactMatrix(tampered)
        try:
            want = _krein_by_sums(P, base.v)
        except SingularMatrix:
            continue
        s = AssociationScheme(base.relation, P=P, check=False)
        with pytest.raises(NegativeKrein) as info:
            krein_parameters(s)
        assert (info.value.indices, info.value.value) == want
        assert str(info.value.value) == str(want[1])
        kinds.add("2^40" if delta == 2**40 else want[1].im != 0)
    assert kinds == {False, True, "2^40"}


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
    b = cycle_scheme(4)
    t = tensor_product(a, b)
    for (x1, x2), (y1, y2) in itertools.product(
            itertools.product(range(a.v), range(b.v)), repeat=2):
        assert t.relation[x1 * b.v + x2, y1 * b.v + y2] == \
            a.relation[x1, y1] * (b.d + 1) + b.relation[x2, y2]


def _symmetric_generators(n):
    """The transposition of positions 0 and 1 and the n-cycle, which
    generate S_n (none for n = 1)."""
    if n == 1:
        return []
    return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


def test_orbit_fusion_matches_composite():
    """Full symmetric-group orbits of the tensor power give exactly the
    composite construction, class for class, on five bases for n <= 3
    and on the binary base at n = 10, where S_10 has 3,628,800 elements
    and the orbits are found without listing one."""
    base = one_class(2)
    sn_generators = {
        2: [(1, 0)],
        3: [(1, 0, 2), (1, 2, 0)],  # transposition + 3-cycle generate S_3
    }
    for n in (2, 3):
        sym = orbit_fusion(base, n, sn_generators[n])
        explicit = build_explicit(base, n)
        assert (sym.relation == explicit.relation).all()
    for name in ("cycle:4", "hamming:2:2", "group:4", "group:2:2"):
        base = BENCH_BASES[name]()
        for n in (1, 2, 3):
            sym = orbit_fusion(base, n, _symmetric_generators(n))
            assert (sym.relation == build_explicit(base, n).relation).all()
    sym = orbit_fusion(one_class(2), 10, _symmetric_generators(10))
    assert (sym.relation == build_explicit(one_class(2), 10).relation).all()
    weights = np.array([bin(y).count("1") for y in range(2**10)])
    assert (sym.relation[0] == weights).all()


def _orbit_oracle(base, n, generators):
    """The orbit fusion by its definition: class tuples joined by a search
    under the generators, numbered in lexicographic order of their least
    member, and each word pair given the orbit of its class tuple."""
    label = {}
    for t in itertools.product(range(base.d + 1), repeat=n):
        if t in label:
            continue
        orbit = len(set(label.values()))
        label[t], frontier = orbit, [t]
        while frontier:
            u = frontier.pop()
            for g in generators:
                w = tuple(u[i] for i in g)
                if w not in label:
                    label[w] = orbit
                    frontier.append(w)
    words = list(itertools.product(range(base.v), repeat=n))
    return np.array([[label[tuple(base.relation[a, b] for a, b in zip(x, y))]
                      for y in words] for x in words])


@pytest.mark.parametrize("name, n, generators", [
    ("one_class:2", 4, [(1, 2, 3, 0)]),
    ("one_class:2", 4, [(3, 2, 1, 0)]),
    ("one_class:2", 4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
    ("one_class:3", 3, [(1, 2, 0)]),
    ("cycle:4", 3, [(0, 2, 1)]),
    ("group:2:2", 2, [(1, 0)]),
], ids=["cyclic", "reversal", "two_swaps", "one_class3_cyclic",
        "cycle4_swap", "group22_swap"])
def test_orbit_fusion_matches_orbit_oracle(name, n, generators):
    """Groups other than S_n: the orbits and their numbering are those of
    a plain search over the class tuples."""
    base = BENCH_BASES[name]()
    fused = orbit_fusion(base, n, generators)
    assert (fused.relation == _orbit_oracle(base, n, generators)).all()


@pytest.mark.parametrize("bad", [(0, 0, 1), (1, 0), (1, 0, 2, 3), (0, 1, 3),
                                 (0, 1, -1)],
                         ids=["repeated", "short", "long", "out_of_range",
                              "negative"])
def test_orbit_fusion_checks_generators(bad, monkeypatch):
    """A generator that is no permutation of the positions is named in a
    DimensionMismatch, also after a valid one, before any table of the
    power is built."""
    def refuse(*args):
        raise AssertionError("table built before the generator check")

    base = one_class(2)
    monkeypatch.setattr(scheme_module, "_fold", refuse)
    message = "generator %r is not a permutation of 0..2" % (bad,)
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        orbit_fusion(base, 3, [(1, 0, 2), bad])


@pytest.mark.parametrize("n, generators", [(1, []), (2, [(1, 0)])])
def test_orbit_fusion_of_a_non_scheme_is_a_closure_failure(n, generators):
    # the path on 3 vertices by distance: vertex 1 has two neighbours
    path = AssociationScheme(np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
                             check=False)
    message = ("fusion is not a scheme: axiom 4 (intersection): FAILED at "
               "(1, 1) (A_1 A_1 is not constant on class 0)")
    with pytest.raises(ClosureFailure) as info:
        orbit_fusion(path, n, generators)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [0, -1])
def test_orbit_fusion_needs_positive_n(n):
    with pytest.raises(ValueError, match="need n >= 1"):
        orbit_fusion(one_class(2), n, [])


def test_orbit_fusion_caps_the_intersection_tensor(monkeypatch):
    """Swapping two of ten binary positions leaves 768 classes on 1,024
    vertices: 768^3 intersection numbers exceed cap^2, so the fusion is
    refused before any table of the power is built."""
    def refuse(*args):
        raise AssertionError("table built past the class cap")

    base = one_class(2)
    monkeypatch.setattr(scheme_module, "_fold", refuse)
    with pytest.raises(SizeCapExceeded, match="768 classes"):
        orbit_fusion(base, 10, [(1, 0, 2, 3, 4, 5, 6, 7, 8, 9)])


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


# -- translation schemes counted over the group ----------------------------

def _translation_cases(name):
    """Composites of a bench base at n = 1..3, a fusion and an orbit
    fusion of them, all carrying a translation structure."""
    base = BENCH_BASES[name]()
    cases = [base] + [build_explicit(base, n) for n in (1, 2, 3)]
    k = base.d + 1
    # classes by Hamming distance: a fusion of every composite
    by_distance = [[c for c, comp in enumerate(compositions(2, k))
                    if comp[0] == 2 - t] for t in range(3)]
    cases.append(fusion(cases[2], by_distance))
    cases.append(orbit_fusion(base, 2, [(1, 0)]))
    return cases


def _group_count(rel, tr):
    """The group count of a table that fits `tr`, or None when it fails an
    axiom there."""
    s = AssociationScheme(rel, translation=tr, check=False)
    return _translation_tensor(s.relation, s.relation[0])


def _group_tensor(s):
    tensor = _group_count(s.relation, s.translation)
    assert tensor is not None
    return tensor


@pytest.mark.parametrize("name", sorted(BENCH_BASES))
def test_group_tensor_matches_dense(name):
    for s in _translation_cases(name):
        assert s.translation is not None
        dense, witness = _product_tensor(s.relation, s.d)
        assert witness is None
        assert (_group_tensor(s) == dense).all()
        assert (s.intersection_tensor() == dense).all()


@pytest.mark.parametrize("block", [1, 100])
def test_group_routes_over_several_row_blocks(block, monkeypatch):
    """With blocks of one or a few rows the tensor and the failures found
    in late rows are the same."""
    cases = [build_explicit(group_scheme([4]), 2), build_explicit(cycle_scheme(4), 2),
             build_explicit(one_class(3), 2), hamming(3, 2)]
    want = [_product_tensor(s.relation, s.d)[0] for s in cases]
    tampered = list(_tampered_class_vectors())
    verdicts = [_group_count(rel, tr) is None for rel, tr in tampered]
    monkeypatch.setattr(scheme_module, "_BLOCK", block)
    for s, tensor in zip(cases, want):
        assert (_group_tensor(s) == tensor).all()
    assert verdicts == [_group_count(rel, tr) is None for rel, tr in tampered]
    assert verdicts == [not verify_axioms(rel).ok for rel, tr in tampered]


def test_group_tensor_matches_dense_on_builders():
    schemes = [group_scheme(list(o)) for o in ((2,), (3,), (4,), (2, 2), (2, 4),
                                              (3, 4), (5,), (2, 3, 2))]
    schemes += [cycle_scheme(m) for m in range(3, 13)]
    schemes += [hamming(2, 3), hamming(3, 2), one_class(7)]
    for s in schemes:
        dense, witness = _product_tensor(s.relation, s.d)
        assert witness is None
        assert (_group_tensor(s) == dense).all()


def _tampered_class_vectors():
    """Translation-invariant tables that are not schemes: the class
    vector of a composite with a few entries moved to other classes."""
    rng = random.Random(5512)
    for base, n in ((group_scheme([4]), 2), (one_class(2), 3),
                    (cycle_scheme(4), 2), (group_scheme([2, 2]), 2),
                    (one_class(3), 2)):
        s = build_explicit(base, n)
        diff = s.translation.difference_table()
        for _ in range(8):
            c = s.relation[0].copy()
            for _ in range(rng.randint(1, 3)):
                c[rng.randrange(s.v)] = rng.randrange(s.d + 1)
            yield c[diff], s.translation


def _subgroup_class_zero():
    """Translation-invariant tables whose class 0 is a subgroup or misses
    0: the classes are unions of its cosets, so the products can be
    constant while axiom 1 fails."""
    for orders, c in (((4,), [0, 1, 0, 1]), ((2, 2), [0, 0, 1, 1]),
                      ((2, 4), [0, 1, 2, 1, 0, 1, 2, 1]), ((4,), [1, 0, 2, 0]),
                      ((2,), [1, 0]), ((2, 2), [1, 0, 2, 3])):
        tr = TranslationStructure(orders)
        yield np.array(c)[tr.difference_table()], tr


def test_group_failures_match_dense():
    """Where the group path finds a failure, the report, witness and
    exception are the dense route's, byte for byte."""
    failed_axioms = set()
    for rel, tr in itertools.chain(_tampered_class_vectors(), _subgroup_class_zero()):
        want = verify_axioms(rel)
        if want.ok:
            assert (AssociationScheme(rel, translation=tr).intersection_tensor()
                    == want.tensor).all()
            continue
        assert _group_count(rel, tr) is None
        with pytest.raises(AxiomViolation) as info:
            AssociationScheme(rel, translation=tr)
        got = info.value.report
        assert str(got) == str(want)
        assert [c.witness for c in got.checks] == [c.witness for c in want.checks]
        failed_axioms.add(want.first_failure().axiom)
    assert failed_axioms == {1, 2, 3, 4}


def test_group_fusion_failures_match_dense():
    cases = [(group_scheme([4]), [[0], [1], [2, 3]]),
             (group_scheme([2, 4]), [[0], [1, 2], [3, 4, 5, 6, 7]]),
             (build_explicit(cycle_scheme(4), 2), [[0], [1, 3], [2, 4, 5]])]
    for s, blocks in cases:
        block_of = {i: min(b) for b in blocks for i in b}
        order = sorted(set(block_of.values()))
        merged = np.vectorize(lambda i: order.index(block_of[i]))(s.relation)
        want = verify_axioms(merged)
        assert not want.ok
        with pytest.raises(ClosureFailure) as info:
            fusion(s, blocks)
        assert str(info.value.report) == str(want)
        assert str(info.value) == str(ClosureFailure(want))


def test_wrong_translation_is_refused():
    """A table that does not fit its translation is refused at
    construction, checked or not, with the DimensionMismatch of
    `validate`; without the translation the same table keeps the dense
    tensor and its P.  A class vector must have the group's length."""
    z4 = group_scheme([4]).relation
    path = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    for rel, tr in ((z4, TranslationStructure((2, 2))), (z4, TranslationStructure((8,))),
                    (path, TranslationStructure((3,)))):
        with pytest.raises(DimensionMismatch) as want:
            tr.validate(rel)
        for check in (True, False):
            with pytest.raises(DimensionMismatch) as info:
                AssociationScheme(rel, translation=tr, check=check)
            assert str(info.value) == str(want.value)
    assert "not translation-invariant at (1, 0)" in str(want.value)
    s = AssociationScheme(z4)
    assert (s.intersection_tensor() == _product_tensor(z4, 3)[0]).all()
    fits = AssociationScheme(z4, translation=TranslationStructure((4,)))
    assert (s.intersection_tensor() == fits.intersection_tensor()).all()
    assert eigenmatrix(s) == eigenmatrix(fits)
    with pytest.raises(AxiomViolation) as info:
        AssociationScheme(path)
    assert str(info.value.report) == str(verify_axioms(path))
    for c in ([0, 1, 2], [0, 1, 2, 3, 1]):
        with pytest.raises(DimensionMismatch,
                           match="class vector of length %d != group size 4" % len(c)):
            AssociationScheme(c, translation=TranslationStructure((4,)))


def _eigen_outcome(s):
    try:
        return eigenmatrix(s)
    except (AxiomViolation, SnapFailure) as e:
        return type(e).__name__, str(e)


def test_character_route_on_non_schemes_matches_numeric():
    """Unchecked translation-invariant tables that are not schemes: with
    or without the translation, eigenmatrix and numeric_eigenmatrix
    raise the report of `verify_axioms` at the intersection tensor, and
    the scheme is not put into numeric-only mode."""
    failed_axioms = set()
    for rel, tr in itertools.chain(_tampered_class_vectors(), _subgroup_class_zero()):
        want = verify_axioms(rel)
        if want.ok:
            continue
        failed_axioms.add(want.first_failure().axiom)
        for translation in (None, tr):
            for route in (eigenmatrix, numeric_eigenmatrix):
                s = AssociationScheme(rel, translation=translation, check=False)
                with pytest.raises(AxiomViolation) as info:
                    route(s)
                got = info.value.report
                assert str(got) == str(want)
                assert [c.witness for c in got.checks] == [c.witness for c in want.checks]
                assert not s.snap_failed
    assert failed_axioms == {1, 2, 3, 4}


def test_unchecked_non_scheme_has_no_tensor():
    """A table that fails axiom 1 has no intersection tensor, also when it
    was built unchecked and its products are constant: with or without
    the translation, the tensor and so the certificate raise the report
    of `verify_axioms`."""
    for rel, tr in _subgroup_class_zero():
        want = verify_axioms(rel)
        assert want.first_failure().axiom == 1
        for translation in (None, tr):
            s = AssociationScheme(rel, translation=translation, check=False)
            with pytest.raises(AxiomViolation) as info:
                s.intersection_tensor()
            got = info.value.report
            assert str(got) == str(want)
            assert [c.witness for c in got.checks] == [c.witness for c in want.checks]
    tr = TranslationStructure((4,))
    rel = np.array([1, 0, 2, 0])[tr.difference_table()]
    with pytest.raises(AxiomViolation) as info:
        eigenmatrix(AssociationScheme(rel, translation=tr, check=False))
    assert str(info.value.report) == str(verify_axioms(rel))


def test_class_vector_is_decided_once(monkeypatch):
    """On the way from build_explicit to the eigenmatrix the difference
    table is built once: the construction check decides the class vector
    and the eigenmatrix reads only the intersection tensor."""
    base = group_scheme([4])
    calls = []
    table = TranslationStructure.difference_table

    def counted(self):
        calls.append(self.orders)
        return table(self)

    monkeypatch.setattr(TranslationStructure, "difference_table", counted)
    P = eigenmatrix(build_explicit(base, 3))
    assert calls == [(4, 4, 4)]
    assert P.nrows == comb(3 + 3, 3)


def _dense_eigenrows(scheme, rng):
    """Oracle: the v x v attempt.  Diagonalize a random combination of the
    adjacency matrices, read the eigenvalue vector of every class on each
    eigenvector and return the distinct vectors, or None if this
    combination was degenerate."""
    rel = scheme.relation
    d, v = scheme.d, scheme.v
    coeffs = rng.integers(1, 1_000_000, size=d + 1)
    M = np.zeros((v, v), dtype=np.float64)
    for i in range(d + 1):
        M += float(coeffs[i]) * (rel == i)
    w, V = np.linalg.eig(M)
    norms = (V.conj() * V).sum(axis=0).real
    pvals = np.empty((d + 1, v), dtype=np.complex128)
    for i in range(d + 1):
        Ai = (rel == i).astype(np.float64)
        AiV = Ai @ V
        pvals[i] = (V.conj() * AiV).sum(axis=0) / norms
        resid = np.abs(AiV - V * pvals[i][None, :]).max()
        if resid > 1e-6 * max(1.0, float(np.abs(pvals[i]).max())) * np.sqrt(v):
            return None
    # cluster columns by their eigenvalue vectors
    rows = []
    for col in range(v):
        vec = pvals[:, col]
        for entry in rows:
            if np.abs(entry[0] - vec).max() < 1e-6:
                entry[1] += 1
                break
        else:
            rows.append([vec, 1])
    if len(rows) != d + 1 or sum(m for _, m in rows) != v:
        return None
    return [vec for vec, _mult in rows]


def _agrees_with_dense(monkeypatch, rel, translation):
    """eigenmatrix of the unchecked table ends as with the dense oracle in
    place of `_numeric_eigenrows`: the same P, or the same SnapFailure
    text and numeric eigenmatrix.  Returns the outcome."""
    def fresh():
        return AssociationScheme(rel, translation=translation, check=False)

    got = _eigen_outcome(fresh())
    numeric = numeric_eigenmatrix(fresh()) if isinstance(got, tuple) else None
    with monkeypatch.context() as m:
        m.setattr(scheme_module, "_numeric_eigenrows", _dense_eigenrows)
        assert _eigen_outcome(fresh()) == got
        if numeric is not None:
            want = numeric_eigenmatrix(fresh())
            assert numeric.dtype == want.dtype == np.complex128
            assert np.allclose(numeric, want, rtol=0, atol=1e-9)
    return got


@pytest.mark.parametrize("name", sorted(BENCH_BASES))
def test_eigenmatrix_matches_dense_oracle(name, monkeypatch):
    """Composites n = 1..3, with and without the translation."""
    for n in (1, 2, 3):
        s = build_explicit(BENCH_BASES[name](), n)
        for translation in (s.translation, None):
            got = _agrees_with_dense(monkeypatch, s.relation, translation)
            assert isinstance(got, ExactMatrix)


def test_eigenmatrix_matches_dense_oracle_on_builders(monkeypatch):
    """Cycles 3..12 and group schemes without their attached P."""
    schemes = [cycle_scheme(m) for m in range(3, 13)]
    schemes += [group_scheme([m]) for m in range(2, 9)]
    schemes += [group_scheme([2, 4]), group_scheme([3, 3])]
    kinds = set()
    for s in schemes:
        got = _agrees_with_dense(monkeypatch, s.relation, s.translation)
        kinds.add(got[0] if isinstance(got, tuple) else "P")
    assert kinds == {"P", "SnapFailure"}


def test_eigenmatrix_matches_dense_oracle_on_fusions(monkeypatch):
    rng = random.Random(3307)
    fused = []
    for base, n in ((one_class(2), 3), (cycle_scheme(4), 2), (group_scheme([4]), 2),
                    (one_class(3), 2), (cycle_scheme(6), 2)):
        s = build_explicit(base, n)
        labels = list(range(1, s.d + 1))
        for _ in range(8):
            rng.shuffle(labels)
            cut = rng.randint(1, len(labels) - 1)
            try:
                fused.append(fusion(s, [[0], labels[:cut], labels[cut:]]))
            except ClosureFailure:
                continue
    assert len(fused) >= 10
    fused += [orbit_fusion(base, n, gens) for base, n, gens in (
        (one_class(3), 4, [(1, 2, 3, 0)]), (cycle_scheme(4), 3, [(1, 2, 0), (1, 0, 2)]),
        (group_scheme([2, 2]), 2, [(1, 0)]), (group_scheme([4]), 2, [(1, 0)]),
        (one_class(2), 3, [(1, 0, 2), (1, 2, 0)]), (cycle_scheme(5), 2, [(1, 0)]))]
    for s in fused:
        _agrees_with_dense(monkeypatch, s.relation, s.translation)


def test_orbit_fusion_translation():
    cases = [(one_class(3), 4, [(1, 2, 3, 0)]),
             (cycle_scheme(4), 3, [(1, 2, 0), (1, 0, 2)]),
             (group_scheme([2, 2]), 2, [(1, 0)]), (group_scheme([4]), 2, [(1, 0)])]
    for base, n, gens in cases:
        s = orbit_fusion(base, n, gens)
        assert s.translation.orders == base.translation.orders * n
        s.translation.validate(s.relation)
    bare = AssociationScheme(one_class(2).relation)
    assert orbit_fusion(bare, 2, [(1, 0)]).translation is None


def test_constructions_fit_their_translation():
    """Products and fusions of translation bases, built from class
    vectors, are translation schemes of the product group; a product
    with a factor that has no translation folds the tables to the same
    table and carries none."""
    cases = [tensor_product(group_scheme([4]), cycle_scheme(5)),
             tensor_product(hamming(2, 2), one_class(3)),
             fusion(hamming(3, 2), [[0], [1, 3], [2]]),
             fusion(group_scheme([2, 4]), [[0], [1, 3, 5, 7], [2, 6], [4]])]
    for s in cases:
        assert s.translation.validate(s.relation)
    assert cases[0].translation.orders == (4, 5)
    assert cases[1].translation.orders == (2, 2, 3)
    mixed = tensor_product(group_scheme([4]), AssociationScheme(cycle_scheme(5).relation))
    assert mixed.translation is None
    assert (mixed.relation == cases[0].relation).all()


def test_only_scheme_calls_difference_table():
    """Constructions hand over class vectors: the one place outside
    `TranslationStructure` that forms a difference table is the scheme
    constructor."""
    callers = []
    for path in sorted(Path(scheme_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "difference_table"):
                callers.append(path.stem)
    assert set(callers) == {"scheme"}


def _hamming_tensor(n):
    """p[i][j][k] of the binary Hamming scheme: for y of weight k, the
    words z of weight i with d(y, z) = j have a = (i + k - j)/2 ones on
    the support of y and i - a off it."""
    p = np.zeros((n + 1,) * 3, dtype=np.int64)
    for i, j, k in itertools.product(range(n + 1), repeat=3):
        if (i + k - j) % 2 == 0:
            a = (i + k - j) // 2
            if 0 <= a <= k and 0 <= i - a <= n - k:
                p[i, j, k] = comb(k, a) * comb(n - k, i - a)
    return p


def _allow_eig_up_to(monkeypatch, size):
    """Make np.linalg.eig refuse any matrix with more than `size` rows."""
    eig = np.linalg.eig

    def bounded(a):
        assert a.shape[0] <= size, "an eigensolve of %d rows" % a.shape[0]
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", bounded)


def test_group_route_needs_no_dense_products(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the group route must not take this path")

    monkeypatch.setattr(scheme_module, "_product_tensor", refuse)
    s = build_explicit(one_class(2), 10)
    assert s.v == 1024
    assert (s.intersection_tensor() == _hamming_tensor(10)).all()
    z4 = group_scheme([4])
    composite = build_explicit(z4, 3)
    _allow_eig_up_to(monkeypatch, composite.d + 1)
    P = eigenmatrix(composite)
    assert certify_eigenmatrix(composite, P)
    assert set(P.rows()) == set(eigenmatrix_gh(z4.P, 3).rows())


def test_eigenmatrix_needs_no_vxv_eigensolve(monkeypatch):
    base = one_class(3)
    s = build_explicit(base, 7)
    assert (s.v, s.d + 1) == (2187, 8)
    _allow_eig_up_to(monkeypatch, s.d + 1)
    P = eigenmatrix(s)
    assert certify_eigenmatrix(s, P)
    assert set(P.rows()) == set(eigenmatrix_gh(base.P, 7).rows())
