import itertools
import random

import numpy as np
import pytest

from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.errors import SizeCapExceeded
from schemekit.exact import ExactMatrix, GaussRat, compositions, induced_matrix
from schemekit.genham import (
    GHScheme,
    build_explicit,
    dual_eigenmatrix_gh,
    eigenmatrix_gh,
    formal_duality_check,
    fusion_check_trans,
    h_vector,
)
from schemekit.scheme import (
    certify_eigenmatrix,
    dual_eigenmatrix,
    eigenmatrix,
    sort_rows_canonically,
    verify_axioms,
)


def test_h_vector():
    base = one_class(2)
    assert h_vector((0, 1, 1), (0, 1, 0), base) == (2, 1)
    assert h_vector((0, 0), (0, 0), base) == (2, 0)
    z4 = group_scheme([4])
    assert h_vector((0, 1, 2), (1, 1, 0), z4) == (1, 1, 1, 0)


def test_build_explicit_h22():
    g = build_explicit(one_class(2), 2)
    want = np.array([
        [0, 1, 1, 2],
        [1, 0, 2, 1],
        [1, 2, 0, 1],
        [2, 1, 1, 0],
    ])
    assert (g.relation == want).all()
    assert g.P is None  # explicit build leaves P to be computed and certified


def test_build_explicit_carries_translation():
    g = build_explicit(group_scheme([4]), 2)
    assert tuple(g.translation.orders) == (4, 4)
    g.translation.validate(g.relation)


def test_build_explicit_class_count():
    # classes are compositions of n into d+1 parts
    for base, n in ((one_class(2), 3), (one_class(3), 2), (group_scheme([4]), 2)):
        g = build_explicit(base, n)
        assert g.d + 1 == len(compositions(n, base.d + 1))


def test_build_explicit_cap():
    with pytest.raises(SizeCapExceeded):
        build_explicit(one_class(2), 13)


def test_ghscheme_class_of():
    gh = GHScheme(one_class(2), 2)
    assert gh.v == 4
    assert gh.num_classes == 3
    assert gh.class_of((0, 1), (0, 1)) == 0
    assert gh.class_of((0, 0), (1, 1)) == 2
    comps = gh.compositions
    assert comps[gh.class_of((0, 0), (0, 1))] == (1, 1)


def test_eigenmatrix_gh_is_induced():
    P = eigenmatrix(one_class(3))
    assert eigenmatrix_gh(P, 2) == induced_matrix(P, 2)


def test_eigenmatrix_gh_matches_certified_explicit():
    """The generating-function eigenmatrix agrees with the one computed
    numerically from the explicit scheme and certified exactly."""
    for base, n in ((one_class(2), 2), (one_class(2), 3),
                    (one_class(3), 2), (cycle_scheme(4), 2)):
        g = build_explicit(base, n)
        P_certified = eigenmatrix(g)
        P_induced = eigenmatrix_gh(eigenmatrix(base), n)
        assert sort_rows_canonically(P_certified) == \
            sort_rows_canonically(P_induced)
        assert certify_eigenmatrix(g, P_induced)


def test_gh_row_zero_value():
    # row 0 of the composite eigenmatrix holds the composite valencies
    base = one_class(2)
    g = build_explicit(base, 3)
    P = eigenmatrix_gh(eigenmatrix(base), 3)
    vals = g.valencies()
    assert [int(P[0, j].re) for j in range(g.d + 1)] == list(map(int, vals))


def test_dual_eigenmatrix_gh_identity():
    for base, n in ((one_class(2), 3), (cycle_scheme(4), 2)):
        P = eigenmatrix(base)
        lhs = dual_eigenmatrix_gh(P, base.v, n)
        rhs = eigenmatrix_gh(P, n).inverse().scale(base.v**n)
        assert lhs == rhs


def test_formal_duality_binary():
    fd = formal_duality_check(eigenmatrix(one_class(2)), 2, 2)
    assert fd.identity_holds
    assert fd.self_dual
    assert fd.row_perm == (0, 1)


def test_formal_duality_z4_needs_swap():
    """The order-4 group scheme is self-dual only after exchanging the
    two conjugate classes: v P^-1 equals P with classes 1 and 3 swapped."""
    P = eigenmatrix(group_scheme([4]))
    fd = formal_duality_check(P, 4, 1)
    assert fd.identity_holds
    assert fd.self_dual
    assert fd.row_perm != (0, 1, 2, 3) or fd.col_perm != (0, 1, 2, 3)
    dual = dual_eigenmatrix(P, 4)
    assert dual.permuted(fd.row_perm, fd.col_perm) == P


def test_formal_duality_frozen_six_classes():
    """Output frozen from the exhaustive row-and-column search."""
    P = eigenmatrix_gh(eigenmatrix(cycle_scheme(4)), 2).permuted(
        row_perm=(0, 5, 4, 3, 2, 1))
    fd = formal_duality_check(P, 16, 1)
    assert fd.identity_holds and fd.self_dual
    assert fd.row_perm == (0, 5, 1, 3, 2, 4)
    assert fd.col_perm == (0, 2, 4, 3, 5, 1)


def brute_force_self_duality(P, v):
    """The first (row_perm, col_perm) pair in lexicographic order with
    v P^-1 reordered equal to P, or (None, None)."""
    dual = dual_eigenmatrix(P, v)
    for rp in itertools.permutations(range(P.nrows)):
        for cp in itertools.permutations(range(P.ncols)):
            if dual.permuted(rp, cp) == P:
                return rp, cp
    return None, None


@pytest.mark.parametrize("P, v", [
    (eigenmatrix(one_class(3)), 3),
    (eigenmatrix(cycle_scheme(4)), 4),
    (eigenmatrix(cycle_scheme(6)), 6),
    (eigenmatrix(group_scheme([4])), 4),
    (eigenmatrix(group_scheme([2, 2])), 4),
    (eigenmatrix(hamming(2, 3)), 9),
    (eigenmatrix_gh(eigenmatrix(one_class(2)), 4), 16),
    (eigenmatrix(one_class(3)), 4),
    (ExactMatrix([[1, 1, 1], [1, 2, 3], [1, 4, 9]]), 6),
], ids=["one_class3", "cycle4", "cycle6", "group4", "group22", "hamming23",
        "binary_n4", "wrong_v", "not_self_dual"])
def test_formal_duality_matches_brute_force(P, v):
    rng = random.Random(P.nrows * 1000 + v)
    perms = [(None, None)]
    for _ in range(2):
        rp, cp = list(range(P.nrows)), list(range(P.ncols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        perms.append((rp, cp))
    for rp, cp in perms:
        Pp = P.permuted(rp, cp)
        fd = formal_duality_check(Pp, v, 1)
        expected = brute_force_self_duality(Pp, v)
        assert (fd.row_perm, fd.col_perm) == expected
        assert fd.self_dual == (expected[0] is not None)


def test_fusion_check_trans_binary():
    rep = fusion_check_trans(one_class(2), 2, 2)
    assert rep.ok
    assert rep.split_classes == {2: (2, 3)}
    # coarse class 2 is the weight-2 class of H(4, one_class(2))
    comps = compositions(4, 2)
    assert comps[2] == (2, 2)


def test_fusion_check_trans_mapping_is_function():
    rep = fusion_check_trans(one_class(2), 2, 2)
    fine = build_explicit(build_explicit(one_class(2), 2), 2)
    coarse = build_explicit(one_class(2), 4)
    mapped = np.array(rep.mapping)[fine.relation]
    assert (mapped == coarse.relation).all()


def test_fusion_check_trans_ternary():
    rep = fusion_check_trans(one_class(3), 2, 2)
    assert rep.ok
    assert rep.split_classes  # some coarse class splits here too
