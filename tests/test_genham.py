import itertools
import random
import tracemalloc

import numpy as np
import pytest

from schemekit import genham
from schemekit import scheme as scheme_module
from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.codes import _key_factor, _key_profile, _profile_keys
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
    AssociationScheme,
    TranslationStructure,
    certify_eigenmatrix,
    dual_eigenmatrix,
    eigenmatrix,
    sort_rows_canonically,
    verify_axioms,
)

from oracles import class_of


def test_h_vector():
    base = one_class(2)
    assert h_vector((0, 1, 1), (0, 1, 0), base) == (2, 1)
    assert h_vector((0, 0), (0, 0), base) == (2, 0)
    z4 = group_scheme([4])
    assert h_vector((0, 1, 2), (1, 1, 0), z4) == (1, 1, 1, 0)


@pytest.mark.parametrize("base, n", [
    (one_class(2), 3),
    (group_scheme([4]), 5),
    (hamming(2, 2), 3),
    (cycle_scheme(5), 4),
    (build_explicit(cycle_scheme(4), 2), 2),
    (group_scheme([12]), 20),
    (group_scheme([12]), 21),
    (group_scheme([12]), 34),
    (group_scheme([12]), 35),
    (group_scheme([12]), 70),
], ids=["binary", "group4", "hamming22", "cycle5", "composite", "z12_n20",
        "z12_n21", "z12_n34", "z12_n35", "z12_n70"])
def test_profile_keys_decode_to_h_vector(base, n):
    """Every key of the vectorised kernel decodes to the scalar profile.
    Row 0 of ys lies in class d of row 0 of xs at every coordinate, so
    their key is the largest, n (n+1)^d.  For Z12 (d = 11) the keys are
    a float64 product up to n = 20 (21^12 <= 2^53), int64 sums from
    n = 21, and from (n+1)^(d+1) > 2^62 on (n = 35 and 70) Python ints,
    where int64 keys would wrap."""
    rng = np.random.default_rng(base.v * 1000 + n)
    xs = rng.integers(base.v, size=(5, n))
    ys = rng.integers(base.v, size=(7, n))
    ys[0] = base.relation[xs[0]].argmax(axis=1)
    keys = _profile_keys(xs, ys, base.relation, base.d)
    assert keys.shape == (5, 7)
    bound = (n + 1) ** (base.d + 1)
    fits = bound <= 2**62
    assert keys.dtype == (np.int64 if fits else object)
    assert _key_factor(ys, base.relation, base.d).dtype == (
        np.float64 if bound <= 2**53 else keys.dtype)
    assert keys[0, 0] == n * (n + 1) ** base.d
    for a in range(5):
        for b in range(7):
            assert _key_profile(keys[a, b], n, base.d) == \
                h_vector(xs[a].tolist(), ys[b].tolist(), base)


def _untranslated_cycle5():
    """The 5-cycle scheme on shuffled vertices, with no translation
    structure, so its table is checked by the dense route."""
    perm = [3, 0, 4, 1, 2]
    return AssociationScheme(cycle_scheme(5).relation[perm][:, perm])


@pytest.mark.parametrize("base, n", [
    (one_class(3), 2), (group_scheme([4]), 2), (hamming(2, 2), 2),
    (cycle_scheme(5), 2), (one_class(2), 4), (_untranslated_cycle5(), 2),
    (build_explicit(cycle_scheme(4), 2), 2),
], ids=["one_class3", "group4", "hamming22", "cycle5", "binary_n4",
        "untranslated_cycle5", "composite_cycle4"])
def test_build_explicit_classes_are_profiles(base, n):
    g = build_explicit(base, n)
    gh = GHScheme(base, n)
    words = list(itertools.product(range(base.v), repeat=n))
    for x, wx in enumerate(words):
        for y, wy in enumerate(words):
            assert g.relation[x, y] == class_of(base, wx, wy)


def test_build_explicit_wide_base_at_n1():
    """A base with 63 classes (the distances 0..62 of the 125-cycle, with
    no translation structure) is its own composite at n = 1, and the
    vertex cap still holds."""
    m = 125
    k = TranslationStructure((m,)).difference_table()
    base = AssociationScheme(np.minimum(k, m - k), check=False)
    assert base.d == 62
    assert (build_explicit(base, 1).relation == base.relation).all()
    with pytest.raises(SizeCapExceeded):
        build_explicit(base, 2)  # 125^2 > 4096


def test_build_explicit_caps_class_tuples():
    """An unchecked table with more class labels than vertices is no
    scheme; its (d+1)^n class tuples are refused before any is built."""
    base = AssociationScheme([[0, 9999], [9999, 0]], check=False)
    with pytest.raises(SizeCapExceeded, match="class tuples"):
        build_explicit(base, 2)


def test_build_explicit_folds_class_vectors(monkeypatch):
    """Over a translation base the composite is built from the folded
    1-row class vectors, and the only tables folded are the cyclic
    difference tables of V^n; over a base without a translation the
    tables themselves are folded.  Both give the same composite."""
    shapes = []
    fold = scheme_module._fold

    def recorded(tables):
        shapes.append([t.shape for t in tables])
        return fold(tables)

    base = hamming(2, 2)
    bare = AssociationScheme(base.relation)
    monkeypatch.setattr(scheme_module, "_fold", recorded)
    g = build_explicit(base, 2)
    assert shapes == [[(1, 4)] * 2, [(2, 2)] * 4]
    del shapes[:]
    assert (build_explicit(bare, 2).relation == g.relation).all()
    assert shapes == [[(4, 4)] * 2]


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


@pytest.mark.parametrize("build, message", [
    (lambda: build_explicit(one_class(2), 10**6),
     "2^1000000 vertices exceeds cap 4096"),
    (lambda: hamming(10**7, 3), "3^10000000 vertices exceeds cap 4096"),
    # one vertex in class 1: no scheme, and its class tuples are capped
    (lambda: build_explicit(AssociationScheme([[1]], check=False), 10**6),
     "2^1000000 class tuples exceeds cap 4096"),
    # one vertex: 1^n passes every cap, and the word length is refused
    (lambda: build_explicit(AssociationScheme([[0]]), 10**6),
     "word length 1000000 exceeds 64, the most axes of a class-tuple array"),
], ids=["binary", "hamming", "class-tuples", "one-vertex"])
def test_composite_caps_come_before_any_n_sized_work(build, message):
    """The caps compare v^n and (d+1)^n with the cap without forming
    either power or any list of n positions first."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded) as info:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 2**20


def test_one_vertex_composite_up_to_64_positions():
    one = AssociationScheme([[0]])
    g = build_explicit(one, 64)
    assert (g.v, g.d) == (1, 0)
    with pytest.raises(SizeCapExceeded, match="^word length 65 exceeds 64"):
        build_explicit(one, 65)


def test_ghscheme_class_of():
    gh = GHScheme(one_class(2), 2)
    assert gh.v == 4
    assert gh.num_classes == 3
    assert class_of(gh.base, (0, 1), (0, 1)) == 0
    assert class_of(gh.base, (0, 0), (1, 1)) == 2
    comps = gh.compositions
    assert comps[class_of(gh.base, (0, 0), (0, 1))] == (1, 1)


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


DUALITY_BASES = {
    "one_class:2": lambda: one_class(2), "one_class:3": lambda: one_class(3),
    "one_class:5": lambda: one_class(5), "cycle:4": lambda: cycle_scheme(4),
    "cycle:6": lambda: cycle_scheme(6), "group:4": lambda: group_scheme([4]),
    "group:2:2": lambda: group_scheme([2, 2]), "hamming:2:2": lambda: hamming(2, 2),
}


@pytest.mark.parametrize("name", sorted(DUALITY_BASES))
def test_composite_duality_identity_is_multiplicative(name):
    """induced(P, n) induced(v P^-1, n) == v^n I for n = 0..8 on the bench
    bases: the composite identity that `formal_duality_check` reads off
    the base, which holds because induced_matrix is multiplicative."""
    base = DUALITY_BASES[name]()
    P = eigenmatrix(base)
    Q = dual_eigenmatrix(P, base.v)
    for n in range(9):
        product = induced_matrix(P, n) @ induced_matrix(Q, n)
        assert product.scalar_value() == base.v**n, n
        assert formal_duality_check(P, base.v, n).identity_holds


def test_formal_duality_forms_no_induced_matrix(monkeypatch):
    def refuse(M, n):
        raise AssertionError("formal_duality_check formed an induced matrix")

    monkeypatch.setattr(genham, "induced_matrix", refuse)
    P = eigenmatrix(group_scheme([4]))
    fd = formal_duality_check(P, 4, 8)
    assert fd.identity_holds and fd.self_dual


def test_formal_duality_refuses_a_bad_n():
    P = eigenmatrix(one_class(2))
    with pytest.raises(ValueError):
        formal_duality_check(P, 2, -1)
    for n in (1.5, 2.0, "2", None):
        with pytest.raises(TypeError):
            formal_duality_check(P, 2, n)
    assert formal_duality_check(P, 2, np.int64(3)).identity_holds


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


def test_fusion_check_trans_builds_no_scheme(monkeypatch):
    """The mapping comes from compositions alone: binary (4, 4), whose
    65,536 words are past the vertex cap, has 70 fine classes."""
    def fail(*args, **kwargs):
        raise AssertionError("an explicit scheme was built")

    monkeypatch.setattr(genham, "build_explicit", fail)
    monkeypatch.setattr(genham, "_orbit_power", fail)
    rep = fusion_check_trans(one_class(2), 4, 4)
    assert (rep.ok, rep.detail) == (True, "")
    assert len(rep.mapping) == 70
    assert sorted(set(rep.mapping)) == list(range(17))  # compositions of 16
    assert rep == fusion_check_trans(one_class(5), 4, 4)  # d alone counts


@pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (-1, 1)])
def test_fusion_check_trans_needs_positive_sizes(m, n):
    with pytest.raises(ValueError):
        fusion_check_trans(one_class(2), m, n)


def test_fusion_check_trans_caps_fine_classes():
    # binary (4, 4): C(4+4, 4) = 70 fine classes
    assert len(fusion_check_trans(one_class(2), 4, 4, cap=70).mapping) == 70
    with pytest.raises(SizeCapExceeded, match="70 fine classes exceeds cap 69"):
        fusion_check_trans(one_class(2), 4, 4, cap=69)
    # refused from the counts alone: 501 classes at n = 2 would list
    # C(502, 2) = 125,751 inner classes of 501 parts each
    with pytest.raises(SizeCapExceeded, match="125751 fine classes"):
        fusion_check_trans(cycle_scheme(1001), 1, 2)
