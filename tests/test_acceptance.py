"""End-to-end acceptance gate.

Each test below checks one of the numbered project acceptance criteria,
so `pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion.  Everything is exact (Gaussian-rational) unless a test says
otherwise; random checks use fixed seeds.

Criterion 1 is split: 1a covers the frozen eigenmatrices of the three
named schemes, which hold; 1b states the squared-eigenmatrix identity
for the order-4 group scheme exactly as claimed, and is expected to
FAIL — the cube-root-free facts that do hold are printed by the test
and described in README.md.
"""

import random
from pathlib import Path

from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.codes import (
    Code,
    dual_code,
    gray_image,
    gray_lee_check,
    macwilliams_transform,
    weight_enumerator,
    z4_enumerators,
)
from schemekit.exact import ExactMatrix, GaussRat, MPoly, compositions
from schemekit.genham import (
    build_explicit,
    eigenmatrix_gh,
    formal_duality_check,
    fusion_check_trans,
)
from schemekit.modular import induced_modular_check, search_T, verify_modular
from schemekit.scheme import (
    eigenmatrix,
    fusion,
    krein_parameters,
    sort_rows_canonically,
    verify_axioms,
)

from oracles import dual_weight_enumerator_direct


BINARY = one_class(2)
TERNARY = one_class(3)
C_SCHEME = cycle_scheme(4)      # 2-class scheme on 4 points
D_SCHEME = group_scheme([4])    # 3-class scheme of the order-4 group

GRID_BASES = (BINARY, TERNARY, C_SCHEME, D_SCHEME)


def mat(rows):
    return ExactMatrix([[x if isinstance(x, GaussRat) else GaussRat(x)
                         for x in row] for row in rows])


def random_code(rng, base, n, max_size):
    universe = base.v**n
    size = rng.randrange(1, min(max_size, universe) + 1)
    picks = rng.sample(range(universe), size)
    words = []
    for i in picks:
        w = []
        for _ in range(n):
            i, digit = divmod(i, base.v)
            w.append(digit)
        words.append(tuple(reversed(w)))
    return Code(words, base, n)


def random_additive_code(rng, base, n):
    tr = base.translation
    width = len(tr.orders)
    orders = list(tr.orders) * n
    zero = tuple([0] * (width * n))
    gens = [tuple(rng.randrange(m) for m in orders)
            for _ in range(rng.randrange(0, 3))]
    group = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((x + y) % m for x, y, m in zip(cur, g, orders))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    words = []
    for flat in sorted(group):
        word = tuple(int(tr.index(flat[j * width:(j + 1) * width]))
                     for j in range(n))
        words.append(word)
    return Code(words, base, n)


# -- criterion 1: eigenmatrices of the three named small schemes ---------


def test_criterion_01a_explicit_eigenmatrices():
    for q in (2, 3, 5):
        assert eigenmatrix(one_class(q)) == mat([[1, q - 1], [1, -1]])
    assert eigenmatrix(C_SCHEME) == mat([[1, 2, 1],
                                         [1, 0, -1],
                                         [1, -2, 1]])
    i = GaussRat(0, 1)
    assert eigenmatrix(D_SCHEME) == mat([[1, 1, 1, 1],
                                         [1, i, -1, -i],
                                         [1, -1, 1, -1],
                                         [1, -i, -1, i]])


def test_criterion_01b_group4_eigenmatrix_squares_to_4I():
    """P^2 = 4I for the order-4 group scheme, stated exactly as claimed.

    This is expected to fail: squaring permutes the two conjugate
    classes, so P^2 = 4R for the permutation matrix R swapping rows 1
    and 3, and it is P times its entrywise conjugate that equals 4I.
    The diagnostics below record the identities that do hold.
    """
    P = eigenmatrix(D_SCHEME)
    four_eye = ExactMatrix.identity(4).scale(GaussRat(4))
    square = P @ P
    if square != four_eye:
        swapped = ExactMatrix.identity(4).permuted((0, 3, 2, 1),
                                                   (0, 1, 2, 3))
        print("P^2 == 4I is FALSE for the order-4 group scheme.")
        print("what holds instead:")
        print("  P^2 == 4R with R the permutation swapping classes 1,3:",
              square == swapped.scale(GaussRat(4)))
        print("  P conj(P) == 4I:",
              P @ P.conjugate() == four_eye)
    assert square == four_eye


# -- criterion 2: explicit composite schemes satisfy the axioms ----------


def test_criterion_02_composite_schemes_pass_axioms():
    for base in GRID_BASES:
        for n in (2, 3):
            if base.v**n > 4096:
                continue
            g = build_explicit(base, n)
            report = verify_axioms(g.relation)
            assert report.ok, (base.v, n, str(report.first_failure()))


# -- criterion 3: generating-function eigenvalues match the certified ones


def test_criterion_03_induced_eigenmatrix_matches_certified():
    for base in GRID_BASES:
        for n in (2, 3):
            if base.v**n > 4096:
                continue
            g = build_explicit(base, n)
            lhs = sort_rows_canonically(eigenmatrix_gh(eigenmatrix(base), n))
            rhs = sort_rows_canonically(eigenmatrix(g))
            assert lhs == rhs, (base.v, n)


# -- criterion 4: two-class unfolding into Krawtchouk-style products -----


def test_criterion_04_two_class_rows_unfold_as_products():
    for q in (2, 3, 4):
        P1 = eigenmatrix(one_class(q))
        for n in range(1, 7):
            Pn = eigenmatrix_gh(P1, n)
            s0 = MPoly.variable(0, 2)
            s1 = MPoly.variable(1, 2)
            a = s0 + s1 * MPoly.constant(2, GaussRat(q - 1))
            b = s0 - s1
            for j in range(n + 1):
                product = a ** (n - j) * b ** j
                for i in range(n + 1):
                    coeff = product.terms.get((n - i, i), GaussRat(0))
                    assert Pn[j, i] == coeff, (q, n, j, i)


# -- criterion 5: transform equals the idempotent oracle on random codes -


def test_criterion_05_transform_matches_oracle_on_random_codes():
    rng = random.Random(50_051)
    trials = 0
    for base in (BINARY, C_SCHEME, D_SCHEME):
        P = eigenmatrix(base)
        for n in (1, 2):
            for _ in range(9):
                code = random_code(rng, base, n, 8)
                lhs = macwilliams_transform(weight_enumerator(code), P,
                                            base.v, len(code))
                rhs = dual_weight_enumerator_direct(code)
                assert lhs == rhs, (base.v, n, code.words)
                trials += 1
    assert trials >= 50


# -- criterion 6: additive duality on random subgroup codes --------------


def test_criterion_06_additive_duality_random_codes():
    rng = random.Random(60_061)
    trials = 0
    for base in (BINARY, D_SCHEME, group_scheme([2, 2])):
        P = eigenmatrix(base)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                code = random_additive_code(rng, base, n)
                dual = dual_code(code)
                lhs = weight_enumerator(dual)
                rhs = macwilliams_transform(weight_enumerator(code), P,
                                            base.v, len(code))
                assert lhs == rhs, (base.v, n, code.words)
                assert len(code) * len(dual) == base.v**n
                double = dual_code(dual)
                assert sorted(double.words) == sorted(code.words)
                trials += 1
    assert trials >= 50


# -- criterion 7: order-4 enumerator identities ---------------------------


def test_criterion_07_z4_enumerator_identities():
    rng = random.Random(70_071)
    P_complete = eigenmatrix(D_SCHEME)
    fused = fusion(D_SCHEME, [[0], [1, 3], [2]])
    P_sym = eigenmatrix(fused)
    trials = 0
    for n in (1, 2, 3, 4):
        for _ in range(6):
            code = random_additive_code(rng, D_SCHEME, n)
            dual = dual_code(code)
            mine = z4_enumerators(code)
            theirs = z4_enumerators(dual)

            # complete identity
            assert theirs.complete == macwilliams_transform(
                mine.complete, P_complete, 4, len(code))

            # symmetrized identity through the fused three-class scheme
            assert theirs.symmetrized == macwilliams_transform(
                mine.symmetrized, P_sym, 4, len(code))

            # Gray/Lee substitution identity
            assert gray_lee_check(code)

            # Lee enumerator is the weight enumerator of the Gray image
            assert mine.lee == weight_enumerator(gray_image(code))
            trials += 1
    assert trials >= 20


# -- criterion 8: nesting composites is a fusion with one split class ----


def test_criterion_08_nested_composite_fusion():
    rep = fusion_check_trans(BINARY, 2, 2)
    assert rep.ok
    assert rep.split_classes == {2: (2, 3)}
    # the split coarse class is the middle-weight one
    assert compositions(4, 2)[2] == (2, 2)

    rep3 = fusion_check_trans(TERNARY, 2, 2)  # 81 vertices, within cap
    assert rep3.ok


# -- criterion 9: composite schemes are formally self-dual ---------------


def test_criterion_09_formal_self_duality():
    for base in (C_SCHEME, one_class(2), one_class(3), one_class(4)):
        P = eigenmatrix(base)
        v = base.v
        Q = P.inverse().scale(GaussRat(v))
        for n in (2, 3):
            lhs = eigenmatrix_gh(Q, n)
            rhs = eigenmatrix_gh(P, n).inverse().scale(GaussRat(v**n))
            assert lhs == rhs, (v, n)
            fd = formal_duality_check(P, v, n)
            assert fd.identity_holds and fd.self_dual, (v, n)


# -- criterion 10: modular invariance witness and its lift ---------------


def test_criterion_10_modular_witness_and_lift():
    P = eigenmatrix(BINARY)
    w = search_T(P)
    assert w is not None
    i = GaussRat(0, 1)
    assert w.T[0, 0] == GaussRat(1)
    assert (w.T[1, 1], w.c) in (
        (i, GaussRat(2) + GaussRat(0, 2)),
        (-i, GaussRat(2) - GaussRat(0, 2)),
    )
    assert verify_modular(P, w.T).c == w.c

    for n in (2, 3):
        rep = induced_modular_check(P, w.T, w.c, n)
        assert rep.holds and rep.t_hat_consistent
        assert rep.constant == w.c**n
        assert rep.matches_expected

    # the induced constant is c^n, not c; README.md documents this
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert "c^n" in readme.read_text()


# -- criterion 11: Krein parameters --------------------------------------


def test_criterion_11_krein_parameters():
    built_ins = [one_class(q) for q in (2, 3, 4, 5)]
    built_ins += [hamming(2, 2), hamming(3, 2), hamming(2, 3)]
    built_ins += [C_SCHEME, D_SCHEME,
                  group_scheme([2, 2]), group_scheme([2, 4])]
    for s in built_ins:
        q = krein_parameters(s)
        k = s.d + 1
        for i in range(k):
            for j in range(k):
                for r in range(k):
                    val = q[i, j, r]
                    assert val.im == 0, (s.v, i, j, r, str(val))
                    assert val.re >= 0, (s.v, i, j, r, str(val))

    # order-4 group scheme: convolution pattern of the character group
    q = krein_parameters(D_SCHEME)
    for i in range(4):
        for j in range(4):
            for r in range(4):
                expect = GaussRat(1 if (i + j) % 4 == r else 0)
                assert q[i, j, r] == expect
