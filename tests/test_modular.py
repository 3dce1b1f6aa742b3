import ast
import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import schemekit
from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.errors import (
    DimensionMismatch,
    NotScalar,
    SchemeKitError,
    SingularMatrix,
)
from schemekit.exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    induced_matrix,
    substitute_polys,
)
from schemekit.genham import build_explicit, eigenmatrix_gh
from schemekit import modular
from schemekit.modular import (
    _FIRST_RESTARTS,
    _HEURISTIC_VALUES,
    _LM_ITERATIONS,
    _SEARCH_RESTARTS,
    _SEARCH_SEED,
    _coeff_list,
    _cramer_candidates,
    _cube_constraints,
    _cube_residual,
    _exact_roots,
    _gcd_many,
    _gp_mul,
    _gp_roots,
    _numeric_candidates,
    _quadrics,
    _resultant_y,
    _y_coefficients,
    induced_modular_check,
    least_squares,
    search_T,
    verify_modular,
)
from schemekit.scheme import eigenmatrix, fusion, tensor_product

import oracles


P_BINARY = eigenmatrix(one_class(2))
P_CYCLE4 = eigenmatrix(cycle_scheme(4))
I_UNIT = GaussRat(0, 1)


def diag(*entries):
    return ExactMatrix.diagonal([GaussRat(e) if not isinstance(e, GaussRat)
                                 else e for e in entries])


def _gauss_matrix(rows):
    return ExactMatrix([[x if isinstance(x, GaussRat) else GaussRat(x)
                         for x in row] for row in rows])


def _plus_one(P, at):
    """P with a class of its own, of eigenvalue 1, inserted at index at:
    a P of one more class, whose witnesses are those of P with a cube
    root of their c inserted."""
    k = P.nrows
    order = list(range(k))
    order.insert(at, k)
    return ExactMatrix([[P[i, j] if max(i, j) < k else GaussRat(int(i == j))
                         for j in order] for i in order])


def _refuse_least_squares(monkeypatch):
    def no_solve(residual, x0):
        raise AssertionError("least_squares called")

    monkeypatch.setattr(modular, "least_squares", no_solve)


P_Z4 = eigenmatrix(group_scheme([4]))
P_Z22 = eigenmatrix(group_scheme([2, 2]))
# five classes each, so that search_T reaches the numeric stream
P_C6_PLUS = _plus_one(eigenmatrix(cycle_scheme(6)), 4)
P_Z4_PLUS = _plus_one(P_Z4, 4)
P_Z22_PLUS = _plus_one(P_Z22, 1)
W_Z22_PLUS = ((1, -2 * I_UNIT, I_UNIT, I_UNIT, -1), GaussRat(0, 8))


# -- verify_modular ------------------------------------------------------


def test_verify_binary_witness():
    w = verify_modular(P_BINARY, diag(1, I_UNIT))
    assert w.c == GaussRat(2) + GaussRat(0, 2)  # 2 + 2i


def test_verify_cycle4_witness():
    w = verify_modular(P_CYCLE4, diag(1, 1, -1))
    assert w.c == GaussRat(8)


def test_verify_cycle4_family():
    # the cube is scalar for every value of the middle entry
    for t in (GaussRat(2), GaussRat(0, 1), GaussRat(-5)):
        w = verify_modular(P_CYCLE4, diag(GaussRat(1), t, GaussRat(-1)))
        assert w.c == GaussRat(8) * t


def test_verify_rejects_non_scalar():
    with pytest.raises(NotScalar) as err:
        verify_modular(P_BINARY, diag(1, 1))
    assert err.value.entry is not None


def test_verify_rejects_a_non_constant_diagonal():
    # (PT)^3 = diag(1, 8): no off-diagonal entry, but no single c
    with pytest.raises(NotScalar) as err:
        verify_modular(diag(1, 2), diag(1, 1))
    assert err.value.entry == (1, 1, GaussRat(8))
    assert str(err.value) == "(PT)^3 diagonal is not constant: 1 vs 8 at 1"


def test_verify_rejects_zero():
    with pytest.raises(NotScalar):
        verify_modular(P_BINARY, diag(0, 0))


def test_verify_rejects_non_diagonal():
    T = ExactMatrix([[GaussRat(1), GaussRat(1)],
                     [GaussRat(0), GaussRat(1)]])
    with pytest.raises(NotScalar):
        verify_modular(P_BINARY, T)


def test_verify_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_modular(P_BINARY, diag(1, 1, 1))


def _oracle_full_check(P, T):
    """verify_modular entry by entry on the whole cube, in GaussRat
    arithmetic: (message, entry) of the first failure, or (None, c)."""
    k = P.nrows
    M = [[P[i, j] * T[j, j] for j in range(k)] for i in range(k)]
    K = M
    for _ in range(2):
        K = [[sum((K[i][r] * M[r][j] for r in range(k)), GaussRat(0))
              for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j and K[i][j]:
                return ("(PT)^3 has nonzero off-diagonal entry %s at (%d, %d)"
                        % (K[i][j], i, j), (i, j, K[i][j]))
    c = K[0][0]
    for i in range(1, k):
        if K[i][i] != c:
            return ("(PT)^3 diagonal is not constant: %s vs %s at %d"
                    % (c, K[i][i], i), (i, i, K[i][i]))
    if not c:
        return "(PT)^3 is the zero matrix; c = 0 is rejected", (0, 0, c)
    return None, c


def _checked(P, T):
    try:
        return None, verify_modular(P, T).c
    except NotScalar as err:
        return str(err), err.entry


@pytest.mark.parametrize("P", [eigenmatrix(group_scheme([4])),
                               eigenmatrix(cycle_scheme(6))],
                         ids=["group:4", "cycle:6"])
def test_row_zero_check_reports_as_the_full_cube(P):
    # every distinct candidate of the numeric stream, most of them
    # irrational points snapped to nearby Gaussian rationals
    candidates = list(dict.fromkeys(_numeric_candidates(P, _SEARCH_RESTARTS)))
    assert len(candidates) > 1
    rows = set()
    for entries in candidates:
        T = ExactMatrix.diagonal([GaussRat(1), *entries])
        got = _checked(P, T)
        assert got == _oracle_full_check(P, T)
        rows.add(got[1][0] if got[0] else None)
    assert 0 in rows  # some fail in row 0 of the cube


_VERIFY_CASES = [
    (P_BINARY, diag(1, I_UNIT)),
    (P_BINARY, diag(1, 1)),
    (P_BINARY, diag(0, 0)),
    (diag(1, 2), diag(1, 1)),
    (_gauss_matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]]), diag(1, 1, 1)),
    (eigenmatrix(group_scheme([2, 2])),
     diag(1, -I_UNIT, -I_UNIT, -1)),
    (eigenmatrix(group_scheme([2, 2])).scale(GaussRat(Fraction(1, 3), 1)),
     diag(1, GaussRat(Fraction(1, 2)), GaussRat(0, Fraction(-2, 5)), 3)),
]


@pytest.mark.parametrize("P, T", _VERIFY_CASES,
                         ids=["witness", "off-diagonal", "zero",
                              "non-constant", "lower-row", "complex-witness",
                              "fractional"])
def test_verify_reports_as_the_full_cube(P, T):
    assert _checked(P, T) == _oracle_full_check(P, T)


def test_verify_decides_on_the_numerators(monkeypatch):
    # with no GaussRat rows to read, every case and every distinct
    # group:4 candidate still reports as the full cube does
    P4 = eigenmatrix(group_scheme([4]))
    cases = _VERIFY_CASES + [
        (P4, ExactMatrix.diagonal([GaussRat(1), *entries]))
        for entries in dict.fromkeys(_numeric_candidates(P4,
                                                         _SEARCH_RESTARTS))]
    want = [_oracle_full_check(P, T) for P, T in cases]

    def refuse(self):
        raise AssertionError("read the GaussRat rows")

    monkeypatch.setattr(ExactMatrix, "rows", refuse)
    assert [_checked(P, T) for P, T in cases] == want


# -- search_T -------------------------------------------------------------


def test_search_binary():
    w = search_T(P_BINARY)
    assert w is not None
    assert w.T == diag(1, I_UNIT)
    assert w.c == GaussRat(2) + GaussRat(0, 2)


def test_search_one_class_one_element():
    # the trivial one-point scheme: P = [[1]], T = [1], c = 1
    P = ExactMatrix([[GaussRat(1)]])
    w = search_T(P)
    assert w is not None
    assert w.c == GaussRat(1)


def test_search_cycle4():
    w = search_T(P_CYCLE4)
    assert w is not None
    assert w.T == diag(1, 1, -1)
    assert w.c == GaussRat(8)


def test_search_is_deterministic():
    a = search_T(P_CYCLE4)
    b = search_T(P_CYCLE4)
    assert a.T == b.T and a.c == b.c


def test_search_hamming22_matches_cycle4():
    # H(2, one_class(2)) and the 4-cycle share an eigenmatrix up to
    # reordering, and here the canonical forms agree exactly
    P = eigenmatrix(hamming(2, 2))
    w = search_T(P)
    assert w is not None
    assert verify_modular(P, w.T).c == w.c


def test_search_none_for_ternary():
    # no diagonal witness exists over the Gaussian rationals here
    assert search_T(eigenmatrix(one_class(3))) is None


def test_search_none_for_z4(monkeypatch):
    # decided by the exact 4x4 route, with no numeric restart
    _refuse_least_squares(monkeypatch)
    assert search_T(P_Z4) is None


def test_search_group22_witness(monkeypatch):
    # four classes: the exact 4x4 route, whose candidates hold all four
    # witnesses; this one comes first in (im, re) ascending order
    _refuse_least_squares(monkeypatch)
    w = search_T(P_Z22)
    assert w is not None
    assert w.T == diag(1, -I_UNIT, -I_UNIT, -1)
    assert w.c == GaussRat(0, -8)
    witnesses = [e for e in _cramer_candidates(P_Z22, P_Z22.inverse())
                 if _oracle_verify(P_Z22, [e])]
    assert len(witnesses) == 4
    assert witnesses[0] == (-I_UNIT, -I_UNIT, GaussRat(-1))


def test_search_none_for_cycle6(monkeypatch):
    # its witnesses lie in Q(zeta_12), so none snaps to a Gaussian
    # rational; the exact 4x4 route decides that with no numeric restart
    _refuse_least_squares(monkeypatch)
    assert search_T(eigenmatrix(cycle_scheme(6))) is None


@pytest.mark.parametrize("P", [eigenmatrix(hamming(3, 2)),
                               eigenmatrix(build_explicit(one_class(2), 3))],
                         ids=["hamming:3:2", "build_explicit:one_class:2:3"])
def test_search_finds_the_binary_cube_witness(monkeypatch, P):
    # c = (2 - 2i)^3, the cube of the c of the binary witness diag(1, -i);
    # the numeric restarts stop about 1.5e-8 from this singular root,
    # outside the snap, and miss it
    _refuse_least_squares(monkeypatch)
    w = search_T(P)
    assert w is not None
    assert w.T == diag(1, -I_UNIT, -1, I_UNIT)
    assert w.c == GaussRat(-16, -16)


def test_search_one_class4_double_root():
    # the cube's gcd has t = -1 as a double root, which np.roots alone
    # leaves about 1e-8 off, outside the snap
    w = search_T(eigenmatrix(one_class(4)))
    assert w.T == diag(1, -1)
    assert w.c == GaussRat(-8)


@pytest.mark.parametrize("P", [
    ExactMatrix([[GaussRat(x) for x in row]
                 for row in ((1, 1, 1), (1, 1, 1), (1, -1, 0))]),
    ExactMatrix([[GaussRat(x) for x in row]
                 for row in ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1),
                             (2, 0, 2, 0))]),
    _gauss_matrix([[0]]),
    _gauss_matrix([[1, I_UNIT], [I_UNIT, -1]]),
], ids=["3x3", "4x4", "1x1", "2x2"])
def test_search_singular_p_searches_nothing(monkeypatch, P):
    # det (PT)^3 = c^k is nonzero for every witness, so det P must be;
    # the inverse that gives b refuses P before the 1x1 shortcut and
    # before either stream
    def refuse(*args):
        raise AssertionError("searched a singular P")

    for name in ("least_squares", "verify_modular", "_quadrics",
                 "_exact_candidates", "_cramer_candidates",
                 "_numeric_candidates"):
        monkeypatch.setattr(modular, name, refuse)
    assert search_T(P) is None


def test_search_cycle4_takes_one_resultant(monkeypatch):
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return _resultant_y(f, g)

    monkeypatch.setattr(modular, "_resultant_y", counting)
    assert search_T(P_CYCLE4).T == diag(1, 1, -1)
    assert len(calls) == 1


def test_search_nonpositive_restarts_search_nothing(monkeypatch):
    _refuse_least_squares(monkeypatch)
    assert search_T(P_C6_PLUS, restarts=0) is None
    assert search_T(P_C6_PLUS, restarts=-3) is None


def _recording_least_squares(monkeypatch):
    """The block sizes of the `least_squares` calls from now on."""
    sizes = []

    def recording(residual, x0):
        sizes.append(len(x0))
        return least_squares(residual, x0)

    monkeypatch.setattr(modular, "least_squares", recording)
    return sizes


@pytest.mark.parametrize("restarts, found", [
    (2, False), (3, True), (7, True), (8, True), (9, True), (209, True),
    (401, True)])
def test_search_returns_lowest_index_witness(restarts, found):
    # the stream itself on group:2:2's P, which search_T now decides
    # exactly: restart 2 is the first whose snapped point verifies;
    # budgets at and around the first block's end, and 401 restarts (four
    # blocks), all give that restart's witness first
    w = _oracle_verify(P_Z22, _numeric_candidates(P_Z22, restarts))
    if not found:
        assert w is None
    else:
        assert w.T == diag(1, -I_UNIT, -I_UNIT, -1)
        assert w.c == GaussRat(0, -8)


def test_search_runs_restarts_in_bounded_blocks(monkeypatch):
    # the stream itself, on a P that search_T now decides exactly; its
    # zero-entry points and repeats, which search_T skips, are dropped
    # before the check
    sizes = _recording_least_squares(monkeypatch)
    stream = _numeric_candidates(P_Z4, 450)
    assert _oracle_verify(P_Z4, {e for e in stream if all(e)}) is None
    assert sizes == [8, 200, 200, 42]


def test_search_stops_in_the_first_block(monkeypatch):
    # group:2:2's witness comes from restart 2, so a consumer of the
    # stream that stops at it runs the first block only (search_T does,
    # on a P of five classes: test_search_memo_keys_on_restarts)
    sizes = _recording_least_squares(monkeypatch)
    w = _oracle_verify(P_Z22, _numeric_candidates(P_Z22, _SEARCH_RESTARTS))
    assert w.T == diag(1, -I_UNIT, -I_UNIT, -1)
    assert sizes == [_FIRST_RESTARTS]


def _recording_verify(monkeypatch):
    """The diagonals `verify_modular` is called on from now on."""
    seen = []

    def recording(P, T):
        seen.append(tuple(T[i, i] for i in range(T.nrows)))
        return verify_modular(P, T)

    monkeypatch.setattr(modular, "verify_modular", recording)
    return seen


def test_search_verifies_each_candidate_once(monkeypatch):
    # the stream's points with no zero entry here come from restarts 11,
    # 14, 26, 53 and 65, and restart 65 repeats one of the others
    restarts = 72
    seen = _recording_verify(monkeypatch)
    assert search_T(P_C6_PLUS, restarts) is None
    assert len(seen) == len(set(seen)) == 4
    assert len(seen) <= restarts // 4


def test_search_refuses_a_non_square_P():
    P = ExactMatrix([[GaussRat(1), GaussRat(1), GaussRat(0)],
                     [GaussRat(1), GaussRat(-1), GaussRat(0)]])
    with pytest.raises(DimensionMismatch, match="^P must be square$"):
        search_T(P)


def test_search_verifies_a_repeat_across_streams_once(monkeypatch):
    # the quadrics of this P have a positive-dimensional component, so
    # the exact stream (t_1 a heuristic value, t_2 = 4i) ends with the
    # numeric stream, here replaced by one that repeats it, then adds one
    P = _gauss_matrix([[2, 0, I_UNIT], [1, -1, 0], [1, 0, 0]])
    exact = [(t, GaussRat(0, 4)) for t in _HEURISTIC_VALUES]
    new = (GaussRat(2), GaussRat(4))
    seen = []

    def recording(P, T):
        seen.append((T[1, 1], T[2, 2]))
        return verify_modular(P, T)

    monkeypatch.setattr(modular, "verify_modular", recording)
    monkeypatch.setattr(modular, "_numeric_candidates",
                        lambda P, restarts: iter(exact[::-1] + [new] + exact))
    assert search_T(P) is None
    assert seen == exact + [new]


def test_search_verifies_no_candidate_with_a_zero_entry(monkeypatch):
    # det (PT)^3 = det(P)^3 det(T)^3, so a zero entry of T forces c = 0:
    # most restarts on group:4's and group:2:2's P, each with a class of
    # its own added, converge to such points: six of the first eight on
    # the first, restarts 0 and 1 before the witness on the second
    seen = _recording_verify(monkeypatch)
    assert search_T(P_Z4_PLUS, _FIRST_RESTARTS) is None
    w = search_T(P_Z22_PLUS)
    assert w.T == diag(*W_Z22_PLUS[0]) and w.c == W_Z22_PLUS[1]
    assert seen and all(all(entries) for entries in seen)
    # nor from the exact stream: every candidate of this P has t_2 = 0
    seen.clear()
    monkeypatch.setattr(modular, "_numeric_candidates",
                        lambda P, restarts: iter([(GaussRat(2), GaussRat(0))]))
    assert search_T(_gauss_matrix([[0, 0, 1], [2, 2, 2],
                                   [I_UNIT, -1, 0]])) is None
    assert seen == []


def test_search_serves_an_equal_P_from_the_memo(monkeypatch):
    # cycle:4 and hamming:2:2 have equal eigenmatrices, built apart
    P = eigenmatrix(hamming(2, 2))
    assert P == P_CYCLE4 and P is not P_CYCLE4
    w = search_T(P_CYCLE4)

    def refuse(*args):
        raise AssertionError("searched again")

    for name in ("_exact_candidates", "_numeric_candidates",
                 "verify_modular"):
        monkeypatch.setattr(modular, name, refuse)
    monkeypatch.setattr(ExactMatrix, "inverse", refuse)
    assert search_T(P) == w


def test_search_memo_keys_on_restarts(monkeypatch):
    # the witness comes from restart 2, within either budget's first block
    sizes = _recording_least_squares(monkeypatch)
    P = P_Z22_PLUS
    w = search_T(P, 7)
    assert w.T == diag(*W_Z22_PLUS[0])
    assert search_T(P, 200) == w
    assert sizes == [7, _FIRST_RESTARTS]
    assert search_T(P, 7) == w and search_T(P, 200) == w
    assert search_T(P) == w and search_T(P, restarts=200) == w
    assert len(sizes) == 2
    info = modular._search.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 2, 2)


def _two_entry_memo(monkeypatch):
    monkeypatch.setattr(modular, "_search",
                        functools.lru_cache(maxsize=2)(modular._search.__wrapped__))


def test_search_memo_drops_the_least_recently_used(monkeypatch):
    _two_entry_memo(monkeypatch)
    a, b, c = (eigenmatrix(one_class(q)) for q in (2, 3, 4))
    for P in (a, b, a, c):
        search_T(P)
    assert modular._search.cache_info()[:2] == (1, 3)  # hits, misses
    # a and c are kept (each a hit), b was dropped (a miss)
    search_T(c)
    search_T(a)
    assert modular._search.cache_info()[:2] == (3, 3)
    search_T(b)
    assert modular._search.cache_info()[:2] == (3, 4)


def test_search_memo_is_safe_across_threads(monkeypatch):
    # more threads than cores, a two-entry memo cycled through three
    # keys so that entries are evicted while others are read, a short
    # switch interval, and searches that find nothing at once
    _two_entry_memo(monkeypatch)
    monkeypatch.setattr(modular, "_candidates", lambda P, restarts: ())
    Ps = [eigenmatrix(one_class(q)) for q in (2, 3, 4)]
    errors = []

    def work():
        try:
            for i in range(10000):
                assert search_T(Ps[i % 3]) is None
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert modular._search.cache_info().currsize == 2


def test_search_witness_is_frozen():
    w = search_T(P_BINARY)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.c = GaussRat(1)
    assert search_T(P_BINARY).c == GaussRat(2, 2)


def test_only_search_T_verifies():
    """Candidate sources yield diagonals; search_T's memoised search
    (`_search`) alone checks them."""
    callers = [fn.name for fn in ast.walk(ast.parse(
                   Path(modular.__file__).read_text()))
               if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Name)
                       and node.id == "verify_modular"
                       for node in ast.walk(fn))]
    assert callers == ["_search"]


def test_least_squares_drops_only_singular_rows():
    # r(x) = x - 1, except that a row starting at x[0] = 5 sees a zero
    # Jacobian, so its damped system is singular at the first step
    def residual(x):
        r = x - 1.0
        A = np.broadcast_to(np.eye(x.shape[1]), (len(x),) + (x.shape[1],) * 2)
        A = np.where((x[:, 0] == 5.0)[:, None, None], 0.0, A)
        g = np.where((x[:, :1] == 5.0), 1.0, r)
        return 0.5 * np.sum(r * r, axis=1), A, g

    x, cost = least_squares(residual, [[0.0, 2.0], [5.0, 0.0], [3.0, -1.0]])
    assert cost[1] == np.inf
    assert np.all(cost[[0, 2]] <= 1e-30)
    assert np.allclose(x[[0, 2]], 1.0)


# -- the single-restart Levenberg-Marquardt the batched one replaced --------


def _oracle_cube_residual(Pn):
    """Real residual r and Jacobian J of (P diag(1, t))^3 = c I at one
    point x = (Re t, Im t)."""
    k = Pn.shape[0]
    d = k - 1
    basis = np.eye(k * k)
    defect = np.concatenate(
        [basis[:, ~np.eye(k, dtype=bool).ravel()],
         basis[:, (k + 1) * np.arange(1, k)] - basis[:, :1]], axis=1)
    cols = Pn[:, 1:].T[:, :, None]
    units = np.eye(k)[1:, None, :]

    def residual(x):
        M = Pn * np.concatenate([[1.0], x[:d] + 1j * x[d:]])
        M2 = M @ M
        dK = (cols * M2[1:, None, :] + (M @ cols) * M[1:, None, :]
              + (M2 @ cols) * units)
        r = (M2 @ M).reshape(k * k) @ defect
        D = (dK.reshape(d, k * k) @ defect).T
        J = np.concatenate([D, 1j * D], axis=1)
        return (np.concatenate([r.real, r.imag]),
                np.concatenate([J.real, J.imag]))

    return residual


def _oracle_least_squares(residual, x0):
    """One restart: the batched solver's rules, step by step."""
    x = np.asarray(x0, dtype=float)
    eye = np.eye(x.size)
    r, J = residual(x)
    cost = 0.5 * (r @ r)
    A, g = J.T @ J, J.T @ r
    damping, growth = 1e-3 * np.max(np.diag(A)), 2.0
    for _ in range(_LM_ITERATIONS):
        if cost <= 1e-30 or np.max(np.abs(g)) <= 1e-15:
            break
        step = np.linalg.solve(A + damping * eye, -g)
        if step @ step <= 1e-30 * (1.0 + x @ x):
            break
        r_new, J_new = residual(x + step)
        cost_new = 0.5 * (r_new @ r_new)
        gain = (cost - cost_new) / (0.5 * step @ (damping * step - g))
        if gain > 0:
            stalled = cost - cost_new <= 1e-15 * cost
            x, r, J, cost = x + step, r_new, J_new, cost_new
            A, g = J.T @ J, J.T @ r
            damping *= max(1 / 3, 1 - (2 * gain - 1) ** 3)
            growth = 2.0
            if stalled:
                break
        else:
            damping *= growth
            growth *= 2
    return x, cost


def _numeric_p(P):
    k = P.nrows
    return np.array([[complex(P[i, j]) for j in range(k)] for i in range(k)])


def test_cube_jacobian_matches_central_differences():
    Pn = _numeric_p(eigenmatrix(group_scheme([4])))
    oracle = _oracle_cube_residual(Pn)
    points = np.random.default_rng(2024).normal(0.0, 1.0, size=(3, 6))
    cost, A, g = _cube_residual(Pn)(points)
    h = 1e-6
    for x, cost_x, A_x, g_x in zip(points, cost, A, g):
        r, _ = oracle(x)
        J = np.column_stack([(oracle(x + h * e)[0] - oracle(x - h * e)[0])
                             / (2 * h) for e in np.eye(x.size)])
        assert np.isclose(cost_x, 0.5 * (r @ r), rtol=1e-12)
        assert np.abs(A_x - J.T @ J).max() <= 1e-6 * np.abs(A_x).max()
        assert np.abs(g_x - J.T @ r).max() <= 1e-6 * np.abs(g_x).max()


@pytest.mark.parametrize("P", [
    eigenmatrix(group_scheme([4])),
    eigenmatrix(group_scheme([2, 2])),
    eigenmatrix(cycle_scheme(6)),
], ids=["group:4", "group:2:2", "cycle:6"])
def test_batched_least_squares_matches_single_restarts(P):
    # the same restarts the search draws; the batch sums in another
    # order, so points agree to rounding, not bit for bit
    Pn = _numeric_p(P)
    d = P.nrows - 1
    x0 = np.random.default_rng(_SEARCH_SEED).normal(
        0.0, 1.0, size=(_SEARCH_RESTARTS, 2 * d))
    x, cost = least_squares(_cube_residual(Pn), x0)
    oracle = _oracle_cube_residual(Pn)
    for i, row in enumerate(x0):
        x_i, cost_i = _oracle_least_squares(oracle, row)
        assert (cost[i] <= 1e-18) == (cost_i <= 1e-18), i
        if cost_i <= 1e-18:
            assert np.abs(x[i] - x_i).max() <= 1e-7, i


_NUMERIC_PS = [
    eigenmatrix(group_scheme([4])),
    eigenmatrix(group_scheme([2, 2])),
    eigenmatrix(cycle_scheme(6)),
    induced_matrix(P_CYCLE4, 2),
]
_NUMERIC_IDS = ["group:4", "group:2:2", "cycle:6", "induced:cycle:4:2"]


@pytest.mark.parametrize("P", _NUMERIC_PS, ids=_NUMERIC_IDS)
def test_cube_residual_matches_the_products(P):
    # cost, A and g of the coefficient-tensor kernel against the k x k
    # products, each row to 1e-12 of its largest entry, at three batch
    # sizes of the search's draws
    Pn = _numeric_p(P)
    x = np.random.default_rng(_SEARCH_SEED).normal(
        0.0, 1.0, size=(192, 2 * (P.nrows - 1)))
    kernel, oracle = _cube_residual(Pn), oracles.cube_residual_products(Pn)
    for n in (1, 8, 192):
        for got, want in zip(kernel(x[:n]), oracle(x[:n])):
            got, want = got.reshape(n, -1), want.reshape(n, -1)
            assert np.all(np.abs(got - want).max(axis=1)
                          <= 1e-12 * np.abs(want).max(axis=1))


def test_cube_residual_memory_grows_as_k4_and_n_k3():
    # at 32 classes the map of dQ/dt_j has k^4 entries and a call of n
    # rows holds (n, k, k^2) arrays; a dense map of the cube's
    # derivatives would hold k^5 / 2 = 16.8e6 complex values (268 MB)
    k, n = 32, 8
    rng = np.random.default_rng(0)
    Pn = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    x = rng.normal(size=(n, 2 * (k - 1)))
    tracemalloc.start()
    try:
        cost, A, g = _cube_residual(Pn)(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (n, 2 * (k - 1), 2 * (k - 1))
    assert peak <= 2 * 16 * (k ** 4 + n * k ** 3)


@pytest.mark.parametrize("P", _NUMERIC_PS, ids=_NUMERIC_IDS)
def test_least_squares_matches_the_gathering_loop(P):
    # the search's restarts, with the state of finished rows written out
    # instead of gathered and scattered at each step: bit for bit
    residual = _cube_residual(_numeric_p(P))
    x0 = np.random.default_rng(_SEARCH_SEED).normal(
        0.0, 1.0, size=(_SEARCH_RESTARTS, 2 * (P.nrows - 1)))
    x, cost = least_squares(residual, x0)
    x_want, cost_want = oracles.least_squares_gathered(residual, x0)
    assert x.tobytes() == x_want.tobytes()
    assert cost.tobytes() == cost_want.tobytes()


def test_least_squares_writes_out_the_rows_the_cap_cuts_off(monkeypatch):
    # after 5 trial steps most rows still run; each ends where the
    # gathering loop leaves it
    for module in (modular, oracles):
        monkeypatch.setattr(module, "_LM_ITERATIONS", 5)
    residual = _cube_residual(_numeric_p(eigenmatrix(group_scheme([4]))))
    x0 = np.random.default_rng(_SEARCH_SEED).normal(
        0.0, 1.0, size=(_SEARCH_RESTARTS, 6))
    x, cost = least_squares(residual, x0)
    x_want, cost_want = oracles.least_squares_gathered(residual, x0)
    assert np.all(np.isfinite(cost)) and np.any(cost > 1e-18)
    assert x.tobytes() == x_want.tobytes()
    assert cost.tobytes() == cost_want.tobytes()


# search_T on the P's of at most six classes, as recorded with the k x k
# product kernel, except hamming:3:2, whose witness the exact 4x4 route
# finds and the numeric restarts miss: (T's diagonal, c) or None
_SURVEY = [
    ("group:4", eigenmatrix(group_scheme([4])), None),
    ("group:2:2", eigenmatrix(group_scheme([2, 2])),
     ((1, -I_UNIT, -I_UNIT, -1), GaussRat(0, -8))),
    ("cycle:6", eigenmatrix(cycle_scheme(6)), None),
    ("hamming:3:2", eigenmatrix(hamming(3, 2)),
     ((1, -I_UNIT, -1, I_UNIT), GaussRat(-16, -16))),
    ("hamming:3:3", eigenmatrix(hamming(3, 3)), None),
    ("hamming:4:2", eigenmatrix(hamming(4, 2)), None),
    ("hamming:5:2", eigenmatrix(hamming(5, 2)), None),
    ("induced:cycle:4:2", induced_matrix(P_CYCLE4, 2), None),
    ("induced:one_class:3:3", induced_matrix(eigenmatrix(one_class(3)), 3),
     None),
    ("induced:hamming:2:2:2", induced_matrix(eigenmatrix(hamming(2, 2)), 2),
     None),
]


@pytest.mark.parametrize("P, want", [case[1:] for case in _SURVEY],
                         ids=[case[0] for case in _SURVEY])
def test_search_survey_results(P, want):
    w = search_T(P)
    if want is None:
        assert w is None
    else:
        assert w.T == diag(*want[0]) and w.c == want[1]


def _seeded_fusions(orders, count, seed):
    """The eigenmatrices of count distinct 4-class fusions of the group
    scheme of orders: seeded random maps x -> A x of its element tuples
    merge the elements into classes, which are joined at random into
    three, and a partition is kept where `fusion` makes a scheme of it."""
    rng = random.Random(seed)
    group = group_scheme(orders)
    elements = group.translation.digits(np.arange(1, group.v))
    out = []
    while len(out) < count:
        A = np.array([[rng.randrange(max(orders)) for _ in orders]
                      for _ in orders])
        image = group.translation.index(elements @ A.T % orders)
        root = list(range(group.v))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for x, y in zip(range(1, group.v), image):
            root[find(x)] = find(int(y))
        classes = {}
        for x in range(1, group.v):
            classes.setdefault(find(x), []).append(x)
        label = [rng.randrange(3) for _ in classes]
        if len(set(label)) < 3:
            continue
        blocks = [[0]] + [sum((c for c, l in zip(classes.values(), label)
                               if l == b), []) for b in range(3)]
        try:
            P = eigenmatrix(fusion(group, blocks))
        except SchemeKitError:
            continue
        if P not in out:
            out.append(P)
    return out


def test_cramer_route_against_the_numeric_stream():
    """On 4-class P's: where the exact 4x4 route decides, a None means
    that no numeric candidate verifies, and a numeric witness means that
    it finds one; where it declines, search_T returns the numeric
    stream's first witness."""
    corpus = [P_Z4, P_Z22, eigenmatrix(cycle_scheme(6)),
              *(eigenmatrix(hamming(3, q)) for q in range(2, 6)),
              eigenmatrix(tensor_product(one_class(2), one_class(3)))]
    for orders in ([2, 2, 2], [4, 2], [2, 2, 2, 2], [4, 4]):
        corpus += _seeded_fusions(orders, 3, 2031)
    distinct = []
    for P in corpus:
        if P not in distinct:
            distinct.append(P)
    decided = gained = 0
    for P in distinct:
        stream = _numeric_candidates(P, _SEARCH_RESTARTS)
        numeric = [w for w in (_oracle_verify(P, [e]) for e in
                               dict.fromkeys(e for e in stream if all(e)))
                   if w]
        w = search_T(P)
        if _cramer_candidates(P, P.inverse()) is None:
            assert w == (numeric[0] if numeric else None)
            continue
        decided += 1
        assert (w is not None) >= bool(numeric)
        gained += w is not None and not numeric
    assert (len(distinct), decided, gained) == (16, 15, 2)


@pytest.mark.parametrize("P", _NUMERIC_PS, ids=_NUMERIC_IDS)
def test_least_squares_rows_do_not_depend_on_the_block(P):
    # the search's blocks (8 restarts, then the rest) give, bit for bit,
    # the points and costs of one block of all the restarts
    Pn = _numeric_p(P)
    residual = _cube_residual(Pn)
    x0 = np.random.default_rng(_SEARCH_SEED).normal(
        0.0, 1.0, size=(_SEARCH_RESTARTS, 2 * (P.nrows - 1)))
    x, cost = least_squares(residual, x0)
    head = least_squares(residual, x0[:_FIRST_RESTARTS])
    tail = least_squares(residual, x0[_FIRST_RESTARTS:])
    assert x.tobytes() == np.concatenate([head[0], tail[0]]).tobytes()
    assert cost.tobytes() == np.concatenate([head[1], tail[1]]).tobytes()


def test_cli_import_leaves_scipy_out():
    src = str(Path(schemekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, schemekit.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


# -- Sylvester determinants -----------------------------------------------


def _laplace_det(M):
    """Recursive Laplace expansion along the first row, over MPoly."""
    if len(M) == 1:
        return M[0][0]
    total = MPoly.zero(1)
    for j, entry in enumerate(M[0]):
        if not entry:
            continue
        term = entry * _laplace_det([row[:j] + row[j + 1:] for row in M[1:]])
        total = total + (term if j % 2 == 0 else -term)
    return total


def _sylvester_matrix(f, g):
    """Sylvester matrix in y of bivariate f, g, each of positive
    y-degree, entries univariate MPolys in x."""
    fc, gc = _y_coefficients(f)[::-1], _y_coefficients(g)[::-1]
    m, n = len(fc) - 1, len(gc) - 1
    zero = [MPoly.zero(1)]
    return ([zero * i + fc + zero * (n - 1 - i) for i in range(n)]
            + [zero * i + gc + zero * (m - 1 - i) for i in range(m)])


def _random_invertible(seed, k, count):
    """count seeded random invertible k x k Gaussian-rational matrices,
    about 40% of their entries in {0, 1, -1}, so that the degrees of
    their quadrics vary."""
    def entry():
        if rng.random() < 0.4:
            return GaussRat(rng.choice((0, 0, 1, -1)))
        return GaussRat(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2), rng.randint(1, 3)))

    rng, out = random.Random(seed), []
    while len(out) < count:
        P = ExactMatrix([[entry() for _ in range(k)] for _ in range(k)])
        try:
            P.inverse()
        except SingularMatrix:
            continue
        out.append(P)
    return out


def _quadrics_with_y(P):
    return [q for q in _quadrics(P, P.inverse().row(0))
            if any(e[1] for e in q.terms)]


P_SKEW = ExactMatrix([[GaussRat(1), GaussRat(2), GaussRat(0, 1)],
                      [GaussRat(1, 1), GaussRat(-1), GaussRat("1/2")],
                      [GaussRat(1), GaussRat(0, "-2/3"), GaussRat(3)]])
RANDOM_3X3 = _random_invertible(3030, 3, 100)


@pytest.mark.parametrize("P, vanish", [
    (P_CYCLE4, True),
    (eigenmatrix(hamming(2, 2)), True),
    (eigenmatrix(hamming(2, 3)), False),
    (P_SKEW, False),
], ids=["cycle:4", "hamming:2:2", "hamming:2:3", "gaussian-rational"])
def test_sylvester_determinant_matches_laplace(P, vanish):
    # on cycle:4 and hamming:2:2 the witnesses form a curve, so the
    # quadrics' resultant vanishes; the other two give nonzero ones
    f, g = _quadrics_with_y(P)
    res = _resultant_y(f, g)
    assert res == _laplace_det(_sylvester_matrix(f, g))
    assert (not res) == vanish


def test_random_resultants_match_laplace():
    """`_resultant_y` is the Laplace expansion of the Sylvester matrix
    on random 3x3 P's, whose quadrics give y-degrees (1, 1) and (2, 1),
    each with vanishing and nonzero resultants, and never (2, 2)."""
    seen = set()
    for P in RANDOM_3X3:
        with_y = _quadrics_with_y(P)
        if len(with_y) < 2:
            continue
        res = _resultant_y(*with_y)
        assert res == _laplace_det(_sylvester_matrix(*with_y))
        seen.add((tuple(sorted((len(_y_coefficients(q)) - 1 for q in with_y),
                               reverse=True)), bool(res)))
    assert seen == {((1, 1), False), ((1, 1), True),
                    ((2, 1), False), ((2, 1), True)}


# -- the first-row quadrics ---------------------------------------------------


def test_exact_roots_of_a_double_root():
    x = MPoly.variable(0, 1)
    p = (x - I_UNIT) ** 2 * (x + 1)
    assert _exact_roots(_coeff_list(p)) == [I_UNIT, GaussRat(-1)]


def test_gp_roots_of_multiple_roots():
    # (x - i)^2 (x + 1)^3 (2x - 1) x over the Gaussian integers: a double
    # and a triple root, found on the squarefree part, and the root 0,
    # which no witness coordinate can be, left out
    p = [(1, 0)]
    for factor, times in (([(0, -1), (1, 0)], 2), ([(1, 0), (1, 0)], 3),
                          ([(-1, 0), (2, 0)], 1), ([(0, 0), (1, 0)], 1)):
        for _ in range(times):
            p = _gp_mul(p, factor)
    assert sorted(_gp_roots(p)) == [((-1, 0), 1), ((0, 1), 1), ((1, 0), 2)]
    # a linear p, its content divided out
    assert _gp_roots([(6, 0), (-4, 0), (0, 0)]) == [((3, 0), 2)]
    assert _gp_roots([(0, 0), (5, 5)]) == []


def _value(p, point):
    total = GaussRat(0)
    for exps, c in p.terms.items():
        for t, e in zip(point, exps):
            c = c * t**e
        total = total + c
    return total


def _with_witness(M, S, T):
    """S M S^-1 T^-1, which has the witness T when M^3 is scalar."""
    return S @ M @ S.inverse() @ T.inverse()


CYCLE3 = ExactMatrix([[GaussRat(int(j == (i + 1) % 3)) for j in range(3)]
                      for i in range(3)])
ORDER3 = ExactMatrix([[GaussRat(0), GaussRat(1)],
                      [GaussRat(-1), GaussRat(-1)]])
# row 0 of P^-1 = T CYCLE3^-1 starts with 0, so the quadrics pivot on b_1
P_B0_ZERO = _with_witness(CYCLE3, ExactMatrix.identity(3), diag(1, I_UNIT, -1))


@pytest.mark.parametrize("P, T", [
    (P_BINARY, diag(1, I_UNIT)),
    (eigenmatrix(one_class(4)), diag(1, -1)),
    (P_CYCLE4, diag(1, 1, -1)),
    (P_CYCLE4, diag(1, 2, -1)),
    (P_CYCLE4, diag(1, I_UNIT, -1)),
    (eigenmatrix(hamming(2, 4)), diag(1, -1, 1)),
    (P_B0_ZERO, diag(1, I_UNIT, -1)),
    (eigenmatrix(group_scheme([2, 2])), diag(1, -I_UNIT, -I_UNIT, -1)),
    (eigenmatrix(hamming(3, 2)), diag(1, I_UNIT, -1, -I_UNIT)),
    (eigenmatrix(hamming(4, 2)), diag(1, I_UNIT, -1, -I_UNIT, 1)),
], ids=["one_class:2", "one_class:4", "cycle:4", "cycle:4-t2", "cycle:4-ti",
        "hamming:2:4", "b0-zero", "group:2:2", "hamming:3:2", "hamming:4:2"])
def test_quadrics_vanish_at_witnesses(P, T):
    verify_modular(P, T)
    quadrics = _quadrics(P, P.inverse().row(0))
    assert len(quadrics) == P.nrows - 1
    point = [T[j, j] for j in range(1, T.nrows)]
    assert all(not _value(q, point) for q in quadrics)


# -- the cube route the quadric route replaced --------------------------------


def _oracle_y_candidates(cons, x0):
    """Exact y-solutions of the cube constraints at x = x0: None if one
    becomes a nonzero constant or their y-gcd is constant, the heuristic
    values if all vanish."""
    images = [MPoly.constant(1, x0), MPoly.variable(0, 1)]
    gens_y = []
    for p in cons:
        coeffs = _coeff_list(substitute_polys(p, images))
        if len(coeffs) == 1:
            return None
        if coeffs:
            gens_y.append(coeffs)
    if not gens_y:
        return list(_HEURISTIC_VALUES)
    hy = _gcd_many(gens_y)
    return None if len(hy) == 1 else _exact_roots(hy)


def _oracle_verify(P, diagonals):
    """The first diagonal (T[0, 0] = 1 omitted) that verifies, or None."""
    for entries in diagonals:
        try:
            return verify_modular(P, ExactMatrix.diagonal([GaussRat(1),
                                                           *entries]))
        except NotScalar:
            continue
    return None


def _oracle_cube_search(P):
    """search_T for sizes 2 and 3 from the constraints of the symbolic
    cube: their gcd for 2x2; for 3x3 the gcd of every pairwise resultant
    in y (the heuristic values, then the numeric search, if all vanish),
    then the y-candidates at each x."""
    d = P.nrows - 1
    cons = _cube_constraints(P)
    if not cons:
        return _oracle_verify(P, [(GaussRat(1),) * d])
    if d == 1:
        roots = _exact_roots(_gcd_many([_coeff_list(p) for p in cons]))
        return _oracle_verify(P, [(t,) for t in roots])
    with_y = [p for p in cons if any(e[1] for e in p.terms)]
    gens_x = [_coeff_list(p) for p in cons if p not in with_y]
    gens_x += [_coeff_list(_laplace_det(_sylvester_matrix(f, g)))
               for f, g in itertools.combinations(with_y, 2)]
    hx = _gcd_many(gens_x)
    for x0 in (_exact_roots(hx) if hx else _HEURISTIC_VALUES):
        ys = _oracle_y_candidates(cons, x0)
        witness = ys and _oracle_verify(P, [(x0, y0) for y0 in ys])
        if witness:
            return witness
    if hx:
        return None
    return _oracle_verify(P, _numeric_candidates(P, _SEARCH_RESTARTS))


@pytest.mark.parametrize("P", [
    eigenmatrix(one_class(2)),
    eigenmatrix(one_class(3)),
    eigenmatrix(one_class(4)),
    eigenmatrix(one_class(5)),
    P_CYCLE4,
    eigenmatrix(hamming(2, 2)),
    eigenmatrix(hamming(2, 3)),
    eigenmatrix(hamming(2, 4)),
    P_SKEW,
    P_B0_ZERO,
    _gauss_matrix([[1, 0], [3, 2]]),
    _gauss_matrix([[2, 0], [0, 1]]),
    _gauss_matrix([[1, 1, 0], [1, -1, 0], [0, 0, 2]]),
    _with_witness(ORDER3, _gauss_matrix([[1, 2], [I_UNIT, 1]]),
                  diag(1, GaussRat(1, 1))),
    _with_witness(CYCLE3.scale(GaussRat(2)),
                  _gauss_matrix([[1, 1, 0], [0, 1, I_UNIT], [2, 0, 1]]),
                  diag(1, -1, GaussRat(0, 2))),
    *RANDOM_3X3[:10],
], ids=["one_class:2", "one_class:3", "one_class:4", "one_class:5", "cycle:4",
        "hamming:2:2", "hamming:2:3", "hamming:2:4", "gaussian-rational",
        "b0-zero", "lower-triangular", "diagonal", "block-diagonal",
        "conjugated-2x2", "conjugated-3x3",
        *("random-%d" % i for i in range(10))])
def test_quadric_route_matches_cube_route(P):
    w, oracle = search_T(P), _oracle_cube_search(P)
    assert (w is None) == (oracle is None)
    if w is not None:
        assert w.T == oracle.T and w.c == oracle.c


def test_search_result_always_verifies():
    for P in (P_BINARY, P_CYCLE4):
        w = search_T(P)
        check = verify_modular(P, w.T)
        assert check.c == w.c


# -- induced lift ---------------------------------------------------------


def test_induced_lift_n1():
    w = search_T(P_BINARY)
    rep = induced_modular_check(P_BINARY, w.T, w.c, 1)
    assert rep.holds and rep.matches_expected and rep.t_hat_consistent
    assert rep.constant == w.c
    assert bool(rep)


def test_induced_lift_binary_n2():
    w = search_T(P_BINARY)
    rep = induced_modular_check(P_BINARY, w.T, w.c, 2)
    assert rep.holds
    assert rep.constant == GaussRat(0, 8)  # (2+2i)^2 = 8i
    assert rep.expected == w.c**2
    assert rep.matches_expected and rep.t_hat_consistent


def test_induced_lift_binary_n3():
    w = search_T(P_BINARY)
    rep = induced_modular_check(P_BINARY, w.T, w.c, 3)
    assert rep.holds and rep.matches_expected
    assert rep.constant == (GaussRat(2) + GaussRat(0, 2)) ** 3


def test_induced_lift_cycle4_n2():
    w = search_T(P_CYCLE4)
    rep = induced_modular_check(P_CYCLE4, w.T, w.c, 2)
    assert rep.holds and rep.matches_expected and rep.t_hat_consistent
    assert rep.constant == GaussRat(64)


def test_induced_t_hat_is_induced_matrix():
    w = search_T(P_BINARY)
    rep = induced_modular_check(P_BINARY, w.T, w.c, 2)
    assert rep.t_hat_consistent
    # independent cross-check: the lifted diagonal is the induced matrix
    assert induced_matrix(w.T, 2).is_diagonal()
    # T_hat over D^n from the numerators of a T with denominators 6 and 5
    T = ExactMatrix.diagonal([GaussRat(1),
                              GaussRat(Fraction(1, 2), Fraction(-1, 3)),
                              GaussRat(0, Fraction(2, 5))])
    assert induced_modular_check(P_CYCLE4, T, GaussRat(1), 3).t_hat_consistent


def test_induced_check_refuses_a_non_diagonal_T():
    T = ExactMatrix([[GaussRat(1), GaussRat(1)], [GaussRat(0), GaussRat(1)]])
    with pytest.raises(NotScalar, match="^T is not diagonal$"):
        induced_modular_check(P_BINARY, T, GaussRat(1), 2)


@pytest.mark.parametrize("T", [diag(1, I_UNIT, 5), diag(1)],
                         ids=["larger", "smaller"])
def test_induced_check_refuses_a_T_of_another_size(monkeypatch, T):
    monkeypatch.setattr(modular, "induced_matrix", None)
    with pytest.raises(DimensionMismatch,
                       match="^P and T must be square of the same size$"):
        induced_modular_check(P_BINARY, T, GaussRat(2, 2), 2)


def test_induced_lift_uses_composite_eigenmatrix():
    # the lift verifies against the composite eigenmatrix directly
    w = search_T(P_BINARY)
    P2 = eigenmatrix_gh(P_BINARY, 2)
    T2 = induced_matrix(w.T, 2)
    check = verify_modular(P2, T2)
    assert check.c == w.c**2
