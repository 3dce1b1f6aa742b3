"""Modular-invariance witnesses: diagonal T with (PT)^3 = c I.

verify_modular is purely exact: it forms the cube and decides c*I on
the Gaussian-integer numerators.  search_T refuses a singular P at once.
Up to 3x3 its candidates come from exact elimination over the Gaussian
rationals on the first-row quadrics of PTP = c T^-1 P^-1 T^-1; larger
sizes, and 3x3 quadrics with a positive-dimensional component, use
seeded batched Levenberg-Marquardt restarts on the cube, with its
residual and derivatives read off its coefficient tensor, snapped to
Gaussian rationals.  Every candidate with no zero entry (which forces
c = 0) goes through one exact check, each distinct one once, so an
inexact witness can never be returned.  A None is a proof of absence
only from a zero-dimensional quadric system (see search_T).  search_T
keeps its recent results, keyed on (P, restarts), for the life of the
process, in one `functools.lru_cache` (`_search`).
induced_modular_check lifts a witness to degree n with the induced
matrices of P and T, one route for both.  The one resultant, in t_2 of
two quadrics, is their Sylvester determinant written out
(`_resultant_y`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import DimensionMismatch, NotScalar, SingularMatrix
from .exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    induced_matrix,
    snap_gauss,
)

_SEARCH_SEED = 47117
_SEARCH_RESTARTS = 200
_FIRST_RESTARTS = 8
_LM_ITERATIONS = 100
_MEMO_SIZE = 128


@dataclass(frozen=True)
class ModularWitness:
    """A verified witness: diagonal T with (PT)^3 = c I, c != 0.
    Frozen, so that search_T can hand a stored one out again."""

    T: ExactMatrix
    c: GaussRat


def _check_pair(P, T):
    """Refuse a P and T that are not square of one size, or a T that is
    not diagonal."""
    if P.nrows != P.ncols or T.nrows != T.ncols or P.nrows != T.nrows:
        raise DimensionMismatch("P and T must be square of the same size")
    if not T.is_diagonal():
        raise NotScalar("T is not diagonal")


def verify_modular(P, T):
    """Check (PT)^3 = c I exactly for diagonal T; returns the witness.

    Raises NotScalar (with the offending entry) if the cube is not a
    nonzero scalar matrix, or if T is not diagonal.  The cube K is
    formed by `ExactMatrix @` and checked by `ExactMatrix._scalar_break`,
    both on the Gaussian-integer numerators: the error names K's first
    nonzero off-diagonal entry in row-major order, else its first
    diagonal entry unequal to K[0, 0], else c = 0.  GaussRat values are
    made only for c and the entry reported.
    """
    _check_pair(P, T)
    M = P @ T
    c, broken = (M @ M @ M)._scalar_break()
    if broken:
        i, j, x = broken
        if i != j:
            raise NotScalar("(PT)^3 has nonzero off-diagonal entry %s at "
                            "(%d, %d)" % (x, i, j), entry=broken)
        raise NotScalar("(PT)^3 diagonal is not constant: %s vs %s at %d"
                        % (c, x, i), entry=broken)
    if not c:
        raise NotScalar("(PT)^3 is the zero matrix; c = 0 is rejected",
                        entry=(0, 0, c))
    return ModularWitness(T, c)


# -- polynomial systems --------------------------------------------------


def _cube_constraints(P):
    """The off-diagonal entries and diagonal differences of the cube
    K = (P diag(1, t_1, .., t_d))^3, as MPolys in t_1..t_d, zeros
    dropped: K = c I exactly where they all vanish."""
    k = P.nrows
    d = k - 1
    t = [MPoly.constant(d, 1)] + [MPoly.variable(j, d) for j in range(d)]
    M = K = [[t[j] * P[i, j] for j in range(k)] for i in range(k)]
    for _ in range(2):
        K = [[sum((K[i][r] * M[r][j] for r in range(k)), MPoly.zero(d))
              for j in range(k)] for i in range(k)]
    cons = [K[i][j] for i in range(k) for j in range(k) if i != j]
    cons += [K[0][0] - K[i][i] for i in range(1, k)]
    return [p for p in cons if p]


def _quadrics(P, b):
    """The first-row quadrics of (P diag(1, t_1, .., t_d))^3 = c I, as
    MPolys in t_1..t_d, given b, row 0 of P^-1.

    With c != 0, M = PT has M^2 = c M^-1, so PTP = c T^-1 P^-1 T^-1,
    whose row 0 reads a_j(t) t_j = c b_j for a_j(t) = sum_r P[0, r]
    P[r, j] t_r (t_0 = 1).  Cross-multiplying each entry j against one
    entry m with b_m != 0 (m = 0 unless b_0 = 0) eliminates c:
    b_m a_j(t) t_j - b_j a_m(t) t_m = 0 for the d indices j != m.  Every
    witness is a zero of these; a zero need not be a witness.
    """
    k = P.nrows
    d = k - 1

    def a_t(j):
        return MPoly(d, {tuple(int(i + 1 == r) + int(i + 1 == j)
                               for i in range(d)): P[0, r] * P[r, j]
                         for r in range(k)})

    m = next(j for j in range(k) if b[j])
    return [a_t(j) * b[m] - a_t(m) * b[j] for j in range(k) if j != m]


# -- univariate polynomial utilities over GaussRat ----------------------


def _coeff_list(p):
    """Univariate MPoly as an ascending GaussRat coefficient list."""
    deg = max((e[0] for e in p.terms), default=-1)
    return [p.coefficient((k,)) for k in range(deg + 1)]


def _trim(coeffs):
    """A coefficient list as a new list, trailing zeros dropped."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_divmod(a, b):
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [GaussRat(0)] * max(0, len(a) - len(b) + 1)
    r = a
    while len(r) >= len(b) and r:
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for i, bc in enumerate(b):
            r[shift + i] = r[shift + i] - f * bc
        r = _trim(r)
    return q, r


def _poly_gcd(a, b):
    while any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    a = _trim(a)
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _gcd_many(lists):
    g = []
    for coeffs in lists:
        g = _poly_gcd(coeffs, g)
    return g


def _exact_roots(coeffs):
    """Exact Gaussian-rational roots of an ascending coefficient list.

    The squarefree part p / gcd(p, p') is solved numerically, so a
    multiple root comes back as accurately as a simple one; its roots
    are snapped and then checked exactly against it, so only true roots
    are returned.  Ordered by (im, re) descending for deterministic
    search output.
    """
    coeffs = _trim(coeffs)
    if len(coeffs) > 2:
        derivative = [c * i for i, c in enumerate(coeffs)][1:]
        coeffs = _poly_divmod(coeffs, _poly_gcd(coeffs, derivative))[0]
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    numeric = np.roots([complex(c) for c in reversed(coeffs)])
    roots = []
    for z in numeric:
        g = snap_gauss(z)
        if g is None:
            continue
        value = GaussRat(0)
        for c in reversed(coeffs):
            value = value * g + c
        if not value and g not in roots:
            roots.append(g)
    roots.sort(key=lambda g: (g.im, g.re), reverse=True)
    return roots


# -- bivariate elimination (resultants) ---------------------------------


def _y_coefficients(p):
    """Bivariate MPoly as ascending y-coefficients, each univariate in x."""
    deg = max((e[1] for e in p.terms), default=0)
    coeffs = [MPoly.zero(1) for _ in range(deg + 1)]
    for (ex, ey), c in p.terms.items():
        coeffs[ey] = coeffs[ey] + MPoly.monomial((ex,), c)
    return coeffs


def _resultant_y(f, g):
    """Res_y(f, g), a univariate MPoly in x, for bivariate f, g of
    y-degrees (1, 1) or (2, 1) in either order: the Sylvester
    determinant written out on their y-coefficients.  These are the
    only y-degrees two first-row quadrics with y-terms can have: of
    q_j = b_m a_j(t) t_j - b_j a_m(t) t_m, only the one with j = 2 != m
    has a t_2^2 term (see `_quadrics`)."""
    f, g = _y_coefficients(f), _y_coefficients(g)
    if len(f) < len(g):
        f, g = g, f
    if len(f) == 2:
        return f[1] * g[0] - f[0] * g[1]
    return f[2] * g[0] * g[0] - f[1] * g[0] * g[1] + f[0] * g[1] * g[1]


# -- exact candidates, sizes 2 and 3 ------------------------------------


_HEURISTIC_VALUES = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))


def _last_coordinate(polys, prefix):
    """Exact roots in t_d of polys with t_1..t_{d-1} set to prefix: the
    roots of their gcd there, or None if every one vanishes there,
    leaving t_d free."""
    gens = []
    for p in polys:
        coeffs = defaultdict(GaussRat)
        for e, c in p.terms.items():
            coeffs[e[-1]] += prod((x0**ex for x0, ex in zip(prefix, e)),
                                  start=c)
        gens.append([coeffs[i] for i in range(max(coeffs, default=-1) + 1)])
    g = _gcd_many(gens)
    return _exact_roots(g) if g else None


def _exact_candidates(P, b, restarts):
    """Candidate diagonals of sizes 2 and 3, from the first-row quadrics.

    With d = 2, x = t_1 is a root of the gcd of Res_y(q_1, q_2) and any
    quadric free of y = t_2.  If that eliminant vanishes identically the
    quadrics have a positive-dimensional component: the heuristic values
    stand in for x, and the numeric stream follows.  At each x (once for
    d = 1) the last coordinate is a root of the quadrics' gcd; where they
    leave it free, of the cube constraints'; where those do too, a
    heuristic value.
    """
    quadrics = _quadrics(P, b)
    cube = None
    prefixes, degenerate = [()], False
    if len(quadrics) == 2:
        with_y = [q for q in quadrics if any(e[1] for e in q.terms)]
        gens_x = [_coeff_list(_y_coefficients(q)[0])
                  for q in quadrics if q not in with_y]
        if len(with_y) == 2:
            gens_x.append(_coeff_list(_resultant_y(*with_y)))
        hx = _gcd_many(gens_x)
        degenerate = not hx
        prefixes = [(x0,) for x0 in
                    (_exact_roots(hx) if hx else _HEURISTIC_VALUES)]
    for prefix in prefixes:
        last = _last_coordinate(quadrics, prefix)
        if last is None:
            if cube is None:
                cube = _cube_constraints(P)
            last = _last_coordinate(cube, prefix)
        for t in _HEURISTIC_VALUES if last is None else last:
            yield prefix + (t,)
    if degenerate:
        yield from _numeric_candidates(P, restarts)


# -- numeric candidates -------------------------------------------------


def least_squares(residual, x0):
    """Levenberg-Marquardt minimisation of cost = |r(x)|^2 / 2, for a
    batch of starting points stepped together.

    x0 holds one starting point per row.  residual(x) returns, for each
    row of x, the cost and the normal equations A = J^T J and g = J^T r
    of the real residual r and its Jacobian J.  Every row keeps its own
    damping (Nielsen's gain-ratio rule) and stops on its own: at cost
    1e-30, at a vanishing gradient or step, when an accepted step no
    longer lowers the cost, or after _LM_ITERATIONS trial steps; a row
    whose damped system is singular is dropped with cost inf.  Only
    running rows are held (row, x, cost, A, g, damping, growth); a row
    that stops is written out.  Returns (x, cost) for the rows of x0.
    """
    x = np.array(x0, dtype=float)
    x_out, cost_out = np.empty_like(x), np.empty(len(x))
    cost, A, g = residual(x)
    damping = 1e-3 * np.max(np.diagonal(A, axis1=1, axis2=2), axis=1)
    live = (np.arange(len(x)), x, cost, A, g, damping, np.full(len(x), 2.0))
    stalled = np.zeros(len(x), bool)
    eye = np.eye(x.shape[1])

    def settle(keep, live):
        # write out the rows that stop (keep False); the others' state
        if keep.all():
            return live
        row, x, cost = live[:3]
        x_out[row[~keep]], cost_out[row[~keep]] = x[~keep], cost[~keep]
        return tuple(a[keep] for a in live)

    for _ in range(_LM_ITERATIONS):
        running = (~stalled & (cost > 1e-30)
                   & (np.max(np.abs(g), axis=1) > 1e-15))
        step, solved = _solve_each(A + damping[:, None, None] * eye, -g)
        cost[running & ~solved] = np.inf
        keep = running & solved & (np.einsum("ij,ij->i", step, step) > 1e-30
                                   * (1.0 + np.einsum("ij,ij->i", x, x)))
        row, x, cost, A, g, damping, growth = live = settle(keep, live)
        if not row.size:
            break
        step = step[keep]
        x_new = x + step
        cost_new, A_new, g_new = residual(x_new)
        predicted = 0.5 * np.einsum("ij,ij->i", step,
                                    damping[:, None] * step - g)
        gain = (cost - cost_new) / predicted
        up = gain > 0
        stalled = up & (cost - cost_new <= 1e-15 * cost)
        x[up], cost[up], A[up], g[up] = \
            x_new[up], cost_new[up], A_new[up], g_new[up]
        damping[up] *= np.maximum(1 / 3, 1 - (2 * gain[up] - 1) ** 3)
        growth[up] = 2.0
        damping[~up] *= growth[~up]
        growth[~up] *= 2
    settle(np.zeros(len(live[0]), bool), live)
    return x_out, cost_out


def _solve_each(M, b):
    """Solve the stacked systems M[i] y = b[i].  Returns y, zero in the
    rows of the singular systems, and the mask of the others."""
    try:
        return np.linalg.solve(M, b[..., None])[..., 0], np.ones(len(b), bool)
    except np.linalg.LinAlgError:
        y, solved = np.zeros_like(b), np.ones(len(b), bool)
        for i in range(len(b)):
            try:
                y[i] = np.linalg.solve(M[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return y, solved


def _cube_residual(Pn):
    """Cost and normal equations of (P diag t)^3 = c I, t = (1, t_1..t_d),
    in x = (Re t_1..t_d, Im t_1..t_d), for each row of x.

    K[a, b] = t_b Q[a, b] with Q[a, b] = sum_rs P_ar P_rs P_sb t_r t_s, so
    dQ/dt_j is a fixed linear map L of t, built once per P (k^4 entries).
    A call takes t L row by row (a row never depends on its batch),
    Q = (1/2) sum_j t_j dQ/dt_j by Euler's identity, and dK/dt_j =
    t_b dQ/dt_j (+ Q where j = b).  r is the entries of K^T off the
    diagonal and the K[i, i] - K[0, 0].  K is holomorphic, so with D the
    rows dr/dt_j, j >= 1, and H = conj(D) D^T, the real residual
    (Re r, Im r) has J^T J = [[Re H, -Im H], [Im H, Re H]] and J^T r =
    (Re conj(D) r, Im conj(D) r).  A call holds two (n, k, k^2) arrays.
    """
    k, d = len(Pn), len(Pn) - 1
    # X[s, r, b, a] = P_ar P_rs P_sb, the coefficient of t_r t_s in Q[a, b]
    X = np.einsum("ar,rs,sb->srba", Pn, Pn, Pn)
    L = (X + X.transpose(1, 0, 2, 3)).reshape(k, -1)

    def residual(x):
        n = len(x)
        t = np.ones((n, k), complex)
        t.real[:, 1:], t.imag[:, 1:] = x[:, :d], x[:, d:]
        D = (t[:, None] @ L).reshape(n, k, k * k)    # [j, (b, a)]: dQ/dt_j
        Q = (t[:, None] @ D).reshape(n, k, k) / 2     # Q^T
        D = D.reshape(n, k, k, k)
        D *= t[:, None, :, None]
        np.einsum("njja->nja", D)[...] += Q           # + Q where j = b
        D[:, 0] = Q * t[:, :, None]                   # row 0: K^T
        D = D.reshape(n, k, k * k)
        D[..., k + 1::k + 1] -= D[..., :1]            # K[i, i] - K[0, 0]
        D = D[..., 1:]
        # G = conj(r, D_1, .., D_d) (r, D_1, .., D_d)^T
        G = D.conj() @ D.transpose(0, 2, 1)
        H = G[:, 1:, 1:]
        A = np.empty((n, 2 * d, 2 * d))
        A[:, :d, :d] = A[:, d:, d:] = H.real
        A[:, :d, d:] = -H.imag
        A[:, d:, :d] = H.imag
        g = np.concatenate([G[:, 1:, 0].real, G[:, 1:, 0].imag], axis=1)
        return 0.5 * G[:, 0, 0].real, A, g

    return residual


def _numeric_candidates(P, restarts):
    """The converged points of seeded restarts that snap to Gaussian
    rationals, snapped, in restart order, lazily.  Restarts run in a
    first block of _FIRST_RESTARTS, then in blocks of at most
    _SEARCH_RESTARTS, all drawn in order from one seeded stream; a row
    of `least_squares` does not depend on its block, so every block
    gives the points that as many single draws would, and a consumer
    that stops at a witness in the first block runs no other.
    """
    k = P.nrows
    d = k - 1
    re, im, D = P.numerators()
    # a / D rounds correctly, as complex() of a GaussRat entry does
    Pn = np.array([[complex(a / D, b / D) for a, b in zip(r, i)]
                   for r, i in zip(re, im or [[0] * k] * k)])
    residual = _cube_residual(Pn)
    rng = np.random.default_rng(_SEARCH_SEED)
    start = 0
    while start < restarts:
        size = min(_SEARCH_RESTARTS if start else _FIRST_RESTARTS,
                   restarts - start)
        start += size
        x, cost = least_squares(residual,
                                rng.normal(0.0, 1.0, size=(size, 2 * d)))
        for point in x[cost <= 1e-18]:
            entries = tuple(snap_gauss(complex(re, im))
                            for re, im in zip(point[:d], point[d:]))
            if all(g is not None for g in entries):
                yield entries


def _candidates(P, restarts):
    """The candidate diagonals search_T verifies, as a stream; none for
    a singular P, as det (PT)^3 = c^k != 0 needs det P != 0.  b, row 0
    of P^-1, comes from `P.inverse()`, which is also the singularity
    check."""
    try:
        b = P.inverse().row(0)
    except SingularMatrix:
        return ()
    if P.nrows == 1:
        return [()]
    if P.nrows <= 3:
        return _exact_candidates(P, b, restarts)
    return _numeric_candidates(P, restarts)


def search_T(P, restarts=_SEARCH_RESTARTS):
    """Find a diagonal T, normalized to T[0,0] = 1, with (PT)^3 = c I.

    A singular P is not searched.  Up to three classes the candidates
    are `_exact_candidates`; beyond, and where those fall back, they
    are `_numeric_candidates`, from `restarts` seeded Levenberg-Marquardt
    solves in blocks, whose converged points are snapped to Gaussian
    rationals.  Each distinct candidate with no zero entry is verified
    once, in stream order, and the witness returned is the first that
    verifies (of the numeric stream, that of the lowest-index restart);
    the streams are lazy, so no block runs after the one that holds it.
    restarts <= 0 runs no restart.
    Returns a ModularWitness (always verified exactly) or None.  None is
    a proof that no Gaussian-rational witness exists when the quadrics
    are zero-dimensional and fix every coordinate, up to the root snap
    (denominators up to 10^6); otherwise it means "search incomplete".

    The result depends on P's values and `restarts` alone, so it is kept
    for the life of the process, keyed on (P, restarts) with P compared
    and hashed by its numerators, for the _MEMO_SIZE most recently used
    keys (`_search`): an equal P searched again with the same `restarts`
    gets the stored witness, or None, with no search.
    """
    if P.nrows != P.ncols:
        raise DimensionMismatch("P must be square")
    return _search(P, restarts)


@lru_cache(maxsize=_MEMO_SIZE)
def _search(P, restarts):
    """The search of `search_T` for a square P.  search_T passes both
    arguments by position, so search_T(P), search_T(P, 200) and
    search_T(P, restarts=200) share one memo entry."""
    tried = set()
    for entries in _candidates(P, restarts):
        # a zero entry forces det (PT)^3 = c^k = 0; a repeat fails again
        if not all(entries) or entries in tried:
            continue
        tried.add(entries)
        try:
            return verify_modular(
                P, ExactMatrix.diagonal([GaussRat(1), *entries]))
        except NotScalar:
            pass
    return None


# -- lift to the composite scheme ---------------------------------------


@dataclass
class InducedModular:
    """The outcome of `induced_modular_check`.  t_hat_consistent says
    that T_hat is diagonal; T is refused unless diagonal, and the induced
    matrix of a diagonal T is diagonal, so the field reads False only
    through a bug in `induced_matrix`.  It stays as that check, and the
    CLI's `modinv lift` prints it."""

    holds: bool
    constant: GaussRat | None
    expected: GaussRat
    matches_expected: bool
    t_hat_consistent: bool

    def __bool__(self):
        return self.holds


def induced_modular_check(P, T, c, n):
    """Check the degree-n lift of a modular witness.

    T_hat = induced_matrix(T, n), the induced action of T on degree-n
    monomials: for diagonal T, the diagonal of monomials
    prod_j T[j,j]^gamma(j) over compositions gamma.  The check computes
    (P_hat T_hat)^3 exactly and compares its scalar with c^n;
    t_hat_consistent says that T_hat is diagonal, which makes
    (P_hat, T_hat) a modular pair.  P and T must be square of one size.
    """
    _check_pair(P, T)
    T_hat = induced_matrix(T, n)
    M = induced_matrix(P, n) @ T_hat
    K = M @ M @ M
    constant = K.scalar_value()
    holds = constant is not None and bool(constant)
    expected = c**n
    return InducedModular(holds, constant, expected,
                          holds and constant == expected, T_hat.is_diagonal())
