"""Modular-invariance witnesses: diagonal T with (PT)^3 = c I.

verify_modular is purely exact: it forms the cube and decides c*I on
the Gaussian-integer numerators.  search_T refuses a singular P at once.
Up to 3x3 its candidates come from exact elimination over the Gaussian
rationals on the first-row quadrics of PTP = c T^-1 P^-1 T^-1; larger
sizes, and 3x3 quadrics with a positive-dimensional component, use
seeded batched Levenberg-Marquardt restarts on the cube, snapped to
Gaussian rationals.  Every candidate (exact root, heuristic value or
numeric restart) goes through one exact check, each distinct one once,
so an inexact witness can never be returned.  A None is a proof of
absence only from a zero-dimensional quadric system (see search_T).
search_T keeps its recent results, keyed on (P, restarts), for the
life of the process, in one `functools.lru_cache` (`_search`).
induced_modular_check lifts a witness to degree n with the induced
matrices of P and T, one route for both.
The one resultant is a determinant of polynomials, taken at integer
points by the elimination kernel of `ExactMatrix.inverse`
(`exact._bareiss`) and interpolated.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

import numpy as np

from .errors import DimensionMismatch, NotScalar, SingularMatrix
from .exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    _bareiss,
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


def _poly_det(S):
    """Determinant of a square matrix of ascending coefficient lists over
    the Gaussian rationals, trailing zeros dropped.

    The coefficients are scaled to Gaussian integers over one
    denominator D; the determinant p, of degree at most N (the sum of
    the row degrees), is taken at x = 0..N by `_bareiss` and rebuilt
    from its forward differences, p(x) = sum_k (Delta^k p)(0) C(x, k).
    """
    n = len(S)
    D = lcm(*{f.denominator for row in S for entry in row for c in entry
              for f in (c.re, c.im)})
    S = [[[(int(c.re * D), int(c.im * D)) for c in entry] for entry in row]
         for row in S]
    N = sum(max(len(entry) for entry in row) - 1 for row in S)

    def at(entry, x):
        re = im = 0
        for a, b in reversed(entry):
            re, im = re * x + a, im * x + b
        return re, im

    def det_at(x):
        rows = [tuple(zip(*(at(e, x) for e in row))) for row in S]
        try:
            _, (a, b), odd = _bareiss(rows)
        except SingularMatrix:
            return 0, 0
        return (-a, -b) if odd else (a, b)

    values = [det_at(x) for x in range(N + 1)]
    # sum_k (Delta^k p)(0) (N!/k!) x(x-1)..(x-k+1), then divide by N!
    re, im = [0] * (N + 1), [0] * (N + 1)
    falling = [1]
    scale = factorial(N)
    for k in range(N + 1):
        a, b = values[0]
        for i, f in enumerate(falling):
            re[i] += a * scale * f
            im[i] += b * scale * f
        values = [(u[0] - v[0], u[1] - v[1])
                  for u, v in zip(values[1:], values)]
        falling = [u - k * w for u, w in zip([0] + falling, falling + [0])]
        scale //= k + 1
    den = factorial(N) * D ** n
    return _trim([GaussRat(Fraction(a, den), Fraction(b, den))
                  for a, b in zip(re, im)])


def _sylvester_matrix(f, g):
    """Sylvester matrix in y of bivariate f, g, entries as ascending
    coefficient lists in x; None if either has y-degree 0."""
    fc = [_coeff_list(c) for c in _y_coefficients(f)]
    gc = [_coeff_list(c) for c in _y_coefficients(g)]
    m, n = len(fc) - 1, len(gc) - 1
    if m < 1 or n < 1:
        return None
    rows = []
    for i in range(n):
        rows.append([[]] * i + fc[::-1] + [[]] * (n - 1 - i))
    for i in range(m):
        rows.append([[]] * i + gc[::-1] + [[]] * (m - 1 - i))
    return rows


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
            gens_x.append(_poly_det(_sylvester_matrix(*with_y)))
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
    damping, which follows Nielsen's gain-ratio rule, and stops on its
    own: at cost 1e-30, at a vanishing gradient or step, when an
    accepted step no longer lowers the cost, or after _LM_ITERATIONS
    trial steps.  A row whose damped system is singular is dropped with
    cost inf.  Returns (x, cost), one row of x and one cost per row.
    """
    x = np.array(x0, dtype=float)
    cost, A, g = residual(x)
    eye = np.eye(x.shape[1])
    damping = 1e-3 * np.max(np.diagonal(A, axis1=1, axis2=2), axis=1)
    growth = np.full(len(x), 2.0)
    live = np.arange(len(x))
    for _ in range(_LM_ITERATIONS):
        live = live[(cost[live] > 1e-30)
                    & (np.max(np.abs(g[live]), axis=1) > 1e-15)]
        step, solved = _solve_each(A[live] + damping[live, None, None] * eye,
                                   -g[live])
        cost[live[~solved]] = np.inf
        live = live[solved]
        x_live = x[live]
        moving = (np.einsum("ij,ij->i", step, step)
                  > 1e-30 * (1.0 + np.einsum("ij,ij->i", x_live, x_live)))
        live, step, x_live = live[moving], step[moving], x_live[moving]
        if not live.size:
            break
        cost_new, A_new, g_new = residual(x_live + step)
        predicted = 0.5 * np.einsum(
            "ij,ij->i", step, damping[live, None] * step - g[live])
        gain = (cost[live] - cost_new) / predicted
        better = gain > 0
        stalled = better & (cost[live] - cost_new <= 1e-15 * cost[live])
        up, down = live[better], live[~better]
        x[up] = x_live[better] + step[better]
        cost[up], A[up], g[up] = cost_new[better], A_new[better], g_new[better]
        damping[up] *= np.maximum(1 / 3, 1 - (2 * gain[better] - 1) ** 3)
        growth[up] = 2.0
        damping[down] *= growth[down]
        growth[down] *= 2
        live = live[~stalled]
    return x, cost


def _solve_each(M, b):
    """Solve the stacked systems M[i] y = b[i].  Returns the solutions
    of the nonsingular systems and the mask of those systems."""
    try:
        return np.linalg.solve(M, b[..., None])[..., 0], np.ones(len(b), bool)
    except np.linalg.LinAlgError:
        solved = np.ones(len(b), bool)
        y = np.empty_like(b)
        for i in range(len(b)):
            try:
                y[i] = np.linalg.solve(M[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return y[solved], solved


def _cube_residual(Pn):
    """Cost and normal equations of (P diag(1, t))^3 = c I in
    x = (Re t, Im t), for each row of x.

    The residual r is the off-diagonal entries of the cube K and the
    differences K[i, i] - K[0, 0], in real then imaginary parts.  K is
    holomorphic in t: with M = P diag(1, t) and dM = P[:, j] e_j^T,
    dK/dt_j = dM M^2 + M dM M + M^2 dM, and its derivative in Im t_j is
    i dK/dt_j.  So with D the complex derivative of the entries in t,
    the real Jacobian is J = [[Re D, -Im D], [Im D, Re D]], and with
    H = D^H D, J^T J = [[Re H, -Im H], [Im H, Re H]] and
    J^T r = (Re D^H r, Im D^H r); J itself is never formed.
    """
    k = Pn.shape[0]
    d = k - 1
    off = np.flatnonzero(~np.eye(k, dtype=bool))
    diagonal = (k + 1) * np.arange(1, k)
    cols = Pn[:, 1:].T[:, :, None]        # P[:, j] for j = 1..d
    j = np.arange(d)

    def defect(K):
        """The entries of vec(K) (last axis) that vanish exactly when K
        is scalar."""
        return np.concatenate([K[..., off], K[..., diagonal] - K[..., :1]],
                              axis=-1)

    def residual(x):
        n = len(x)
        t = np.concatenate([np.ones((n, 1)), x[:, :d] + 1j * x[:, d:]],
                           axis=1)
        M = Pn * t[:, None, :]
        M2 = M @ M
        dK = (cols * M2[:, 1:, None, :]
              + (M[:, None] @ cols) * M[:, 1:, None, :])
        # M^2 dM is M^2 P[:, j] in column j alone
        dK[:, j, :, j + 1] += (M2[:, None] @ cols)[..., 0].transpose(1, 0, 2)
        r = defect((M2 @ M).reshape(n, k * k))
        Dt = defect(dK.reshape(n, d, k * k))       # row j: dr/dt_j
        Dc = Dt.conj()
        H = Dc @ Dt.transpose(0, 2, 1)
        Dr = np.einsum("njm,nm->nj", Dc, r)
        A = np.empty((n, 2 * d, 2 * d))
        A[:, :d, :d] = A[:, d:, d:] = H.real
        A[:, :d, d:] = -H.imag
        A[:, d:, :d] = H.imag
        g = np.concatenate([Dr.real, Dr.imag], axis=1)
        cost = 0.5 * np.einsum("nm,nm->n", r.real, r.real) \
            + 0.5 * np.einsum("nm,nm->n", r.imag, r.imag)
        return cost, A, g

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
    solves, run by `least_squares` in a first block of _FIRST_RESTARTS
    and then blocks of at most _SEARCH_RESTARTS, whose converged points
    are snapped to Gaussian rationals.  Each distinct candidate is
    verified once, in stream order, and the witness returned is the
    first that verifies (of the numeric stream, that of the
    lowest-index restart); the streams are lazy, so no block runs after
    the one that holds it.  restarts <= 0 runs no restart.
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
        if entries in tried:
            continue  # a repeat of a candidate that failed fails again
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
