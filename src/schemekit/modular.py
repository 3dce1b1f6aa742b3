"""Modular-invariance witnesses: diagonal T with (PT)^3 = c I.

verify_modular is purely exact.  search_T solves sizes up to 3x3 by
exact elimination (resultants/gcds of the constraint polynomials over
the Gaussian rationals, roots re-verified exactly); larger sizes use a
numeric random-restart search whose every success is snapped to
Gaussian rationals and re-verified exactly, so an inexact witness can
never be returned.  A None result is a budget statement ("search
incomplete"), never a proof of absence.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy.optimize import least_squares

from .errors import DimensionMismatch, NotScalar
from .exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    compositions,
    induced_matrix,
    snap_gauss,
    substitute_polys,
)

_SEARCH_SEED = 47117
_SEARCH_RESTARTS = 200


@dataclass
class ModularWitness:
    T: ExactMatrix
    c: GaussRat


def verify_modular(P, T):
    """Check (PT)^3 = c I exactly for diagonal T; returns the witness.

    Raises NotScalar (with the offending entry) if the cube is not a
    nonzero scalar matrix, or if T is not diagonal.
    """
    if P.nrows != P.ncols or T.nrows != T.ncols or P.nrows != T.nrows:
        raise DimensionMismatch("P and T must be square of the same size")
    if not T.is_diagonal():
        raise NotScalar("T is not diagonal")
    M = P @ T
    K = M @ M @ M
    k = K.nrows
    for i in range(k):
        for j in range(k):
            if i != j and K[i, j]:
                raise NotScalar(
                    "(PT)^3 has nonzero off-diagonal entry %s at (%d, %d)"
                    % (K[i, j], i, j), entry=(i, j, K[i, j]))
    c = K[0, 0]
    for i in range(1, k):
        if K[i, i] != c:
            raise NotScalar(
                "(PT)^3 diagonal is not constant: %s vs %s at %d"
                % (c, K[i, i], i), entry=(i, i, K[i, i]))
    if not c:
        raise NotScalar("(PT)^3 is the zero matrix; c = 0 is rejected",
                        entry=(0, 0, c))
    return ModularWitness(T, c)


# -- symbolic constraints -----------------------------------------------


def _symbolic_cube(P):
    """(P diag(1, t_1, .., t_d))^3 with polynomial entries in t_1..t_d."""
    k = P.nrows
    d = k - 1
    diag = [MPoly.constant(d, 1)]
    diag += [MPoly.variable(j, d) for j in range(d)]
    M = [[diag[j] * P[i, j] for j in range(k)] for i in range(k)]

    def matmul(A, B):
        return [
            [sum((A[i][r] * B[r][j] for r in range(k)), MPoly.zero(d))
             for j in range(k)]
            for i in range(k)
        ]

    return matmul(matmul(M, M), M)


def _constraints(K):
    """Off-diagonal entries and diagonal differences, zeros dropped."""
    k = len(K)
    cons = [K[i][j] for i in range(k) for j in range(k) if i != j]
    cons += [K[0][0] - K[i][i] for i in range(1, k)]
    return [p for p in cons if p]


# -- univariate polynomial utilities over GaussRat ----------------------


def _coeff_list(p):
    """Univariate MPoly as an ascending GaussRat coefficient list."""
    deg = max((e[0] for e in p.terms), default=-1)
    return [p.coefficient((k,)) for k in range(deg + 1)]


def _poly_divmod(a, b):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    b = list(b)
    while b and not b[-1]:
        b.pop()
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
        while r and not r[-1]:
            r.pop()
    return q, r


def _poly_gcd(a, b):
    while any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    a = list(a)
    while a and not a[-1]:
        a.pop()
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _gcd_many(lists):
    g = []
    for coeffs in lists:
        g = _poly_gcd(coeffs, g)
    return g


def _exact_roots(coeffs, tolerance, max_denominator):
    """Exact Gaussian-rational roots of an ascending coefficient list.

    Numeric roots are snapped and then checked exactly against the
    polynomial, so only true roots are returned.  Ordered by (im, re)
    descending for deterministic search output.
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    numeric = np.roots([complex(c) for c in reversed(coeffs)])
    roots = []
    for z in numeric:
        g = snap_gauss(z, tolerance, max_denominator)
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
    deg = max(e[1] for e in p.terms)
    coeffs = [MPoly.zero(1) for _ in range(deg + 1)]
    for (ex, ey), c in p.terms.items():
        coeffs[ey] = coeffs[ey] + MPoly.monomial((ex,), c)
    return coeffs


def _drop_second_var(p):
    return MPoly(1, {(e[0],): c for e, c in p.terms.items()})


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = MPoly.zero(1)
    for j, entry in enumerate(M[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = entry * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _resultant_y(f, g):
    """Res_y(f, g) for bivariate f, g: ascending coefficient list in x.

    Vanishes at every x that extends to a common zero of f and g, so its
    roots are a sound candidate superset for elimination.
    """
    fc = _y_coefficients(f)
    gc = _y_coefficients(g)
    m, n = len(fc) - 1, len(gc) - 1
    if m < 1 or n < 1:
        return []
    size = m + n
    zero = MPoly.zero(1)
    rows = []
    f_desc = list(reversed(fc))
    g_desc = list(reversed(gc))
    for i in range(n):
        rows.append([zero] * i + f_desc + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + g_desc + [zero] * (m - 1 - i))
    assert all(len(r) == size for r in rows)
    return _coeff_list(_det(rows))


# -- exact search, sizes 2 and 3 ----------------------------------------


def _verify_candidates(P, diagonals):
    for entries in diagonals:
        T = ExactMatrix.diagonal([GaussRat(1), *entries])
        try:
            return verify_modular(P, T)
        except NotScalar:
            continue
    return None


def _search_2x2_exact(P, tolerance, max_denominator):
    cons = _constraints(_symbolic_cube(P))
    if not cons:
        return _verify_candidates(P, [(GaussRat(1),)])
    g = _gcd_many([_coeff_list(p) for p in cons])
    roots = _exact_roots(g, tolerance, max_denominator)
    return _verify_candidates(P, [(t,) for t in roots])


_HEURISTIC_VALUES = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))


def _y_candidates_at(cons, x0, tolerance, max_denominator):
    """Exact y-solutions of the constraint set specialized at x = x0.

    None if x0 is plainly inconsistent (a constraint becomes a nonzero
    constant, or the common y-gcd is constant); heuristic values if the
    specialized system leaves y unconstrained.
    """
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
    if len(hy) == 1:
        return None
    return _exact_roots(hy, tolerance, max_denominator)


def _search_3x3_exact(P, tolerance, max_denominator, restarts, seed):
    cons = _constraints(_symbolic_cube(P))
    if not cons:
        return _verify_candidates(P, [(GaussRat(1), GaussRat(1))])
    x_only, with_y = [], []
    for p in cons:
        if max(e[1] for e in p.terms) == 0:
            x_only.append(p)
        else:
            with_y.append(p)
    gens_x = [_coeff_list(_drop_second_var(p)) for p in x_only]
    for a in range(len(with_y)):
        for b in range(a + 1, len(with_y)):
            r = _resultant_y(with_y[a], with_y[b])
            if any(r):
                gens_x.append(r)
    hx = _gcd_many(gens_x)
    if hx:
        x_candidates = _exact_roots(hx, tolerance, max_denominator)
        degenerate = False
    else:
        # every resultant vanished: the solution set has a positive-
        # dimensional component, so any x may extend.  Try nice values
        # exactly before resorting to the numeric search.
        x_candidates = list(_HEURISTIC_VALUES)
        degenerate = True
    for x0 in x_candidates:
        y_candidates = _y_candidates_at(cons, x0, tolerance, max_denominator)
        if not y_candidates:
            continue
        witness = _verify_candidates(P, [(x0, y0) for y0 in y_candidates])
        if witness is not None:
            return witness
    if degenerate:
        return _search_numeric(P, tolerance, max_denominator, restarts, seed)
    return None


# -- numeric search with exact confirmation -----------------------------


def _search_numeric(P, tolerance, max_denominator, restarts, seed):
    k = P.nrows
    d = k - 1
    Pn = np.array([[complex(P[i, j]) for j in range(k)] for i in range(k)])
    off = [(i, j) for i in range(k) for j in range(k) if i != j]
    rng = np.random.default_rng(seed)

    def residuals(x):
        t = np.concatenate([[1.0 + 0j], x[:d] + 1j * x[d:]])
        K = Pn * t[None, :]
        K = K @ K @ K
        res = [K[i, j] for (i, j) in off]
        res += [K[i, i] - K[0, 0] for i in range(1, k)]
        arr = np.array(res)
        return np.concatenate([arr.real, arr.imag])

    for _ in range(restarts):
        x0 = rng.normal(0.0, 1.0, size=2 * d)
        try:
            sol = least_squares(residuals, x0, method="lm",
                                xtol=1e-15, ftol=1e-15, gtol=1e-15)
        except (ValueError, np.linalg.LinAlgError):
            continue
        if sol.cost > 1e-18:
            continue
        entries = []
        for r in range(d):
            g = snap_gauss(complex(sol.x[r], sol.x[d + r]),
                            tolerance, max_denominator)
            if g is None:
                break
            entries.append(g)
        if len(entries) < d:
            continue
        witness = _verify_candidates(P, [tuple(entries)])
        if witness is not None:
            return witness
    return None


def search_T(P, tolerance=1e-9, max_denominator=10**6,
             restarts=_SEARCH_RESTARTS, seed=_SEARCH_SEED):
    """Find a diagonal T, normalized to T[0,0] = 1, with (PT)^3 = c I.

    Returns a ModularWitness (always verified exactly) or None when the
    search budget is exhausted; None means "search incomplete", not a
    proof that no witness exists.
    """
    if P.nrows != P.ncols:
        raise DimensionMismatch("P must be square")
    if P.nrows == 1:
        return _verify_candidates(P, [()])
    if P.nrows == 2:
        return _search_2x2_exact(P, tolerance, max_denominator)
    if P.nrows == 3:
        return _search_3x3_exact(P, tolerance, max_denominator,
                                 restarts, seed)
    return _search_numeric(P, tolerance, max_denominator, restarts, seed)


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

    T_hat is the diagonal matrix of monomials prod_j T[j,j]^gamma(j)
    over compositions gamma; the check computes (P_hat T_hat)^3 exactly
    and compares its scalar with c^n.  Also confirms that T_hat agrees
    with the induced action of T on degree-n monomials.
    """
    if not T.is_diagonal():
        raise NotScalar("T is not diagonal")
    k = P.nrows
    diag = []
    for gamma in compositions(n, k):
        val = GaussRat(1)
        for j, e in enumerate(gamma):
            if e:
                val = val * T[j, j] ** e
        diag.append(val)
    T_hat = ExactMatrix.diagonal(diag)
    t_hat_consistent = induced_matrix(T, n) == T_hat
    P_hat = induced_matrix(P, n)
    M = P_hat @ T_hat
    K = M @ M @ M
    constant = K.scalar_value()
    holds = constant is not None and bool(constant)
    expected = c**n
    return InducedModular(holds, constant, expected,
                          holds and constant == expected, t_hat_consistent)
