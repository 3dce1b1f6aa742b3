"""Modular-invariance witnesses: diagonal T with (PT)^3 = c I.

verify_modular is purely exact: it forms the cube and decides c*I on
the Gaussian-integer numerators.  search_T refuses a singular P at once.
Its candidates come from one of three exact routes, by size, all read
off PTP = c T^-1 P^-1 T^-1: a 1x1 P has the one candidate T = (1); up
to 3x3, elimination on the first-row quadrics, with one resultant,
their Sylvester determinant written out (`_resultant_y`); at 4x4,
Cramer's rule on three equations affine in (t_2, t_3) and one
eliminant in t_1 of degree at most 8 (`_cramer_candidates`).  Both
form their polynomials on the Gaussian-integer numerators of P and
P^-1, as lists of (re, im) pairs, and share one gcd (`_gp_gcd`) and
one root finder (`_gp_roots`); GaussRat values are made only for the
candidates.  Larger sizes, 3x3 quadrics with a positive-dimensional
component and the 4x4 P's the Cramer route cannot decide use seeded
batched Levenberg-Marquardt restarts on the cube, with its residual
and derivatives read off its coefficient tensor, snapped to Gaussian
rationals.  Every candidate with no zero entry (which forces c = 0)
goes through one exact check, each distinct one once, so an inexact
witness can never be returned.  A None is a proof of absence, up to
the root snap, only from an exact route that decided (see search_T).
search_T keeps its recent results, keyed on (P, restarts), for the
life of the process, in one `functools.lru_cache` (`_search`).
induced_modular_check lifts a witness to degree n with the induced
matrices of P and T, one route for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatch, NotScalar, SingularMatrix
from .exact import (
    ExactMatrix,
    GaussRat,
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


# -- Gaussian-integer polynomials ----------------------------------------
#
# On Gaussian integers, each a pair (re, im) of ints: a polynomial in one
# variable is an ascending list of them, trailing zeros allowed, and a
# Gaussian rational z / q is held as the pair (z, q) of one and an int q > 0.


def _gauss_rows(M):
    """The Gaussian-integer numerators of M's entries, as rows of pairs."""
    re, im, _ = M.numerators()
    return [list(zip(r, i))
            for r, i in zip(re, im or [[0] * len(re[0])] * len(re))]


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gdet(a, b, c, d):
    """a d - b c."""
    x, y = _gmul(a, d), _gmul(b, c)
    return x[0] - y[0], x[1] - y[1]


def _gp_add(p, q, sign=1):
    """p + sign * q."""
    n = max(len(p), len(q))
    p, q = p + [(0, 0)] * (n - len(p)), q + [(0, 0)] * (n - len(q))
    return [(a + sign * c, b + sign * d) for (a, b), (c, d) in zip(p, q)]


def _gp_mul(p, q):
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if any(a):
            for j, b in enumerate(q):
                x, y = _gmul(a, b)
                u, v = out[i + j]
                out[i + j] = (u + x, v + y)
    return out


def _gp_trim(p):
    p = list(p)
    while p and not any(p[-1]):
        p.pop()
    return p


def _gp_primitive(p):
    """p over the integer gcd of its parts."""
    g = gcd(*(x for c in p for x in c))
    return [(a // g, b // g) for a, b in p] if g > 1 else p


def _gp_pdivmod(a, b):
    """(q, r) with u a = q b + r and deg r < deg b, for a nonzero b
    without trailing zeros and u a power of its leading coefficient."""
    lead, q, r = [b[-1]], [], _gp_trim(a)
    while len(r) >= len(b):
        shift = [(0, 0)] * (len(r) - len(b))
        q = _gp_add(_gp_mul(lead, q), shift + [r[-1]])
        r = _gp_trim(_gp_add(_gp_mul(lead, r),
                             shift + _gp_mul([r[-1]], b), -1))
    return q, r


def _gp_gcd(polys):
    """A gcd of polys, primitive and without trailing zeros, by a
    primitive pseudo-remainder sequence; [] if they all vanish."""
    g = []
    for h in polys:
        h = _gp_primitive(_gp_trim(h))
        while h:
            g, h = h, _gp_primitive(_gp_pdivmod(g, h)[1])
    return g


def _gp_at(p, x, n):
    """q^n p(z / q) for x = (z, q) and n >= deg p, a Gaussian integer."""
    (zr, zi), q = x
    value, scale = (0, 0), 1
    for c in reversed(p + [(0, 0)] * (n + 1 - len(p))):
        value = _gmul(value, (zr, zi))
        value = (value[0] + c[0] * scale, value[1] + c[1] * scale)
        scale *= q
    return value


def _ratio(u, v):
    """The GaussRat u / v of Gaussian integers, v != 0."""
    n = v[0] ** 2 + v[1] ** 2
    return GaussRat(Fraction(u[0] * v[0] + u[1] * v[1], n),
                    Fraction(u[1] * v[0] - u[0] * v[1], n))


def _gp_roots(p):
    """The nonzero Gaussian-rational roots (z, q) of p, each once, by the
    (im, re) of z / q descending.  The squarefree part p / gcd(p, p') is
    solved numerically, so a multiple root comes back as accurately as a
    simple one; each root is snapped and kept only if it is a root
    exactly."""
    f = _gp_primitive(_gp_trim(p))
    if len(f) > 2:
        g = _gp_gcd([f, [(i * a, i * b) for i, (a, b) in enumerate(f)][1:]])
        if len(g) > 1:
            f = _gp_primitive(_gp_pdivmod(f, g)[0])
    if len(f) <= 1:
        return []
    if len(f) == 2:
        (a, b), (c, d) = f
        z, q = _gmul((-a, -b), (c, -d)), c * c + d * d
        g = gcd(*z, q)
        return [((z[0] // g, z[1] // g), q // g)] if any(z) else []
    m = max(abs(x) for c in f for x in c)
    roots = []
    for w in np.roots([complex(a / m, b / m) for a, b in reversed(f)]):
        x = snap_gauss(w)
        if x is None or not x:
            continue
        q = lcm(x.re.denominator, x.im.denominator)
        x = ((x.re.numerator * (q // x.re.denominator),
              x.im.numerator * (q // x.im.denominator)), q)
        if not any(_gp_at(f, x, len(f) - 1)) and x not in roots:
            roots.append(x)
    return sorted(roots, reverse=True, key=lambda x: (
        Fraction(x[0][1], x[1]), Fraction(x[0][0], x[1])))


# -- exact candidates, sizes 2 and 3 ------------------------------------
#
# A polynomial in t_1..t_d is a list, by powers of t_d, of polynomials
# in t_1..t_{d-1}; in no variable, a Gaussian integer.  For d = 1 it is
# a polynomial in t_1 as above.


# 1, i, -1 and -i, as (z, q)
_HEURISTIC_VALUES = (((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1))


def _first_row_quadrics(p, b):
    """The first-row quadrics of (P diag(1, t_1, .., t_d))^3 = c I,
    trailing zeros dropped, on the Gaussian-integer numerators p of P
    and b of row 0 of P^-1, in which they are homogeneous.

    With c != 0, M = PT has M^2 = c M^-1, so PTP = c T^-1 P^-1 T^-1,
    whose row 0 reads a_j(t) t_j = c b_j for a_j(t) = sum_r P[0, r]
    P[r, j] t_r (t_0 = 1).  Cross-multiplying each entry j against one
    entry m with b_m != 0 (m = 0 unless b_0 = 0) eliminates c:
    b_m a_j(t) t_j - b_j a_m(t) t_m = 0 for the d indices j != m.  Every
    witness is a zero of these; a zero need not be a witness.
    """
    k = len(p)
    m = next(j for j in range(k) if any(b[j]))

    def form(terms, i):
        # the sum of c t_r t_s over the (r, s, c) of terms, in t_1..t_i,
        # by the power e of t_i in t_r t_s
        if not i:
            return sum(c[0] for *_, c in terms), sum(c[1] for *_, c in terms)
        return _gp_trim([form([x for x in terms if (x[0] == i) + (x[1] == i)
                               == e], i - 1) for e in range(3)])

    return [form([(r, s, _gmul(w, _gmul(p[0][r], p[r][s])))
                  for s, w in ((j, b[m]), (m, (-b[j][0], -b[j][1])))
                  for r in range(k)], k - 1)
            for j in range(k) if j != m]


def _resultant_y(f, g):
    """Res_y(f, g), a polynomial in x, for polynomials f, g in x and y
    (lists by powers of y) of y-degrees (1, 1) or (2, 1) in either
    order: the Sylvester determinant written out on their
    y-coefficients.  These are the only y-degrees two first-row quadrics
    with y-terms can have: of q_j = b_m a_j(t) t_j - b_j a_m(t) t_m,
    only the one with j = 2 != m has a t_2^2 term (see
    `_first_row_quadrics`)."""
    if len(f) < len(g):
        f, g = g, f
    if len(f) == 2:
        return _gp_add(_gp_mul(f[1], g[0]), _gp_mul(f[0], g[1]), -1)
    # f_2 g_0^2 - f_1 g_0 g_1 + f_0 g_1^2
    return _gp_add(_gp_mul(g[0], _gp_add(_gp_mul(f[2], g[0]),
                                         _gp_mul(f[1], g[1]), -1)),
                   _gp_mul(f[0], _gp_mul(g[1], g[1])))


def _cube_at(p, prefix):
    """The off-diagonal entries and diagonal differences of the cube
    K = (P diag(1, t_1, .., t_d))^3, which all vanish exactly where
    K = c I, with t_1 set to prefix (empty for d = 1), as polynomials in
    t_d, times a constant; p holds the Gaussian-integer numerators of
    P."""
    q, k = prefix[0][1] if prefix else 1, len(p)
    t = [[(q, 0)]] + [[z] for z, _ in prefix] + [[(0, 0), (q, 0)]]
    M = K = [[_gp_mul([p[i][j]], t[j]) for j in range(k)] for i in range(k)]
    for _ in range(2):
        K = [[reduce(_gp_add, (_gp_mul(K[i][r], M[r][j]) for r in range(k)))
              for j in range(k)] for i in range(k)]
    return ([K[i][j] for i in range(k) for j in range(k) if i != j]
            + [_gp_add(K[0][0], K[i][i], -1) for i in range(1, k)])


def _exact_candidates(P, B, restarts):
    """Candidate diagonals of sizes 2 and 3, from the first-row quadrics;
    B = P^-1.

    With d = 2, x = t_1 is a root of the gcd of Res_y(q_1, q_2) and any
    quadric free of y = t_2.  If that eliminant vanishes identically the
    quadrics have a positive-dimensional component: the heuristic values
    stand in for x, and the numeric stream follows.  At each x (once for
    d = 1) the last coordinate is a root of the quadrics' gcd; where they
    leave it free, of the cube constraints'; where those do too, a
    heuristic value.  All of it runs on Gaussian integers: GaussRat
    values are made only for the candidates.
    """
    p = _gauss_rows(P)
    quadrics = _first_row_quadrics(p, _gauss_rows(B)[0])
    prefixes, degenerate = [()], False
    if len(quadrics) == 2:
        with_y = [q for q in quadrics if len(q) > 1]
        gens_x = [q[0] for q in quadrics if len(q) == 1]
        if len(with_y) == 2:
            gens_x.append(_resultant_y(*with_y))
        hx = _gp_gcd(gens_x)
        degenerate = not hx
        prefixes = [(x,) for x in
                    (_gp_roots(hx) if hx else _HEURISTIC_VALUES)]
    for prefix in prefixes:
        at = ([[_gp_at(c, prefix[0], 2) for c in q] for q in quadrics]
              if prefix else quadrics)
        last = _gp_gcd(at) or _gp_gcd(_cube_at(p, prefix))
        for t in _gp_roots(last) if last else _HEURISTIC_VALUES:
            yield tuple(_ratio(z, (q, 0)) for z, q in prefix + (t,))
    if degenerate:
        yield from _numeric_candidates(P, restarts)


# -- exact candidates, size 4 -------------------------------------------


_QUADRICS_4 = ((0, 2), (0, 3), (2, 0), (3, 0))


def _cramer_candidates(P, B):
    """Candidate diagonals of size 4, sorted, or None where this route
    cannot decide; B = P^-1.

    With M = PT, (PT)^3 = c I, c != 0, reads M^2 = c M^-1, that is
    L_ij(t) t_i t_j = c B_ij for L_ij(t) = sum_r P_ir P_rj t_r (t_0 =
    1).  So c = L_00 / B_00, and every E_ij = B_00 t_i t_j L_ij - B_ij
    L_00 vanishes at a witness; they are formed on the Gaussian-integer
    numerators of P and B, in which they are homogeneous.  E_01, E_10
    and E_11 are affine in (t_2, t_3) over polynomials in t_1.  For the
    first two of them whose determinant D(t_1) is not identically zero,
    Cramer's rule gives t_2 = N_2 / D and t_3 = N_3 / D; put into the
    first of the quadrics E_02, E_03, E_20, E_30 that stays nonzero,
    times D^2, they give the eliminant G, of degree at most 8.  Every
    witness has t_1 among the nonzero roots of G and of D.  Off D's
    roots Cramer's rule gives (t_2, t_3).  On them, two of the three
    relations that are independent there give (t_2, t_3); else one that
    is left gives a line, on which the first quadric that stays nonzero
    gives the points.  The candidates are sorted by (im, re) ascending,
    coordinate by coordinate.  None where B_00 = 0, where every D or
    every G vanishes identically, or where no relation, or no quadric on
    the line, is left at a root of D.
    """
    p, b = _gauss_rows(P), _gauss_rows(B)
    b00 = b[0][0]
    if not any(b00):
        return None

    def lin(i, j):
        # L_ij's coefficients of 1, t_2 and t_3, polynomials in t_1
        l = [_gmul(p[i][r], p[r][j]) for r in range(4)]
        return l[:2], l[2:3], l[3:]

    def affine(i, j):
        # E_ij for i, j <= 1: B_00 t_1^(i + j) L_ij - B_ij L_00
        head = [(0, 0)] * (i + j) + [b00]
        return [_gp_add(_gp_mul(head, f), _gp_mul([b[i][j]], f0), -1)
                for f, f0 in zip(lin(i, j), lin(0, 0))]

    rows = [affine(0, 1), affine(1, 0), affine(1, 1)]
    for (a0, b0, c0), (a1, b1, c1) in ((rows[0], rows[1]),
                                       (rows[0], rows[2]),
                                       (rows[1], rows[2])):
        D = _gp_trim(_gp_add(_gp_mul(b0, c1), _gp_mul(b1, c0), -1))
        if D:
            break
    else:
        return None
    # (D, N_2, N_3) is D times (1, t_2, t_3)
    N = (D, _gp_add(_gp_mul(a1, c0), _gp_mul(a0, c1), -1),
         _gp_add(_gp_mul(b1, a0), _gp_mul(b0, a1), -1))

    def scaled(i, j):
        # D L_ij at (t_2, t_3) = (N_2 / D, N_3 / D)
        out = []
        for n, f in zip(N, lin(i, j)):
            out = _gp_add(out, _gp_mul(n, f))
        return out

    DL00 = _gp_mul(D, scaled(0, 0))
    for i, j in _QUADRICS_4:
        G = _gp_trim(_gp_add(_gp_mul([b00], _gp_mul(N[i + j - 1],
                                                    scaled(i, j))),
                             _gp_mul([b[i][j]], DL00), -1))
        if G:
            break
    else:
        return None

    def on_a_root(x):
        # the candidates (t_2, t_3) at a root x of D, or None
        n = max(len(f) for row in rows for f in row) - 1
        rel = [[_gp_at(f, x, n) for f in row] for row in rows]
        live = [r for r in rel if any(r[1]) or any(r[2])]
        if not live:
            return None
        a0, b0, c0 = live[0]
        for a1, b1, c1 in live[1:]:
            det = _gdet(b0, c0, b1, c1)
            if any(det):
                return [(_ratio(_gdet(c0, a0, c1, a1), det),
                         _ratio(_gdet(a0, b0, a1, b1), det))]
        # the line (t_2, t_3) = (T_2(s), T_3(s)) / d, s free
        neg = [(-a0[0], -a0[1])]
        T, d = (([(0, 0), c0], neg + [(-b0[0], -b0[1])]), c0) if any(c0) \
            else ((neg, [(0, 0), b0]), b0)
        q = [(x[1], 0)]

        def on_line(i, j):
            # q d L_ij on the line
            c, l2, l3 = lin(i, j)
            return _gp_add(_gp_mul([d], [_gp_at(c, x, 1)]), _gp_mul(
                q, _gp_add(_gp_mul(l2, T[0]), _gp_mul(l3, T[1]))))

        dL00 = _gp_mul([d], on_line(0, 0))
        for i, j in _QUADRICS_4:
            # q d^2 E_ij on the line, a quadratic in s
            quadratic = _gp_trim(_gp_add(
                _gp_mul([b00], _gp_mul(T[i + j - 2], on_line(i, j))),
                _gp_mul([b[i][j]], dL00), -1))
            if quadratic:
                return [tuple(_ratio(_gp_at(t, s, 1), _gmul((s[1], 0), d))
                              for t in T) for s in _gp_roots(quadratic)]
        return None

    candidates = []
    roots = _gp_roots(G)
    n = max(map(len, N)) - 1
    for x in roots + [x for x in _gp_roots(D) if x not in roots]:
        t1 = _ratio(x[0], (x[1], 0))
        d = _gp_at(D, x, n)
        if any(d):
            candidates.append((t1, _ratio(_gp_at(N[1], x, n), d),
                               _ratio(_gp_at(N[2], x, n), d)))
            continue
        found = on_a_root(x)
        if found is None:
            return None
        candidates += [(t1, *t) for t in found]
    candidates.sort(key=lambda t: tuple((g.im, g.re) for g in t))
    return candidates


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
    a singular P, as det (PT)^3 = c^k != 0 needs det P != 0.  P^-1
    comes from `P.inverse()`, which is also the singularity check; the
    2x2 and 3x3 route reads the numerators of its row 0, the 4x4 route
    all of them."""
    try:
        B = P.inverse()
    except SingularMatrix:
        return ()
    if P.nrows == 1:
        return [()]
    if P.nrows <= 3:
        return _exact_candidates(P, B, restarts)
    found = _cramer_candidates(P, B) if P.nrows == 4 else None
    return _numeric_candidates(P, restarts) if found is None else found


def search_T(P, restarts=_SEARCH_RESTARTS):
    """Find a diagonal T, normalized to T[0,0] = 1, with (PT)^3 = c I.

    A singular P is not searched.  The candidates come from the exact
    route for P's size: `_exact_candidates` for two and three classes,
    `_cramer_candidates` for four.  Beyond four classes, where the 3x3
    quadrics have a positive-dimensional component and where the 4x4
    route cannot decide, they are `_numeric_candidates`, from `restarts`
    seeded Levenberg-Marquardt solves in blocks, whose converged points
    are snapped to Gaussian rationals.  Each distinct candidate with no
    zero entry is verified once, in stream order, and the witness
    returned is the first that verifies: of the 2x2 and 3x3 route, the
    first with roots in (im, re) descending order; of the 4x4 route, the
    first in (im, re) ascending order, coordinate by coordinate, which
    keeps group:2:2's diag(1, -i, -i, -1) (c = -8i) first of its four
    witnesses; of the numeric stream, that of the lowest-index restart.
    The streams are lazy, so no block runs after the one that holds it.
    restarts <= 0 runs no restart.
    Returns a ModularWitness (always verified exactly) or None.  None is
    a proof that no Gaussian-rational witness exists, up to the root
    snap (denominators up to 10^6), from the 2x2 and 3x3 route where the
    quadrics are zero-dimensional and fix every coordinate, and from the
    4x4 route wherever it decides; after the heuristic values or the
    numeric stream it means "search incomplete".

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
