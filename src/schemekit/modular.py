"""Modular-invariance witnesses: diagonal T with (PT)^3 = c I.

verify_modular is purely exact: it forms the cube and decides c*I on
the Gaussian-integer numerators.  search_T refuses a singular P at once.
A 1x1 P has the one candidate T = (1).  For 2 to 4 classes one exact
elimination (`_elimination_candidates`) reads them off M^2 = c M^-1, M
= PT: Cramer's rule on the relations affine in t_2..t_{k-1}, one
eliminant in t_1, and the points at its roots, on the Gaussian-integer
numerators of P and P^-1 as lists of (re, im) pairs, with one gcd
(`_gp_gcd`) and one root finder (`_gp_roots`).  Larger sizes, and the
P's it leaves undecided (whose witnesses form a curve, say), use seeded
batched Levenberg-Marquardt restarts on the cube, with its residual and
derivatives read off its coefficient tensor, snapped to Gaussian
rationals.  Every candidate with no zero entry (which forces c = 0)
goes through one exact check, each distinct one once, so an inexact
witness can never be returned.  A None is a proof of absence, up to
the root snap, wherever the elimination decides (see search_T).
search_T keeps its recent results, keyed on (P, restarts), for the
life of the process, in one `functools.lru_cache` (`_search`).
induced_modular_check lifts a witness to degree n with the induced
matrices of P and T, one route for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, islice, product
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatch, NotScalar, SingularMatrix
from .exact import (
    ExactMatrix,
    GaussRat,
    gmul,
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
                x, y = gmul(a, b)
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
        value = gmul(value, (zr, zi))
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
        z, q = gmul((-a, -b), (c, -d)), c * c + d * d
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


# -- exact candidates ----------------------------------------------------


# 1, i, -1 and -i, as (z, q)
_HEURISTIC_VALUES = (((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1))


def _cramer(rows, m):
    """(D, N, chosen) for the first m = 1 or 2 of rows, chosen, each [a,
    b_2, .., b_{m+1}] for a + sum_q b_q u_q = 0, whose determinant D is
    not zero: D u_q = N_q by Cramer's rule; None if every one is."""
    def det(w, x, y, z):
        return _gp_add(_gp_mul(w, z), _gp_mul(x, y), -1)

    for chosen in combinations(rows, m):
        if m == 1:
            (a, b), = chosen
            D, N = _gp_trim(b), [[(-x, -y) for x, y in a]]
        else:
            (a0, b0, c0), (a1, b1, c1) = chosen
            D = _gp_trim(det(b0, c0, b1, c1))
            N = [det(a1, a0, c1, c0), det(a0, a1, b0, b1)]
        if D:
            return D, N, chosen
    return None


def _elimination_candidates(P, B):
    """The candidate diagonals (t_1..t_{k-1}) of a P of k = 2..4 classes,
    B = P^-1, lazily; returns whether they decide.

    With c != 0, (PT)^3 = c I reads t_i t_j L_ij = c B_ij, L_ij = sum_h
    P_ih P_hj t_h and t_0 = 1.  So for the first nonzero B_rs of B's
    top-left 2x2 block (classes 1 and q swapped if it is zero), the
    witnesses are the zeros with no zero coordinate of all E_ij = B_rs
    t_i t_j L_ij - B_ij t_r t_s L_rs.  The relations, the E_ij with i, j
    <= 1, are affine in u = (t_2..t_{k-1}).  Cramer's rule on the first
    k - 2 of them with a determinant D(t_1) not identically zero gives u
    = N / D; G is the first other E_ij at u = N / D, the relations
    first, not identically zero.  With no D, G is the first relation
    less the first with a coefficient of u times the ratio of theirs to
    its, free of u, not identically zero.  Every witness has t_1 among
    the nonzero roots of G and of D or that coefficient.  At each, by
    (im, re), descending up to 3 classes and ascending at 4, u comes
    from the relations there, or else the free coordinate (t_2, or a
    line at k = 4) from the roots, in the same order, of the first E_ij
    nonzero on it, or the heuristic values where there is none.  Points
    where one of the first 2k - 1 E_ij does not vanish are dropped.
    Undecided: where G vanishes identically on a curve u = N / D with no
    coordinate zero all along it, so holding witnesses, or with no D,
    the points at t_1 = 1, i, -1, -i; where a root leaves u a plane,
    those before it.  It all runs on the Gaussian-integer numerators of
    P and B, in which the equations are homogeneous; GaussRat values are
    made only for the candidates kept.
    """
    p, b = _gauss_rows(P), _gauss_rows(B)
    k, m, order = len(p), len(p) - 2, list(range(len(p)))
    if not any(map(any, b[0][:2] + b[1][:2])):
        q = next(q for q in range(2, k) if any(b[0][q]))
        order[1], order[q] = q, 1
        p, b = ([[M[i][j] for j in order] for i in order] for M in (p, b))
    r, s = next((i, j) for i in (0, 1) for j in (0, 1) if any(b[i][j]))
    # L_ij's coefficients of t_0..t_{k-1}; the E_ij, the relations first
    l = [[[gmul(p[i][h], p[h][j]) for h in range(k)] for j in range(k)]
         for i in range(k)]
    pairs = sorted((ij for ij in product(range(k), repeat=2) if ij != (r, s)),
                   key=lambda ij: (ij[0] > 1) + (ij[1] > 1))
    one, var = [(1, 0)], [(0, 0), (1, 0)]
    rows = []  # each relation's part free of u, its coefficients of u
    for i, j in pairs[:3]:
        row = [[(0, 0)] * 4] + [[(0, 0)] * 3 for _ in range(m)]
        (a0, a1), (c0, c1) = b[r][s], b[i][j]
        for h, (x, y), (z, w) in zip(range(k), l[i][j], l[r][s]):
            # B_rs t_1^(i + j) L_ijh t_h - B_ij t_1^(r + s) L_rsh t_h
            f, e, d = row[max(h - 1, 0)], i + j + (h == 1), r + s + (h == 1)
            f[e] = f[e][0] + a0 * x - a1 * y, f[e][1] + a0 * y + a1 * x
            f[d] = f[d][0] - c0 * z + c1 * w, f[d][1] - c0 * w - c1 * z
        rows.append([_gp_trim(f) for f in row])

    def X(V, i, j):
        # V_i V_j sum_h L_ijh V_h: W^3 t_i t_j L_ij at t = V / W
        re = im = 0
        for (a, e), (v, w) in zip(l[i][j], V):
            re, im = re + a * v - e * w, im + a * w + e * v
        return gmul(gmul(V[i], V[j]), (re, im))

    def nonzero(V, pairs=pairs):
        # whether W^3 E_ij at t = V / W is nonzero, lazily by pairs
        ref = X(V, r, s)
        return (gmul(b[r][s], X(V, i, j)) != gmul(b[i][j], ref)
                for i, j in pairs)

    def norm(f):
        return sum(abs(a) + abs(c) for a, c in f)

    def eliminant(n, T, w, after=0):
        # The first E_ij not identically zero at t = T / W, as B_rs n_i
        # n_j S_ij - B_ij n_r n_s w[#{i, j >= 2}] S_rs, S_ij = sum_h L_ijh
        # T_h (with W = D, n_h = T_h / D^[h <= 1] and w = (1, D, D^2),
        # D^(1 + #{i, j >= 2}) E_ij; with n = T, w = (1, 1, 1), W^3 E_ij),
        # and whether no T_h is, past the first `after` pairs.  The
        # coefficient parts of T_h and W^3 E_ij are at most bound (|f|:
        # the sum of f's, absolute), so at t_1 = 2^K > 2 bound those are
        # zero only where all of them are.
        bound = norm(c for row in b for c in row) * norm(
            c for row in p for c in row) ** 2 * max(map(norm, T)) ** 3
        x0 = ((1 << bound.bit_length() + 1, 0), 1)
        V = [_gp_at(f, x0, len(f)) for f in T]
        for (i, j), e in zip(pairs[after:], nonzero(V, pairs[after:])):
            if e:
                S_ij, S_rs = (reduce(_gp_add, (_gp_mul([c], f) for c, f in
                                               zip(l[i_][j_], T)))
                              for i_, j_ in ((i, j), (r, s)))
                return _gp_trim(_gp_add(
                    _gp_mul([b[r][s]], _gp_mul(_gp_mul(n[i], n[j]), S_ij)),
                    _gp_mul([b[i][j]], _gp_mul(w[(i > 1) + (j > 1)],
                                               _gp_mul(_gp_mul(n[r], n[s]),
                                                       S_rs))), -1)), True
        return [], all(map(any, V))

    live = [row for row in rows if any(any(c) for f in row[1:] for c in f)]
    found = _cramer(live, m) if live else None
    if found:  # D times each other relation at u = N / D
        (D, N, chosen), pivot = found, found[0]
        reduced = (reduce(_gp_add, map(_gp_mul, row, [D, *N]))
                   for row in rows if row not in chosen)
    else:  # the relations less R times the ratio of their u_q to its
        D, N, pivot = [] if m else one, [], []
        reduced = (row[0] for row in rows)
        if live:
            R = live[0]
            q = next(q for q in range(1, k - 1) if R[q])
            reduced, pivot = (_gp_add(_gp_mul(S[0], R[q]), _gp_mul(
                R[0], S[q]), -1) for S in rows if S is not R), R[q]
    G, curve = next(filter(None, map(_gp_trim, reduced)), []), True
    if found and not G:  # past the relations, which vanish on the curve
        G, curve = eliminant([one, var, *N], [D, _gp_mul(var, D), *N],
                             [one, D, _gp_mul(D, D)], 3)
    deg = max(map(len, [D, *N, *(f for row in rows for f in row)])) - 1

    def at(x):
        # t = V / V_0 for each candidate V at t_1 = x, or None for a plane
        (z, q), d = x, _gp_at(D, x, deg)
        N_x = [_gp_at(f, x, deg) for f in N]
        if not any(d):
            here = [[[_gp_at(f, x, deg)] for f in row] for row in rows]
            live = [row for row in here if any(any(f[0]) for f in row[1:])]
            if any(any(row[0][0]) for row in here if row not in live):
                return []  # a relation reads 0 = a != 0
            found = _cramer(live, m)
            if found:
                d, N_x = found[0][0], [f[0] for f in found[1]]
        if any(d):
            return [[(q * d[0], q * d[1]), gmul(z, d),
                     *((q * a, q * c) for a, c in N_x)]]
        # the line u = U(v) / W, v free
        if m == 1:
            W, U = (1, 0), [var]
        elif not live:
            return None
        else:
            (a, c), b2, b3 = (f[0] for f in live[0])
            W, U = ((b3, [[(0, 0), b3], [(-a, -c), (-b2[0], -b2[1])]])
                    if any(b3) else (b2, [[(-a, -c)], [(0, 0), b2]]))
        T = [[(q * W[0], q * W[1])], [gmul(z, W)],
             *([(q * a, q * c) for a, c in f] for f in U)]
        e = eliminant(T, T, [one] * 3)[0]
        return [[_gp_at(f, v, 1) for f in T] for v in (_gp_roots(
            e)[::1 if k < 4 else -1] if e else _HEURISTIC_VALUES)]

    def kept(vectors, check=True):
        # those t = V / V_0, in P's order, at which the first 2k - 1 E_ij
        # vanish (a cheap sieve: verify_modular checks them all)
        return (tuple(_ratio(V[order[h]], V[0]) for h in range(1, k))
                for V in vectors
                if not (check and any(islice(nonzero(V), 2 * k - 1))))

    if not G and curve:
        for x in _HEURISTIC_VALUES:  # off the roots of D, on the curve
            yield from kept(at(x) or (), not any(_gp_at(D, x, deg)))
        return False
    roots, extra = _gp_roots(G), pivot and _gp_roots(pivot)  # descending
    if extra:
        roots = sorted(set(roots + extra), reverse=True, key=lambda x: (
            Fraction(x[0][1], x[1]), Fraction(x[0][0], x[1])))
    for x in roots[::1 if k < 4 else -1]:
        found = at(x)
        if found is None:
            return False
        yield from kept(found)
    return True


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
    """The candidate diagonals search_T verifies, as a stream: none for
    a singular P (det (PT)^3 = c^k != 0 needs det P != 0), which
    `P.inverse()`, giving B, refuses; up to 4 classes the elimination's,
    then the numeric stream unless they decide."""
    try:
        B = P.inverse()
    except SingularMatrix:
        return
    if P.nrows == 1:
        yield ()
    elif P.nrows > 4 or not (yield from _elimination_candidates(P, B)):
        yield from _numeric_candidates(P, restarts)


def search_T(P, restarts=_SEARCH_RESTARTS):
    """Find a diagonal T, normalized to T[0,0] = 1, with (PT)^3 = c I.

    A singular P is not searched.  For 2 to 4 classes the candidates come
    from `_elimination_candidates`; beyond four classes, and after it
    where it does not decide, from `_numeric_candidates`, `restarts`
    seeded Levenberg-Marquardt solves in blocks, whose converged points
    are snapped to Gaussian rationals.  Each distinct candidate with no
    zero entry is verified once, in stream order, and the witness
    returned is the first that verifies: of the elimination, the first
    in (im, re) order, coordinate by coordinate, descending up to 3
    classes and ascending at 4, which keeps group:2:2's diag(1, -i, -i,
    -1) (c = -8i) first of its four witnesses; of the numeric stream,
    that of the lowest-index restart.  The streams are lazy, so no block
    runs after the one that holds it.  restarts <= 0 runs no restart.
    Returns a ModularWitness (always verified exactly) or None.  None is
    a proof that no Gaussian-rational witness exists, up to the root
    snap (denominators up to 10^6), wherever the elimination decides;
    after the numeric stream it means "search incomplete".

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
