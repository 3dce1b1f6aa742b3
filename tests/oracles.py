"""Reference implementations that the tests compare the package against.

Each is the literal, scalar definition of something the package computes
another way: the mixed-radix encoding of `TranslationStructure.digits` /
`index`, the profile class of `genham.build_explicit`, the
idempotent-based dual enumerator of `codes.macwilliams_transform`, and
the three explicit tables behind `genham.fusion_check_trans`.  They are
slow by design and live here, beside the tests, not in the package.
Beside them are the batched numeric search's earlier kernels, the cube
residual by k x k matrix products and the Levenberg-Marquardt loop that
gathers and scatters every row's state, which `modular._cube_residual`
and `modular.least_squares` are checked against, and the GaussRat and
MPoly polynomial helpers the 2- and 3-class search ran on before it
moved to Gaussian-integer lists: the symbolic cube's constraints, the
Euclidean gcd over Gaussian rationals and its root finder, which the
cube-route oracle of the tests and the Laplace expansion of the
Sylvester matrix read.  Last, the two eliminations `search_T` ran on
before one replaced them, the first-row quadrics with one resultant for
2 and 3 classes and Cramer's rule for 4, against which the tests check
the one that did.
"""

import itertools
from fractions import Fraction
from functools import reduce

import numpy as np

from schemekit.exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    composition_index,
    compositions,
    gmul,
    snap_gauss,
)
from schemekit import modular
from schemekit.genham import TransFusion, build_explicit, h_vector
from schemekit.modular import (
    _HEURISTIC_VALUES,
    _LM_ITERATIONS,
    _gauss_rows,
    _gp_add,
    _gp_at,
    _gp_gcd,
    _gp_mul,
    _gp_roots,
    _gp_trim,
    _ratio,
    _solve_each,
)
from schemekit.scheme import (
    TranslationStructure,
    _check_power_cap,
    dual_eigenmatrix,
    eigenmatrix,
)


def element(orders, vertex):
    """Element tuple of a vertex in mixed radix (big-endian)."""
    out = []
    for m in reversed(orders):
        out.append(vertex % m)
        vertex //= m
    return tuple(reversed(out))


def vertex(orders, elem):
    """Vertex of an element tuple, its digits taken mod the orders."""
    idx = 0
    for x, m in zip(elem, orders):
        idx = idx * m + (x % m)
    return idx


def class_of(base, v, w):
    """Class index of the word pair (v, w) in the composite scheme over
    `base`: the position of its profile among the compositions."""
    return composition_index(len(v), base.d + 1)[h_vector(v, w, base)]


def exact_idempotents(scheme):
    """The idempotents E_0..E_d as exact v x v matrices,
    E_i[x][y] = Q[class(x,y), i] / v."""
    P = eigenmatrix(scheme)
    v = scheme.v
    Q = dual_eigenmatrix(P, v)
    vg = GaussRat(v)
    rel = scheme.relation
    return [
        ExactMatrix([[Q[int(rel[x, y]), i] / vg for y in range(v)]
                     for x in range(v)])
        for i in range(scheme.d + 1)
    ]


def _arrangements(beta):
    """Distinct orderings of the multiset with beta[i] copies of i."""
    seq = []
    for i, e in enumerate(beta):
        seq.extend([i] * e)
    return sorted(set(itertools.permutations(seq)))


def dual_weight_enumerator_direct(code, cap=256):
    """Dual enumerator by literal idempotent evaluation.

    Builds each E_beta as the symmetrized sum of Kronecker products of
    the exact base idempotents and evaluates x^T E_beta x over the code;
    the coefficient of t^beta is (v^n / |C|^2) x^T E_beta x.  This never
    touches the induced matrices, so it is an independent check of the
    transform.  SizeCapExceeded past cap vertices v^n.
    """
    base, n = code.base, code.n
    v = base.v
    _check_power_cap(v, n, cap, "oracle vertices")
    E = exact_idempotents(base)
    comps = compositions(n, base.d + 1)
    indices = TranslationStructure((v,) * n).index(code.words).tolist()
    size = len(code.words)
    scale = GaussRat(Fraction(v**n, size * size))
    terms = {}
    for beta in comps:
        acc = None
        for arrangement in _arrangements(beta):
            m = E[arrangement[0]]
            for i in arrangement[1:]:
                m = m.kron(E[i])
            acc = m if acc is None else acc + m
        total = GaussRat(0)
        for a in indices:
            for b in indices:
                total = total + acc[a, b]
        coeff = scale * total
        if coeff:
            terms[beta] = coeff
    return MPoly(base.d + 1, terms)


def fusion_check_tables(base, m, n, cap=4096):
    """The fusion of H(m, H(n, base)) onto H(m*n, base) read off tables:
    the fine and the coarse scheme are built explicitly on the identified
    vertex set V^(m*n), and each fine class maps to the coarse class of
    its cells.  SizeCapExceeded past cap vertices."""
    coarse = build_explicit(base, m * n, cap=cap)
    fine = build_explicit(build_explicit(base, n, cap=cap), m, cap=cap)
    f, c = fine.relation.ravel(), coarse.relation.ravel()
    mapping = np.full(fine.d + 1, -1, dtype=np.int64)
    mapping[f] = c
    if (mapping[f] != c).any():
        return TransFusion(False, None, None, "a fine class meets several "
                           "coarse classes")
    members = {k: tuple(np.flatnonzero(mapping == k).tolist())
               for k in range(coarse.d + 1)}
    split = {k: fs for k, fs in members.items() if len(fs) > 1}
    return TransFusion(True, tuple(int(x) for x in mapping), split)


def least_squares_gathered(residual, x0):
    """`modular.least_squares` with the state of every row kept in full
    arrays: the live rows' A, g, damping, .. are gathered into new arrays
    at each step and the accepted ones scattered back."""
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
        step = step[solved]
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


def cube_residual_products(Pn):
    """`modular._cube_residual` by k x k products: for each row, with
    M = P diag(1, t) and dM = P[:, j] e_j^T, the cube is M^2 M and
    dK/dt_j = dM M^2 + M dM M + M^2 dM, as batched matmuls and
    (n, d, k, k) broadcasts."""
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


# -- the GaussRat/MPoly elimination the 2- and 3-class search ran on ------


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


def _y_coefficients(p):
    """Bivariate MPoly as ascending y-coefficients, each univariate in x."""
    deg = max((e[1] for e in p.terms), default=0)
    coeffs = [MPoly.zero(1) for _ in range(deg + 1)]
    for (ex, ey), c in p.terms.items():
        coeffs[ey] = coeffs[ey] + MPoly.monomial((ex,), c)
    return coeffs

# -- the two eliminations search_T ran on before one replaced them --------
#
# The first-row quadrics with one Sylvester resultant for 2 and 3 classes,
# Cramer's rule on E_ij = B_00 t_i t_j L_ij - B_ij L_00 for 4, as they ran
# in the package, on its Gaussian-integer polynomial toolkit.


def _gdet(a, b, c, d):
    """a d - b c."""
    x, y = gmul(a, d), gmul(b, c)
    return x[0] - y[0], x[1] - y[1]


def first_row_quadrics(p, b):
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

    return [form([(r, s, gmul(w, gmul(p[0][r], p[r][s])))
                  for s, w in ((j, b[m]), (m, (-b[j][0], -b[j][1])))
                  for r in range(k)], k - 1)
            for j in range(k) if j != m]


def resultant_y(f, g):
    """Res_y(f, g), a polynomial in x, for polynomials f, g in x and y
    (lists by powers of y) of y-degrees (1, 1) or (2, 1) in either
    order: the Sylvester determinant written out on their
    y-coefficients.  These are the only y-degrees two first-row quadrics
    with y-terms can have: of q_j = b_m a_j(t) t_j - b_j a_m(t) t_m,
    only the one with j = 2 != m has a t_2^2 term (see
    `first_row_quadrics`)."""
    if len(f) < len(g):
        f, g = g, f
    if len(f) == 2:
        return _gp_add(_gp_mul(f[1], g[0]), _gp_mul(f[0], g[1]), -1)
    # f_2 g_0^2 - f_1 g_0 g_1 + f_0 g_1^2
    return _gp_add(_gp_mul(g[0], _gp_add(_gp_mul(f[2], g[0]),
                                         _gp_mul(f[1], g[1]), -1)),
                   _gp_mul(f[0], _gp_mul(g[1], g[1])))


def cube_at(p, prefix):
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


def quadric_candidates(P, B, restarts):
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
    quadrics = first_row_quadrics(p, _gauss_rows(B)[0])
    prefixes, degenerate = [()], False
    if len(quadrics) == 2:
        with_y = [q for q in quadrics if len(q) > 1]
        gens_x = [q[0] for q in quadrics if len(q) == 1]
        if len(with_y) == 2:
            gens_x.append(resultant_y(*with_y))
        hx = _gp_gcd(gens_x)
        degenerate = not hx
        prefixes = [(x,) for x in
                    (_gp_roots(hx) if hx else _HEURISTIC_VALUES)]
    for prefix in prefixes:
        at = ([[_gp_at(c, prefix[0], 2) for c in q] for q in quadrics]
              if prefix else quadrics)
        last = _gp_gcd(at) or _gp_gcd(cube_at(p, prefix))
        for t in _gp_roots(last) if last else _HEURISTIC_VALUES:
            yield tuple(_ratio(z, (q, 0)) for z, q in prefix + (t,))
    if degenerate:
        yield from modular._numeric_candidates(P, restarts)


# -- exact candidates, size 4 -------------------------------------------


_QUADRICS_4 = ((0, 2), (0, 3), (2, 0), (3, 0))


def cramer_candidates(P, B):
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
        l = [gmul(p[i][r], p[r][j]) for r in range(4)]
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
                return [tuple(_ratio(_gp_at(t, s, 1), gmul((s[1], 0), d))
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


def old_candidates(P, restarts):
    """`modular._candidates` on the two eliminations above, with whether
    they decide: the quadrics of 2 and 3 classes where they are
    zero-dimensional, the Cramer route where it gives a list; after the
    heuristic values, or in place of the Cramer route, the numeric
    stream follows."""
    B = P.inverse()
    k = P.nrows
    if k == 1:
        return [()], True
    if k <= 3:
        quadrics = first_row_quadrics(_gauss_rows(P), _gauss_rows(B)[0])
        with_y = [q for q in quadrics if len(q) > 1]
        gens_x = [q[0] for q in quadrics if len(q) == 1]
        if len(with_y) == 2:
            gens_x.append(resultant_y(*with_y))
        return (quadric_candidates(P, B, restarts),
                k == 2 or bool(_gp_gcd(gens_x)))
    found = cramer_candidates(P, B) if k == 4 else None
    if found is None:
        return modular._numeric_candidates(P, restarts), False
    return found, True
