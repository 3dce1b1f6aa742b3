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
Sylvester matrix read.
"""

import itertools
from fractions import Fraction

import numpy as np

from schemekit.exact import (
    ExactMatrix,
    GaussRat,
    MPoly,
    composition_index,
    compositions,
    snap_gauss,
)
from schemekit.genham import TransFusion, build_explicit, h_vector
from schemekit.modular import _LM_ITERATIONS, _solve_each
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
