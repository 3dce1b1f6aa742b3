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
and `modular.least_squares` are checked against.
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
