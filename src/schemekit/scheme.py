"""Association schemes: verification, eigenmatrices, and algebra.

A scheme is stored as a v x v relation table with values 0..d, where
class 0 is the diagonal.  Axiom checking and intersection numbers are
integer-exact (numpy matmuls of 0/1 indicator matrices).  Eigenmatrices
are found numerically, snapped to Gaussian rationals, and then certified
by an exact identity on the intersection-number tensor, so a wrong snap
can never pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AxiomViolation,
    ClosureFailure,
    DimensionMismatch,
    NegativeKrein,
    SingularMatrix,
    SizeCapExceeded,
    SnapFailure,
)
from .exact import ExactMatrix, GaussRat, snap_gauss

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_DENOMINATOR = 10**6
_EIG_SEED = 81309
_EIG_ATTEMPTS = 12


@dataclass
class AxiomCheck:
    axiom: int
    name: str
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __str__(self):
        if self.ok:
            return "axiom %d (%s): ok" % (self.axiom, self.name)
        msg = "axiom %d (%s): FAILED" % (self.axiom, self.name)
        if self.witness is not None:
            msg += " at %r" % (self.witness,)
        if self.detail:
            msg += " (%s)" % self.detail
        return msg


@dataclass
class AxiomReport:
    checks: list
    tensor: np.ndarray | None = None

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _as_relation(relation):
    rel = np.ascontiguousarray(np.asarray(relation, dtype=np.int64))
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise DimensionMismatch("relation table must be square")
    if rel.size == 0:
        raise DimensionMismatch("relation table is empty")
    if rel.min() < 0:
        raise DimensionMismatch("relation values must be non-negative")
    return rel


def _first_index(mask):
    flat = np.flatnonzero(mask)
    if flat.size == 0:
        return None
    x, y = np.unravel_index(flat[0], mask.shape)
    return (int(x), int(y))


def verify_axioms(relation):
    """Check the five defining axioms of an association scheme.

    Returns an AxiomReport with a pass/fail entry per axiom and a witness
    pair for the first violation found.  When the product axiom is
    checked, the report also carries the intersection-number tensor.
    """
    rel = _as_relation(relation)
    v = rel.shape[0]
    d = int(rel.max())
    checks = []

    # axiom 1: class 0 is exactly the diagonal
    diag_bad = _first_index(np.diag(rel)[:, None] != 0)
    off = rel == 0
    np.fill_diagonal(off, False)
    off_bad = _first_index(off)
    if diag_bad is not None:
        checks.append(AxiomCheck(1, "identity", False, (diag_bad[0], diag_bad[0]),
                                 "relation(x,x) != 0"))
    elif off_bad is not None:
        checks.append(AxiomCheck(1, "identity", False, off_bad,
                                 "relation(x,y) = 0 off the diagonal"))
    else:
        checks.append(AxiomCheck(1, "identity", True))

    # axiom 2: every class 0..d is attained (the table itself partitions VxV)
    counts = np.bincount(rel.ravel(), minlength=d + 1)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        checks.append(AxiomCheck(2, "partition", False, None,
                                 "class %d is empty" % int(empty[0])))
    else:
        checks.append(AxiomCheck(2, "partition", True))

    # axiom 3: the transpose of each class is a class
    transpose_ok = True
    relT = rel.T
    for i in range(d + 1):
        vals = relT[rel == i]
        if vals.size and (vals != vals[0]).any():
            pos = np.argwhere(rel == i)
            bad = pos[np.flatnonzero(vals != vals[0])[0]]
            checks.append(AxiomCheck(3, "transpose", False,
                                     (int(bad[0]), int(bad[1])),
                                     "class %d is not transpose-consistent" % i))
            transpose_ok = False
            break
    if transpose_ok:
        checks.append(AxiomCheck(3, "transpose", True))

    # axioms 4, 5: products lie in the span with constant integer
    # coefficients, and the algebra is commutative
    tensor, witness = _product_tensor(rel, d)
    if witness is None:
        checks.append(AxiomCheck(4, "intersection", True))
        diff = np.nonzero(tensor != np.swapaxes(tensor, 0, 1))
        if diff[0].size:
            a, b, c = (int(diff[0][0]), int(diff[1][0]), int(diff[2][0]))
            checks.append(AxiomCheck(5, "commutativity", False, None,
                                     "p[%d][%d][%d] != p[%d][%d][%d]" % (a, b, c, b, a, c)))
        else:
            checks.append(AxiomCheck(5, "commutativity", True))
    else:
        (x, y, i, j) = witness
        checks.append(AxiomCheck(4, "intersection", False, (x, y),
                                 "A_%d A_%d is not constant on class %d"
                                 % (i, j, int(rel[x, y]))))
        checks.append(AxiomCheck(5, "commutativity", False, None,
                                 "not checked (products not constant)"))
        tensor = None

    return AxiomReport(checks, tensor)


def _product_tensor(rel, d):
    """Compute p[i][j][k] with A_i A_j = sum_k p[i][j][k] A_k.

    Returns (tensor, None) on success or (None, witness) where witness is
    (x, y, i, j) for the first pair where the count is not constant on
    its class.
    """
    v = rel.shape[0]
    dtype = np.float32 if v >= 2048 else np.float64
    indicators = None
    if (d + 1) * v * v * np.dtype(dtype).itemsize <= 512 * 2**20:
        indicators = [(rel == i).astype(dtype) for i in range(d + 1)]

    def ind(i):
        return indicators[i] if indicators is not None else (rel == i).astype(dtype)

    # first occurrence of each class, to read off the expected constant
    first = {}
    flat = rel.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(d + 1))
    for k in range(d + 1):
        x, y = np.unravel_index(order[starts[k]], rel.shape)
        first[k] = (int(x), int(y))

    tensor = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        ai = ind(i)
        for j in range(d + 1):
            prod = np.rint(ai @ ind(j)).astype(np.int64)
            expected = np.empty(d + 1, dtype=np.int64)
            for k in range(d + 1):
                expected[k] = prod[first[k]]
            if (prod != expected[rel]).any():
                bad = _first_index(prod != expected[rel])
                return None, (bad[0], bad[1], i, j)
            tensor[i, j] = expected
    return tensor, None


class TranslationStructure:
    """Identification of the vertex set with a product of cyclic groups.

    Vertices are identified with element tuples in mixed-radix order
    (big-endian): vertex index = sum_j elem[j] * prod(orders[j+1:]).
    """

    __slots__ = ("orders", "size")

    def __init__(self, orders):
        orders = tuple(int(m) for m in orders)
        if not orders or any(m < 1 for m in orders):
            raise DimensionMismatch("group orders must be positive")
        object.__setattr__(self, "orders", orders)
        size = 1
        for m in orders:
            size *= m
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError("TranslationStructure is immutable")

    def element(self, vertex):
        out = []
        for m in reversed(self.orders):
            out.append(vertex % m)
            vertex //= m
        return tuple(reversed(out))

    def vertex(self, elem):
        idx = 0
        for x, m in zip(elem, self.orders):
            idx = idx * m + (x % m)
        return idx

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def digits(self, vertices):
        """Element tuples of an int array of vertices, on a new trailing
        axis: the vectorised `element`."""
        rest = np.asarray(vertices, dtype=np.int64)
        out = np.empty(rest.shape + (len(self.orders),), dtype=np.int64)
        for j in range(len(self.orders) - 1, -1, -1):
            rest, out[..., j] = np.divmod(rest, self.orders[j])
        return out

    def index(self, digits):
        """Vertices of element tuples on the trailing axis (digits taken
        mod the orders): the vectorised `vertex`, inverse of `digits`."""
        digits = np.asarray(digits)
        out = np.int64(0)
        for j, m in enumerate(self.orders):
            out = out * m + digits[..., j] % m
        return out

    def difference_table(self):
        """The v x v table of index(element(y) - element(x)): the
        Kronecker fold of the m x m difference tables of the factors."""
        table = np.zeros((1, 1), dtype=np.int64)
        for m in self.orders:
            k = np.arange(m)
            cyclic = (k[None, :] - k[:, None]) % m
            table = table[:, None, :, None] * m + cyclic[None, :, None, :]
            table = table.reshape(table.shape[0] * m, -1)
        return table

    def validate(self, relation):
        """Check every class is invariant under simultaneous translation,
        i.e. relation(x, y) depends only on the difference y - x."""
        rel = _as_relation(relation)
        v = rel.shape[0]
        if v != self.size:
            raise DimensionMismatch("group size %d != vertex count %d" % (self.size, v))
        expected = rel[0][self.difference_table()]
        if (rel != expected).any():
            bad = _first_index(rel != expected)
            raise DimensionMismatch(
                "classes are not translation-invariant at %r" % (bad,)
            )
        return True


class AssociationScheme:
    """An association scheme given by its relation table.

    The table is a v x v integer array with values 0..d; class 0 must be
    the diagonal.  The exact eigenmatrix P (rows = idempotents, columns =
    classes) may be attached by a builder or computed and certified on
    demand; schemes whose eigenvalues are not Gaussian rationals stay in
    numeric-only mode and refuse exact transforms.
    """

    def __init__(self, relation, P=None, translation=None, check=True):
        rel = _as_relation(relation)
        self.v = rel.shape[0]
        self.d = int(rel.max())
        self._tensor = None
        if check:
            report = verify_axioms(rel)
            if not report.ok:
                raise AxiomViolation(report)
            self._tensor = report.tensor
        rel.setflags(write=False)
        self.relation = rel
        self.P = P
        self.translation = translation
        self.snap_failed = False

    # -- basic data ----------------------------------------------------

    @property
    def num_classes(self):
        return self.d + 1

    def valencies(self):
        """Integer valencies (v_0, ..., v_d), read off row 0."""
        return np.bincount(self.relation[0], minlength=self.d + 1)

    def is_symmetric(self):
        return bool((self.relation == self.relation.T).all())

    def intersection_tensor(self):
        if self._tensor is None:
            tensor, witness = _product_tensor(self.relation, self.d)
            if witness is not None:
                raise AxiomViolation(verify_axioms(self.relation))
            self._tensor = tensor
        return self._tensor

    def __repr__(self):
        return "AssociationScheme(v=%d, d=%d)" % (self.v, self.d)


def intersection_numbers(scheme):
    """The tensor p[i][j][k] with A_i A_j = sum_k p[i][j][k] A_k."""
    return scheme.intersection_tensor()


# -- eigenmatrix: numeric diagonalization, snap, exact certification ----


def canonical_row_key(row):
    """Deterministic total-order key for a row of GaussRat entries."""
    return tuple((x.re, x.im) for x in row)


def sort_rows_canonically(M):
    """Rows of M sorted by descending canonical key (for comparisons
    'up to row order')."""
    rows = sorted(M.rows(), key=canonical_row_key, reverse=True)
    return ExactMatrix(rows)


def certify_eigenmatrix(scheme, P):
    """Exact certificate that P is the eigenmatrix of the scheme.

    Uses the regular representation: with B_i[r][k] = p[i][k][r] (the
    intersection matrices) and Q = v * P^-1, P is certified iff
    B_i Q[:,j] = P[j][i] * Q[:,j] for all i, j, together with row 0 of P
    listing the valencies.  All arithmetic is exact.
    """
    d, v = scheme.d, scheme.v
    if P.nrows != d + 1 or P.ncols != d + 1:
        return False
    vals = scheme.valencies()
    if any(P[0, i] != GaussRat(int(vals[i])) for i in range(d + 1)):
        return False
    tensor = scheme.intersection_tensor()
    try:
        Q = P.inverse().scale(v)
    except SingularMatrix:
        return False
    t = [[[GaussRat(int(tensor[i, k, r])) for r in range(d + 1)]
          for k in range(d + 1)] for i in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            pij = P[j, i]
            for r in range(d + 1):
                lhs = sum((t[i][k][r] * Q[k, j] for k in range(d + 1)), GaussRat(0))
                if lhs != pij * Q[r, j]:
                    return False
    return True


def _numeric_eigenrows(scheme, rng):
    """One numeric attempt: diagonalize a random combination and read the
    eigenvalue vector of every class on each eigenvector.

    Returns a list of d+1 (vector, multiplicity) numeric rows, or None if
    this combination was degenerate.
    """
    rel = scheme.relation
    d, v = scheme.d, scheme.v
    coeffs = rng.integers(1, 1_000_000, size=d + 1)
    M = np.zeros((v, v), dtype=np.float64)
    for i in range(d + 1):
        M += float(coeffs[i]) * (rel == i)
    w, V = np.linalg.eig(M)
    norms = (V.conj() * V).sum(axis=0).real
    pvals = np.empty((d + 1, v), dtype=np.complex128)
    for i in range(d + 1):
        Ai = (rel == i).astype(np.float64)
        AiV = Ai @ V
        pvals[i] = (V.conj() * AiV).sum(axis=0) / norms
        resid = np.abs(AiV - V * pvals[i][None, :]).max()
        if resid > 1e-6 * max(1.0, float(np.abs(pvals[i]).max())) * np.sqrt(v):
            return None
    # cluster columns by their eigenvalue vectors
    rows = []
    for col in range(v):
        vec = pvals[:, col]
        for entry in rows:
            if np.abs(entry[0] - vec).max() < 1e-6:
                entry[1] += 1
                break
        else:
            rows.append([vec, 1])
    if len(rows) != d + 1 or sum(m for _, m in rows) != v:
        return None
    return rows


def _eigen_attempts(scheme, attempts, seed):
    """The eigenvalue rows of `attempts` seeded numeric attempts, each a
    list of (vector, multiplicity) or None for a degenerate one."""
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        yield _numeric_eigenrows(scheme, rng)


def eigenmatrix(scheme, tolerance=DEFAULT_TOLERANCE,
                max_denominator=DEFAULT_MAX_DENOMINATOR,
                attempts=_EIG_ATTEMPTS, seed=_EIG_SEED):
    """The exact eigenmatrix P, rows = idempotents, columns = classes.

    Row 0 corresponds to the all-ones idempotent (so it lists the
    valencies); the remaining rows are sorted by descending canonical key
    so the output is deterministic.  The numeric eigenvalues are snapped
    to Gaussian rationals and certified exactly; SnapFailure is raised if
    certification is impossible, leaving the scheme numeric-only.
    """
    if scheme.P is not None:
        return scheme.P
    if scheme.snap_failed:
        raise SnapFailure("scheme is in numeric-only mode")
    vals = scheme.valencies()
    valency_row = tuple(GaussRat(int(x)) for x in vals)
    last_reason = "no attempt succeeded"
    for rows in _eigen_attempts(scheme, attempts, seed):
        if rows is None:
            last_reason = "degenerate random combination"
            continue
        snapped = [tuple(snap_gauss(z, tolerance, max_denominator) for z in vec)
                   for vec, _mult in rows]
        if any(g is None for row in snapped for g in row):
            last_reason = "eigenvalues did not snap to Gaussian rationals"
            continue
        if valency_row not in snapped:
            last_reason = "no valency row found"
            continue
        rest = [r for r in snapped if r != valency_row]
        if len(rest) != len(snapped) - 1:
            last_reason = "valency row is not unique"
            continue
        rest.sort(key=canonical_row_key, reverse=True)
        P = ExactMatrix([valency_row] + rest)
        if certify_eigenmatrix(scheme, P):
            scheme.P = P
            return P
        last_reason = "certification failed after snapping"
    scheme.snap_failed = True
    raise SnapFailure("could not certify an exact eigenmatrix: " + last_reason)


def numeric_eigenmatrix(scheme, seed=_EIG_SEED, attempts=_EIG_ATTEMPTS):
    """Numeric (complex float) eigenmatrix for numeric-only schemes.

    Valency row first, remaining rows in descending rounded-key order.
    """
    vals = scheme.valencies().astype(np.float64)
    for rows in _eigen_attempts(scheme, attempts, seed):
        if rows is None:
            continue
        vecs = [r[0] for r in rows]
        is_val = [np.abs(vec - vals).max() < 1e-6 for vec in vecs]
        if sum(is_val) != 1:
            continue
        head = [vec for vec, f in zip(vecs, is_val) if f]
        tail = [vec for vec, f in zip(vecs, is_val) if not f]
        tail.sort(key=lambda vec: tuple((round(z.real, 6), round(z.imag, 6))
                                        for z in vec), reverse=True)
        return np.array(head + tail)
    raise SnapFailure("numeric diagonalization kept hitting degeneracies")


def dual_eigenmatrix(P, v):
    """Q = v * P^-1, exactly: the dual eigenmatrix, with P Q = v I."""
    return P.inverse().scale(v)


def krein_parameters(scheme):
    """The Krein tensor q[i][j][r] from the Schur product of idempotents.

    q_ij(r) = (1/v) sum_k P[r,k] Q[k,i] Q[k,j].  Every entry must be a
    non-negative real; NegativeKrein is raised otherwise.
    """
    P = eigenmatrix(scheme)
    v, d = scheme.v, scheme.d
    Q = dual_eigenmatrix(P, v)
    q = np.empty((d + 1, d + 1, d + 1), dtype=object)
    vg = GaussRat(v)
    for i in range(d + 1):
        for j in range(d + 1):
            for r in range(d + 1):
                s = sum(
                    (P[r, k] * Q[k, i] * Q[k, j] for k in range(d + 1)),
                    GaussRat(0),
                )
                s = s / vg
                if s.im != 0 or s.re < 0:
                    raise NegativeKrein((i, j, r), s)
                q[i, j, r] = s
    return q


# -- constructions on schemes ----------------------------------------


def fusion(scheme, blocks):
    """Merge classes by a partition of {0..d}; block {0} must be alone.

    Blocks are renumbered by their smallest member.  The merged table is
    verified; ClosureFailure (carrying the axiom report) is raised if it
    is not a scheme.
    """
    blocks = [sorted(set(int(i) for i in b)) for b in blocks]
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(scheme.d + 1)):
        raise DimensionMismatch("blocks must partition 0..%d" % scheme.d)
    if [0] not in blocks:
        raise DimensionMismatch("class 0 must form its own block")
    blocks.sort(key=lambda b: b[0])
    block_of = np.empty(scheme.d + 1, dtype=np.int64)
    for new, b in enumerate(blocks):
        for i in b:
            block_of[i] = new
    merged = block_of[scheme.relation]
    report = verify_axioms(merged)
    if not report.ok:
        raise ClosureFailure(report)
    out = AssociationScheme(merged, translation=scheme.translation, check=False)
    out._tensor = report.tensor
    return out


def tensor_product(a, b):
    """Direct product scheme on pairs; class (i, j) gets index
    i*(d_b+1)+j, so (0,0) -> 0."""
    rel = (a.relation[:, None, :, None] * (b.d + 1) + b.relation[None, :, None, :])
    rel = rel.reshape(a.v * b.v, a.v * b.v)
    P = a.P.kron(b.P) if (a.P is not None and b.P is not None) else None
    translation = None
    if a.translation is not None and b.translation is not None:
        translation = TranslationStructure(a.translation.orders + b.translation.orders)
    return AssociationScheme(rel, P=P, translation=translation, check=False)


def _perm_closure(generators, n):
    gens = [tuple(int(x) for x in g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(n)):
            raise DimensionMismatch("generator %r is not a permutation of 0..%d"
                                    % (g, n - 1))
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(n))
                if q not in group:
                    group.add(q)
                    new.append(q)
        frontier = new
    return sorted(group)


def orbit_fusion(scheme, n, generators, cap=4096):
    """Subscheme of the n-fold tensor power fixed by a permutation group.

    Classes of the power are index tuples in {0..d}^n; the given group
    (permutations of the n positions, 0-based) acts by permuting tuple
    entries, and orbits become the fused classes, ordered by their
    lexicographically smallest member.  The result is verified.
    """
    v, d = scheme.v, scheme.d
    if v**n > cap:
        raise SizeCapExceeded("%d^%d vertices exceeds cap %d" % (v, n, cap))
    group = _perm_closure(generators, n)

    # orbits of class tuples, discovered in lexicographic order
    classes = TranslationStructure((d + 1,) * n)
    perms = np.array(group)
    orbit_id = np.full(classes.size, -1, dtype=np.int64)
    next_id = 0
    for t in range(classes.size):
        if orbit_id[t] < 0:
            orbit_id[classes.index(classes.digits(t)[perms])] = next_id
            next_id += 1

    # the tensor power's class index is the big-endian class tuple; the
    # factor carries no P, so no Kronecker power of P is built
    factor = AssociationScheme(scheme.relation, check=False)
    power = factor
    for _ in range(n - 1):
        power = tensor_product(power, factor)
    rel = orbit_id[power.relation]
    report = verify_axioms(rel)
    if not report.ok:
        raise ClosureFailure(report)
    out = AssociationScheme(rel, check=False)
    out._tensor = report.tensor
    return out
