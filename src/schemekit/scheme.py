"""Association schemes: verification, eigenmatrices, and algebra.

A scheme is stored as a v x v relation table with values 0..d, where
class 0 is the diagonal.  A scheme with a translation structure has
rel[x, y] = c[y - x] for its class vector c = rel[0], decided at
construction: constructions hand over c, and a table that does not fit
is refused.  Its table is checked and counted over the group from c:
p[i][j][k] = #{z : c(z) = i, c(w - z) = j} for any w in class k,
required equal over each class, with c(w - z) read off rel[z, w].
Any other table, or one that fails a check on that path, is verified by
the dense route: integer-exact float32 matmuls of 0/1 indicator
matrices, which also names the witness of a failure.  The intersection
tensor alone fixes the eigenmatrix: every row x of P satisfies
L_i x = x_i x for the (d+1) x (d+1) matrices L_i[k, r] = p[i][k][r],
the regular representation of the Bose-Mesner algebra.  Its rows are
found numerically from a random combination of the L_i, rounded to
Gaussian integers (another combination is tried after a degenerate
attempt or a miss below 1e-6), attached as integer rows and certified
exactly: every row must be a character, P[j,i] P[j,k] = sum_r
p[i][k][r] P[j,r], checked in int64 on the numerators of P, bounded by
the valencies, so a wrong P can never pass silently.  Krein parameters
come from the numerators of P and Q.  Fusions of a tensor power by a
permutation group, the composite scheme among them, follow orbits of
class tuples under the group's generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import lcm

import numpy as np

from .errors import (
    AxiomViolation,
    ClosureFailure,
    DimensionMismatch,
    NegativeKrein,
    SizeCapExceeded,
    SnapFailure,
)
from .exact import _SNAP_TOLERANCE, ExactMatrix

_EIG_SEED = 81309
_EIG_ATTEMPTS = 12

# the size cap of every construction and of the CLI's --cap
DEFAULT_CAP = 4096
# the most axes of a numpy array, so the longest word of a tensor power
_MAX_AXES = 64


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
    return tuple(int(i) for i in np.unravel_index(flat[0], mask.shape))


def _first_cells(values, classes):
    """The flat index of the first cell of each class 0..classes-1 in
    `values`; an empty class takes the next class up's first cell."""
    present, first = np.unique(values, return_index=True)
    return first[np.searchsorted(present, np.arange(classes))]


def verify_axioms(relation):
    """Check the five defining axioms of an association scheme.

    Returns an AxiomReport with a pass/fail entry per axiom and a witness
    pair for the first violation found.  When the product axiom is
    checked, the report also carries the intersection-number tensor.
    This is the dense route, for any table: it knows nothing of a
    translation structure, and the products are matmuls of indicators.
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

    # axiom 3: the transpose of each class is a class, the one its first
    # cell (x, y) transposes to, rel[y, x]; the witness is the first cell
    # of the least class that breaks this
    x, y = np.divmod(_first_cells(rel, d + 1), v)
    bad = rel.T != rel[y, x][rel]
    if bad.any():
        i = int(rel[bad].min())
        checks.append(AxiomCheck(3, "transpose", False,
                                 _first_index(bad & (rel == i)),
                                 "class %d is not transpose-consistent" % i))
    else:
        checks.append(AxiomCheck(3, "transpose", True))

    # axioms 4, 5: products lie in the span with constant integer
    # coefficients, and the algebra is commutative
    tensor, witness = _product_tensor(rel, d)
    if witness is None:
        checks.append(AxiomCheck(4, "intersection", True))
        diff = _first_index(tensor != np.swapaxes(tensor, 0, 1))
        if diff is not None:
            a, b, c = diff
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


def _axiom_report(scheme):
    """`verify_axioms` of the scheme's table, read off its verified
    intersection tensor: counted over the group for a translation
    scheme, with no dense product, and otherwise (or when an axiom fails
    there) the dense route's own report."""
    try:
        tensor = scheme.intersection_tensor()
    except AxiomViolation as e:
        return e.report
    names = ("identity", "partition", "transpose", "intersection",
             "commutativity")
    return AxiomReport([AxiomCheck(a, name, True)
                        for a, name in enumerate(names, 1)], tensor)


def _product_tensor(rel, d):
    """Compute p[i][j][k] with A_i A_j = sum_k p[i][j][k] A_k.

    Returns (tensor, None) on success or (None, witness) where witness is
    (x, y, i, j) for the first pair where the count is not constant on
    its class.

    The indicator products are float32 at every size: each partial sum
    of a product entry is an integer count of at most v, so float32 is
    exact while v < 2^24, and it halves the memory traffic of float64.
    Each indicator is rebuilt where it
    is used, at v^2 against the v^3 of a matmul, so no d+1 of them are
    held at once.  These are (d+1)^2 dense v x v matmuls: schemes with a
    translation structure are counted over the group instead
    (`_translation_tensor`), and this route serves the rest,
    `verify_axioms`, and the tests as the oracle.
    """
    def ind(i):
        return (rel == i).astype(np.float32)

    # the expected constants are read off each class's first cell
    first = _first_cells(rel, d + 1)
    tensor = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        ai = ind(i)
        for j in range(d + 1):
            prod = np.rint(ai @ ind(j)).astype(np.int64)
            expected = prod.ravel()[first]
            bad = _first_index(prod != expected[rel])
            if bad is not None:
                return None, bad + (i, j)
            tensor[i, j] = expected
    return tensor, None


# Row blocks of the group counts and of the pair arrays of codes hold
# about this many entries, so no array of v^2 (d+1) entries is built.
_BLOCK = 2**20


def _row_blocks(rows, width):
    """Slices of `rows` rows, each block of rows times `width` holding
    about _BLOCK entries (at least one row)."""
    step = max(1, _BLOCK // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _fold(tables):
    """The Kronecker fold of tables T_j, the one producer of product
    tables: entry (x, y), with x and y in the mixed radix of the row and
    column counts, is the tuple (T_j[x_j, y_j])_j read in radix
    max(T_j) + 1 (both big-endian).  On 1-row class vectors c_j it is
    the class vector of the product."""
    out = np.zeros((1, 1), dtype=np.int64)
    for t in tables:
        out = out[:, None, :, None] * (int(t.max()) + 1) + t[None, :, None, :]
        out = out.reshape(len(out) * len(t), -1)
    return out


def _row_histograms(table, rows, c, k):
    """counts[r, j, i] = #{z : table[r, z] = j, c[z] = i} over the rows
    `rows` of `table`, whose values, like those of c, lie below k: one
    `np.bincount` of the keys (r k + j) k + i, the kernel of the group
    count in `_translation_tensor`.  The keys are read in memory order,
    so a transposed `table` costs no copy."""
    block = table[rows]
    n = block.shape[0]
    keys = (np.arange(n)[:, None] * k + block) * k + c
    return np.bincount(keys.ravel("K"), minlength=n * k * k).reshape(n, k, k)


def _translation_tensor(rel, c):
    """The intersection tensor of a translation-invariant table with class
    vector c (rel[x, y] = c[y - x]), counted over the group, or None when
    an axiom fails (the dense route then names the witness).

    On c the axioms read: c(z) = 0 iff z = 0; every class occurs in c;
    z -> -z maps each class into one class; and for every w the
    histogram H_w[i, j] = #{z : c(z) = i, c(w - z) = j} is the same over
    each class k, giving p[i][j][k].  No difference table is needed:
    c(-z) = rel[z, 0] and c(w - z) = rel[z, w], so H_w is the histogram
    of column w of the table against c, counted over row blocks of w.
    """
    v, k = rel.shape[0], int(c.max()) + 1
    sizes = np.bincount(c, minlength=k)
    if c[0] != 0 or sizes[0] != 1 or not sizes.all():
        return None
    neg_c = rel[:, 0]  # neg_c[z] = c(-z)
    first = _first_cells(c, k)  # a representative per class
    if (neg_c != neg_c[first][c]).any():
        return None
    columns = rel.T
    # expected[k, j, i] = H_w[i, j] for the representative w of class k
    expected = _row_histograms(columns, first, c, k)
    for rows in _row_blocks(v, max(v, k * k)):
        if (_row_histograms(columns, rows, c, k) != expected[c[rows]]).any():
            return None
    tensor = np.ascontiguousarray(expected.transpose(2, 1, 0))
    if (tensor != np.swapaxes(tensor, 0, 1)).any():
        return None
    return tensor


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

    def digits(self, vertices):
        """Element tuples of an int array of vertices, on a new trailing
        axis."""
        rest = np.asarray(vertices, dtype=np.int64)
        out = np.empty(rest.shape + (len(self.orders),), dtype=np.int64)
        for j in range(len(self.orders) - 1, -1, -1):
            rest, out[..., j] = np.divmod(rest, self.orders[j])
        return out

    def index(self, digits):
        """Vertices of element tuples on the trailing axis (digits taken
        mod the orders, so a sum of tuples indexes their group sum): the
        inverse of `digits`.

        Vertices are int64 while the group has at most 2^63 elements and
        Python ints (dtype object) beyond, so they never wrap."""
        digits = np.asarray(digits)
        if self.size > 2**63:
            digits = digits.astype(object)
        out = 0
        for j, m in enumerate(self.orders):
            out = out * m + digits[..., j] % m
        return out

    def difference_table(self):
        """The v x v table of index(digits(y) - digits(x)): the
        Kronecker fold of the m x m difference tables of the factors."""
        return _fold([(np.arange(m) - np.arange(m)[:, None]) % m for m in self.orders])

    def character_exponents(self):
        """The v x v table of <a, z> mod 4, the exponent of i in the
        character a at z, for a group whose orders all divide 4: the
        bilinear form sum_j (4/m_j) a_j z_j on element digits.
        `group_scheme` attaches its character table from it."""
        if any(4 % m for m in self.orders):
            raise DimensionMismatch("group orders %r do not all divide 4"
                                    % (self.orders,))
        digits = self.digits(np.arange(self.size))
        return (digits * (4 // np.array(self.orders))) @ digits.T % 4

    def validate(self, relation):
        """Check relation(x, y) = c[y - x] for c = relation[0]: every class
        is invariant under simultaneous translation.  DimensionMismatch
        names the first (x, y), in row-major order, that breaks it."""
        rel = _as_relation(relation)
        v = rel.shape[0]
        if v != self.size:
            raise DimensionMismatch("group size %d != vertex count %d" % (self.size, v))
        bad = _first_index(rel[0][self.difference_table()] != rel)
        if bad is not None:
            raise DimensionMismatch(
                "classes are not translation-invariant at %r" % (bad,)
            )
        return True


class AssociationScheme:
    """An association scheme given by its relation table.

    The table is a v x v integer array with values 0..d; class 0 must be
    the diagonal.  With a translation, `relation` may be the class vector
    c of length v instead, giving the table c[y - x]; a table must fit the
    translation (`TranslationStructure.validate`).  The exact eigenmatrix
    P (rows = idempotents, columns = classes) may be attached by a builder
    or computed and certified on demand; schemes whose eigenvalues are not
    Gaussian rationals stay in numeric-only mode and refuse exact
    transforms.  With check=True the axioms are verified on construction
    (AxiomViolation if one fails); with check=False on first use of the
    intersection tensor.
    """

    def __init__(self, relation, P=None, translation=None, check=True):
        rel = np.asarray(relation, dtype=np.int64)
        if translation is not None and rel.ndim == 1:
            if len(rel) != translation.size:
                raise DimensionMismatch("class vector of length %d != group size %d"
                                        % (len(rel), translation.size))
            rel = rel[translation.difference_table()]
        elif translation is not None:
            translation.validate(rel)
        rel = _as_relation(rel)
        rel.setflags(write=False)
        self.v = rel.shape[0]
        self.d = int(rel.max())
        self.relation = rel
        self.P = P
        self.translation = translation
        self.snap_failed = False
        self._tensor = None
        if check:
            self.intersection_tensor()

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
        """p[i][j][k], verified: counted over the group from the class
        vector when there is a translation, else (or when an axiom fails
        there) by `verify_axioms`, whose report is raised as
        AxiomViolation if an axiom fails."""
        if self._tensor is None:
            if self.translation is not None:
                self._tensor = _translation_tensor(self.relation,
                                                   self.relation[0])
            if self._tensor is None:
                report = verify_axioms(self.relation)
                if not report.ok:
                    raise AxiomViolation(report)
                self._tensor = report.tensor
        return self._tensor

    def __repr__(self):
        return "AssociationScheme(v=%d, d=%d)" % (self.v, self.d)


# -- eigenmatrix: numeric diagonalization, snap, exact certification ----


def canonical_row_key(row):
    """Deterministic total-order key for a row of GaussRat entries."""
    return tuple((x.re, x.im) for x in row)


def sort_rows_canonically(M):
    """Rows of M sorted by descending canonical key (for comparisons
    'up to row order')."""
    rows = sorted(M.rows(), key=canonical_row_key, reverse=True)
    return ExactMatrix(rows)


def _row_products(a, b):
    """(re, im) of x_i x_k for every row x = a + b i, as rows of length
    k^2 indexed by (i, k)."""
    n, k = a.shape
    re = a[:, :, None] * a[:, None, :] - b[:, :, None] * b[:, None, :]
    im = a[:, :, None] * b[:, None, :] + b[:, :, None] * a[:, None, :]
    return re.reshape(n, k * k), im.reshape(n, k * k)


def certify_eigenmatrix(scheme, P):
    """Exact certificate that P is the eigenmatrix of the scheme.

    Every row of P must be a character of the Bose-Mesner algebra:
    P[j,i] P[j,k] = sum_r p[i][k][r] P[j,r] for all i, k, and
    P[j,0] = 1.  With row 0 listing the valencies and the rows pairwise
    distinct, this is a complete certificate: distinct characters are
    linearly independent, so P is invertible and no inverse is formed.
    A character value P[j,i] is an eigenvalue of the integer matrix
    L_i[k, r] = p[i][k][r], so an algebraic integer, and at most the
    valency k_i in modulus: P is refused unless its stored form
    (`ExactMatrix.numerators`) has denominator 1 and numerators a + b i
    with |a|, |b| <= k_i, read with no GaussRat formed.  Both sides of
    the identity are then at most 2 k_i k_k <= 2 v^2 in each part, since
    sum_r p[i][k][r] k_r = k_i k_k, and one int64 matmul with the
    intersection tensor reshaped to ((d+1)^2, d+1) gives the right-hand
    sides of every row.  Distinct rows are decided on the numerators
    themselves, as a set of (re, im) row tuples.
    """
    k = scheme.d + 1
    if P.nrows != k or P.ncols != k:
        return False
    vals = scheme.valencies().tolist()
    re, im, D = P.numerators()
    if re[0] != [x * D for x in vals] or (im is not None and any(im[0])):
        return False
    # a table that is not a scheme raises here, before any row check
    tensor = scheme.intersection_tensor().reshape(k * k, k)
    if D != 1 or any(not -bound <= x <= bound for part in (re, im or ())
                     for row in part for x, bound in zip(row, vals)):
        return False
    a = np.array(re, dtype=np.int64)
    b = np.zeros_like(a) if im is None else np.array(im, dtype=np.int64)
    if (a[:, 0] != 1).any() or b[:, 0].any():
        return False
    # a real P (im None) pairs each row with itself
    if len(set(zip(map(tuple, re), map(tuple, im or re)))) != k:
        return False
    rhs = np.concatenate([a, b]) @ tensor.T
    lhs_re, lhs_im = _row_products(a, b)
    return bool((lhs_re == rhs[:k]).all() and (lhs_im == rhs[k:]).all())


@cache
def _attempt_coefficients(k):
    """The seeded coefficients of every numeric attempt on k classes, one
    read-only row per attempt, drawn once per class count: the same
    integers as successive draws of integers(1, 10^6, size=k) from
    default_rng(_EIG_SEED).  An entry holds _EIG_ATTEMPTS * k integers,
    less than the k^3 tensor of any scheme that reads it."""
    coeffs = np.random.default_rng(_EIG_SEED).integers(
        1, 1_000_000, size=(_EIG_ATTEMPTS, k))
    coeffs.flags.writeable = False
    return coeffs


def _numeric_eigenrows(scheme, coeffs):
    """One numeric attempt: diagonalize the combination of the matrices
    L_i[k, r] = p[i][k][r] with the given coefficients and read a
    character x off each eigenvector, scaled to x_0 = 1, as L_i x = x_i x.

    Returns the d+1 rows x, or None if this combination was degenerate:
    an eigenvector with x_0 near 0, or one that is not an eigenvector of
    every L_i.
    """
    L = scheme.intersection_tensor().astype(np.float64)
    _, V = np.linalg.eig(np.tensordot(coeffs, L, axes=1))
    if (np.abs(V[0]) < 1e-9).any():
        return None
    X = V / V[0]
    # resid[i, k, j] = (L_i x)_k - x_i x_k for the character x in column
    # j; a NaN fails the bound below as well
    resid = np.abs(L @ X - X[:, None, :] * X[None, :, :]).max()
    if not resid <= 1e-6 * max(1.0, float(np.abs(X).max())) ** 2:
        return None
    return X.T


def _characters(scheme):
    """The seeded numeric attempts, each as (rows, reason): rows is None,
    with the reason, for an attempt that was degenerate or has no unique
    row within 1e-6 of the valencies; else the (d+1) x (d+1) complex
    rows, that row first and the rest by descending key, the real and
    imaginary parts of each entry rounded to 6 places."""
    vals = scheme.valencies()
    for coeffs in _attempt_coefficients(scheme.d + 1):
        rows = _numeric_eigenrows(scheme, coeffs)
        if rows is None:
            yield None, "degenerate random combination"
            continue
        rows = np.asarray(rows)
        is_val = np.abs(rows - vals).max(axis=1) < 1e-6
        if is_val.sum() != 1:
            yield None, ("valency row is not unique" if is_val.any()
                         else "no valency row found")
            continue
        rest = rows[~is_val]
        key = np.round(np.stack([rest.real, rest.imag], axis=2), 6).reshape(len(rest), -1)
        yield np.concatenate([rows[is_val], rest[np.lexsort(-key.T[::-1])]]), None


def eigenmatrix(scheme):
    """The exact eigenmatrix P, rows = idempotents, columns = classes.

    Row 0 corresponds to the all-ones idempotent (so it lists the
    valencies); the remaining rows are sorted by descending canonical key
    so the output is deterministic.  Unless a builder attached P, its
    rows are found numerically from the intersection tensor alone (a
    table that is not a scheme raises AxiomViolation there), rounded to
    Gaussian integers and certified exactly; SnapFailure is raised if
    no attempt certifies, leaving the scheme numeric-only.  Attempts stop
    at one that misses a Gaussian integer by more than 1e-6: no reseeding
    brings an irrational eigenvalue that close.
    """
    if scheme.P is not None:
        return scheme.P
    if scheme.snap_failed:
        raise SnapFailure("scheme is in numeric-only mode")
    last_reason = "no attempt succeeded"
    for rows, reason in _characters(scheme):
        if rows is None:
            last_reason = reason
            continue
        re, im = np.rint(rows.real), np.rint(rows.imag)
        miss = max(np.abs(rows.real - re).max(), np.abs(rows.imag - im).max())
        if miss > _SNAP_TOLERANCE:
            last_reason = "eigenvalues are not Gaussian integers"
            if miss > 1e-6:
                break
            continue
        P = ExactMatrix.from_numerators(re.astype(np.int64).tolist(),
                                        im.astype(np.int64).tolist(), 1)
        if certify_eigenmatrix(scheme, P):
            scheme.P = P
            return P
        last_reason = "certification failed after snapping"
    scheme.snap_failed = True
    raise SnapFailure("could not certify an exact eigenmatrix: " + last_reason)


def numeric_eigenmatrix(scheme):
    """Numeric (complex float) eigenmatrix for numeric-only schemes.

    Valency row first, remaining rows in descending rounded-key order.
    """
    for rows, _ in _characters(scheme):
        if rows is not None:
            return rows.astype(np.complex128)
    raise SnapFailure("numeric diagonalization kept hitting degeneracies")


def _orthogonality_dual(P, v):
    """Q = v P^-1 from the orthogonality relations of the rows of P, or
    None where they do not give it (see `dual_eigenmatrix`).

    With k_i = P[0,i], L = lcm(k_i) and w_i = L / k_i, the numerators of
    Q over L are m_j conj(P[j,i]) w_i, m_j = v L / sum_i |P[j,i]|^2 w_i,
    formed on Python ints.  The partial sums of P Q are at most 2 k B^2
    in each part, B the largest numerator of P and of Q, so the check
    of P Q = v I runs in int64 below 2^63 and on Python ints beyond.
    """
    re, im, D = P.numerators()
    k = P.nrows
    if (not (isinstance(v, int) and v) or D != 1 or P.ncols != k
            or not all(re[0]) or (im is not None and any(im[0]))):
        return None
    L = lcm(*re[0])
    w = [L // x for x in re[0]]
    parts = [re] if im is None else [re, im]
    norms = [sum(sum(x * x * c for x, c in zip(part[j], w)) for part in parts)
             for j in range(k)]
    if not all(norms) or any(v * L % x for x in norms):
        return None  # a zero row or a non-integer m_j
    m = [v * L // x for x in norms]
    # Q[i,j] L = m_j conj(P[j,i]) w_i
    q = [[[sign * m[j] * part[j][i] * w[i] for j in range(k)]
          for i in range(k)] for sign, part in zip((1, -1), parts)]
    bound = 2 * k * max(abs(x) for rows in parts + q for row in rows
                        for x in row) ** 2
    dtype = np.int64 if bound < 2**63 else object
    pa, qa = (np.array(x[0], dtype=dtype) for x in (parts, q))
    if im is None:
        pq_re, pq_im = pa @ qa, None
    else:
        pb, qb = (np.array(x[1], dtype=dtype) for x in (parts, q))
        pq_re, pq_im = pa @ qa - pb @ qb, pa @ qb + pb @ qa
    if (not np.array_equal(pq_re, np.diag([v * L] * k))
            or (pq_im is not None and pq_im.any())):
        return None
    return ExactMatrix.from_numerators(q[0], q[1] if im else None, L)


def dual_eigenmatrix(P, v):
    """Q = v P^-1, exactly: the dual eigenmatrix, with P Q = v I.

    An eigenmatrix has orthogonal rows, sum_i P[j,i] conj(P[l,i]) / k_i
    = (v / m_j) [j = l] with k_i = P[0,i] the valencies and m_j the
    multiplicities, so Q[i,j] = m_j conj(P[j,i]) / k_i needs no inverse.
    That Q is returned once P Q = v I holds exactly on the numerators,
    checked in int64 while a bound allows and on Python ints beyond
    (`_orthogonality_dual`).  Where the relations do not give Q -- a
    denominator of P other than 1, a zero or non-real k_i, a non-integer
    m_j, a failed check -- it is P.inverse().scale(v), so a P that is no
    eigenmatrix gets the same Q, and a singular one SingularMatrix.
    """
    Q = _orthogonality_dual(P, v)
    return P.inverse().scale(v) if Q is None else Q


def krein_parameters(scheme):
    """The Krein tensor q[i][j][r] from the Schur product of idempotents.

    q_ij(r) = (1/v) sum_k P[r,k] Q[k,i] Q[k,j].  Every entry must be a
    non-negative real; NegativeKrein is raised at the first other one in
    (i, j, r) order.  On the stored numerators of P and Q
    (`ExactMatrix.numerators`), all entries are one matmul of P with the
    row products of Q, over v D_P D_Q^2.  Its partial sums are at most
    4 k B^3 for real and imaginary numerators of size at most B, so it
    runs in int64 below 2^63 and on Python ints beyond.
    """
    P = eigenmatrix(scheme)
    v, k = scheme.v, scheme.d + 1
    (pr, pi, dp), (qr, qi, dq) = (P.numerators(),
                                  dual_eigenmatrix(P, v).numerators())
    B = max(abs(x) for part in (pr, pi, qr, qi) for row in part or () for x in row)
    dtype = np.int64 if 4 * k * B**3 < 2**63 else object
    pa, pb, qa, qb = (np.zeros((k, k), dtype=dtype) if x is None
                      else np.array(x, dtype=dtype) for x in (pr, pi, qr, qi))
    # s[r, (i, j)] = sum_m P[r,m] Q[m,i] Q[m,j], real part in rows :k
    s = np.block([[pa, -pb], [pb, pa]]) @ np.concatenate(_row_products(qa, qb))
    re, im = (part.T.reshape(k, k, k) for part in (s[:k], s[k:]))
    q = ExactMatrix.from_numerators(re.reshape(k * k, k).tolist(),
                                    im.reshape(k * k, k).tolist(),
                                    v * dp * dq * dq)
    q = np.array(q.rows(), dtype=object).reshape(k, k, k)
    bad = _first_index((im != 0) | (re < 0))
    if bad is not None:
        raise NegativeKrein(bad, q[bad])
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
    classes = scheme.relation if scheme.translation is None else scheme.relation[0]
    try:
        return AssociationScheme(block_of[classes], translation=scheme.translation)
    except AxiomViolation as e:
        raise ClosureFailure(e.report) from None


def tensor_product(a, b):
    """Direct product scheme on pairs; class (i, j) gets index
    i*(d_b+1)+j, so (0,0) -> 0.  Of two translation schemes it is built
    from the folded class vectors and carries the product group."""
    P = a.P.kron(b.P) if (a.P is not None and b.P is not None) else None
    if a.translation is None or b.translation is None:
        return AssociationScheme(_fold([a.relation, b.relation]), P=P, check=False)
    orders = a.translation.orders + b.translation.orders
    return AssociationScheme(_fold([a.relation[:1], b.relation[:1]])[0], P=P,
                             translation=TranslationStructure(orders), check=False)


def _check_tensor_cap(classes, cap):
    """SizeCapExceeded past cap^2 intersection numbers, classes^3: no
    larger than a v x v table at the cap.  The one class-count policy
    for work on a scheme's intersection tensor or its P."""
    if classes**3 > cap**2:
        raise SizeCapExceeded("%d classes: %d^3 intersection numbers exceed "
                              "cap^2 = %d" % (classes, classes, cap**2))


def _check_power_cap(b, n, cap, what):
    """SizeCapExceeded past cap `what`, b^n of them, decided with no
    power of more than cap.bit_length() factors: for b >= 2, b^n > cap
    once n exceeds cap.bit_length()."""
    if (b >= 2 and n > cap.bit_length()) or b**n > cap:
        raise SizeCapExceeded("%d^%d %s exceeds cap %d" % (b, n, what, cap))


def _orbit_power(scheme, n, generators, cap):
    """The fusion of the n-th tensor power of `scheme` by the orbits of
    the permutation group that `generators` (permutations of the n
    positions, 0-based) generate on its class tuples, verified.

    Each generator moves the (d+1)^n class tuples, numbered big-endian as
    `_fold` numbers them, by one index permutation m; relaxing
    least = min(least, least[m]) both ways over every m until nothing
    changes leaves each tuple's orbit at its least member, and orbits are
    numbered in the order of those.  No group element is listed.  Over a
    translation base the class vectors are folded, not the tables, and
    the result carries the structure of V^n.
    SizeCapExceeded past cap vertices or class tuples, past cap^2
    intersection numbers (no larger than a v x v table at the cap), or
    past _MAX_AXES positions, the most axes of the class-tuple array:
    over a 1-vertex base no power passes the cap.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    d = scheme.d
    _check_power_cap(scheme.v, n, cap, "vertices")
    # only a table that is no scheme has d + 1 > v
    _check_power_cap(d + 1, n, cap, "class tuples")
    if n > _MAX_AXES:
        raise SizeCapExceeded("word length %d exceeds %d, the most axes of "
                              "a class-tuple array" % (n, _MAX_AXES))
    tuples = np.arange((d + 1) ** n)
    moves = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if sorted(g) != list(range(n)):
            raise DimensionMismatch("generator %r is not a permutation of 0..%d"
                                    % (g, n - 1))
        moves.append(tuples.reshape((d + 1,) * n).transpose(g).ravel())
    least, before = tuples, None
    while not np.array_equal(least, before):
        before = least
        for m in moves:
            least = np.minimum(least, least[m])  # a new array: `before` stays
            least[m] = np.minimum(least[m], least)
    roots = least == tuples
    _check_tensor_cap(int(roots.sum()), cap)
    label = (np.cumsum(roots) - 1)[least]
    tr = scheme.translation
    if tr is None:
        return AssociationScheme(label[_fold([scheme.relation] * n)])
    return AssociationScheme(label[_fold([scheme.relation[:1]] * n)[0]],
                             translation=TranslationStructure(tr.orders * n))


def orbit_fusion(scheme, n, generators, cap=DEFAULT_CAP):
    """Subscheme of the n-fold tensor power fixed by a permutation group.

    Classes of the power are index tuples in {0..d}^n; the group that the
    given generators (permutations of the n positions, 0-based) generate
    acts by permuting tuple entries, and orbits become the fused classes,
    ordered by their lexicographically smallest member.  The result is
    verified (ClosureFailure if it is no scheme).  Over a base with a
    translation structure the result carries the product structure of V^n.
    """
    try:
        return _orbit_power(scheme, n, generators, cap)
    except AxiomViolation as e:
        raise ClosureFailure(e.report) from None
