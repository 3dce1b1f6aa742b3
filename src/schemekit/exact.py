"""Exact scalars, matrices, sparse polynomials, and compositions.

Everything in this module is exact.  Scalars are Gaussian rationals
(complex numbers with Fraction real and imaginary parts), matrices and
polynomials are built over them, and no operation ever rounds.  Floats
come in by snap_gauss (`modular`) and by the Gaussian-integer rounding
of `scheme.eigenmatrix`; callers re-verify every value either gives.

GaussRat is the scalar type: MPoly coefficients are GaussRat, and so
is every entry an ExactMatrix hands out.  An ExactMatrix itself is
stored in one form only, its Gaussian-integer numerators -- a real and
an imaginary integer matrix -- over one denominator D, kept reduced; its
GaussRat entries are made when a caller first reads them.  The kernels
work on the numerators: matrix product, Kronecker product and inverse
with Python ints, induced matrices on numpy int64 arrays while a bound
on their entries allows and on arrays of Python ints beyond.  One
fraction-free elimination kernel, `_bareiss`, serves both the inverse
and the point determinants of `modular._poly_det`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain, combinations_with_replacement, repeat
from math import gcd, isfinite, lcm
from operator import add, mul, sub

import numpy as np

from .errors import DimensionMismatch, SingularMatrix


def _frac(x):
    """Coerce ints, Fractions, and 'p/q' strings to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("exact arithmetic only: cannot convert %r" % (x,))


def _coerced(op):
    """The GaussRat operator op with its operand put through
    GaussRat.coerce, answering NotImplemented where that raises."""
    @wraps(op)
    def method(self, other):
        try:
            other = GaussRat.coerce(other)
        except TypeError:
            return NotImplemented
        return op(self, other)

    return method


def _power(x, n, one):
    """x**n by square-and-multiply for an int n >= 0; x**0 is one."""
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


class GaussRat:
    """A Gaussian rational re + im*i, immutable and exact.

    Floats are rejected on construction so nothing inexact can sneak in.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRat(x)
        raise TypeError("cannot coerce %r to GaussRat" % (x,))

    # -- arithmetic ----------------------------------------------------

    @_coerced
    def __add__(self, other):
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return GaussRat(self.re - other.re, self.im - other.im)

    @_coerced
    def __rsub__(self, other):
        return GaussRat(other.re - self.re, other.im - self.im)

    @_coerced
    def __mul__(self, other):
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return GaussRat(1) / self ** (-n)
        return _power(self, n, GaussRat(1))

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    # -- predicates and ordering key -----------------------------------

    def is_real(self):
        return self.im == 0

    def __bool__(self):
        return bool(self.re or self.im)

    @_coerced
    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display -------------------------------------------------------

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = "%si" % self.im
        if self.re == 0:
            return imag
        return "%s%s%s" % (self.re, "" if imag.startswith("-") else "+", imag)

    def __repr__(self):
        return "GaussRat(%r, %r)" % (str(self.re), str(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))


_SNAP_MAX_DENOMINATOR = 10**6
_SNAP_TOLERANCE = 1e-9
# as a float, just below 1 / (2 N) for N = _SNAP_MAX_DENOMINATOR
_SNAP_INTEGER_RADIUS = 0.5 / _SNAP_MAX_DENOMINATOR


def _limit_denominator(n, m):
    """(p, q) with p/q = Fraction(n, m).limit_denominator(N), N =
    _SNAP_MAX_DENOMINATOR, for n/m in lowest terms and m > 0: the same
    continued fraction on integers, and of its two final bounds p/q and
    p1/q1 the second iff |p1 m - n q1| q <= |p m - n q| q1, the one
    cross-multiplication that replaces limit_denominator's two Fraction
    subtractions."""
    if m <= _SNAP_MAX_DENOMINATOR:
        return n, m
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, m
    while True:
        c = a // b
        if q0 + c * q1 > _SNAP_MAX_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + c * p1, q0 + c * q1
        a, b = b, a - c * b
    k = (_SNAP_MAX_DENOMINATOR - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    if abs(p1 * m - n * q1) * q <= abs(p * m - n * q) * q1:
        return p1, q1
    return p, q


def _snap_real(x):
    """Fraction(x).limit_denominator(N), N = _SNAP_MAX_DENOMINATOR, or
    None if that is farther than _SNAP_TOLERANCE from x.  Within
    _SNAP_INTEGER_RADIUS of an integer k no continued fraction is
    needed: there x - k is exact, and k is the nearest such fraction,
    since every other p/q with q <= N lies at least 1/q >= 1/N from k.
    Elsewhere `_limit_denominator` runs on the integer ratio of x, and a
    Fraction is made only for the answer.  A non-finite x raises as
    Fraction(x) does."""
    if isfinite(x):
        k = round(x)
        miss = abs(x - k)
        if miss < _SNAP_INTEGER_RADIUS:
            return None if miss > _SNAP_TOLERANCE else Fraction(k)
    p, q = _limit_denominator(*x.as_integer_ratio())
    return None if abs(p / q - x) > _SNAP_TOLERANCE else Fraction(p, q)


def snap_gauss(z):
    """The Gaussian rational nearest a complex float z with denominators
    up to _SNAP_MAX_DENOMINATOR, or None if it is farther than
    _SNAP_TOLERANCE in either part: the snap of `modular`'s roots and
    witnesses (`scheme.eigenmatrix` rounds eigenvalues to Gaussian
    integers instead).  Callers re-verify every snapped value exactly."""
    re, im = _snap_real(float(z.real)), _snap_real(float(z.imag))
    if re is None or im is None:
        return None
    return GaussRat(re, im)


# -- Gaussian-integer kernels -----------------------------------------------
#
# A matrix is a pair of lists of integer rows (ExactMatrix.numerators), a
# vector a pair (re, im) of integer sequences and a scalar a pair (a, b)
# of ints for a + b i.  An imaginary part that is zero throughout may be
# None, so real matrices never pay for one.


def _gmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _axpy(acc, c, xs):
    """acc + c*xs for an int c and int sequences; acc None is zero."""
    if acc is None:
        return [c * x for x in xs]
    return list(map(add, acc, map(mul, xs, repeat(c))))


def _gauss_axpy(acc, c, x):
    """acc + c*x for a Gaussian scalar c and Gaussian vectors acc, x.

    An acc of (None, None) is zero; the real part of the result is
    always a list."""
    a, b = c
    xr, xi = x
    re, im = acc
    if a:
        re = _axpy(re, a, xr)
        if xi is not None:
            im = _axpy(im, a, xi)
    if b:
        im = _axpy(im, b, xr)
        if xi is not None:
            re = _axpy(re, -b, xi)
    if re is None:
        re = [0] * len(xr)
    return re, im


def _divisor(c):
    """(m, n) with x / c == (m * x) / n for every Gaussian x, n an int:
    (1, c) for a real c, else (conj(c), |c|^2)."""
    if c[1]:
        return (c[0], -c[1]), c[0] ** 2 + c[1] ** 2
    return (1, 0), c[0]


def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss) over the
    Gaussian integers on the first k columns of k rows, each a Gaussian
    vector (re, im) of ints whose im may be None.

    The pivot of each column is its first nonzero entry on or below the
    diagonal; the entries seen there are those of plain Gauss-Jordan
    elimination up to nonzero factors.  Returns (rows, pivot, odd): the
    rows with those k columns dropped, the last pivot and whether an odd
    number of row swaps was made, so that the determinant of the leading
    k x k block is the pivot, negated if odd.  Raises SingularMatrix
    naming the first column without a pivot.
    """
    rows = list(rows)
    k = len(rows)

    def head(row):
        return (row[0][0], 0 if row[1] is None else row[1][0])

    def tail(row):
        return (row[0][1:], None if row[1] is None else row[1][1:])

    prev, odd = (1, 0), False
    for col in range(k):
        pivot = next((r for r in range(col, k) if any(head(rows[r]))), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular at column %d" % col)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            odd = not odd
        p = head(rows[col])
        pivot_row = tail(rows[col])
        # (p * row - f * pivot row) / prev is exact; a non-real prev
        # divides through its norm
        conj, norm = _divisor(prev)
        a = _gmul(p, conj)
        for r in range(k):
            if r == col:
                rows[r] = pivot_row
                continue
            f = head(rows[r])
            xr, xi = _gauss_axpy((None, None), a, tail(rows[r]))
            xr, xi = _gauss_axpy((xr, xi), _gmul((-f[0], -f[1]), conj),
                                 pivot_row)
            rows[r] = ([x // norm for x in xr],
                       None if xi is None else [x // norm for x in xi])
        prev = p
    return rows, prev, odd


def _int_matmul(A, B):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _int_kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def _minus(gamma, j):
    return gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]


@lru_cache(maxsize=None)
def _degree_step(m, k):
    """Index arrays that take the induced rows of degree m-1 to degree m.

    For the g-th composition gamma of m, first[g] is its first nonzero
    part j and prev[g] the index of gamma - e_j among the compositions
    of m-1.  shifts[i, b] is the index of beta - e_i for the b-th
    composition beta of m, or the number of compositions of m-1 (a zero
    column ending the lower rows) where beta_i = 0.
    """
    lower = composition_index(m - 1, k)
    upper = compositions(m, k)
    first = [next(t for t, e in enumerate(gamma) if e) for gamma in upper]
    prev = [lower[_minus(gamma, j)] for gamma, j in zip(upper, first)]
    shifts = [[lower[_minus(beta, i)] if beta[i] else len(lower)
               for beta in upper] for i in range(k)]
    return np.array(first), np.array(prev), np.array(shifts)


# a degree's rows are gathered a block at a time, each gathered array
# of about this many entries: gathered whole, a degree would hold k
# times the entries of its result (for Q of Z4 at n = 16 the blocks
# take the peak memory from 129 to 58 MB)
_GATHER_ENTRIES = 2**20


def _induced_numerators(re, im, n):
    """The induced matrix of the integer matrix re + im i (im None if
    real) on degree-n monomials, as a list of numerator arrays: the real
    part, then the imaginary part for a complex matrix.

    Row gamma of degree m is row gamma - e_j of degree m-1 times the
    linear form of row j, j the first nonzero part of gamma: a block of
    rows gathers the entries of its lower rows at beta - e_i for every
    column beta and base column i, and one batched matmul with the rows
    j of M sums them over i.  Every entry and partial sum is at most L^n
    in each part, L the largest row l1 norm sum |re| + |im|, so the
    arrays are int64 while L^n < 2^62 and hold Python ints (dtype
    object) beyond.
    """
    k = len(re)
    parts = [re] if im is None else [re, im]
    L = max(sum(abs(x) for part in parts for x in part[j]) for j in range(k))
    dtype = np.int64 if L <= 1 or (n < 62 and L**n < 2**62) else object
    forms = [np.array(part, dtype=dtype) for part in parts]
    # each degree's rows end in one zero column, read where beta_i = 0
    rows = [np.array([[1, 0]], dtype=dtype)]
    rows += [np.zeros((1, 2), dtype=dtype) for _ in parts[1:]]
    for m in range(1, n + 1):
        first, prev, shifts = _degree_step(m, k)
        N = len(first)
        new = [np.zeros((N, N + 1), dtype=dtype) for _ in parts]
        step = max(1, _GATHER_ENTRIES // (k * N))
        for block in (slice(s, s + step) for s in range(0, N, step)):
            # lower[g, i, b]: the entry at beta_b - e_i of row g's lower row
            lower = [x.take(prev[block], axis=0).take(shifts, axis=1)
                     for x in rows]
            coeff = [f.take(first[block], axis=0)[:, None, :] for f in forms]
            if im is None:
                new[0][block, :N] = (coeff[0] @ lower[0])[:, 0]
            else:
                (a, b), (xr, xi) = coeff, lower
                new[0][block, :N] = (a @ xr - b @ xi)[:, 0]
                new[1][block, :N] = (a @ xi + b @ xr)[:, 0]
        rows = new
    return [x[:, :-1] for x in rows]


class ExactMatrix:
    """A dense matrix of Gaussian rationals.  Immutable.

    Stored only as its reduced Gaussian-integer numerators over one
    denominator, read by `numerators` and built by `from_numerators`, so
    equality and hashing are structural; GaussRat entries are made on
    the first read of an entry or a row, and kept.

    Supports @ for matrix product, + and -, .scale() for scalars,
    exact inversion (singularity raised, never approximated), Kronecker
    product, and conjugate transpose.
    """

    __slots__ = ("nrows", "ncols", "_re", "_im", "_D", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(GaussRat.coerce(x) for x in row) for row in entries)
        D = lcm(*{f.denominator for row in rows for x in row
                  for f in (x.re, x.im)})
        self._store([[x.re.numerator * (D // x.re.denominator) for x in row]
                     for row in rows],
                    [[x.im.numerator * (D // x.im.denominator) for x in row]
                     for row in rows], D, rows)

    @classmethod
    def from_numerators(cls, re, im, D):
        """The matrix (re + im i) / D for rows re of Python ints, im None
        or rows each of which may be None (zero), and a nonzero int D.
        Rows that are lists are kept, not copied."""
        self = cls.__new__(cls)
        self._store(re, im, D, None)
        return self

    def _store(self, re, im, D, entries):
        """Set the reduced form of (re + im i) / D and the GaussRat rows
        `entries`, or None to make them on first read."""
        re = [r if type(r) is list else list(r) for r in re]
        if not re or not re[0]:
            raise DimensionMismatch("empty matrix")
        if any(len(r) != len(re[0]) for r in re):
            raise DimensionMismatch("ragged rows")
        if im is not None:
            im = [[0] * len(r) if i is None else i if type(i) is list
                  else list(i) for r, i in zip(re, im)]
            if not any(map(any, im)):
                im = None
        g = 1 if D == 1 else gcd(D, *chain.from_iterable(re + (im or [])))
        g = -g if D < 0 else g
        if g != 1:
            re = [[x // g for x in row] for row in re]
            if im is not None:
                im = [[x // g for x in row] for row in im]
        for name, value in (("nrows", len(re)), ("ncols", len(re[0])),
                            ("_re", re), ("_im", im), ("_D", D // g),
                            ("_e", entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def numerators(self):
        """(re, im, D) with entry (i, j) = (re[i][j] + im[i][j] i) / D:
        the stored lists of integer rows (im None for a real matrix, and
        not to be modified) and the smallest positive D."""
        return self._re, self._im, self._D

    @classmethod
    def identity(cls, k):
        return cls.from_numerators(
            [[int(i == j) for j in range(k)] for i in range(k)], None, 1)

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        k = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(k)] for i in range(k)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows()[i][j]

    def row(self, i):
        return self.rows()[i]

    def rows(self):
        """The entries as rows of GaussRat, made on the first call, each
        distinct value once."""
        if self._e is None:
            D = self._D
            entry = lru_cache(maxsize=None)(
                lambda a, b: GaussRat(Fraction(a, D), Fraction(b, D)))
            object.__setattr__(self, "_e", tuple(
                tuple(map(entry, r, i))
                for r, i in zip(self._re, self._im or repeat(repeat(0)))))
        return self._e

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.numerators() == other.numerators()

    def __hash__(self):
        re, im, D = self.numerators()
        return hash((tuple(map(tuple, re)), im and tuple(map(tuple, im)), D))

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        (ar, ai, da), (br, bi, db) = self.numerators(), other.numerators()
        D = lcm(da, db)
        sa, sb = D // da, D // db
        zero = [[0] * self.ncols] * self.nrows

        def part(x, y):
            return [[p * sa + q * sb for p, q in zip(rx, ry)]
                    for rx, ry in zip(x or zero, y or zero)]

        im = None if ai is None and bi is None else part(ai, bi)
        return ExactMatrix.from_numerators(part(ar, br), im, D)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        return self._product(_int_matmul, other)

    def _product(self, op, other):
        """self times other under a bilinear product op of integer
        matrices: (ar + ai i)(br + bi i) = op(ar, br) - op(ai, bi)
        + (op(ar, bi) + op(ai, br)) i."""
        (ar, ai, da), (br, bi, db) = self.numerators(), other.numerators()
        re = op(ar, br)
        im = None if bi is None else op(ar, bi)
        if ai is not None:
            ai_br = op(ai, br)
            im = ai_br if im is None else [list(map(add, x, y))
                                           for x, y in zip(im, ai_br)]
            if bi is not None:
                re = [list(map(sub, x, y)) for x, y in zip(re, op(ai, bi))]
        return ExactMatrix.from_numerators(re, im, da * db)

    def scale(self, s):
        return ExactMatrix([[s]]).kron(self)

    def transpose(self):
        re, im, D = self.numerators()
        return ExactMatrix.from_numerators(zip(*re), im and zip(*im), D)

    def conjugate(self):
        re, im, D = self.numerators()
        return ExactMatrix.from_numerators(
            re, im and [[-x for x in row] for row in im], D)

    def conjugate_transpose(self):
        return self.transpose().conjugate()

    def inverse(self):
        """Exact inverse by fraction-free Gauss-Jordan elimination
        (`_bareiss`) on the Gaussian-integer numerators.  Raises
        SingularMatrix naming the first column without a pivot.
        """
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices are invertible")
        k = self.nrows
        re, im, D = self.numerators()
        # rows of [A | I], A = D * self
        rows = [(re[i] + [int(i == j) for j in range(k)],
                 None if im is None else im[i] + [0] * k) for i in range(k)]
        rows, pivot, _ = _bareiss(rows)
        # A is now pivot * I, pivot the last pivot, and the rows hold
        # pivot * A^-1 = pivot / D times the inverse
        right = ExactMatrix.from_numerators([x for x, _ in rows],
                                            [y for _, y in rows], 1)
        return right.scale(GaussRat(D) / GaussRat(*pivot))

    def kron(self, other):
        """Kronecker product; block (i,j) is self[i,j] * other."""
        return self._product(_int_kron, other)

    def permuted(self, row_perm=None, col_perm=None):
        """Rows and columns reordered: entry (i,j) of the result is
        self[row_perm[i], col_perm[j]]."""
        rp = row_perm if row_perm is not None else range(self.nrows)
        cp = col_perm if col_perm is not None else range(self.ncols)
        re, im, D = self.numerators()
        return ExactMatrix.from_numerators(
            [[re[i][j] for j in cp] for i in rp],
            im and [[im[i][j] for j in cp] for i in rp], D)

    def is_diagonal(self):
        re, im, _ = self.numerators()
        return not any(x for part in (re, im or ())
                       for i, row in enumerate(part)
                       for j, x in enumerate(row) if i != j)

    def scalar_value(self):
        """The scalar c if this matrix equals c*I, else None: decided on
        the numerators by `_scalar_break`."""
        if self.nrows != self.ncols:
            return None
        c, broken = self._scalar_break()
        return None if broken else c

    def _scalar_break(self):
        """Whether this square matrix is c*I, for c = self[0, 0], decided
        on the numerators: (c, None) if it is, else (c, (i, j, x)) for
        x = self[i, j], its first nonzero off-diagonal entry in row-major
        order or, if it has none, its first diagonal entry unequal to c.
        GaussRat values are made for c and that entry alone."""
        re, im, D = self.numerators()
        k = self.nrows
        parts = (re,) if im is None else (re, im)

        def at(i, j):
            return GaussRat(Fraction(re[i][j], D),
                            Fraction(im[i][j] if im else 0, D))

        for i in range(k):
            for part in parts:
                row = part[i]
                # zero off the diagonal: k - 1 zeros besides row[i]
                if row.count(0) - (not row[i]) != k - 1:
                    j = next(j for j in range(k)
                             if j != i and any(p[i][j] for p in parts))
                    return at(0, 0), (i, j, at(i, j))
        for i in range(1, k):
            for part in parts:
                if part[i][i] != part[0][0]:
                    return at(0, 0), (i, i, at(i, i))
        return at(0, 0), None

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows()
        )

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.nrows, self.ncols)


@lru_cache(maxsize=None)
def compositions(n, k):
    """All compositions of n into k non-negative parts.

    Canonical order: lexicographically decreasing, so (n, 0, ..., 0)
    comes first and (0, ..., 0, n) last.  There are C(n+k-1, k-1) of them.
    Their k-1 partial sums are the multisets of 0..n, listed in reverse.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    head, tail = (0,), (n,)
    out = [tuple(map(sub, sums + tail, head + sums))
           for sums in combinations_with_replacement(range(n + 1), k - 1)]
    out.reverse()
    return tuple(out)


@lru_cache(maxsize=None)
def composition_index(n, k):
    """Dict mapping each composition of n into k parts to its canonical index."""
    return {c: i for i, c in enumerate(compositions(n, k))}


class MPoly:
    """Sparse multivariate polynomial over GaussRat.

    Terms are stored as a dict mapping exponent tuples (fixed length
    nvars) to nonzero coefficients.  The constructor is the one
    normaliser: it drops zero coefficients, so equality is structural.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise DimensionMismatch("need at least one variable")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise DimensionMismatch("bad exponent tuple %r" % (exps,))
            coeff = GaussRat.coerce(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(tuple(exps)), {tuple(exps): coeff})

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch("polynomials in different variable counts")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms[exps] + c if exps in terms else c
        return MPoly(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MPoly) else -GaussRat.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            s = GaussRat.coerce(other)
            return MPoly(self.nvars, {e: s * c for e, c in self.terms.items()})
        self._check(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                terms[key] = terms[key] + c if key in terms else c
        return MPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        return _power(self, n, MPoly.constant(self.nvars, 1))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries -------------------------------------------------------

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), GaussRat(0))

    def degree(self):
        """Total degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self):
        """Terms in canonical order (exponents lexicographically decreasing)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    # -- display -------------------------------------------------------

    def to_str(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = ["s%d" % i for i in range(self.nvars)]
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(names, exps)
                if e
            )
            cs = str(coeff)
            if not mono:
                piece = cs if coeff.is_real() else "(%s)" % cs
            elif coeff == GaussRat(1):
                piece = mono
            elif coeff == GaussRat(-1):
                piece = "-" + mono
            elif coeff.is_real():
                piece = "%s*%s" % (cs, mono)
            else:
                piece = "(%s)*%s" % (cs, mono)
            pieces.append(piece)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    __str__ = to_str

    def __repr__(self):
        return "MPoly(%d vars, %d terms)" % (self.nvars, len(self.terms))


def substitute_polys(p, images):
    """Substitute images[i] for variable i of p.

    All images must be polynomials in the same (new) variable set.  It
    expands powers of the images term by term, so no code of the package
    calls it: it is kept as the oracle for the Z4 Lee form and the
    Gray/Lee identity (`codes.z4_enumerators`, `codes.gray_lee_check`),
    which re-index monomials and go through the induced matrix instead.
    """
    images = list(images)
    if len(images) != p.nvars:
        raise DimensionMismatch(
            "need %d substitution polynomials, got %d" % (p.nvars, len(images))
        )
    if not images:
        raise DimensionMismatch("empty substitution")
    m = images[0].nvars
    if any(img.nvars != m for img in images):
        raise DimensionMismatch("substitution polynomials disagree on variables")
    pow_cache = {}

    def power(i, e):
        key = (i, e)
        if key not in pow_cache:
            pow_cache[key] = images[i] ** e
        return pow_cache[key]

    result = MPoly.zero(m)
    for exps, coeff in p.terms.items():
        term = MPoly.constant(m, coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        result = result + term
    return result


def substitute_linear(p, M):
    """Linear change of variables: s_i is replaced by sum_j M[i,j] t_j.

    The polynomial oracle for `codes.macwilliams_transform`, which
    applies the same change as one product with `induced_matrix`; no
    code of the package calls it."""
    if M.nrows != p.nvars:
        raise DimensionMismatch(
            "matrix has %d rows but polynomial has %d variables"
            % (M.nrows, p.nvars)
        )
    images = []
    for r in range(M.nrows):
        terms = {}
        for j in range(M.ncols):
            if M[r, j]:
                key = tuple(int(i == j) for i in range(M.ncols))
                terms[key] = M[r, j]
        images.append(MPoly(M.ncols, terms))
    return substitute_polys(p, images)


def induced_matrix(M, n):
    """The action of M on homogeneous degree-n monomials.

    Rows and columns are indexed by compositions of n into k parts in
    canonical order; row gamma holds the coefficients of
    prod_j (M s)_j ^ gamma(j), where (M s)_j = sum_i M[j,i] s_i.
    The map M -> induced_matrix(M, n) is multiplicative.  It is formed
    degree by degree on the Gaussian-integer numerators of M, over D^n:
    int64 arrays while L^n < 2^62, L the largest row l1 norm of the
    numerators, and arrays of Python ints beyond (`_induced_numerators`).
    """
    if M.nrows != M.ncols:
        raise DimensionMismatch("induced matrix needs a square matrix")
    compositions(n, M.nrows)  # rejects n < 0
    re, im, D = M.numerators()
    parts = _induced_numerators(re, im, n)
    return ExactMatrix.from_numerators(parts[0].tolist(),
                                       im and parts[1].tolist(), D**n)
