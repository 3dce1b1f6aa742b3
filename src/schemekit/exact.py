"""Exact scalars, matrices, sparse polynomials, and compositions.

Everything in this module is exact.  Scalars are Gaussian rationals
(complex numbers with Fraction real and imaginary parts), matrices and
polynomials are built over them, and no operation ever rounds.  The one
way in from floats is snap_gauss, whose results callers re-verify.

GaussRat is the type at the edge: ExactMatrix stores GaussRat entries
and MPoly GaussRat coefficients.  The heavy kernels -- matrix product,
inverse and induced matrices -- run on one private integer form
instead: a matrix becomes its Gaussian-integer numerators, held as a
real and an imaginary integer matrix, over one common denominator D,
the lcm of the entry denominators.  A kernel converts to that form
once, works on Python ints only, and converts back once.  One
fraction-free elimination kernel, `_bareiss`, serves both the inverse
and the point determinants of `modular._poly_det`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from itertools import repeat
from math import lcm
from operator import add, itemgetter, mul, sub

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


def snap_gauss(z):
    """The Gaussian rational nearest a complex float z with denominators
    up to _SNAP_MAX_DENOMINATOR, or None if it is farther than
    _SNAP_TOLERANCE in either part: the one snap rule, for eigenvalues
    and modular witnesses alike.  Callers re-verify every snapped value
    exactly."""
    re = Fraction(float(z.real)).limit_denominator(_SNAP_MAX_DENOMINATOR)
    im = Fraction(float(z.imag)).limit_denominator(_SNAP_MAX_DENOMINATOR)
    if (abs(float(re) - z.real) > _SNAP_TOLERANCE
            or abs(float(im) - z.imag) > _SNAP_TOLERANCE):
        return None
    return GaussRat(re, im)


# -- the private integer form ----------------------------------------------
#
# A matrix is (re, im, D): lists of integer rows, entry (i, j) standing
# for (re[i][j] + im[i][j] i) / D.  A vector is a pair (re, im) of
# integer sequences and a scalar a pair (a, b) of ints for a + b i.  An
# imaginary part that is zero throughout may be None, so real matrices
# never pay for one.


def _to_int(rows):
    """The integer form (re, im, D) of rows of GaussRat entries, with D
    the lcm of the entry denominators."""
    D = lcm(*{f.denominator for row in rows for x in row
              for f in (x.re, x.im)})
    re = [[x.re.numerator * (D // x.re.denominator) for x in row]
          for row in rows]
    im = None
    if any(x.im for row in rows for x in row):
        im = [[x.im.numerator * (D // x.im.denominator) for x in row]
              for row in rows]
    return re, im, D


def _to_gauss(re, im, D):
    """Rows of GaussRat entries (re + im i) / D for a nonzero int D.

    im is None or a list of rows, each of which may be None."""
    made = {}

    def entry(a, b):
        g = made.get((a, b))
        if g is None:
            g = made[a, b] = GaussRat(Fraction(a, D), Fraction(b, D))
        return g

    if im is None:
        im = [None] * len(re)
    return tuple(tuple(map(entry, r, repeat(0) if i is None else i))
                 for r, i in zip(re, im))


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


def _int_matmul(A, Bt):
    """Product of integer matrices, the right factor given by columns."""
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def _minus(gamma, j):
    return gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]


def _gatherer(indices):
    # itemgetter of a single index returns the item, not a 1-tuple
    if len(indices) == 1:
        t = indices[0]
        return lambda seq: (seq[t],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _degree_step(m, k):
    """Tables that take the induced rows of degree m-1 to degree m.

    steps[g] = (j, p): j is the first nonzero part of the g-th
    composition gamma of m and p the index of gamma - e_j among the
    compositions of m-1.  gathers[i] reads, from a vector over the
    compositions of m-1 ended by one extra 0, the entry at beta - e_i
    for every composition beta of m (the 0 where beta_i = 0).
    """
    lower = composition_index(m - 1, k)
    upper = compositions(m, k)
    steps = []
    for gamma in upper:
        j = next(t for t, e in enumerate(gamma) if e)
        steps.append((j, lower[_minus(gamma, j)]))
    gathers = tuple(
        _gatherer([lower[_minus(beta, i)] if beta[i] else len(lower)
                   for beta in upper])
        for i in range(k))
    return tuple(steps), gathers


def _induced_rows(re, im, n):
    """Rows of the induced matrix of the integer matrix (re, im) on
    degree-n monomials, as Gaussian vectors.

    Row gamma of degree m is row gamma - e_j of degree m-1 times the
    linear form of row j, where j is the first nonzero part of gamma;
    only two degrees are held at a time.
    """
    k = len(re)
    forms = [tuple(zip(re[j], repeat(0) if im is None else im[j]))
             for j in range(k)]
    rows = [([1], None)]
    for m in range(1, n + 1):
        steps, gathers = _degree_step(m, k)
        for xr, xi in rows:
            xr.append(0)
            if xi is not None:
                xi.append(0)
        new = []
        for j, p in steps:
            xr, xi = rows[p]
            acc = (None, None)
            for c, gather in zip(forms[j], gathers):
                if c[0] or c[1]:
                    shifted = (gather(xr), None if xi is None else gather(xi))
                    acc = _gauss_axpy(acc, c, shifted)
            if acc[0] is None:
                acc = ([0] * len(steps), None)
            new.append(acc)
        rows = new
    return rows


class ExactMatrix:
    """A dense matrix of GaussRat entries.  Immutable.

    Supports @ for matrix product, + and -, .scale() for scalars,
    exact inversion (singularity raised, never approximated), Kronecker
    product, and conjugate transpose.
    """

    __slots__ = ("nrows", "ncols", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(GaussRat.coerce(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_e", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, k):
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        k = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(k)] for i in range(k)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self._e[i][j]

    def row(self, i):
        return self._e[i]

    def rows(self):
        return self._e

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __add__(self, other):
        self._same_shape(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __neg__(self):
        return self.scale(-1)

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        # (ar + ai i)(br + bi i) = ar br - ai bi + (ar bi + ai br) i
        ar, ai, da = _to_int(self._e)
        br, bi, db = _to_int(other._e)
        brt = list(zip(*br))
        bit = None if bi is None else list(zip(*bi))
        re = _int_matmul(ar, brt)
        im = None if bit is None else _int_matmul(ar, bit)
        if ai is not None:
            ai_br = _int_matmul(ai, brt)
            im = ai_br if im is None else [list(map(add, x, y))
                                           for x, y in zip(im, ai_br)]
            if bit is not None:
                re = [list(map(sub, x, y))
                      for x, y in zip(re, _int_matmul(ai, bit))]
        return ExactMatrix(_to_gauss(re, im, da * db))

    def scale(self, s):
        s = GaussRat.coerce(s)
        return ExactMatrix([[s * x for x in row] for row in self._e])

    def transpose(self):
        return ExactMatrix(list(zip(*self._e)))

    def conjugate(self):
        return ExactMatrix([[x.conjugate() for x in row] for row in self._e])

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
        re, im, D = _to_int(self._e)
        # rows of [A | I], A = D * self
        rows = [(re[i] + [int(i == j) for j in range(k)],
                 None if im is None else im[i] + [0] * k) for i in range(k)]
        rows, pivot, _ = _bareiss(rows)
        # A is now pivot * I, pivot the last pivot, and the rows hold
        # pivot * A^-1 = pivot / D times the inverse
        conj, den = _divisor(pivot)
        right = [_gauss_axpy((None, None), (D * conj[0], D * conj[1]), row)
                 for row in rows]
        return ExactMatrix(_to_gauss([x for x, _ in right],
                                     [y for _, y in right], den))

    def kron(self, other):
        """Kronecker product; block (i,j) is self[i,j] * other."""
        out = []
        for ra in self._e:
            for rb in other._e:
                out.append([a * b for a in ra for b in rb])
        return ExactMatrix(out)

    def permuted(self, row_perm=None, col_perm=None):
        """Rows and columns reordered: entry (i,j) of the result is
        self[row_perm[i], col_perm[j]]."""
        rp = row_perm if row_perm is not None else range(self.nrows)
        cp = col_perm if col_perm is not None else range(self.ncols)
        return ExactMatrix([[self._e[i][j] for j in cp] for i in rp])

    def is_diagonal(self):
        return all(
            not self._e[i][j]
            for i in range(self.nrows)
            for j in range(self.ncols)
            if i != j
        )

    def scalar_value(self):
        """The scalar c if this matrix equals c*I, else None."""
        if self.nrows != self.ncols or not self.is_diagonal():
            return None
        c = self._e[0][0]
        if any(self._e[i][i] != c for i in range(self.nrows)):
            return None
        return c

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self._e
        )

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.nrows, self.ncols)


@lru_cache(maxsize=None)
def compositions(n, k):
    """All compositions of n into k non-negative parts.

    Canonical order: lexicographically decreasing, so (n, 0, ..., 0)
    comes first and (0, ..., 0, n) last.  There are C(n+k-1, k-1) of them.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if k == 1:
        return ((n,),)
    out = []
    for first in range(n, -1, -1):
        for rest in compositions(n - first, k - 1):
            out.append((first,) + rest)
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

    All images must be polynomials in the same (new) variable set.
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
    The polynomial oracle for `codes.macwilliams_transform`; no package
    code calls it."""
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
    The map M -> induced_matrix(M, n) is multiplicative.
    """
    if M.nrows != M.ncols:
        raise DimensionMismatch("induced matrix needs a square matrix")
    compositions(n, M.nrows)  # rejects n < 0
    re, im, D = _to_int(M.rows())
    rows = _induced_rows(re, im, n)
    return ExactMatrix(_to_gauss([x for x, _ in rows], [y for _, y in rows],
                                 D**n))
