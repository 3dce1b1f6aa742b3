import ast
import random
from fractions import Fraction
from math import gcd, inf, nan, nextafter
from pathlib import Path

import pytest

import schemekit
from schemekit import exact as exact_module
from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.codes import (
    Code,
    macwilliams_transform,
    weight_enumerator,
)
from schemekit.exact import (
    _SNAP_INTEGER_RADIUS,
    _SNAP_MAX_DENOMINATOR,
    _SNAP_TOLERANCE,
    ExactMatrix,
    GaussRat,
    MPoly,
    composition_index,
    compositions,
    induced_matrix,
    snap_gauss,
    substitute_linear,
    substitute_polys,
)
from schemekit.errors import DimensionMismatch, SingularMatrix
from schemekit.scheme import dual_eigenmatrix, eigenmatrix

from oracles import dual_weight_enumerator_direct


def rand_gauss(rng, span=5):
    return GaussRat(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def rand_matrix(rng, n, span=5):
    return ExactMatrix([[rand_gauss(rng, span) for _ in range(n)]
                        for _ in range(n)])


# -- GaussRat ------------------------------------------------------------


def test_gauss_arithmetic_identities():
    a = GaussRat(Fraction(2, 3), Fraction(-1, 2))
    b = GaussRat(-1, 4)
    assert a + b == GaussRat(Fraction(-1, 3), Fraction(7, 2))
    assert a * b == GaussRat(Fraction(4, 3), Fraction(19, 6))
    assert (a / b) * b == a
    assert a - a == GaussRat(0)
    assert -a + a == GaussRat(0)


def test_gauss_division_and_pow():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)
    assert i**3 == GaussRat(0, -1)
    assert i**-1 == GaussRat(0, -1)
    assert (GaussRat(1, 1) ** 2) == GaussRat(0, 2)
    assert GaussRat(2).conjugate() == GaussRat(2)
    assert GaussRat(1, 3).conjugate() == GaussRat(1, -3)


def test_gauss_str_forms():
    assert str(GaussRat(2, 2)) == "2+2i"
    assert str(GaussRat(0, -1)) == "-i"
    assert str(GaussRat(Fraction(1, 2))) == "1/2"
    assert str(GaussRat(0)) == "0"


def test_gauss_rejects_floats():
    with pytest.raises(TypeError):
        GaussRat(0.5)


def test_gauss_zero_division():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)


def test_gauss_random_field_axioms():
    rng = random.Random(411)
    for _ in range(60):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if b != GaussRat(0):
            assert (a / b) * b == a


# -- snap_gauss ----------------------------------------------------------


def _limit_denominator_snap(z):
    """snap_gauss through Fraction.limit_denominator alone."""
    parts = [Fraction(float(x)).limit_denominator(_SNAP_MAX_DENOMINATOR)
             for x in (z.real, z.imag)]
    if any(abs(float(f) - x) > _SNAP_TOLERANCE
           for f, x in zip(parts, (z.real, z.imag))):
        return None
    return GaussRat(*parts)


def _steps(x, n):
    """x and its n float neighbours on either side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(nextafter(below[-1], -inf))
        above.append(nextafter(above[-1], inf))
    return below[:0:-1] + above


def _snap_inputs():
    half = 1 / (2 * _SNAP_MAX_DENOMINATOR)
    misses = (_steps(half, 8) + _steps(_SNAP_TOLERANCE, 2)
              + [2 * half, half / 2, 1e-12, 0.0])
    near = [k + s * e for k in (-7, -1, 0, 1, 3, 10**6, 2**40)
            for e in misses for s in (1, -1)]
    big = [s * x for s in (1, -1)
           for x in (2.0**52, 2.0**52 + 1, 2.0**53, 2.0**60, 1e300)]
    return near + big + [0.0, -0.0, 0.25, 1 / 3, 2**51 + 0.5]


def test_snap_radius_is_below_half_over_n():
    # k is the nearest fraction only strictly inside 1/(2N) of k
    assert Fraction(_SNAP_INTEGER_RADIUS) < Fraction(
        1, 2 * _SNAP_MAX_DENOMINATOR)


def test_snap_matches_limit_denominator():
    xs = _snap_inputs()
    for x, y in zip(xs, xs[::-1]):
        for z in (complex(x, y), complex(x, 0.0)):
            assert snap_gauss(z) == _limit_denominator_snap(z), z


def test_snap_off_the_integers_matches_limit_denominator():
    """Seeded parts that take the continued fraction: uniform floats,
    fractions with denominators up to 2N nudged by up to 2e-9, square
    roots, midpoints of two fractions with denominators near N, and
    dyadic fractions with denominators up to 2^19 < N, which need none."""
    rng = random.Random(1011)
    n = _SNAP_MAX_DENOMINATOR
    xs = [rng.uniform(-50, 50) for _ in range(400)]
    xs += [rng.randint(-3 * n, 3 * n) / rng.randint(2, 2 * n)
           + rng.choice((0.0, 1e-12, -3e-10, 2e-9)) for _ in range(400)]
    xs += [rng.choice((1, -1)) * rng.randint(2, 10**6) ** 0.5
           for _ in range(200)]
    for _ in range(200):
        q1, q2 = rng.randint(n // 2, n), rng.randint(n // 2, n)
        p1 = rng.randint(0, q1)
        xs.append((p1 / q1 + (p1 * q2 // q1 + 1) / q2) / 2)
    xs += [rng.randint(-2**25, 2**25) / 2**e for e in range(1, 20)
           for _ in range(10)]
    for x, y in zip(xs, xs[::-1]):
        assert snap_gauss(complex(x, y)) == _limit_denominator_snap(complex(x, y))


def test_limit_denominator_matches_fraction_on_exact_ratios():
    """`_limit_denominator` on rationals that are not floats: seeded
    ratios, midpoints of two fractions with denominators up to N, and
    ties between its two final bounds, a +- 1/(2N) halfway between a
    and a +- 1/N, where both it and limit_denominator take a."""
    rng = random.Random(1012)
    n = _SNAP_MAX_DENOMINATOR
    ratios = [Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**13))
              for _ in range(2000)]
    ratios += [a + Fraction(s, 2 * n) for a in range(-3, 4) for s in (1, -1)]
    for _ in range(500):
        q = rng.randint(1, n)
        p = rng.randint(-3 * q, 3 * q)
        for q2 in (n, n - q, rng.randint(1, n)):
            p2 = p * q2 // q + 1
            ratios.append((Fraction(p, q) + Fraction(p2, q2)) / 2)
    for f in ratios:
        got = Fraction(*exact_module._limit_denominator(f.numerator,
                                                        f.denominator))
        assert got == f.limit_denominator(n), f


def test_snap_near_an_integer_needs_no_continued_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("limit_denominator called")

    monkeypatch.setattr(Fraction, "limit_denominator", refuse)
    monkeypatch.setattr(exact_module, "_limit_denominator", refuse)
    assert snap_gauss(complex(3 + 1e-12, -2 - 1e-12)) == GaussRat(3, -2)
    assert snap_gauss(complex(-0.0, 2.0**60)) == GaussRat(0, 2**60)
    assert snap_gauss(complex(1 + 1e-7, 0.0)) is None


@pytest.mark.parametrize("z, error, message", [
    (complex(nan, 0.0), ValueError, "NaN"),
    (complex(0.0, inf), OverflowError, "Infinity"),
    (complex(-inf, nan), OverflowError, "Infinity"),
    (complex(0.3, nan), ValueError, "NaN"),
])
def test_snap_of_a_non_finite_part_raises(z, error, message):
    with pytest.raises(error, match="^cannot convert %s to integer ratio$"
                       % message):
        snap_gauss(z)


# -- ExactMatrix ---------------------------------------------------------


def test_matrix_identity_and_getitem():
    m = ExactMatrix.identity(3)
    assert m[0, 0] == GaussRat(1)
    assert m[0, 1] == GaussRat(0)
    assert m.is_diagonal()
    assert m.scalar_value() == GaussRat(1)


def _oracle_scalar_value(m):
    """c if m == c I, by comparing with the scaled identity."""
    if m.nrows != m.ncols:
        return None
    c = m[0, 0]
    return c if m == ExactMatrix.identity(m.nrows).scale(c) else None


@pytest.mark.parametrize("m, want", [
    (ExactMatrix.identity(3).scale(GaussRat(-7)), GaussRat(-7)),
    (ExactMatrix.diagonal([GaussRat(2), GaussRat(2), GaussRat(3)]), None),
    (ExactMatrix([[GaussRat(4), GaussRat(0)], [GaussRat(0, 1), GaussRat(4)]]),
     None),
    (ExactMatrix.identity(2).scale(GaussRat(0)), GaussRat(0)),
    (ExactMatrix.identity(3).scale(GaussRat(Fraction(2, 3), Fraction(-1, 5))),
     GaussRat(Fraction(2, 3), Fraction(-1, 5))),
    (ExactMatrix.diagonal([GaussRat(Fraction(1, 2), 1),
                           GaussRat(Fraction(1, 2), -1)]), None),
    (ExactMatrix([[GaussRat(1), GaussRat(0)]]), None),
], ids=["scalar", "non-constant-diagonal", "one-off-diagonal", "zero",
        "complex-fractional", "complex-non-constant", "non-square"])
def test_scalar_value_matches_the_scaled_identity(m, want):
    got = m.scalar_value()
    assert got == want == _oracle_scalar_value(m)
    assert type(got) is type(want)


def _g(re, im=0):
    return GaussRat(re, im)


@pytest.mark.parametrize("rows, want", [
    ([[_g(2, 1), 0, 0], [0, _g(2, 1), 0], [0, 0, _g(2, 1)]], None),
    ([[1, 0, 0], [_g(0, 3), 1, 5], [0, 0, 1]], (1, 0)),
    ([[1, 0, 0], [0, 1, _g(0, 3)], [0, 0, 1]], (1, 2)),
    ([[1, 0, 0], [0, 2, 0], [0, _g(0, 1), 1]], (2, 1)),
    ([[_g(1, 1), 0, 0], [0, _g(1, 1), 0], [0, 0, _g(1, -1)]], (2, 2)),
    ([[0, 0], [0, 0]], None),
], ids=["scalar", "imaginary-first", "imaginary-only", "off-before-diagonal",
        "diagonal-imaginary", "zero"])
def test_scalar_break_names_the_first_entry_off_c_I(rows, want):
    m = ExactMatrix([[GaussRat.coerce(x) for x in row] for row in rows])
    c, broken = m._scalar_break()
    assert c == m[0, 0] and type(c) is GaussRat
    assert broken == (want and (*want, m[want]))


def test_matrix_inverse_random():
    rng = random.Random(902)
    done = 0
    while done < 10:
        m = rand_matrix(rng, 3)
        try:
            inv = m.inverse()
        except SingularMatrix:
            continue
        assert m @ inv == ExactMatrix.identity(3)
        assert inv @ m == ExactMatrix.identity(3)
        done += 1


def test_matrix_singular():
    m = ExactMatrix([[GaussRat(1), GaussRat(2)], [GaussRat(2), GaussRat(4)]])
    with pytest.raises(SingularMatrix):
        m.inverse()


def test_matrix_shape_mismatch():
    a = ExactMatrix.identity(2)
    b = ExactMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        a @ b


def test_matrix_permuted():
    m = ExactMatrix([[GaussRat(1), GaussRat(2)], [GaussRat(3), GaussRat(4)]])
    p = m.permuted(row_perm=(1, 0))
    assert p[0, 0] == GaussRat(3)
    assert p[1, 1] == GaussRat(2)
    q = m.permuted(col_perm=(1, 0))
    assert q[0, 0] == GaussRat(2)


def test_matrix_kron():
    a = ExactMatrix([[GaussRat(1), GaussRat(2)], [GaussRat(0), GaussRat(1)]])
    b = ExactMatrix.identity(2).scale(3)
    k = a.kron(b)
    assert k.nrows == 4
    assert k[0, 0] == GaussRat(3)
    assert k[0, 2] == GaussRat(6)
    assert k[1, 3] == GaussRat(6)
    assert k[1, 2] == GaussRat(0)
    assert k[2, 0] == GaussRat(0)


def test_conjugate_transpose():
    m = ExactMatrix([[GaussRat(1, 1), GaussRat(0, 2)],
                     [GaussRat(3), GaussRat(0, -1)]])
    h = m.conjugate_transpose()
    assert h[0, 0] == GaussRat(1, -1)
    assert h[1, 0] == GaussRat(0, -2)


# -- compositions --------------------------------------------------------


def test_compositions_order_and_count():
    # decreasing lexicographic, largest first
    assert compositions(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert compositions(3, 2) == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert compositions(2, 3) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_compositions_count_binomial():
    from math import comb
    for n in range(5):
        for k in range(1, 5):
            assert len(compositions(n, k)) == comb(n + k - 1, k - 1)


def _recursive_compositions(n, k):
    """The defining recursion: first part n, n-1, ..., 0, then the rest."""
    if k == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n, -1, -1)
            for rest in _recursive_compositions(n - first, k - 1)]


def test_compositions_follow_the_recursion():
    for n in range(9):
        for k in range(1, 7):
            assert list(compositions(n, k)) == _recursive_compositions(n, k)


def test_compositions_of_many_parts():
    # one part per class of a 4096-class base; the cache is bypassed, so
    # no 4096 x 4096 result stays behind
    comps = compositions.__wrapped__(1, 4096)
    assert len(comps) == 4096
    assert comps[0] == (1,) + (0,) * 4095
    assert comps[-1] == (0,) * 4095 + (1,)
    assert all(c[i] == 1 and sum(c) == 1 for i, c in enumerate(comps))


def test_composition_index_roundtrip():
    comps = compositions(4, 3)
    index = composition_index(4, 3)
    for pos, gamma in enumerate(comps):
        assert index[gamma] == pos


# -- MPoly ---------------------------------------------------------------


def test_mpoly_basic_arithmetic():
    x = MPoly.variable(0, 2)
    y = MPoly.variable(1, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.coefficient((2, 0)) == GaussRat(1)
    assert p.coefficient((1, 1)) == GaussRat(0)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_mpoly_zero_pruning():
    x = MPoly.variable(0, 1)
    assert not (x - x).terms
    assert (x - x) == MPoly.zero(1)
    assert not bool(MPoly.zero(1))


def test_mpoly_homogeneous_degree():
    x = MPoly.variable(0, 2)
    y = MPoly.variable(1, 2)
    p = x * x + x * y
    assert p.is_homogeneous()
    assert p.degree() == 2
    assert not (p + x).is_homogeneous()
    assert MPoly.zero(2).degree() == -1


def test_mpoly_to_str():
    x = MPoly.variable(0, 2)
    y = MPoly.variable(1, 2)
    p = x * x - 2 * y + MPoly.constant(2, GaussRat(0, 1))
    assert p.to_str(["s", "t"]) == "s^2 - 2*t + (i)"


# -- substitution and induced matrices -----------------------------------


def test_substitute_linear_frozen():
    # (s0 + s1)^2 under s0 -> t0 + t1, s1 -> t0 - t1 gives 4*t0^2
    p = (MPoly.variable(0, 2) + MPoly.variable(1, 2)) ** 2
    m = ExactMatrix([[GaussRat(1), GaussRat(1)], [GaussRat(1), GaussRat(-1)]])
    q = substitute_linear(p, m)
    assert q == 4 * MPoly.variable(0, 2) * MPoly.variable(0, 2)


def test_substitute_polys_composition():
    s = MPoly.variable(0, 2)
    t = MPoly.variable(1, 2)
    p = s * s + t
    q = substitute_polys(p, [s + t, s * t])
    assert q == (s + t) * (s + t) + s * t


def test_substitute_linear_identity():
    rng = random.Random(77)
    x = MPoly.variable(0, 3)
    y = MPoly.variable(1, 3)
    z = MPoly.variable(2, 3)
    p = x * y + 2 * z * z - y
    assert substitute_linear(p, ExactMatrix.identity(3)) == p


def test_induced_matrix_identity():
    m = ExactMatrix.identity(2)
    for n in (1, 2, 3):
        size = len(compositions(n, 2))
        assert induced_matrix(m, n) == ExactMatrix.identity(size)


def test_induced_matrix_multiplicative():
    """induced(M N) = induced(M) induced(N), the key functorial fact."""
    rng = random.Random(5150)
    for _ in range(6):
        m = rand_matrix(rng, 2, span=3)
        n = rand_matrix(rng, 2, span=3)
        for deg in (2, 3):
            lhs = induced_matrix(m @ n, deg)
            rhs = induced_matrix(m, deg) @ induced_matrix(n, deg)
            assert lhs == rhs


def test_induced_matrix_scalar():
    c = GaussRat(2, 1)
    m = ExactMatrix.identity(2).scale(c)
    got = induced_matrix(m, 3)
    assert got.scalar_value() == c**3


def test_induced_matrix_frozen_binary():
    p = ExactMatrix([[GaussRat(1), GaussRat(1)], [GaussRat(1), GaussRat(-1)]])
    got = induced_matrix(p, 2)
    want = ExactMatrix([
        [GaussRat(1), GaussRat(2), GaussRat(1)],
        [GaussRat(1), GaussRat(0), GaussRat(-1)],
        [GaussRat(1), GaussRat(-2), GaussRat(1)],
    ])
    assert got == want


# -- integer kernels against their definitions ---------------------------


def rand_entry(rng, kind):
    """A random entry of one of three kinds: 'int', 'real' (fractions)
    or 'gauss' (fractional real and imaginary parts)."""
    if kind == "int":
        return GaussRat(rng.randint(-4, 4))
    if kind == "real":
        return GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
    return GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 6)))


def rand_kind_matrix(rng, nrows, ncols, kind):
    return ExactMatrix([[rand_entry(rng, kind) for _ in range(ncols)]
                        for _ in range(nrows)])


KINDS = ("int", "real", "gauss")


def matmul_reference(a, b):
    return ExactMatrix([[sum((a[i, t] * b[t, j] for t in range(a.ncols)),
                             GaussRat(0))
                         for j in range(b.ncols)] for i in range(a.nrows)])


def inverse_reference(m):
    """Gauss-Jordan elimination on GaussRat entries, pivoting on the
    first nonzero entry on or below the diagonal.  Returns the inverse,
    or the first column without a pivot."""
    k = m.nrows
    aug = [list(m.row(i)) + [GaussRat(int(i == j)) for j in range(k)]
           for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            return col
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return ExactMatrix([row[k:] for row in aug])


def singular_column(m):
    with pytest.raises(SingularMatrix) as info:
        m.inverse()
    return int(str(info.value).rsplit(" ", 1)[1])


def test_matmul_matches_definition():
    rng = random.Random(1968)
    for _ in range(60):
        r, s, t = (rng.randint(1, 5) for _ in range(3))
        a = rand_kind_matrix(rng, r, s, rng.choice(KINDS))
        b = rand_kind_matrix(rng, s, t, rng.choice(KINDS))
        assert a @ b == matmul_reference(a, b)


def test_inverse_matches_definition():
    rng = random.Random(1973)
    done = 0
    while done < 45:
        k = rng.randint(1, 6)
        m = rand_kind_matrix(rng, k, k, KINDS[done % 3])
        want = inverse_reference(m)
        if isinstance(want, int):
            assert singular_column(m) == want
            continue
        inv = m.inverse()
        assert inv == want
        assert m @ inv == ExactMatrix.identity(k)
        assert inv @ m == ExactMatrix.identity(k)
        done += 1


def test_inverse_needs_row_swaps():
    # zero leading entries force a pivot search below the diagonal
    m = ExactMatrix([[0, 1, 2], [0, 0, GaussRat(0, 1)], [3, 0, 1]])
    assert m.inverse() == inverse_reference(m)
    assert m @ m.inverse() == ExactMatrix.identity(3)


def test_singular_matrix_names_the_same_column():
    rng = random.Random(1011)
    for trial in range(40):
        k = rng.randint(2, 6)
        kind = KINDS[trial % 3]
        m = rand_kind_matrix(rng, k, k, kind)
        # make column j a combination of the columns before it, or zero
        j = rng.randrange(k)
        coeffs = [rand_entry(rng, kind) for _ in range(j)]
        rows = [list(row) for row in m.rows()]
        for row in rows:
            row[j] = sum((c * row[t] for t, c in enumerate(coeffs)),
                         GaussRat(0))
        m = ExactMatrix(rows)
        want = inverse_reference(m)
        assert isinstance(want, int) and want <= j
        assert singular_column(m) == want


def assert_canonical(m):
    """The stored form is reduced: D > 0 shares no factor with every
    numerator, and a real matrix stores no imaginary part."""
    re, im, D = m.numerators()
    assert D > 0
    assert gcd(D, *(x for part in (re, im or []) for row in part
                    for x in row)) == 1
    assert (im is None) == all(x.is_real() for row in m.rows() for x in row)


def test_matrix_form_is_canonical():
    half = [ExactMatrix([[Fraction(1, 2)]]), ExactMatrix([[GaussRat(2) / 4]]),
            ExactMatrix.from_numerators([[3]], None, 6),
            ExactMatrix.from_numerators(((-5,),), [[0]], -10)]
    assert all(m == half[0] for m in half)
    assert len({hash(m) for m in half}) == 1
    assert all(m.numerators() == ([[1]], None, 2) for m in half)
    zero = ExactMatrix.from_numerators([[0, 0], [0, 0]], [None, [0, 0]], 12)
    assert zero.numerators() == ([[0, 0], [0, 0]], None, 1)
    assert ExactMatrix([[0, GaussRat(0)], [Fraction(0), 0]]) == zero
    assert ExactMatrix([[GaussRat(Fraction(1, 3), 1)]]).numerators() == \
        ([[1]], [[3]], 3)


@pytest.mark.parametrize("kind", KINDS)
def test_matrix_round_trips(kind):
    rng = random.Random(1984)
    for _ in range(20):
        m = rand_kind_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), kind)
        assert_canonical(m)
        assert ExactMatrix(m.rows()) == m
        assert ExactMatrix.from_numerators(*m.numerators()) == m
        assert hash(ExactMatrix(m.rows())) == hash(m)


@pytest.mark.parametrize("kind", KINDS)
def test_matrix_ops_match_entrywise_definitions(kind):
    rng = random.Random(1991)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a, b = (rand_kind_matrix(rng, r, c, kind) for _ in range(2))
        s = rand_entry(rng, kind)
        rp, cp = rng.sample(range(r), r), rng.sample(range(c), c)
        want = {
            "add": (a + b, [[x + y for x, y in zip(ra, rb)]
                            for ra, rb in zip(a.rows(), b.rows())]),
            "sub": (a - b, [[x - y for x, y in zip(ra, rb)]
                            for ra, rb in zip(a.rows(), b.rows())]),
            "scale": (a.scale(s), [[s * x for x in row] for row in a.rows()]),
            "kron": (a.kron(b), [[a[i, j] * b[p, q] for j in range(c)
                                  for q in range(c)]
                                 for i in range(r) for p in range(r)]),
            "conjugate_transpose": (a.conjugate_transpose(),
                                    [[a[i, j].conjugate() for i in range(r)]
                                     for j in range(c)]),
            "permuted": (a.permuted(rp, cp), [[a[i, j] for j in cp]
                                              for i in rp]),
        }
        for name, (got, entries) in want.items():
            assert got == ExactMatrix(entries), name
            assert [list(row) for row in got.rows()] == entries, name
            assert_canonical(got)
        # square matrices: a general one, a diagonal one and s I
        diag = ExactMatrix.diagonal([rand_entry(rng, kind) for _ in range(r)])
        for m in (rand_kind_matrix(rng, r, r, kind), diag,
                  ExactMatrix.identity(r).scale(s)):
            off = [m[i, j] for i in range(r) for j in range(r) if i != j]
            assert m.is_diagonal() == (not any(off))
            on = {m[i, i] for i in range(r)}
            scalar = on.pop() if m.is_diagonal() and len(on) == 1 else None
            assert m.scalar_value() == scalar


def test_only_exact_imports_its_private_names():
    """The matrix form stays inside `exact`: no other module imports one
    of its private names, apart from the elimination kernel `_bareiss`
    and the snap tolerance."""
    allowed = {"_bareiss", "_SNAP_TOLERANCE"}
    leaks = []
    for path in sorted(Path(schemekit.__file__).parent.glob("*.py")):
        if path.stem == "exact":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "exact"):
                leaks += [(path.stem, alias.name) for alias in node.names
                          if alias.name.startswith("_")
                          and alias.name not in allowed]
    assert leaks == []


def test_induced_matrix_matches_substitution():
    """Row gamma of induced(M, n) is s^gamma under s -> M s, on
    fractional and complex matrices."""
    rng = random.Random(1044)
    for k, n, kind in ((2, 0, "gauss"), (2, 3, "gauss"), (3, 2, "gauss"),
                       (3, 3, "real"), (4, 2, "gauss"), (1, 4, "gauss"),
                       (2, 5, "int")):
        m = rand_kind_matrix(rng, k, k, kind)
        got = induced_matrix(m, n)
        comps = compositions(n, k)
        for gamma in comps:
            image = substitute_linear(MPoly.monomial(gamma), m)
            assert got.row(composition_index(n, k)[gamma]) == tuple(
                image.coefficient(alpha) for alpha in comps)


def _by_substitution(M, n):
    """induced_matrix(M, n) from the images of the monomials under
    s -> M s, multiplied out as polynomials."""
    comps = compositions(n, M.nrows)
    return ExactMatrix([
        [substitute_linear(MPoly.monomial(gamma), M).coefficient(alpha)
         for alpha in comps] for gamma in comps])


@pytest.fixture
def induced_dtypes(monkeypatch):
    """The dtypes of the numerator arrays of each induced matrix made
    while the test runs."""
    seen = []
    induced_numerators = exact_module._induced_numerators

    def spy(re, im, n):
        parts = induced_numerators(re, im, n)
        seen.extend(x.dtype.name for x in parts)
        return parts

    monkeypatch.setattr(exact_module, "_induced_numerators", spy)
    return seen


# (M, n, dtype): L is the largest row sum of |re| + |im| of the numerators
@pytest.mark.parametrize("M, n, dtype", [
    # L^2 = (2^31 - 1)^2 < 2^62, with an entry of that size
    (ExactMatrix([[2**31 - 1, 0], [1, -1]]), 2, "int64"),
    # L^2 = 2^62 exactly: the bound is strict
    (ExactMatrix([[2**31, 0], [1, -1]]), 2, "object"),
    # an entry of 2^64 + 2^33 + 1, which int64 would wrap
    (ExactMatrix([[2**32 + 1, 0], [1, -1]]), 2, "object"),
    # an entry of 18 * 2^60 i: (3 * 2^30 (1 + i))^2
    (ExactMatrix([[GaussRat(3 * 2**30, 3 * 2**30), 1], [GaussRat(0, 1), 2]]),
     2, "object"),
    (eigenmatrix(group_scheme([4])), 2, "int64"),
    (dual_eigenmatrix(eigenmatrix(cycle_scheme(6)), 6), 2, "int64"),
    # denominator 6: the numerators are induced, over 6^n
    (ExactMatrix([[Fraction(1, 2), GaussRat(Fraction(1, 3), -1)],
                  [GaussRat(0, Fraction(-5, 6)), 3]]), 4, "int64"),
    (ExactMatrix([[GaussRat(7, -7)]]), 16, "int64"),
    (ExactMatrix([[GaussRat(7, -7)]]), 17, "object"),
], ids=["below", "at", "past-2^63", "past-2^63-complex", "group:4",
        "Q-cycle:6", "fractional", "1x1-below", "1x1-above"])
def test_induced_matrix_dtype_and_substitution_oracle(M, n, dtype,
                                                      induced_dtypes):
    """induced_matrix equals the substitution oracle on both sides of
    the int64 bound L^n < 2^62, and takes the dtype that bound says."""
    assert induced_matrix(M, n) == _by_substitution(M, n)
    assert set(induced_dtypes) == {dtype}


def _by_products(M, n):
    """induced_matrix(M, n) with row gamma the product of the linear
    forms (M s)_j, gamma_j times each, multiplied out on the numerators
    as dicts from exponent tuples to Gaussian integers (a, b)."""
    re, im, D = M.numerators()
    k = M.nrows
    unit = [tuple(int(t == i) for t in range(k)) for i in range(k)]
    forms = [{unit[i]: (re[j][i], im[j][i] if im else 0) for i in range(k)}
             for j in range(k)]
    comps = compositions(n, k)
    rows = []
    for gamma in comps:
        poly = {(0,) * k: (1, 0)}
        for j, e in enumerate(gamma):
            for _ in range(e):
                out = {}
                for x, (a, b) in poly.items():
                    for y, (c, d) in forms[j].items():
                        z = tuple(map(sum, zip(x, y)))
                        p, q = out.get(z, (0, 0))
                        out[z] = (p + a * c - b * d, q + a * d + b * c)
                poly = out
        rows.append([poly.get(alpha, (0, 0)) for alpha in comps])
    return ExactMatrix.from_numerators([[a for a, _ in r] for r in rows],
                                       [[b for _, b in r] for r in rows], D**n)


@pytest.mark.parametrize("M, n, dtype", [
    (eigenmatrix(group_scheme([4])), 6, "int64"),
    (dual_eigenmatrix(eigenmatrix(group_scheme([4])), 4), 6, "int64"),
    (eigenmatrix(hamming(2, 2)), 7, "int64"),
    # L = 2: 2^61 and 2^62 on either side of the bound
    (eigenmatrix(one_class(2)), 61, "int64"),
    (eigenmatrix(one_class(2)), 62, "object"),
], ids=["P-group:4", "Q-group:4", "hamming:2:2", "binary-61", "binary-62"])
def test_induced_matrix_matches_products_of_linear_forms(M, n, dtype,
                                                         induced_dtypes):
    assert induced_matrix(M, n) == _by_products(M, n)
    assert set(induced_dtypes) == {dtype}


@pytest.mark.parametrize("base", [
    one_class(3), hamming(2, 3), group_scheme([4]), group_scheme([2, 2]),
    cycle_scheme(4), cycle_scheme(6),
], ids=["one_class:3", "hamming:2:3", "group:4", "group:2:2", "cycle:4",
        "cycle:6"])
def test_induced_P_times_induced_Q_is_v_to_the_n(base):
    P = eigenmatrix(base)
    Q = dual_eigenmatrix(P, base.v)
    for n in (1, 2, 3):
        product = induced_matrix(P, n) @ induced_matrix(Q, n)
        assert product == ExactMatrix.identity(product.nrows).scale(
            base.v ** n)


def random_code_of(rng, base, n, size):
    words = set()
    while len(words) < size:
        words.add(tuple(rng.randrange(base.v) for _ in range(n)))
    return Code(sorted(words), base)


def transform_by_substitution(W, P, v, code_size):
    return substitute_linear(W, P.inverse()) * GaussRat(
        Fraction(v ** W.degree(), code_size))


@pytest.mark.parametrize("base,n", [
    (one_class(2), 4), (one_class(3), 3), (group_scheme([4]), 2),
    (group_scheme([2, 2]), 2), (cycle_scheme(4), 2),
], ids=["one_class:2", "one_class:3", "group:4", "group:2:2", "cycle:4"])
def test_transform_matches_substitution_and_direct_oracle(base, n):
    rng = random.Random(1011 + n)
    P = eigenmatrix(base)
    for size in (1, 3, 7):
        code = random_code_of(rng, base, n, size)
        W = weight_enumerator(code)
        got = macwilliams_transform(W, P, base.v, len(code))
        assert got == transform_by_substitution(W, P, base.v, len(code))
        assert got == dual_weight_enumerator_direct(code)
        # two more letters: too many words for the direct oracle
        code = random_code_of(rng, base, n + 2, 2 * size)
        W = weight_enumerator(code)
        assert macwilliams_transform(W, P, base.v, len(code)) == \
            transform_by_substitution(W, P, base.v, len(code))
