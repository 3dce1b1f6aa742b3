"""Each reference in `oracles` against the route it checks, on one fixed
seeded set: the benchmark's base schemes, a fusion and an orbit fusion,
seeded random and additive codes over them, and the nested composites
of those bases (and of cycle:5) within the tables' vertex cap.  Also
pins the public surface: the references are not part of the package."""

import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import schemekit
from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.codes import (
    Code,
    dual_code,
    macwilliams_transform,
    weight_enumerator,
)
from schemekit.exact import ExactMatrix, induced_matrix
from schemekit.genham import build_explicit, fusion_check_trans
from schemekit.scheme import (
    TranslationStructure,
    eigenmatrix,
    fusion,
    orbit_fusion,
)

import oracles
from oracles import (
    class_of,
    dual_weight_enumerator_direct,
    element,
    exact_idempotents,
    fusion_check_tables,
    vertex,
)

BASES = {
    "one_class:2": one_class(2),
    "one_class:3": one_class(3),
    "one_class:5": one_class(5),
    "cycle:4": cycle_scheme(4),
    "cycle:6": cycle_scheme(6),
    "group:4": group_scheme([4]),
    "group:2:2": group_scheme([2, 2]),
    "hamming:2:2": hamming(2, 2),
    "lee_fusion": fusion(group_scheme([4]), [[0], [1, 3], [2]]),
    "orbit_fusion": orbit_fusion(one_class(2), 4, [(1, 2, 3, 0)]),
}

# largest word space (v^n) on which the scalar oracles run
_ORACLE_WORDS = 36


def _lengths(base):
    return [n for n in (1, 2) if base.v ** n <= _ORACLE_WORDS] or [1]


def _words(base, n, vertices):
    return [tuple(w) for w in
            TranslationStructure((base.v,) * n).digits(vertices).tolist()]


def _random_code(rng, base, n):
    size = rng.randint(1, min(8, base.v ** n))
    return Code(_words(base, n, rng.sample(range(base.v ** n), size)), base, n)


def _additive_code(rng, base, n):
    """The subgroup of (base group)^n spanned by up to two random words."""
    tr = base.translation
    orders = np.array(tr.orders * n)
    span = {(0,) * len(orders)}
    for _ in range(rng.randrange(3)):
        g = np.array([rng.randrange(m) for m in orders])
        span = {tuple(((np.array(s) + t * g) % orders).tolist())
                for s in span for t in range(int(orders.max()))}
    flat = np.array(sorted(span)).reshape(len(span), n, len(tr.orders))
    return Code([tuple(w) for w in tr.index(flat).tolist()], base, n)


@pytest.mark.parametrize("name", BASES)
def test_element_and_vertex_match_digits_and_index(name):
    tr = BASES[name].translation
    rng = np.random.default_rng(len(name))
    for n in (1, 2):
        group = TranslationStructure(tr.orders * n)
        digits = group.digits(np.arange(group.size))
        assert [tuple(row) for row in digits.tolist()] == \
            [element(group.orders, x) for x in range(group.size)]
        # index takes digits mod the orders, as the scalar vertex does
        shifted = digits + rng.integers(-3, 4, size=digits.shape) * group.orders
        assert group.index(shifted).tolist() == \
            [vertex(group.orders, row) for row in shifted.tolist()]


@pytest.mark.parametrize("name", BASES)
def test_class_of_matches_build_explicit(name):
    base = BASES[name]
    for n in _lengths(base):
        words = list(itertools.product(range(base.v), repeat=n))
        want = [[class_of(base, x, y) for y in words] for x in words]
        assert (build_explicit(base, n).relation == np.array(want)).all()


@pytest.mark.parametrize("name", BASES)
def test_exact_idempotents_diagonalise_the_relations(name):
    base = BASES[name]
    P = eigenmatrix(base)
    E = exact_idempotents(base)
    assert sum(E[1:], E[0]) == ExactMatrix.identity(base.v)
    for j in range(base.d + 1):
        A = ExactMatrix((base.relation == j).astype(int).tolist())
        for i, Ei in enumerate(E):
            assert A @ Ei == Ei.scale(P[i, j]), (j, i)
    for Ei in E:
        assert Ei @ Ei == Ei


@pytest.mark.parametrize("name", BASES)
def test_direct_dual_enumerator_matches_transform(name):
    base = BASES[name]
    P = eigenmatrix(base)
    rng = random.Random(name)
    for n in _lengths(base):
        for _ in range(3):
            code = _random_code(rng, base, n)
            got = macwilliams_transform(weight_enumerator(code), P, base.v,
                                        len(code))
            assert got == dual_weight_enumerator_direct(code), code.words
            code = _additive_code(rng, base, n)
            want = dual_weight_enumerator_direct(code)
            assert want == weight_enumerator(dual_code(code)), code.words
            assert want == macwilliams_transform(weight_enumerator(code), P,
                                                 base.v, len(code))


# the benchmark's eight bases, and a base with no exact P
FUSION_BASES = {name: BASES[name] for name in (
    "one_class:2", "one_class:3", "one_class:5", "cycle:4", "cycle:6",
    "group:4", "group:2:2", "hamming:2:2")} | {"cycle:5": cycle_scheme(5)}


@pytest.mark.parametrize("name, m, n", [
    (name, m, n) for name, base in FUSION_BASES.items()
    for m in range(1, 5) for n in range(1, 5)
    if base.v ** (m * n) <= 4096])  # the tables' vertex cap
def test_fusion_check_trans_matches_the_tables(name, m, n):
    base = FUSION_BASES[name]
    got = fusion_check_trans(base, m, n)
    assert got == fusion_check_tables(base, m, n)
    assert list(got.split_classes) == sorted(got.split_classes)


@pytest.mark.parametrize("name", [name for name in FUSION_BASES
                                  if name != "cycle:5"])
def test_fusion_mapping_is_a_fusion_of_eigenmatrices(name):
    """Summing the columns of induced(induced(P, n), m) over each coarse
    class gives row mapping[beta] of induced(P, m n) in row beta: the
    coarse scheme is a fusion of the fine one, read on eigenmatrices."""
    P = eigenmatrix(FUSION_BASES[name])
    for m, n in itertools.product((1, 2), repeat=2):
        mapping = fusion_check_trans(FUSION_BASES[name], m, n).mapping
        fine = induced_matrix(induced_matrix(P, n), m)
        coarse = induced_matrix(P, m * n)
        fuse = ExactMatrix([[int(k == c) for c in range(coarse.ncols)]
                            for k in mapping])
        assert fine @ fuse == ExactMatrix([coarse.row(k) for k in mapping])


# -- the public surface ----------------------------------------------------

MOVED = ("dual_weight_enumerator_direct", "exact_idempotents", "_arrangements",
         "element", "vertex", "class_of")


def test_all_is_sorted_and_resolves():
    assert schemekit.__all__ == sorted(schemekit.__all__)
    for name in schemekit.__all__:
        assert getattr(schemekit, name, None) is not None, name


def test_oracles_are_not_in_the_package():
    assert not set(MOVED) & set(schemekit.__all__)
    for module in (schemekit.codes, schemekit.scheme, schemekit.genham):
        for name in MOVED:
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("element", "vertex", "add", "sub", "neg"):
        assert not hasattr(schemekit.TranslationStructure, name), name
    assert not hasattr(schemekit.GHScheme, "class_of")
    assert all(callable(getattr(oracles, name)) for name in MOVED)


def test_package_does_not_import_tests():
    src = Path(schemekit.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in ("tests", "oracles")
                           for n in names), (path.name, names)
