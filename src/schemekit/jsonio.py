"""JSON-friendly encodings for exact values used by the CLI.

Rationals travel as strings ("3", "-1/2") so nothing is ever rounded.
Gaussian rationals are {"re": "...", "im": "..."} objects; the string
parser also accepts compact forms like "2+2i", "-i", "1/2-3/4i".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

import numpy as np

from .errors import CertificationFailure, FormatError
from .exact import ExactMatrix, GaussRat, MPoly
from .scheme import AssociationScheme, certify_eigenmatrix


def fraction_to_str(f):
    return str(Fraction(f))


def parse_fraction(s):
    if isinstance(s, (bool, float)):  # a float may be rounded already
        raise FormatError("bad rational %r: not a JSON integer or string"
                          % (s,))
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError("bad rational %r: %s" % (s, e)) from None


def gauss_to_obj(g):
    return {"re": fraction_to_str(g.re), "im": fraction_to_str(g.im)}


def parse_gauss(obj):
    """Accept {"re","im"} objects, bare rationals, or compact strings;
    a JSON boolean or float is refused by `parse_fraction`."""
    if isinstance(obj, dict):
        return GaussRat(parse_fraction(obj.get("re", 0)),
                        parse_fraction(obj.get("im", 0)))
    if not isinstance(obj, str):
        return GaussRat(parse_fraction(obj))
    s = obj.strip().replace(" ", "")
    if not s:
        raise FormatError("empty number")
    if not s.endswith(("i", "I")):
        return GaussRat(parse_fraction(s))
    body = s[:-1]
    # split off a trailing imaginary term: sign position past index 0,
    # not inside a denominator ('/').
    k = max(body.rfind("+"), body.rfind("-", 1))
    if k > 0 and body[k - 1] == "/":
        raise FormatError("bad number %r" % s)
    if k <= 0:
        re_part, im_part = "", body
    else:
        re_part, im_part = body[:k], body[k:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = parse_fraction(im_part)
    re = parse_fraction(re_part) if re_part else Fraction(0)
    return GaussRat(re, im)


def _ratio_str(a, D):
    """str(Fraction(a, D)) for an int a and a positive int D."""
    g = gcd(a, D)
    return str(a // g) if g == D else "%d/%d" % (a // g, D // g)


def matrix_to_obj(M):
    """The entries as {"re", "im"} objects, formatted from the matrix's
    Gaussian-integer numerators over its one denominator."""
    re, im, D = M.numerators()
    return [[{"re": _ratio_str(a, D), "im": _ratio_str(b, D)}
             for a, b in zip(ra, ia)]
            for ra, ia in zip(re, im or [[0] * M.ncols] * M.nrows)]


def parse_matrix(obj):
    if not isinstance(obj, list) or not obj:
        raise FormatError("matrix must be a non-empty list of rows")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list) or not row:
            raise FormatError("matrix rows must be non-empty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError("ragged matrix")
        rows.append([parse_gauss(x) for x in row])
    return ExactMatrix(rows)


def scheme_to_obj(scheme):
    obj = {
        "v": scheme.v,
        "d": scheme.d,
        "relation": scheme.relation.tolist(),
    }
    if scheme.P is not None:
        obj["P"] = matrix_to_obj(scheme.P)
    return obj


def parse_scheme_obj(obj):
    """The relation table and the attached "P" (or None) of a scheme
    JSON object, checked for format only: the axioms are not verified
    and P is not certified.  v, d and the relation entries must be
    integers (not floats or booleans), the entries within int64."""
    if not isinstance(obj, dict):
        raise FormatError("scheme object must be a JSON object")
    for key in ("v", "d", "relation"):
        if key not in obj:
            raise FormatError("scheme object missing %r" % key)
    for key in ("v", "d"):
        if type(obj[key]) is not int:
            raise FormatError("%s must be an integer, got %r"
                              % (key, obj[key]))
    try:
        relation = np.array(obj["relation"], dtype=np.int64)
    except (TypeError, ValueError) as e:
        raise FormatError("bad relation table: %s" % e) from None
    except OverflowError:
        raise FormatError("bad relation table: an entry is outside "
                          "int64") from None
    if relation.ndim != 2 or relation.shape[0] != relation.shape[1]:
        raise FormatError("relation table must be square")
    # the int64 cast truncates floats and reads booleans and digit strings
    kinds = set(map(type, chain.from_iterable(obj["relation"]))) - {int}
    if kinds:
        raise FormatError("bad relation table: entries must be integers, "
                          "got %s" % ", ".join(sorted(t.__name__
                                                      for t in kinds)))
    if relation.shape[0] != obj["v"]:
        raise FormatError("relation size %d does not match v=%s"
                          % (relation.shape[0], obj["v"]))
    if relation.size and int(relation.max()) != obj["d"]:
        raise FormatError("relation classes do not match d=%s" % obj["d"])
    P = parse_matrix(obj["P"]) if obj.get("P") is not None else None
    return relation, P


def scheme_from_obj(obj):
    """The scheme of a JSON object, by `_certified_scheme`."""
    return _certified_scheme(*parse_scheme_obj(obj))


def _certified_scheme(relation, P):
    """The scheme of a relation table with an attached P or None.

    The table is verified, and P is attached only after it passes
    certify_eigenmatrix; otherwise CertificationFailure is raised.
    """
    scheme = AssociationScheme(relation)
    if P is not None and not certify_eigenmatrix(scheme, P):
        raise CertificationFailure("the attached P is not the eigenmatrix "
                                   "of the scheme")
    scheme.P = P
    return scheme


def poly_to_obj(p):
    return {
        "nvars": p.nvars,
        "terms": [{"exponents": list(e), "coeff": gauss_to_obj(c)}
                  for e, c in p.sorted_terms()],
    }


def poly_from_obj(obj):
    """The MPoly of a polynomial object: "nvars", a positive integer,
    and a list of "terms", each an object with a "coeff" and nvars
    "exponents", non-negative integers (not floats or booleans)."""
    if not isinstance(obj, dict) or "nvars" not in obj:
        raise FormatError("polynomial object missing 'nvars'")
    nvars, terms = obj["nvars"], obj.get("terms", [])
    if type(nvars) is not int or nvars < 1:
        raise FormatError("nvars must be a positive integer, got %r"
                          % (nvars,))
    if not isinstance(terms, list):
        raise FormatError("terms must be a list, got %r" % (terms,))
    p = MPoly.zero(nvars)
    for term in terms:
        e = term.get("exponents") if isinstance(term, dict) else None
        if (not isinstance(e, list) or len(e) != nvars or "coeff" not in term
                or any(type(x) is not int or x < 0 for x in e)):
            raise FormatError("bad term %r: needs a 'coeff' and %d "
                              "non-negative integer 'exponents'"
                              % (term, nvars))
        p = p + MPoly.monomial(tuple(e), parse_gauss(term["coeff"]))
    return p


def parse_code_file(text):
    """Codewords, one per line, digits separated by whitespace."""
    words = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            word = tuple(int(x) for x in line.split())
        except ValueError:
            raise FormatError("line %d: not integers: %r"
                              % (lineno, line)) from None
        words.append(word)
    if not words:
        raise FormatError("no codewords found")
    return words
