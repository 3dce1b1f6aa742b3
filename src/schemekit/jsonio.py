"""JSON-friendly encodings for exact values used by the CLI.

Rationals travel as strings ("3", "-1/2") so nothing is ever rounded.
Gaussian rationals are {"re": "...", "im": "..."} objects; the string
parser also accepts compact forms like "2+2i", "-i", "1/2-3/4i".
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import CertificationFailure, FormatError
from .exact import ExactMatrix, GaussRat, MPoly
from .scheme import AssociationScheme, certify_eigenmatrix


def fraction_to_str(f):
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_fraction(s):
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError("bad rational %r: %s" % (s, e)) from None


def gauss_to_obj(g):
    return {"re": fraction_to_str(g.re), "im": fraction_to_str(g.im)}


def parse_gauss(obj):
    """Accept {"re","im"} objects, bare rationals, or compact strings."""
    if isinstance(obj, dict):
        return GaussRat(parse_fraction(obj.get("re", 0)),
                        parse_fraction(obj.get("im", 0)))
    if isinstance(obj, int):
        return GaussRat(obj)
    s = str(obj).strip().replace(" ", "")
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


def matrix_to_obj(M):
    return [[gauss_to_obj(M[i, j]) for j in range(M.ncols)]
            for i in range(M.nrows)]


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
    and P is not certified."""
    if not isinstance(obj, dict):
        raise FormatError("scheme object must be a JSON object")
    for key in ("v", "d", "relation"):
        if key not in obj:
            raise FormatError("scheme object missing %r" % key)
    try:
        relation = np.array(obj["relation"], dtype=np.int64)
    except (TypeError, ValueError) as e:
        raise FormatError("bad relation table: %s" % e) from None
    if relation.ndim != 2 or relation.shape[0] != relation.shape[1]:
        raise FormatError("relation table must be square")
    if relation.shape[0] != int(obj["v"]):
        raise FormatError("relation size %d does not match v=%s"
                          % (relation.shape[0], obj["v"]))
    if relation.size and int(relation.max()) != int(obj["d"]):
        raise FormatError("relation classes do not match d=%s" % obj["d"])
    P = parse_matrix(obj["P"]) if obj.get("P") is not None else None
    return relation, P


def scheme_from_obj(obj):
    """The scheme of a JSON object.

    The relation table is verified, and an attached "P" is attached only
    after it passes certify_eigenmatrix; otherwise CertificationFailure
    is raised.
    """
    relation, P = parse_scheme_obj(obj)
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
    if not isinstance(obj, dict) or "nvars" not in obj:
        raise FormatError("polynomial object missing 'nvars'")
    nvars = int(obj["nvars"])
    p = MPoly.zero(nvars)
    for term in obj.get("terms", []):
        e = tuple(int(x) for x in term["exponents"])
        if len(e) != nvars or any(x < 0 for x in e):
            raise FormatError("bad exponent tuple %r" % (term["exponents"],))
        p = p + MPoly.monomial(e, parse_gauss(term["coeff"]))
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
