"""Command-line front end.

Subcommands: scheme build|verify|eigen|krein|fuse, gh build|eigen|
fusion-check, code enumerate|transform|dual|z4|gray-check, modinv
verify|search|lift.  Exit codes: 0 success, 1 mathematical failure
(axiom violation, non-additive code, no scalar cube, an attached P that
fails certification, ...), 2 usage, I/O, or format error (a size below
1, or a vertex or composite class count above --cap, included).  Errors
print an `error:` line on stderr and nothing on stdout.  --json switches
every command to structured output with rationals serialized as exact
strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from . import builders, jsonio
from .codes import (
    Code,
    dual_code,
    gray_lee_check,
    macwilliams_transform,
    weight_enumerator,
    z4_enumerators,
)
from .errors import FormatError, MathError, SchemeKitError, SizeCapExceeded
from .exact import ExactMatrix
from .genham import build_explicit, eigenmatrix_gh, fusion_check_trans
from .modular import induced_modular_check, search_T, verify_modular
from .scheme import (
    dual_eigenmatrix,
    eigenmatrix,
    fusion,
    krein_parameters,
    numeric_eigenmatrix,
    verify_axioms,
)

_BUILDER_NAMES = ("one_class", "hamming", "group", "cycle")

_BASE_HELP = ("builder spec (one_class:2, hamming:2:3, group:2:4, cycle:5), "
              "a scheme JSON file, or - for stdin")


# -- input plumbing ------------------------------------------------------


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _build_named(name, int_args, cap):
    def expect(k):
        if len(int_args) != k:
            raise FormatError("builder %r takes %d integer argument%s, got %d"
                              % (name, k, "" if k == 1 else "s", len(int_args)))

    if name == "one_class":
        expect(1)
        return builders.one_class(int_args[0])
    if name == "hamming":
        expect(2)
        return builders.hamming(int_args[0], int_args[1], cap=cap)
    if name == "cycle":
        expect(1)
        return builders.cycle_scheme(int_args[0], cap=cap)
    if name == "group":
        if not int_args:
            raise FormatError("builder 'group' needs at least one order")
        return builders.group_scheme(list(int_args), cap=cap)
    raise FormatError("unknown builder %r (expected one of %s)"
                      % (name, ", ".join(_BUILDER_NAMES)))


def _build_spec(spec, cap):
    """The scheme of a builder spec, or None if spec is a file or '-'."""
    head = spec.split(":", 1)[0]
    if spec == "-" or head not in _BUILDER_NAMES:
        return None
    try:
        int_args = [int(x) for x in spec.split(":")[1:]]
    except ValueError:
        raise FormatError("bad builder spec %r: arguments must be "
                          "integers" % spec) from None
    return _build_named(head, int_args, cap)


def _read_json(spec):
    try:
        return json.loads(_read_text(spec))
    except json.JSONDecodeError as e:
        raise FormatError("bad JSON in %r: %s" % (spec, e)) from None


def _load_scheme(spec, cap):
    """Scheme from a builder spec, a JSON file path, or '-' (stdin)."""
    scheme = _build_spec(spec, cap)
    if scheme is None:
        scheme = jsonio.scheme_from_obj(_read_json(spec))
    return scheme


def _check_class_cap(base, n, cap):
    """SizeCapExceeded unless the n-fold composite over base has at most
    cap classes, C(n+d, d)."""
    classes = comb(n + base.d, base.d)
    if classes > cap:
        raise SizeCapExceeded("C(%d+%d, %d) = %d composite classes exceeds "
                              "cap %d" % (n, base.d, base.d, classes, cap))


def _load_code(args):
    base = _load_scheme(args.base, args.cap)
    words = jsonio.parse_code_file(_read_text(args.file))
    code = Code(words, base)
    if getattr(args, "n", None) is not None and code.n != args.n:
        raise FormatError("codewords have length %d, but --n says %d"
                          % (code.n, args.n))
    return code


def _parse_diagonal(text):
    entries = [jsonio.parse_gauss(tok) for tok in text.split(",") if tok.strip()]
    if not entries:
        raise FormatError("empty diagonal for --T")
    return ExactMatrix.diagonal(entries)


def _parse_blocks(text):
    blocks = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            blocks.append([int(x) for x in part.split(",")])
        except ValueError:
            raise FormatError("bad block %r in --blocks" % part) from None
    if not blocks:
        raise FormatError("empty --blocks")
    return blocks


# -- output plumbing -----------------------------------------------------


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _matrix_lines(M):
    return ["  ".join(str(M[i, j]) for j in range(M.ncols))
            for i in range(M.nrows)]


def _print_matrix(label, M):
    print("%s:" % label)
    for line in _matrix_lines(M):
        print("  " + line)


def _scheme_human(s):
    lines = [
        "v = %d" % s.v,
        "d = %d" % s.d,
        "valencies = %s" % [int(x) for x in s.valencies()],
        "symmetric = %s" % s.is_symmetric(),
    ]
    if s.translation is not None:
        lines.append("translation orders = %s" % (tuple(s.translation.orders),))
    print("\n".join(lines))
    if s.P is not None:
        _print_matrix("P", s.P)


def _poly_obj_or_str(p, as_json, names=None):
    return jsonio.poly_to_obj(p) if as_json else p.to_str(names)


# -- scheme --------------------------------------------------------------


def cmd_scheme_build(args):
    s = _build_named(args.name, args.args, args.cap)
    if args.json:
        _emit(jsonio.scheme_to_obj(s))
    else:
        _scheme_human(s)
    return 0


def cmd_scheme_verify(args):
    s = _build_spec(args.source, args.cap)
    if s is not None:
        relation = s.relation
    else:
        relation, _P = jsonio.parse_scheme_obj(_read_json(args.source))
    report = verify_axioms(relation)
    if args.json:
        checks = []
        for c in report.checks:
            witness = None
            if c.witness is not None:
                witness = [int(x) for x in c.witness]
            checks.append({"axiom": c.axiom, "name": c.name, "ok": c.ok,
                           "witness": witness, "detail": c.detail})
        _emit({"ok": report.ok, "checks": checks})
    else:
        print(report)
    return 0 if report.ok else 1


def cmd_scheme_eigen(args):
    s = _load_scheme(args.source, args.cap)
    if args.numeric:
        P = numeric_eigenmatrix(s)
        if args.json:
            _emit({"P_numeric": [[{"re": z.real, "im": z.imag} for z in row]
                                 for row in P.tolist()]})
        else:
            for row in P:
                print("  ".join("%.6g%+.6gi" % (z.real, z.imag) for z in row))
        return 0
    P = eigenmatrix(s)
    out = {"P": jsonio.matrix_to_obj(P)}
    if args.dual:
        out["Q"] = jsonio.matrix_to_obj(dual_eigenmatrix(P, s.v))
    if args.json:
        _emit(out)
    else:
        _print_matrix("P", P)
        if args.dual:
            _print_matrix("Q", dual_eigenmatrix(P, s.v))
    return 0


def cmd_scheme_krein(args):
    s = _load_scheme(args.source, args.cap)
    q = krein_parameters(s)
    k = s.d + 1
    table = [[[jsonio.fraction_to_str(q[i, j, r].re) for r in range(k)]
              for j in range(k)] for i in range(k)]
    if args.json:
        _emit({"q": table})
    else:
        for i in range(k):
            print("q[%d][j][r]:" % i)
            for j in range(k):
                print("  " + "  ".join(table[i][j]))
    return 0


def cmd_scheme_fuse(args):
    s = _load_scheme(args.source, args.cap)
    out = fusion(s, _parse_blocks(args.blocks))
    if args.json:
        _emit(jsonio.scheme_to_obj(out))
    else:
        _scheme_human(out)
    return 0


# -- gh ------------------------------------------------------------------


def cmd_gh_build(args):
    base = _load_scheme(args.base, args.cap)
    s = build_explicit(base, args.n, cap=args.cap)
    if args.json:
        _emit(jsonio.scheme_to_obj(s))
    else:
        _scheme_human(s)
    return 0


def cmd_gh_eigen(args):
    base = _load_scheme(args.base, args.cap)
    _check_class_cap(base, args.n, args.cap)
    P = eigenmatrix_gh(eigenmatrix(base), args.n)
    if args.json:
        _emit({"P": jsonio.matrix_to_obj(P)})
    else:
        _print_matrix("P", P)
    return 0


def cmd_gh_fusion_check(args):
    base = _load_scheme(args.base, args.cap)
    rep = fusion_check_trans(base, args.m, args.n, cap=args.cap)
    if args.json:
        split = None
        if rep.split_classes is not None:
            split = {str(k): [int(x) for x in v]
                     for k, v in rep.split_classes.items()}
        _emit({"ok": rep.ok,
               "mapping": list(rep.mapping) if rep.mapping else None,
               "split_classes": split,
               "detail": rep.detail})
    else:
        print("fusion holds" if rep.ok else "fusion FAILS: %s" % rep.detail)
        if rep.ok and rep.split_classes:
            for k, v in sorted(rep.split_classes.items()):
                print("  coarse class %d splits into fine classes %s"
                      % (k, list(v)))
    return 0 if rep.ok else 1


# -- code ----------------------------------------------------------------


def cmd_code_enumerate(args):
    code = _load_code(args)
    W = weight_enumerator(code)
    out = _poly_obj_or_str(W, args.json)
    _emit(out) if args.json else print(out)
    return 0


def cmd_code_transform(args):
    code = _load_code(args)
    _check_class_cap(code.base, code.n, args.cap)
    P = eigenmatrix(code.base)
    W = weight_enumerator(code)
    dual = macwilliams_transform(W, P, code.base.v, len(code))
    names = ["t%d" % i for i in range(dual.nvars)]
    out = _poly_obj_or_str(dual, args.json, names)
    _emit(out) if args.json else print(out)
    return 0


def cmd_code_dual(args):
    code = _load_code(args)
    dual = dual_code(code, cap=args.cap)
    if args.json:
        _emit({"size": len(dual), "words": [list(w) for w in dual.words]})
    else:
        for w in dual.words:
            print(" ".join(str(x) for x in w))
    return 0


def _load_z4_code(args):
    base = builders.group_scheme([4], cap=args.cap)
    words = jsonio.parse_code_file(_read_text(args.file))
    return Code(words, base)


def cmd_code_z4(args):
    code = _load_z4_code(args)
    enums = z4_enumerators(code)
    if args.json:
        _emit({"complete": jsonio.poly_to_obj(enums.complete),
               "symmetrized": jsonio.poly_to_obj(enums.symmetrized),
               "lee": jsonio.poly_to_obj(enums.lee)})
    else:
        print("complete:    %s" % enums.complete.to_str(["x0", "x1", "x2", "x3"]))
        print("symmetrized: %s" % enums.symmetrized.to_str(["x0", "x1", "x2"]))
        print("lee:         %s" % enums.lee.to_str(["s", "t"]))
    return 0


def cmd_code_gray_check(args):
    code = _load_z4_code(args)
    ok = gray_lee_check(code)
    if args.json:
        _emit({"holds": ok})
    else:
        print("Gray/Lee identity holds" if ok else "Gray/Lee identity FAILS")
    return 0 if ok else 1


# -- modinv --------------------------------------------------------------


def _witness_obj(w):
    return {"T": [jsonio.gauss_to_obj(w.T[i, i]) for i in range(w.T.nrows)],
            "c": jsonio.gauss_to_obj(w.c)}


def _witness_human(w):
    diag = ", ".join(str(w.T[i, i]) for i in range(w.T.nrows))
    return "T = diag(%s), c = %s" % (diag, w.c)


def cmd_modinv_verify(args):
    P = eigenmatrix(_load_scheme(args.base, args.cap))
    w = verify_modular(P, _parse_diagonal(args.T))
    _emit(_witness_obj(w)) if args.json else print(_witness_human(w))
    return 0


def cmd_modinv_search(args):
    P = eigenmatrix(_load_scheme(args.base, args.cap))
    w = search_T(P, restarts=args.restarts)
    if w is None:
        if args.json:
            _emit({"found": False,
                   "detail": "search incomplete: no witness within "
                             "%d restarts" % args.restarts})
        else:
            print("search incomplete: no witness within %d restarts"
                  % args.restarts)
        return 1
    _emit({"found": True, **_witness_obj(w)}) if args.json \
        else print(_witness_human(w))
    return 0


def cmd_modinv_lift(args):
    base = _load_scheme(args.base, args.cap)
    _check_class_cap(base, args.n, args.cap)
    P = eigenmatrix(base)
    if args.T is not None:
        w = verify_modular(P, _parse_diagonal(args.T))
    else:
        w = search_T(P)
        if w is None:
            print("search incomplete: no witness found to lift",
                  file=sys.stderr)
            return 1
    rep = induced_modular_check(P, w.T, w.c, args.n)
    ok = rep.holds and rep.matches_expected and rep.t_hat_consistent
    if args.json:
        _emit({"n": args.n,
               "base": _witness_obj(w),
               "holds": rep.holds,
               "constant": (jsonio.gauss_to_obj(rep.constant)
                            if rep.constant is not None else None),
               "expected": jsonio.gauss_to_obj(rep.expected),
               "matches_expected": rep.matches_expected,
               "t_hat_consistent": rep.t_hat_consistent})
    else:
        print("base witness: %s" % _witness_human(w))
        if rep.holds:
            print("lift to degree %d: constant = %s (expected %s, %s); "
                  "diagonal lift consistent: %s"
                  % (args.n, rep.constant, rep.expected,
                     "match" if rep.matches_expected else "MISMATCH",
                     rep.t_hat_consistent))
        else:
            print("lift to degree %d FAILS: cube is not a nonzero scalar"
                  % args.n)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors start with an `error:` line, like every other
    failure, and exit 2."""

    def error(self, message):
        self.exit(2, "error: %s: %s\n%s" % (self.prog, message,
                                              self.format_usage()))


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r"
                                         % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def build_parser():
    parser = _Parser(
        prog="schemekit",
        description="Exact association schemes, composite (Hamming-type) "
                    "schemes, weight-enumerator transforms, and "
                    "modular-invariance checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="structured output with exact rational strings")
    common.add_argument("--cap", type=int, default=4096,
                        help="cap on the vertices of a construction and "
                             "on the classes of a composite (default 4096)")
    top = parser.add_subparsers(dest="command", required=True)

    scheme = top.add_parser("scheme", help="build and analyze schemes")
    ssub = scheme.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("build", parents=[common],
                        help="construct a named scheme")
    p.add_argument("name", help="one of: %s" % ", ".join(_BUILDER_NAMES))
    p.add_argument("args", nargs="*", type=int,
                   help="integer arguments (one_class q | hamming n q | "
                        "group m1 m2 .. | cycle m)")
    p.set_defaults(func=cmd_scheme_build)

    p = ssub.add_parser("verify", parents=[common],
                        help="check the five defining axioms")
    p.add_argument("source", help=_BASE_HELP)
    p.set_defaults(func=cmd_scheme_verify)

    p = ssub.add_parser("eigen", parents=[common],
                        help="exact eigenmatrix (and optionally its dual)")
    p.add_argument("source", help=_BASE_HELP)
    p.add_argument("--dual", action="store_true",
                   help="also print Q = v * P^-1")
    p.add_argument("--numeric", action="store_true",
                   help="print the numeric eigenmatrix without snapping")
    p.set_defaults(func=cmd_scheme_eigen)

    p = ssub.add_parser("krein", parents=[common],
                        help="Krein parameters (exact, checked non-negative)")
    p.add_argument("source", help=_BASE_HELP)
    p.set_defaults(func=cmd_scheme_krein)

    p = ssub.add_parser("fuse", parents=[common],
                        help="merge classes by a partition")
    p.add_argument("source", help=_BASE_HELP)
    p.add_argument("--blocks", required=True,
                   help="partition of 0..d, e.g. \"0;1,3;2\"")
    p.set_defaults(func=cmd_scheme_fuse)

    gh = top.add_parser("gh", help="composite (Hamming-type) schemes H(n, A)")
    gsub = gh.add_subparsers(dest="subcommand", required=True)

    p = gsub.add_parser("build", parents=[common],
                        help="explicit H(n, base) on the word set")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--n", required=True, type=_positive_int,
                   help="number of factors")
    p.set_defaults(func=cmd_gh_build)

    p = gsub.add_parser("eigen", parents=[common],
                        help="eigenmatrix of H(n, base) from the base P")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--n", required=True, type=_positive_int,
                   help="number of factors")
    p.set_defaults(func=cmd_gh_eigen)

    p = gsub.add_parser("fusion-check", parents=[common],
                        help="H(m*n, base) coarsens H(m, H(n, base))")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--m", required=True, type=_positive_int,
                   help="outer factor count")
    p.add_argument("--n", required=True, type=_positive_int,
                   help="inner factor count")
    p.set_defaults(func=cmd_gh_fusion_check)

    code = top.add_parser("code", help="codes and weight enumerators")
    csub = code.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("enumerate", parents=[common],
                        help="weight enumerator of a code file")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--n", type=_positive_int,
                   help="expected word length (cross-check)")
    p.add_argument("file", help="code file (one word per line) or -")
    p.set_defaults(func=cmd_code_enumerate)

    p = csub.add_parser("transform", parents=[common],
                        help="transformed (dual) weight enumerator")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--n", type=_positive_int,
                   help="expected word length (cross-check)")
    p.add_argument("file", help="code file or -")
    p.set_defaults(func=cmd_code_transform)

    p = csub.add_parser("dual", parents=[common],
                        help="dual of an additive code over a translation "
                             "scheme")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--n", type=_positive_int,
                   help="expected word length (cross-check)")
    p.add_argument("file", help="code file or -")
    p.set_defaults(func=cmd_code_dual)

    p = csub.add_parser("z4", parents=[common],
                        help="complete/symmetrized/Lee enumerators of a "
                             "code over the order-4 cyclic group scheme")
    p.add_argument("file", help="code file or -")
    p.set_defaults(func=cmd_code_z4)

    p = csub.add_parser("gray-check", parents=[common],
                        help="binary-image identity for the Lee enumerator")
    p.add_argument("file", help="code file or -")
    p.set_defaults(func=cmd_code_gray_check)

    modinv = top.add_parser("modinv",
                            help="modular invariance (PT)^3 = cI")
    msub = modinv.add_subparsers(dest="subcommand", required=True)

    p = msub.add_parser("verify", parents=[common],
                        help="verify a given diagonal T exactly")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--T", required=True,
                   help="diagonal entries, e.g. \"1,i\" or \"1,1/2-3/4i\"")
    p.set_defaults(func=cmd_modinv_verify)

    p = msub.add_parser("search", parents=[common],
                        help="search for a diagonal T (exactly verified)")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--restarts", type=int, default=200,
                   help="numeric restart budget for larger sizes")
    p.set_defaults(func=cmd_modinv_search)

    p = msub.add_parser("lift", parents=[common],
                        help="check the witness lifts to H(n, base)")
    p.add_argument("--base", required=True, help=_BASE_HELP)
    p.add_argument("--n", required=True, type=_positive_int,
                   help="lift degree")
    p.add_argument("--T", help="diagonal entries; searched if omitted")
    p.set_defaults(func=cmd_modinv_lift)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except MathError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except SchemeKitError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
