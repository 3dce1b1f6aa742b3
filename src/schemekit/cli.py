"""Command-line front end.

Subcommands: scheme build|verify|eigen|krein|fuse, gh build|eigen|
fusion-check, code enumerate|transform|dual|z4|gray-check, modinv
verify|search|lift.  Exit codes: 0 success, 1 mathematical failure
(axiom violation, non-additive code, no scalar cube, an attached P that
fails certification, no witness to lift, ...), 2 usage, I/O, or format
error (a size below 1, or a size above --cap, included).  --cap bounds
the vertices of a construction and of a JSON table, the words of a code
file, the candidate words of a dual, the classes of a composite, the
fine classes of `gh fusion-check` (which builds no table), and the
classes k of a scheme whose P is formed or inverted, or whose
intersection tensor `scheme verify` counts from a builder spec, by
k^3 <= cap^2 (`scheme._check_tensor_cap`), and the classes k >= 5 of a
scheme that `modinv search` or `modinv lift` searches, which the numeric
witness search serves, by min(restarts, 200) k^3 <= cap^2; each before
the work it bounds, and a builder spec meets the class rules before its
builder runs.
Errors print an `error:` line on stderr and nothing on stdout.  --json
switches every command to structured output with rationals serialized
as exact strings.

Each command prints nothing: it returns one result, its exit code with
its JSON object and its text, and `run` prints the one form asked for
after the command returns.  `run` is the one place output is written.

Each command imports the modules it runs, so `import schemekit.cli`
loads `errors` and `exact` alone and `--help` loads nothing more.
`main`, the process entry point, runs the command with the cyclic
garbage collector off and freezes the heap before exit, since a
command's cyclic garbage does not grow with its input; `run` leaves the
collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import partial
from math import comb, prod

from .errors import (
    DEFAULT_CAP,
    FormatError,
    MathError,
    SchemeKitError,
    SizeCapExceeded,
)
from .exact import ExactMatrix

_BUILDER_NAMES = ("one_class", "hamming", "group", "cycle")

_BASE_HELP = ("builder spec (one_class:2, hamming:2:3, group:2:4, cycle:5), "
              "a scheme JSON file, or - for stdin")


# -- input plumbing ------------------------------------------------------


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _named_builder(name, int_args):
    """The builder call of a named scheme, still to be given its cap, and
    the class count of what it would build, read off the arguments."""
    def expect(k):
        if len(int_args) != k:
            raise FormatError("builder %r takes %d integer argument%s, got %d"
                              % (name, k, "" if k == 1 else "s", len(int_args)))

    if name not in _BUILDER_NAMES:
        raise FormatError("unknown builder %r (expected one of %s)"
                          % (name, ", ".join(_BUILDER_NAMES)))
    from . import builders
    if name == "one_class":
        expect(1)
        return partial(builders.one_class, *int_args), 2
    if name == "hamming":
        expect(2)
        return partial(builders.hamming, *int_args), int_args[0] + 1
    if name == "cycle":
        expect(1)
        return partial(builders.cycle_scheme, *int_args), int_args[0] // 2 + 1
    if not int_args:
        raise FormatError("builder 'group' needs at least one order")
    return partial(builders.group_scheme, list(int_args)), prod(int_args)


def _spec_builder(spec):
    """`_named_builder` of a builder spec, or None if spec is a file or
    '-'."""
    head = spec.split(":", 1)[0]
    if spec == "-" or head not in _BUILDER_NAMES:
        return None
    try:
        int_args = [int(x) for x in spec.split(":")[1:]]
    except ValueError:
        raise FormatError("bad builder spec %r: arguments must be "
                          "integers" % spec) from None
    return _named_builder(head, int_args)


def _read_json(spec):
    try:
        return json.loads(_read_text(spec))
    except json.JSONDecodeError as e:
        raise FormatError("bad JSON in %r: %s" % (spec, e)) from None


def _read_table(spec, cap):
    """The relation table and attached P (or None) of a scheme JSON file
    or '-', refused past cap vertices before anything is verified."""
    from .jsonio import parse_scheme_obj
    relation, P = parse_scheme_obj(_read_json(spec))
    if len(relation) > cap:
        raise SizeCapExceeded("%d vertices exceeds cap %d"
                              % (len(relation), cap))
    return relation, P


def _load_scheme(spec, cap):
    """Scheme from a builder spec, a JSON file path, or '-' (stdin)."""
    named = _spec_builder(spec)
    if named is not None:
        return named[0](cap=cap)
    from .jsonio import _certified_scheme
    return _certified_scheme(*_read_table(spec, cap))


def _load_base(spec, cap):
    """`_load_scheme` for a command that forms or inverts P or counts the
    intersection tensor: refused past the class-count rule of
    `_check_tensor_cap`, which a builder spec meets before its builder
    runs and a JSON table before it is verified."""
    from .scheme import _check_tensor_cap
    named = _spec_builder(spec)
    if named is not None:
        build, classes = named
        _check_tensor_cap(classes, cap)
        return build(cap=cap)
    from .jsonio import _certified_scheme
    relation, P = _read_table(spec, cap)
    _check_tensor_cap(int(relation.max()) + 1, cap)
    return _certified_scheme(relation, P)


def _check_class_cap(base, n, cap):
    """SizeCapExceeded unless the n-fold composite over base has at most
    cap classes, C(n+d, d)."""
    classes = comb(n + base.d, base.d)
    if classes > cap:
        raise SizeCapExceeded("C(%d+%d, %d) = %d composite classes exceeds "
                              "cap %d" % (n, base.d, base.d, classes, cap))


def _check_search_cap(base, restarts, cap):
    """SizeCapExceeded for a base of k >= 5 classes, whose witness search
    runs the numeric stream, past cap^2 complex entries in that stream's
    per-step arrays, min(restarts, 200) k^3 of them."""
    from .modular import _SEARCH_RESTARTS
    k = base.d + 1
    entries = min(restarts, _SEARCH_RESTARTS) * k**3
    if k >= 5 and entries > cap**2:
        raise SizeCapExceeded("%d classes: %d entries per step of the "
                              "numeric witness search exceed cap^2 = %d"
                              % (k, entries, cap**2))


def _read_code(args, base):
    """The code in args.file over base, refused past --cap words before
    any pair is profiled (the enumerator is |C|^2 work), with the word
    length of --n where a command has it."""
    from .codes import Code
    from .jsonio import parse_code_file
    words = parse_code_file(_read_text(args.file))
    if len(words) > args.cap:
        raise SizeCapExceeded("%d code words exceeds cap %d"
                              % (len(words), args.cap))
    code = Code(words, base)
    if getattr(args, "n", None) is not None and code.n != args.n:
        raise FormatError("codewords have length %d, but --n says %d"
                          % (code.n, args.n))
    return code


def _parse_diagonal(text):
    from .jsonio import parse_gauss
    entries = [parse_gauss(tok) for tok in text.split(",") if tok.strip()]
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


# -- results -------------------------------------------------------------
#
# Each command returns (exit code, JSON object, text), the two forms as
# functions of no arguments: `run` builds and prints the one asked for.
# Building the other could cost more than the command's own work (the
# v x v table of a scheme, every entry of a large P as an object).


def _matrix_text(label, M):
    return "\n".join(["%s:" % label] + [
        "  " + "  ".join(str(M[i, j]) for j in range(M.ncols))
        for i in range(M.nrows)])


def _scheme_result(s):
    from .jsonio import scheme_to_obj
    lines = [
        "v = %d" % s.v,
        "d = %d" % s.d,
        "valencies = %s" % [int(x) for x in s.valencies()],
        "symmetric = %s" % s.is_symmetric(),
    ]
    if s.translation is not None:
        lines.append("translation orders = %s" % (tuple(s.translation.orders),))
    if s.P is not None:
        lines.append(_matrix_text("P", s.P))
    return 0, partial(scheme_to_obj, s), lambda: "\n".join(lines)


# -- scheme --------------------------------------------------------------


def cmd_scheme_build(args):
    build, _classes = _named_builder(args.name, args.args)
    return _scheme_result(build(cap=args.cap))


def cmd_scheme_verify(args):
    from .scheme import _axiom_report, verify_axioms
    if _spec_builder(args.source) is None:
        report = verify_axioms(_read_table(args.source, args.cap)[0])
    else:
        report = _axiom_report(_load_base(args.source, args.cap))
    return 0 if report.ok else 1, lambda: {"ok": report.ok, "checks": [
        {"axiom": c.axiom, "name": c.name, "ok": c.ok,
         "witness": (None if c.witness is None
                     else [int(x) for x in c.witness]),
         "detail": c.detail} for c in report.checks]}, partial(str, report)


def cmd_scheme_eigen(args):
    from .jsonio import matrix_to_obj
    from .scheme import dual_eigenmatrix, eigenmatrix, numeric_eigenmatrix
    s = _load_base(args.source, args.cap)
    if args.numeric:
        P = numeric_eigenmatrix(s).tolist()
        return 0, lambda: {"P_numeric": [
            [{"re": z.real, "im": z.imag} for z in row] for row in P]}, \
            lambda: "\n".join("  ".join("%.6g%+.6gi" % (z.real, z.imag)
                                        for z in row) for row in P)
    P = eigenmatrix(s)
    out = {"P": P}
    if args.dual:
        out["Q"] = dual_eigenmatrix(P, s.v)
    return 0, lambda: {k: matrix_to_obj(M) for k, M in out.items()}, \
        lambda: "\n".join(_matrix_text(k, M) for k, M in out.items())


def cmd_scheme_krein(args):
    from .jsonio import fraction_to_str
    from .scheme import krein_parameters
    s = _load_base(args.source, args.cap)
    q = krein_parameters(s)
    k = s.d + 1
    table = [[[fraction_to_str(q[i, j, r].re) for r in range(k)]
              for j in range(k)] for i in range(k)]
    return 0, lambda: {"q": table}, lambda: "\n".join(
        "q[%d][j][r]:\n" % i + "\n".join("  " + "  ".join(row)
                                         for row in block)
        for i, block in enumerate(table))


def cmd_scheme_fuse(args):
    from .scheme import fusion
    s = _load_scheme(args.source, args.cap)
    return _scheme_result(fusion(s, _parse_blocks(args.blocks)))


# -- gh ------------------------------------------------------------------


def cmd_gh_build(args):
    from .genham import build_explicit
    base = _load_scheme(args.base, args.cap)
    return _scheme_result(build_explicit(base, args.n, cap=args.cap))


def cmd_gh_eigen(args):
    from .genham import eigenmatrix_gh
    from .jsonio import matrix_to_obj
    from .scheme import eigenmatrix
    base = _load_base(args.base, args.cap)
    _check_class_cap(base, args.n, args.cap)
    P = eigenmatrix_gh(eigenmatrix(base), args.n)
    return 0, lambda: {"P": matrix_to_obj(P)}, \
        partial(_matrix_text, "P", P)


def cmd_gh_fusion_check(args):
    from .genham import fusion_check_trans
    base = _load_scheme(args.base, args.cap)
    rep = fusion_check_trans(base, args.m, args.n, cap=args.cap)
    split = rep.split_classes
    lines = ["fusion holds"] + [
        "  coarse class %d splits into fine classes %s" % (k, list(v))
        for k, v in split.items()]
    return 0, lambda: {
        "ok": rep.ok,
        "mapping": list(rep.mapping),
        "split_classes": {str(k): list(v) for k, v in split.items()},
        "detail": rep.detail}, lambda: "\n".join(lines)


# -- code ----------------------------------------------------------------


def cmd_code_enumerate(args):
    from .codes import weight_enumerator
    from .jsonio import poly_to_obj
    code = _read_code(args, _load_scheme(args.base, args.cap))
    W = weight_enumerator(code)
    return 0, partial(poly_to_obj, W), W.to_str


def cmd_code_transform(args):
    from .codes import macwilliams_transform, weight_enumerator
    from .jsonio import poly_to_obj
    from .scheme import eigenmatrix
    code = _read_code(args, _load_base(args.base, args.cap))
    _check_class_cap(code.base, code.n, args.cap)
    P = eigenmatrix(code.base)
    W = weight_enumerator(code)
    dual = macwilliams_transform(W, P, code.base.v, len(code))
    names = ["t%d" % i for i in range(dual.nvars)]
    return 0, partial(poly_to_obj, dual), partial(dual.to_str, names)


def cmd_code_dual(args):
    from .codes import dual_code
    code = _read_code(args, _load_scheme(args.base, args.cap))
    dual = dual_code(code, cap=args.cap)
    return 0, lambda: {"size": len(dual),
                       "words": [list(w) for w in dual.words]}, \
        lambda: "\n".join(" ".join(str(x) for x in w) for w in dual.words)


def _load_z4_code(args):
    from . import builders
    return _read_code(args, builders.group_scheme([4], cap=args.cap))


def cmd_code_z4(args):
    from .codes import z4_enumerators
    from .jsonio import poly_to_obj
    code = _load_z4_code(args)
    enums = z4_enumerators(code)
    return 0, lambda: {"complete": poly_to_obj(enums.complete),
                       "symmetrized": poly_to_obj(enums.symmetrized),
                       "lee": poly_to_obj(enums.lee)}, \
        lambda: "complete:    %s\nsymmetrized: %s\nlee:         %s" % (
            enums.complete.to_str(["x0", "x1", "x2", "x3"]),
            enums.symmetrized.to_str(["x0", "x1", "x2"]),
            enums.lee.to_str(["s", "t"]))


def cmd_code_gray_check(args):
    from .codes import gray_lee_check
    code = _load_z4_code(args)
    ok = gray_lee_check(code, cap=args.cap)
    return 0 if ok else 1, lambda: {"holds": ok}, \
        lambda: "Gray/Lee identity holds" if ok else "Gray/Lee identity FAILS"


# -- modinv --------------------------------------------------------------


def _witness_obj(w):
    from .jsonio import gauss_to_obj
    return {"T": [gauss_to_obj(w.T[i, i]) for i in range(w.T.nrows)],
            "c": gauss_to_obj(w.c)}


def _witness_human(w):
    diag = ", ".join(str(w.T[i, i]) for i in range(w.T.nrows))
    return "T = diag(%s), c = %s" % (diag, w.c)


def cmd_modinv_verify(args):
    from .modular import verify_modular
    from .scheme import eigenmatrix
    P = eigenmatrix(_load_base(args.base, args.cap))
    w = verify_modular(P, _parse_diagonal(args.T))
    return 0, partial(_witness_obj, w), partial(_witness_human, w)


def cmd_modinv_search(args):
    from .modular import _SEARCH_RESTARTS, search_T
    from .scheme import eigenmatrix
    restarts = (_SEARCH_RESTARTS if args.restarts is None
                else args.restarts)
    base = _load_base(args.base, args.cap)
    _check_search_cap(base, restarts, args.cap)
    P = eigenmatrix(base)
    w = search_T(P, restarts=restarts)
    if w is None:
        detail = ("search incomplete: no witness within %d restarts"
                  % restarts)
        return 1, lambda: {"found": False, "detail": detail}, lambda: detail
    return 0, lambda: {"found": True, **_witness_obj(w)}, \
        partial(_witness_human, w)


def cmd_modinv_lift(args):
    from .jsonio import gauss_to_obj
    from .modular import (
        _SEARCH_RESTARTS,
        induced_modular_check,
        search_T,
        verify_modular,
    )
    from .scheme import eigenmatrix
    base = _load_base(args.base, args.cap)
    _check_class_cap(base, args.n, args.cap)
    if args.T is None:
        _check_search_cap(base, _SEARCH_RESTARTS, args.cap)
    P = eigenmatrix(base)
    if args.T is not None:
        w = verify_modular(P, _parse_diagonal(args.T))
    else:
        w = search_T(P)
        if w is None:
            raise MathError("search incomplete: no witness found to lift")
    rep = induced_modular_check(P, w.T, w.c, args.n)
    ok = rep.holds and rep.matches_expected and rep.t_hat_consistent
    if rep.holds:
        lift = ("lift to degree %d: constant = %s (expected %s, %s); "
                "diagonal lift consistent: %s"
                % (args.n, rep.constant, rep.expected,
                   "match" if rep.matches_expected else "MISMATCH",
                   rep.t_hat_consistent))
    else:
        lift = ("lift to degree %d FAILS: cube is not a nonzero scalar"
                % args.n)
    return 0 if ok else 1, lambda: {
        "n": args.n,
        "base": _witness_obj(w),
        "holds": rep.holds,
        "constant": (gauss_to_obj(rep.constant)
                     if rep.constant is not None else None),
        "expected": gauss_to_obj(rep.expected),
        "matches_expected": rep.matches_expected,
        "t_hat_consistent": rep.t_hat_consistent,
    }, lambda: "base witness: %s\n%s" % (_witness_human(w), lift)


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
    common.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                        help="cap on the vertices of a construction or a "
                             "JSON table, the words of a code file, the "
                             "classes of a composite and the fine classes "
                             "of gh fusion-check; a scheme whose P is "
                             "formed may have k classes with k^3 <= cap^2 "
                             "(default %(default)s, which admits 256 "
                             "classes: scheme eigen --dual takes under a "
                             "second there, scheme krein about 300 s and "
                             "1.6 GB on a 2-core VM)")
    based = argparse.ArgumentParser(add_help=False, parents=[common])
    based.add_argument("--base", required=True, help=_BASE_HELP)
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

    p = gsub.add_parser("build", parents=[based],
                        help="explicit H(n, base) on the word set")
    p.add_argument("--n", required=True, type=_positive_int,
                   help="number of factors")
    p.set_defaults(func=cmd_gh_build)

    p = gsub.add_parser("eigen", parents=[based],
                        help="eigenmatrix of H(n, base) from the base P")
    p.add_argument("--n", required=True, type=_positive_int,
                   help="number of factors")
    p.set_defaults(func=cmd_gh_eigen)

    p = gsub.add_parser("fusion-check", parents=[based],
                        help="H(m*n, base) coarsens H(m, H(n, base))")
    p.add_argument("--m", required=True, type=_positive_int,
                   help="outer factor count")
    p.add_argument("--n", required=True, type=_positive_int,
                   help="inner factor count")
    p.set_defaults(func=cmd_gh_fusion_check)

    code = top.add_parser("code", help="codes and weight enumerators")
    csub = code.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("enumerate", parents=[based],
                        help="weight enumerator of a code file")
    p.add_argument("--n", type=_positive_int,
                   help="expected word length (cross-check)")
    p.add_argument("file", help="code file (one word per line) or -")
    p.set_defaults(func=cmd_code_enumerate)

    p = csub.add_parser("transform", parents=[based],
                        help="transformed (dual) weight enumerator")
    p.add_argument("--n", type=_positive_int,
                   help="expected word length (cross-check)")
    p.add_argument("file", help="code file or -")
    p.set_defaults(func=cmd_code_transform)

    p = csub.add_parser("dual", parents=[based],
                        help="dual of an additive code over a translation "
                             "scheme")
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

    p = msub.add_parser("verify", parents=[based],
                        help="verify a given diagonal T exactly")
    p.add_argument("--T", required=True,
                   help="diagonal entries, e.g. \"1,i\" or \"1,1/2-3/4i\"")
    p.set_defaults(func=cmd_modinv_verify)

    p = msub.add_parser("search", parents=[based],
                        help="search for a diagonal T (exactly verified)")
    p.add_argument("--restarts", type=_positive_int,
                   help="numeric restart budget for larger sizes")
    p.set_defaults(func=cmd_modinv_search)

    p = msub.add_parser("lift", parents=[based],
                        help="check the witness lifts to H(n, base)")
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
        code, obj, text = args.func(args)
        print(json.dumps(obj(), indent=2) if args.json else text())
        return code
    except MathError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (SchemeKitError, OSError, ValueError, TypeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    # The process is short-lived and a command's cyclic garbage (the
    # parser, a few hundred objects) does not grow with its input, so
    # collecting it only costs time; freezing before exit keeps the
    # interpreter's shutdown collections from walking the whole heap.
    gc.disable()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
