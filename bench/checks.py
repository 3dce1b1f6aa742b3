"""Output checks: canonical digests and independent exact identities.

Every job's output is reduced to a canonical text form and hashed.  The
digest is compared with the reference recorded for the same computation
(`reference.json`).  Separately, and outside the timed phase, identities
that hold for any seed are checked on the outputs themselves.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def canonical(x):
    """Deterministic text for any job output (exact values only)."""
    name = type(x).__name__
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canonical(e) for e in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join("%s:%s" % (canonical(k), canonical(v))
                              for k, v in sorted(x.items())) + "}"
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return "nd%s[%s]" % (x.shape,
                                 ",".join(canonical(e) for e in x.ravel()))
        return "nd%s:%s" % (x.shape, hashlib.sha256(
            np.ascontiguousarray(x, dtype=np.int64).tobytes()).hexdigest())
    if name == "GaussRat":
        return "%s|%s" % (x.re, x.im)
    if name == "ExactMatrix":
        return "M[" + ";".join(",".join(canonical(e) for e in row)
                               for row in x.rows()) + "]"
    if name == "MPoly":
        return "poly%d{%s}" % (x.nvars, ",".join(
            "%s:%s" % (e, canonical(c)) for e, c in x.sorted_terms()))
    if name == "AssociationScheme":
        return "scheme(v=%d,d=%d,%s)" % (x.v, x.d, canonical(x.relation))
    if name == "Code":
        return "code(n=%d,%s)" % (x.n, canonical(sorted(x.words)))
    if name in ("ModularWitness", "FormalDuality", "InducedModular",
                "Z4Enumerators"):
        return name + canonical(dict(vars(x)))
    raise TypeError("no canonical form for %s" % name)


def digest(x):
    return hashlib.sha256(canonical(x).encode()).hexdigest()[:16]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- identities that hold on any seed ------------------------------------


def symbolic_identity(sk, bases, job, out):
    """None if the output passes, else a short reason."""
    spec, n = job.info["base"], job.info["n"]
    base = bases[spec]
    P = sk.eigenmatrix(base)
    v = base.v
    if job.task in ("eigenmatrix_gh", "dual_eigenmatrix_gh"):
        # induced(P, n) . induced(Q, n) = v^n I
        if job.task == "eigenmatrix_gh":
            Ph, Qh = out, sk.dual_eigenmatrix_gh(P, v, n)
        else:
            Ph, Qh = sk.eigenmatrix_gh(P, n), out
        if Ph @ Qh != sk.ExactMatrix.diagonal([v**n] * Ph.nrows):
            return "induced(P,n) induced(Q,n) != v^n I"
    elif job.task == "formal_duality_check":
        if not out.identity_holds:
            return "formal duality identity reported false"
        if out.self_dual:
            Q = sk.dual_eigenmatrix(P, v)
            if Q.permuted(out.row_perm, out.col_perm) != P:
                return "self-duality permutation does not map Q to P"
    elif job.task == "search_T":
        if out is not None:
            return _witness_identity(sk, P, out)
    elif job.task == "induced_modular_check":
        witness, report = out
        bad = _witness_identity(sk, P, witness)
        if bad:
            return bad
        if not (report.holds and report.matches_expected
                and report.t_hat_consistent):
            return "lift of a verified witness does not hold"
        if report.constant != witness.c ** n:
            return "lift constant is not c^n"
    return None


def _witness_identity(sk, P, witness):
    try:
        again = sk.verify_modular(P, witness.T)
    except sk.NotScalar:
        return "verify_modular rejects the returned witness"
    if again.c != witness.c:
        return "verify_modular gives a different constant"
    return None


def explicit_identity(sk, bases, job, out):
    spec, n = job.info["base"], job.info["n"]
    if job.task == "eigenmatrix":
        # the certified P of the explicit composite equals the induced
        # matrix of the base P, up to the order of the rows
        expected = sk.eigenmatrix_gh(sk.eigenmatrix(bases[spec]), n)
        if sk.sort_rows_canonically(out) != sk.sort_rows_canonically(expected):
            return "certified P differs from eigenmatrix_gh up to row order"
    elif job.task == "krein_parameters":
        k = out.shape[0]
        for i in range(k):
            for j in range(k):
                if out[0, i, j] != (1 if i == j else 0):
                    return "q_0j^r is not the Kronecker delta"
    elif job.task in ("fusion", "orbit_fusion"):
        fused, P = out
        if not sk.verify_axioms(fused.relation).ok:
            return "fused table fails the axioms"
        if not sk.certify_eigenmatrix(fused, P):
            return "eigenmatrix of the fused scheme does not certify"
    return None


def codes_identity(sk, bases, job, out):
    code = job.info["code"]
    v, n, size = code.base.v, code.n, len(code)
    if job.task == "weight_enumerator":
        return _enumerator_identity(sk, out, n, size, code.base.d + 1)
    if job.task == "inner_distribution":
        if sum(out) != size or out[0] != 1:
            return "inner distribution does not sum to |C| with a_0 = 1"
        return None
    if job.task == "macwilliams_transform":
        ones = (n,) + (0,) * code.base.d
        if out.coefficient(ones) != 1:
            return "transform coefficient of t0^n is not 1"
        if any(not c.is_real() or c.re < 0 for c in out.terms.values()):
            return "transform has a coefficient that is not real and >= 0"
        if job.info["additive"]:
            # MacWilliams identity: the transform is the dual code's enumerator
            if out != sk.weight_enumerator(sk.dual_code(code)):
                return "transform differs from the dual code's enumerator"
        return None
    if job.task == "dual_code":
        if size * len(out) != v**n:
            return "|C| |C_dual| != v^n"
        if sk.dual_code(out) != code:
            return "dual of the dual is not the code"
        return None
    if job.task in ("translation_duality_check", "gray_lee_check"):
        return None if out is True else "identity reported false"
    if job.task == "z4_enumerators":
        for poly, degree in ((out.complete, n), (out.symmetrized, n),
                             (out.lee, 2 * n)):
            bad = _enumerator_identity(sk, poly, degree, size, poly.nvars)
            if bad:
                return bad
        return None
    return None


def _enumerator_identity(sk, poly, degree, size, nvars):
    if not poly.is_homogeneous() or poly.degree() != degree:
        return "enumerator is not homogeneous of degree %d" % degree
    if sum((c for c in poly.terms.values()), sk.GaussRat(0)) != size:
        return "enumerator coefficients do not sum to |C|"
    if poly.coefficient((degree,) + (0,) * (nvars - 1)) != 1:
        return "enumerator coefficient of s0^n is not 1"
    return None


IDENTITIES = {"symbolic": symbolic_identity, "explicit": explicit_identity,
              "codes": codes_identity}


# -- verdicts ---------------------------------------------------------------


def outcome_rows(jobs, outcomes):
    """(key, expected error, error, message, digest) of every job run;
    the digest of a job that raised is the exception class name."""
    return [(job.key, job.expect_error, error, str(out) if error else "",
             error or digest(out))
            for job, (out, error) in zip(jobs, outcomes)]


def identity_failures(sk, bases, jobs, outcomes):
    """key -> reason, for each computation whose first output fails its
    identity; a crashing check is a failed check."""
    bad, seen = {}, set()
    for job, (out, error) in zip(jobs, outcomes):
        if error or job.key in seen:
            continue
        seen.add(job.key)
        try:
            reason = IDENTITIES[job.workload](sk, bases, job, out)
        except Exception as exc:
            reason = "identity check raised %s: %s" % (type(exc).__name__, exc)
        if reason:
            bad[job.key] = reason
    return bad


def verdict(row, reference, seen, identity_bad):
    """None if one job run is correct, else the reason.  `seen` maps a
    key to the digest of its first run; repeats must agree with it."""
    key, expect, error, message, d = row
    if error != expect:
        return ("raised %s: %s" % (error, message)) if error \
            else "expected %s" % expect
    if seen.setdefault(key, d) != d:
        return "output differs between repeats of the same call"
    ref = reference.get(key)
    if ref is not None and ref != d:
        return "digest %s, reference %s" % (d, ref)
    return identity_bad.get(key)
