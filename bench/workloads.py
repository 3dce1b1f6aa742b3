"""Job lists of the three library workloads: symbolic, explicit, codes.

A pass is a list of jobs.  Each workload is a fixed table of strata
(task, candidate inputs, size, count); the seed draws each stratum's
inputs with replacement from its candidates, so every seed runs the same
mix of tasks and sizes while the concrete inputs, their repeats and the
order differ.  Candidates within one stratum cost about the same, which
keeps the pass time steady across seeds.

Nothing here times anything; `run.py` does that.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from functools import partial

# Base schemes of the library workloads, by CLI builder spec.
BASE_SPECS = ("one_class:2", "one_class:3", "one_class:5", "cycle:4",
              "cycle:6", "group:4", "group:2:2", "hamming:2:2")

def build_base(sk, spec):
    name, *args = spec.split(":")
    args = [int(a) for a in args]
    if name == "one_class":
        return sk.one_class(*args)
    if name == "cycle":
        return sk.cycle_scheme(*args)
    if name == "group":
        return sk.group_scheme(args)
    if name == "hamming":
        return sk.hamming(*args)
    raise ValueError("unknown base spec %r" % spec)


def build_bases(sk):
    """The base schemes, by spec; builders attach P."""
    return {spec: build_base(sk, spec) for spec in BASE_SPECS}


@dataclass
class Job:
    key: str                  # identifies the computation (reference digests)
    task: str
    fn: object                # zero-argument callable
    expect_error: str = ""    # exception class name, if the job must raise
    info: dict = field(default_factory=dict)

    @property
    def workload(self):
        return self.key.split("/", 1)[0]


# -- symbolic -------------------------------------------------------------

TWO_CLASS = ("one_class:2", "one_class:3", "one_class:5")
THREE_CLASS = ("cycle:4", "hamming:2:2")

# (task, candidate bases, n, draws per pass).  The median and the tail
# of a pass fall among the twelve n = 14 jobs on two-class bases, which
# cost the same.
SYMBOLIC_STRATA = (
    ("eigenmatrix_gh", TWO_CLASS, 10, 1),
    ("eigenmatrix_gh", TWO_CLASS, 14, 6),
    ("eigenmatrix_gh", THREE_CLASS, 5, 1),
    ("eigenmatrix_gh", ("group:4", "group:2:2"), 3, 1),
    ("eigenmatrix_gh", ("cycle:6",), 3, 1),
    ("dual_eigenmatrix_gh", TWO_CLASS, 10, 1),
    ("dual_eigenmatrix_gh", TWO_CLASS, 14, 6),
    ("dual_eigenmatrix_gh", THREE_CLASS, 5, 1),
    ("dual_eigenmatrix_gh", ("group:4", "group:2:2"), 3, 1),
    ("dual_eigenmatrix_gh", ("cycle:6",), 3, 1),
    ("formal_duality_check", TWO_CLASS, 8, 1),
    ("formal_duality_check", THREE_CLASS, 4, 1),
    ("formal_duality_check", ("group:4", "group:2:2"), 2, 1),
    ("formal_duality_check", ("cycle:6",), 2, 1),
    ("search_T", TWO_CLASS, None, 1),
    ("search_T", THREE_CLASS, None, 2),
    ("search_T", ("group:2:2",), None, 1),
    # the numeric search runs out of its default 200 restarts here
    ("search_T", ("group:4",), None, 1),
    ("induced_modular_check", ("one_class:2",), 8, 1),
    ("induced_modular_check", THREE_CLASS, 3, 1),
    ("induced_modular_check", THREE_CLASS, 4, 1),
    ("induced_modular_check", ("group:2:2",), 2, 1),
)


def _api(sk, name, *args, **kwargs):
    """Call a public schemekit function looked up at call time, so that
    the tracer's wrappers are seen."""
    return getattr(sk, name)(*args, **kwargs)


def _lift(sk, P, n):
    """search_T followed by the degree-n lift of the witness it finds."""
    w = sk.search_T(P)
    return w, sk.induced_modular_check(P, w.T, w.c, n)


def symbolic_job(sk, bases, task, spec, n):
    base = bases[spec]
    P = sk.eigenmatrix(base)
    if task == "eigenmatrix_gh":
        fn = partial(_api, sk, task, P, n)
    elif task in ("dual_eigenmatrix_gh", "formal_duality_check"):
        fn = partial(_api, sk, task, P, base.v, n)
    elif task == "search_T":
        fn = partial(_api, sk, task, P)
    else:
        fn = partial(_lift, sk, P, n)
    key = "symbolic/%s/%s/n=%s" % (task, spec, n)
    return Job(key, task, fn, info={"base": spec, "n": n})


def symbolic_jobs(sk, bases, rng):
    jobs = [symbolic_job(sk, bases, task, rng.choice(candidates), n)
            for task, candidates, n, count in SYMBOLIC_STRATA
            for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


def symbolic_pool(sk, bases):
    """Every job any seed can draw."""
    return [symbolic_job(sk, bases, task, spec, n)
            for task, candidates, n, _count in SYMBOLIC_STRATA
            for spec in candidates]


# -- explicit -------------------------------------------------------------

THREE_N2 = (("cycle:4", 2, None), ("hamming:2:2", 2, None))
THREE_N3 = (("cycle:4", 3, None), ("hamming:2:2", 3, None))
FOUR_N2 = (("group:4", 2, None), ("group:2:2", 2, None))
# Hamming-distance classes of the composite over a 3-class base, n = 3
BY_DISTANCE = ((0,), (1, 2), (3, 4, 5), (6, 7, 8, 9))
# not a scheme: class 1 of Z4 is merged apart from its transpose, class 3
NOT_A_SCHEME = ((0,), (1,), (2, 3))

# (task, candidate (base, n, extra) tuples, draws per pass).  The pass is
# laid out so that the median and the tail fall inside runs of jobs of
# equal cost (the oc2 n=6 eigenmatrices and the Krein jobs), where they
# do not jump when two neighbouring jobs swap places.
EXPLICIT_STRATA = (
    # about 20 ms and less
    ("eigenmatrix", (("one_class:2", 4, None),), 2),
    ("eigenmatrix", (("one_class:3", 3, None),), 2),
    ("eigenmatrix", (("one_class:3", 4, None),), 1),
    ("fusion", (("group:4", 1, ((0,), (1, 3), (2,))),), 2),
    ("fusion", (("group:4", 1, NOT_A_SCHEME),), 2),
    ("fusion", (("cycle:4", 3, BY_DISTANCE),
                ("hamming:2:2", 3, BY_DISTANCE)), 1),
    ("orbit_fusion", (("one_class:3", 4, ((1, 2, 3, 0),)),), 1),
    ("cycle_scheme", ((None, 5, None),), 1),
    # about 50 ms
    ("eigenmatrix", THREE_N2, 2),
    # about 90 ms: the median
    ("eigenmatrix", (("one_class:2", 6, None),), 7),
    ("cycle_scheme", ((None, 7, None),), 1),
    # about 120 ms: the tail
    ("krein_parameters", (("one_class:2", 5, None),), 3),
    ("krein_parameters", THREE_N2, 3),
    ("cycle_scheme", ((None, 8, None), (None, 9, None)), 1),
    # 250 to 350 ms, v up to 256
    ("eigenmatrix", (("one_class:2", 8, None),), 1),
    ("eigenmatrix", THREE_N3, 2),
    ("eigenmatrix", FOUR_N2, 2),
    ("eigenmatrix", (("cycle:6", 2, None),), 1),
    ("orbit_fusion", (("cycle:4", 3, ((1, 2, 0), (1, 0, 2))),), 2),
)


def _composite_eigenmatrix(sk, base, n):
    return sk.eigenmatrix(sk.build_explicit(base, n))


def _composite_krein(sk, base, n):
    return sk.krein_parameters(sk.build_explicit(base, n))


def _composite_fusion(sk, base, n, blocks):
    scheme = base if n == 1 else sk.build_explicit(base, n)
    fused = sk.fusion(scheme, [list(b) for b in blocks])
    return fused, sk.eigenmatrix(fused)


def _orbit_fusion(sk, base, n, generators):
    fused = sk.orbit_fusion(base, n, [list(g) for g in generators])
    return fused, sk.eigenmatrix(fused)


def _cycle_eigenmatrix(sk, m):
    return sk.eigenmatrix(sk.cycle_scheme(m))


def explicit_job(sk, bases, task, spec, n, extra):
    base = bases.get(spec)
    expect = ""
    if task == "eigenmatrix":
        fn = partial(_composite_eigenmatrix, sk, base, n)
    elif task == "krein_parameters":
        fn = partial(_composite_krein, sk, base, n)
    elif task == "fusion":
        fn = partial(_composite_fusion, sk, base, n, extra)
        if extra == NOT_A_SCHEME:
            expect = "ClosureFailure"
    elif task == "orbit_fusion":
        fn = partial(_orbit_fusion, sk, base, n, extra)
    else:
        fn = partial(_cycle_eigenmatrix, sk, n)
        expect = "SnapFailure"
    key = "explicit/%s/%s/n=%s/%s" % (task, spec, n, extra)
    return Job(key, task, fn, expect,
               info={"base": spec, "n": n, "extra": extra})


def explicit_jobs(sk, bases, rng):
    jobs = [explicit_job(sk, bases, task, *rng.choice(candidates))
            for task, candidates, count in EXPLICIT_STRATA
            for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


def explicit_pool(sk, bases):
    """Every job any seed can draw."""
    return [explicit_job(sk, bases, task, *choice)
            for task, candidates, _count in EXPLICIT_STRATA
            for choice in candidates]


# -- codes ----------------------------------------------------------------

# (task, base, n, size or generator count, additive, draws per pass).
# The median and the tail of a pass fall among the binary n = 12
# enumerator and inner-distribution jobs, whose cost is set by |C| and n
# alone, whatever codes the seed draws; about as many jobs cost less
# than they do as cost more, so the median sits inside that run.
CODES_STRATA = (
    ("weight_enumerator", "one_class:2", 16, 256, False, 1),
    ("weight_enumerator", "one_class:2", 12, 128, False, 8),
    ("weight_enumerator", "group:4", 6, 64, False, 1),
    ("inner_distribution", "one_class:2", 16, 256, False, 1),
    ("inner_distribution", "one_class:2", 12, 128, False, 7),
    ("macwilliams_transform", "group:4", 4, 32, False, 1),
    ("macwilliams_transform", "group:4", 5, 32, False, 1),
    ("macwilliams_transform", "group:2:2", 4, 32, False, 1),
    ("macwilliams_transform", "cycle:4", 4, 32, False, 3),
    ("macwilliams_transform", "one_class:2", 10, 64, False, 3),
    ("macwilliams_transform", "group:4", 4, 2, True, 1),
    ("dual_code", "group:4", 6, 3, True, 1),
    ("dual_code", "one_class:2", 10, 5, True, 1),
    ("dual_code", "group:4", 4, 16, False, 1),
    ("translation_duality_check", "group:4", 4, 2, True, 1),
    ("translation_duality_check", "cycle:4", 4, 2, True, 1),
    ("translation_duality_check", "one_class:2", 10, 5, True, 1),
    ("z4_enumerators", "group:4", 6, 64, False, 1),
    ("z4_enumerators", "group:4", 6, 3, True, 1),
    ("gray_lee_check", "group:4", 5, 2, True, 1),
)


def random_words(rng, v, n, size):
    """`size` distinct random words, never the zero word, so the set is
    not closed under addition."""
    words = set()
    while len(words) < size:
        w = tuple(rng.randrange(v) for _ in range(n))
        if any(w):
            words.add(w)
    return sorted(words)


def _group_orders(spec):
    return {"one_class:2": (2,), "cycle:4": (4,), "group:4": (4,),
            "group:2:2": (2, 2)}[spec]


def additive_words(rng, spec, n, k):
    """A random additive code: the span of k systematic generators over
    the translation group, with coordinates shuffled.

    The generators are unit vectors in k coordinates plus random entries
    elsewhere, so the code is a free module of fixed size whatever the
    seed: (order of the group)^k words.
    """
    orders = _group_orders(spec)
    radix = len(orders)
    flat = [m for _ in range(n) for m in orders]   # element digits per word
    width = len(flat)
    if k > width:
        raise ValueError("too many generators")
    positions = list(range(width))
    gens = []
    for i in range(k):
        g = [rng.randrange(m) for m in flat]
        for j in range(k):
            g[j] = 1 if i == j else 0
        gens.append(g)
    rng.shuffle(positions)
    span = set()
    for coeffs in itertools.product(*[range(max(flat))] * k):
        word = [0] * width
        for c, g in zip(coeffs, gens):
            for j in range(width):
                word[j] += c * g[j]
        digits = [0] * width
        for j in range(width):
            digits[positions[j]] = word[j] % flat[positions[j]]
        span.add(tuple(digits))
    words = []
    for digits in sorted(span):
        word = []
        for i in range(n):
            vertex = 0
            for x, m in zip(digits[i * radix:(i + 1) * radix], orders):
                vertex = vertex * m + x
            word.append(vertex)
        words.append(tuple(word))
    return words


def words_digest(words):
    text = ";".join(" ".join(str(x) for x in w) for w in words)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _transform(sk, code, P):
    W = sk.weight_enumerator(code)
    return sk.macwilliams_transform(W, P, code.base.v, len(code))


def codes_jobs(sk, bases, rng):
    jobs = []
    for task, spec, n, size, additive, count in CODES_STRATA:
        base = bases[spec]
        for _ in range(count):
            if additive:
                words = additive_words(rng, spec, n, size)
            else:
                words = random_words(rng, base.v, n, size)
            code = sk.Code(words, base)
            expect = ""
            if task == "macwilliams_transform":
                fn = partial(_transform, sk, code, sk.eigenmatrix(base))
            else:
                fn = partial(_api, sk, task, code)
                if task == "dual_code" and not additive:
                    expect = "NotAdditive"
            key = "codes/%s/%s/n=%d/%s" % (task, spec, n, words_digest(words))
            jobs.append(Job(key, task, fn, expect,
                            info={"base": spec, "n": n, "code": code,
                                  "additive": additive}))
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {"symbolic": symbolic_jobs, "explicit": explicit_jobs,
             "codes": codes_jobs}


def make_jobs(sk, workload, bases, seed):
    """One pass of `workload` for `seed`."""
    return JOB_LISTS[workload](sk, bases, random.Random(seed))


def repeated_share(jobs):
    """Share of jobs whose computation already ran earlier in the pass."""
    seen = set()
    repeats = 0
    for job in jobs:
        repeats += job.key in seen
        seen.add(job.key)
    return repeats / len(jobs)


def additive_share(jobs):
    flags = [job.info["additive"] for job in jobs if "additive" in job.info]
    return sum(flags) / len(flags) if flags else 0.0
