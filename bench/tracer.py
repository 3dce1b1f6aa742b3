"""Span recorder for the traced benchmark run.

The tracer wraps public schemekit functions and methods from outside the
package.  A wrapped function is replaced at every module attribute that
holds it, so calls made through a `from .x import y` binding inside the
package are caught as well as calls through the package namespace.

Spans (name, start, end, parent, job) are kept in memory and written out
when the run ends.  GaussRat arithmetic and `h_vector` are counted, not
spanned: they run millions of times and a span each would swamp the
measurement.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

# (module, attribute) -> span name.  Module-level functions are swapped
# at every binding site; class attributes are swapped on the class.
SPANNED_FUNCTIONS = {
    ("exact", "induced_matrix"): "exact.induced_matrix",
    ("exact", "substitute_polys"): "exact.substitute_polys",
    ("exact", "substitute_linear"): "exact.substitute_linear",
    ("scheme", "verify_axioms"): "scheme.verify_axioms",
    ("scheme", "eigenmatrix"): "scheme.eigenmatrix",
    ("scheme", "certify_eigenmatrix"): "scheme.certify_eigenmatrix",
    ("scheme", "krein_parameters"): "scheme.krein_parameters",
    ("scheme", "fusion"): "scheme.fusion",
    ("scheme", "orbit_fusion"): "scheme.orbit_fusion",
    ("builders", "one_class"): "builders.one_class",
    ("builders", "hamming"): "builders.hamming",
    ("builders", "group_scheme"): "builders.group_scheme",
    ("builders", "cycle_scheme"): "builders.cycle_scheme",
    ("genham", "build_explicit"): "genham.build_explicit",
    ("genham", "eigenmatrix_gh"): "genham.eigenmatrix_gh",
    ("genham", "dual_eigenmatrix_gh"): "genham.dual_eigenmatrix_gh",
    ("genham", "formal_duality_check"): "genham.formal_duality_check",
    ("codes", "weight_enumerator"): "codes.weight_enumerator",
    ("codes", "inner_distribution"): "codes.inner_distribution",
    ("codes", "macwilliams_transform"): "codes.macwilliams_transform",
    ("codes", "dual_code"): "codes.dual_code",
    ("codes", "translation_duality_check"): "codes.translation_duality_check",
    ("codes", "z4_enumerators"): "codes.z4_enumerators",
    ("codes", "gray_lee_check"): "codes.gray_lee_check",
    ("modular", "search_T"): "modular.search_T",
    ("modular", "least_squares"): "modular.least_squares",
    ("modular", "verify_modular"): "modular.verify_modular",
    ("modular", "induced_modular_check"): "modular.induced_modular_check",
    ("jsonio", "scheme_from_obj"): "jsonio.scheme_from_obj",
    ("jsonio", "scheme_to_obj"): "jsonio.scheme_to_obj",
    ("jsonio", "parse_matrix"): "jsonio.parse_matrix",
    ("jsonio", "matrix_to_obj"): "jsonio.matrix_to_obj",
    ("jsonio", "parse_gauss"): "jsonio.parse_gauss",
    ("jsonio", "poly_to_obj"): "jsonio.poly_to_obj",
    ("jsonio", "poly_from_obj"): "jsonio.poly_from_obj",
    ("jsonio", "parse_code_file"): "jsonio.parse_code_file",
    ("cli", "run"): "cli.run",
}

SPANNED_METHODS = {
    ("ExactMatrix", "__matmul__"): "exact.ExactMatrix.matmul",
    ("ExactMatrix", "inverse"): "exact.ExactMatrix.inverse",
    ("MPoly", "__mul__"): "exact.MPoly.mul",
    ("MPoly", "__rmul__"): "exact.MPoly.mul",
}

COUNTED_METHODS = {
    ("GaussRat", name): "exact.gaussrat_ops"
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
}

COUNTED_FUNCTIONS = {
    ("genham", "h_vector"): "genham.h_vector",
}

# span name -> flag recorded per call from (result, raised), for ratios
OUTCOMES = {
    "scheme.certify_eigenmatrix": lambda result, raised: bool(result),
    "modular.search_T": lambda result, raised: result is not None,
    # verify_modular raises NotScalar when the cube is not a scalar
    "modular.verify_modular": lambda result, raised: raised,
}


class Tracer:
    """Collects spans and counters while installed.

    Use as a context manager around the traced phase; `job` tags the
    spans of one benchmark job with a shared identifier.
    """

    def __init__(self):
        self.spans = []          # (name, start, end, parent_index, job)
        self.self_time = {}      # name -> seconds not covered by child spans
        self.calls = {}          # name -> number of spans
        self.counts = {}         # name -> counted calls
        self.outcomes = {}       # name -> list of per-call outcome flags
        self.job = None
        self._stack = []         # [span_index, child_seconds]
        self._restore = []

    # -- recording -------------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self
        outcome = OUTCOMES.get(name)

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.spans[frame[0]] = (name, start, end, parent, tracer.job)
                tracer.self_time[name] = (tracer.self_time.get(name, 0.0)
                                          + duration - frame[1])
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if outcome is not None:
                    flag = outcome(None if raised else result, raised)
                    tracer.outcomes.setdefault(name, []).append(flag)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Swap wrappers into every loaded schemekit module and class."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "schemekit" or name.startswith("schemekit.")]
        for table, wrap in ((SPANNED_FUNCTIONS, self._spanned),
                            (COUNTED_FUNCTIONS, self._counted)):
            for (modname, attr), name in table.items():
                source = sys.modules.get("schemekit." + modname)
                if source is None:      # cli and jsonio load only on use
                    continue
                original = getattr(source, attr)
                wrapped = wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, key, wrapped)
        exact = sys.modules["schemekit.exact"]
        for table, wrap in ((SPANNED_METHODS, self._spanned),
                            (COUNTED_METHODS, self._counted)):
            for (clsname, attr), name in table.items():
                cls = getattr(exact, clsname)
                self._swap(cls, attr, wrap(name, vars(cls)[attr]))
        return self

    def _swap(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def summary(self):
        """Plain dict of self times, call counts, counters and outcomes."""
        return {"self_time": dict(self.self_time), "calls": dict(self.calls),
                "counts": dict(self.counts),
                "outcomes": {k: [sum(v), len(v)]
                             for k, v in self.outcomes.items()}}

def write_spans(path, spans):
    """Write spans as JSON lines, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for index, (name, start, end, parent, job) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "job": job}) + "\n")


def merge_summaries(summaries):
    """Add up summaries from several processes (the cli children)."""
    out = {"self_time": {}, "calls": {}, "counts": {}, "outcomes": {}}
    for summ in summaries:
        for section in ("self_time", "calls", "counts"):
            for key, value in summ[section].items():
                out[section][key] = out[section].get(key, 0) + value
        for key, (hits, total) in summ["outcomes"].items():
            prev = out["outcomes"].get(key, [0, 0])
            out["outcomes"][key] = [prev[0] + hits, prev[1] + total]
    return out
