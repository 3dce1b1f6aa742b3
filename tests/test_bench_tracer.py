"""The traced benchmark run wraps library functions and methods by name
(`bench/tracer.py`); a name that no longer resolves would crash it on
install.  These tests only read `bench/`."""

import importlib
import importlib.util
from pathlib import Path

import schemekit
import schemekit.cli  # noqa: F401  (cli and jsonio load only on use)
import schemekit.jsonio  # noqa: F401
from schemekit import exact

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve():
    tracer = _tracer()
    names = list(tracer.SPANNED_FUNCTIONS) + list(tracer.COUNTED_FUNCTIONS)
    assert ("modular", "least_squares") in names
    assert ("genham", "h_vector") in names
    for modname, attr in names:
        module = importlib.import_module("schemekit." + modname)
        assert callable(getattr(module, attr, None)), (modname, attr)


def test_wrapped_methods_resolve():
    tracer = _tracer()
    for clsname, attr in list(tracer.SPANNED_METHODS) + list(tracer.COUNTED_METHODS):
        assert attr in vars(getattr(exact, clsname)), (clsname, attr)


def test_tracer_installs_and_restores():
    tracer = _tracer().Tracer()
    before = schemekit.scheme.eigenmatrix
    try:
        tracer.install()
        assert schemekit.scheme.eigenmatrix is not before
    finally:
        tracer.uninstall()
    assert schemekit.scheme.eigenmatrix is before
