"""Smoke test: every demo runs to the end in-process."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
               .glob("*.py"))


def test_four_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()


def test_macwilliams_demo_verdicts_hold():
    """Demo 03 checks the transform against the substitution t -> P^-1 t
    and the Z4 Gray/Lee identities; every verdict it prints is True."""
    path = next(p for p in DEMOS if p.name == "03_macwilliams_codes.py")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    verdicts = [line.rsplit(" ", 1)[1] for line in out.getvalue().splitlines()
                if line.endswith(("True", "False"))]
    assert verdicts == ["True"] * 4
