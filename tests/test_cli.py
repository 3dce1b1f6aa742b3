import ast
import contextlib
import gc
import importlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import schemekit
from schemekit import cli, errors
from schemekit import scheme as scheme_module
from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.cli import run
from schemekit.codes import Code, weight_enumerator
from schemekit.errors import (
    CertificationFailure,
    FormatError,
    SizeCapExceeded,
)
from schemekit.exact import ExactMatrix, GaussRat
from schemekit.genham import eigenmatrix_gh
from schemekit.jsonio import (
    gauss_to_obj,
    matrix_to_obj,
    parse_gauss,
    parse_matrix,
    parse_scheme_obj,
    poly_from_obj,
    poly_to_obj,
    scheme_from_obj,
    scheme_to_obj,
)
from schemekit.scheme import eigenmatrix


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def write_code(tmp_path, lines, name="code.txt"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return str(p)


# -- scheme ---------------------------------------------------------------


def test_build_cycle4_eigenmatrix(capsys):
    assert run(["scheme", "build", "cycle", "4", "--json"]) == 0
    obj = out_json(capsys)
    assert obj["v"] == 4 and obj["d"] == 2
    P = parse_matrix(obj["P"])
    assert P == eigenmatrix(cycle_scheme(4))
    rows = [[str(P[i, j]) for j in range(3)] for i in range(3)]
    assert rows == [["1", "2", "1"], ["1", "0", "-1"], ["1", "-2", "1"]]


@pytest.mark.parametrize("spec", [
    ["one_class", "2"],
    ["one_class", "5"],
    ["hamming", "2", "3"],
    ["cycle", "6"],
    ["group", "4"],
    ["group", "2", "4"],
])
def test_build_verify_round_trip(tmp_path, capsys, spec):
    assert run(["scheme", "build", *spec, "--json"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "scheme.json"
    path.write_text(text)
    assert run(["scheme", "verify", str(path)]) == 0


def test_verify_reads_stdin(capsys, monkeypatch):
    text = json.dumps(scheme_to_obj(one_class(3)))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["scheme", "verify", "-", "--json"]) == 0
    assert out_json(capsys)["ok"] is True


def test_verify_flags_bad_table(tmp_path, capsys):
    # path on three vertices: regular axioms fail at the intersection
    # number stage
    bad = {"v": 3, "d": 2,
           "relation": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["scheme", "verify", str(path), "--json"]) == 1
    obj = out_json(capsys)
    assert obj["ok"] is False
    failing = [c for c in obj["checks"] if not c["ok"]]
    assert failing and failing[0]["witness"] is not None


def test_verify_missing_file(capsys):
    assert run(["scheme", "verify", "/nonexistent/x.json"]) == 2


def test_build_unknown_builder(capsys):
    assert run(["scheme", "build", "petersen", "5"]) == 2


def test_build_bad_arity(capsys):
    assert run(["scheme", "build", "hamming", "2"]) == 2


def test_unknown_subcommand(capsys):
    assert run(["scheme", "frobnicate"]) == 2


def test_builder_colon_spec(capsys):
    assert run(["scheme", "eigen", "hamming:2:2", "--json"]) == 0
    P = parse_matrix(out_json(capsys)["P"])
    assert P == eigenmatrix(hamming(2, 2))


def test_eigen_dual(capsys):
    assert run(["scheme", "eigen", "one_class:2", "--dual", "--json"]) == 0
    obj = out_json(capsys)
    Q = parse_matrix(obj["Q"])
    assert Q == eigenmatrix(one_class(2))  # self-dual case: Q = P


def test_eigen_numeric_cycle5(capsys):
    # exact snap is refused here (math failure), but numeric mode works
    assert run(["scheme", "eigen", "cycle:5", "--json"]) == 1
    capsys.readouterr()
    assert run(["scheme", "eigen", "cycle:5", "--numeric", "--json"]) == 0
    obj = out_json(capsys)
    row0 = obj["P_numeric"][0]
    assert all(abs(z["im"]) < 1e-9 for z in row0)
    assert sorted(round(z["re"]) for z in row0) == [1, 2, 2]


def test_exact_json_has_no_floats(capsys):
    assert run(["scheme", "build", "group", "4", "--json"]) == 0
    text = capsys.readouterr().out

    def walk(x):
        if isinstance(x, float):
            raise AssertionError("float leaked into exact output: %r" % x)
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(json.loads(text))


def test_krein(capsys):
    assert run(["scheme", "krein", "group:4", "--json"]) == 0
    obj = out_json(capsys)
    q = obj["q"]
    d1 = len(q)
    assert d1 == 4
    # delta structure of an order-4 translation scheme: q[i][j][r] = delta
    for i in range(4):
        for j in range(4):
            for r in range(4):
                expect = "1" if (i + j) % 4 == r else "0"
                assert q[i][j][r] == expect


def test_fuse_z4_pairs(capsys):
    assert run(["scheme", "fuse", "group:4", "--blocks", "0;1,3;2",
                "--json"]) == 0
    obj = out_json(capsys)
    assert obj["relation"] == scheme_to_obj(cycle_scheme(4))["relation"]


def test_fuse_bad_blocks(capsys):
    assert run(["scheme", "fuse", "group:4", "--blocks", "0;1;2"]) == 2
    assert run(["scheme", "fuse", "group:4", "--blocks", "0,1;2,3"]) == 2


def test_fuse_non_scheme_merge(capsys):
    # merging the order-2 class with only half of the conjugate pair
    # breaks closure: math failure
    assert run(["scheme", "fuse", "group:4", "--blocks", "0;1;2,3"]) == 1


# -- gh -------------------------------------------------------------------


def test_gh_build_matches_library(capsys):
    assert run(["gh", "build", "--base", "one_class:2", "--n", "2",
                "--json"]) == 0
    obj = out_json(capsys)
    assert obj["v"] == 4 and obj["d"] == 2
    assert obj["relation"][0] == [0, 1, 1, 2]


def test_gh_eigen_binary(capsys):
    assert run(["gh", "eigen", "--base", "one_class:2", "--n", "2",
                "--json"]) == 0
    P = parse_matrix(out_json(capsys)["P"])
    rows = [[str(P[i, j]) for j in range(3)] for i in range(3)]
    assert rows == [["1", "2", "1"], ["1", "0", "-1"], ["1", "-2", "1"]]


def test_gh_fusion_check(capsys):
    assert run(["gh", "fusion-check", "--base", "one_class:2",
                "--m", "2", "--n", "2", "--json"]) == 0
    obj = out_json(capsys)
    assert obj["ok"] is True
    assert obj["split_classes"] == {"2": [2, 3]}


def test_gh_fusion_check_past_the_vertex_cap(capsys):
    # binary (4, 4): 2^16 words, past the vertex cap, but no table is
    # built; C(4+4, 4) = 70 fine classes
    argv = ["gh", "fusion-check", "--base", "one_class:2", "--m", "4",
            "--n", "4"]
    assert run(argv + ["--json"]) == 0
    obj = out_json(capsys)
    assert (obj["ok"], obj["detail"]) == (True, "")
    assert len(obj["mapping"]) == 70
    assert run(argv + ["--cap", "70"]) == 0
    assert capsys.readouterr().out.startswith("fusion holds\n")
    assert_refused(capsys, argv + ["--cap", "69"],
                   "70 fine classes exceeds cap 69")


def test_gh_build_cap(capsys):
    assert run(["gh", "build", "--base", "one_class:2", "--n", "13"]) == 2


def test_gh_build_caps_the_intersection_tensor(capsys):
    # 8 classes: 8^3 = 512 intersection numbers against cap^2
    argv = ["gh", "build", "--base", "group:2:2:2", "--n", "1"]
    assert run(argv + ["--cap", "23"]) == 0
    capsys.readouterr()
    assert_usage_error(capsys, argv + ["--cap", "22"])


@pytest.mark.parametrize("argv", [
    ["scheme", "build", "one_class", "10", "--cap", "5"],
    ["gh", "build", "--base", "one_class:10", "--n", "1", "--cap", "5"],
])
def test_one_class_honours_the_vertex_cap(capsys, argv):
    assert_refused(capsys, argv, "10 vertices exceeds cap 5")
    assert run(argv[:-1] + ["10"]) == 0


# -- code -----------------------------------------------------------------


def test_code_enumerate(tmp_path, capsys):
    path = write_code(tmp_path, ["0 0", "1 1"])
    assert run(["code", "enumerate", "--base", "one_class:2", path]) == 0
    out = capsys.readouterr().out
    assert "s0^2 + s1^2" in out


def test_code_transform_repetition(tmp_path, capsys):
    path = write_code(tmp_path, ["0 0", "1 1"])
    assert run(["code", "transform", "--base", "one_class:2", path,
                "--json"]) == 0
    obj = out_json(capsys)
    terms = {tuple(t["exponents"]): t["coeff"] for t in obj["terms"]}
    assert terms == {(2, 0): {"re": "1", "im": "0"},
                     (0, 2): {"re": "1", "im": "0"}}


def test_code_transform_n_cross_check(tmp_path, capsys):
    path = write_code(tmp_path, ["0 0", "1 1"])
    assert run(["code", "transform", "--base", "one_class:2", "--n", "3",
                path]) == 2


def test_code_dual(tmp_path, capsys):
    path = write_code(tmp_path, ["0 0 0", "0 1 1", "1 0 1", "1 1 0"])
    assert run(["code", "dual", "--base", "one_class:2", path,
                "--json"]) == 0
    obj = out_json(capsys)
    assert sorted(map(tuple, obj["words"])) == [(0, 0, 0), (1, 1, 1)]


def test_code_dual_non_additive(tmp_path, capsys):
    path = write_code(tmp_path, ["0 0", "0 1", "1 0"])
    assert run(["code", "dual", "--base", "one_class:2", path]) == 1


def test_code_file_comments_and_errors(tmp_path, capsys):
    path = write_code(tmp_path, ["# header", "", "0 0  # zero", "1 1"])
    assert run(["code", "enumerate", "--base", "one_class:2", path]) == 0
    capsys.readouterr()
    bad = write_code(tmp_path, ["0 x"], name="bad.txt")
    assert run(["code", "enumerate", "--base", "one_class:2", bad]) == 2


def test_code_z4(tmp_path, capsys):
    path = write_code(tmp_path, ["0", "2"])
    assert run(["code", "z4", path]) == 0
    out = capsys.readouterr().out
    assert "x0 + x2" in out
    assert "s^2 + t^2" in out


def test_code_gray_check(tmp_path, capsys):
    path = write_code(tmp_path, ["0 0", "1 1", "2 2", "3 3"])
    assert run(["code", "gray-check", path, "--json"]) == 0
    assert out_json(capsys)["holds"] is True


def test_code_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n1 1\n"))
    assert run(["code", "enumerate", "--base", "one_class:2", "-"]) == 0


# -- modinv ---------------------------------------------------------------


def test_modinv_verify_binary(capsys):
    assert run(["modinv", "verify", "--base", "one_class:2",
                "--T", "1,i", "--json"]) == 0
    obj = out_json(capsys)
    assert obj["c"] == {"re": "2", "im": "2"}


def test_modinv_verify_rejects(capsys):
    assert run(["modinv", "verify", "--base", "one_class:2",
                "--T", "1,1"]) == 1


def test_modinv_search_cycle4(capsys):
    assert run(["modinv", "search", "--base", "cycle:4", "--json"]) == 0
    obj = out_json(capsys)
    assert obj["found"] is True
    assert obj["T"] == [{"re": "1", "im": "0"},
                        {"re": "1", "im": "0"},
                        {"re": "-1", "im": "0"}]
    assert obj["c"] == {"re": "8", "im": "0"}


def test_modinv_search_incomplete(capsys):
    assert run(["modinv", "search", "--base", "one_class:3", "--json"]) == 1
    obj = out_json(capsys)
    assert obj["found"] is False
    assert obj["detail"] == \
        "search incomplete: no witness within 200 restarts"


def test_modinv_lift(capsys):
    assert run(["modinv", "lift", "--base", "one_class:2", "--n", "2",
                "--T", "1,i", "--json"]) == 0
    obj = out_json(capsys)
    assert obj["holds"] and obj["matches_expected"] and \
        obj["t_hat_consistent"]
    assert obj["constant"] == {"re": "0", "im": "8"}


def test_modinv_lift_searches_when_t_omitted(capsys):
    assert run(["modinv", "lift", "--base", "cycle:4", "--n", "2",
                "--json"]) == 0
    obj = out_json(capsys)
    assert obj["constant"] == {"re": "64", "im": "0"}


def test_modinv_bad_diagonal(capsys):
    assert run(["modinv", "verify", "--base", "one_class:2",
                "--T", "1,bogus"]) == 2


# -- sizes, stray errors and attached eigenmatrices -------------------------


def assert_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["gh", "eigen", "--base", "one_class:2", "--n=-1"],
    ["gh", "eigen", "--base", "one_class:2", "--n", "0"],
    ["gh", "build", "--base", "one_class:2", "--n", "0"],
    ["gh", "fusion-check", "--base", "one_class:2", "--m", "0", "--n", "2"],
    ["modinv", "lift", "--base", "cycle:4", "--n", "-3"],
    ["code", "enumerate", "--base", "one_class:2", "--n", "0", "-"],
    ["gh", "eigen", "--base", "one_class:2", "--n", "two"],
])
def test_sizes_below_one_are_usage_errors(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_restarts_below_one_are_usage_errors(capsys, restarts):
    # a budget of no restarts is not a search; it must not report one
    assert_usage_error(capsys, ["modinv", "search", "--base", "group:4",
                                "--restarts=" + restarts])


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["scheme", "verify", "group:4"],
    ["code", "dual", "--base", "group:4", "-"],
    ["modinv", "search", "--base", "group:4"],
])
def test_cap_below_one_is_a_usage_error(capsys, command, cap):
    # refused by the parser, before any command reads its cap
    assert run(command + ["--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "must be at least 1, got %s" % cap in captured.err


@pytest.mark.parametrize("obj", [
    {"v": "two", "d": 1, "relation": [[0, 1], [1, 0]]},
    {"v": 2, "d": None, "relation": [[0, 1], [1, 0]]},
])
def test_stray_value_and_type_errors_exit_2(tmp_path, capsys, obj):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(obj))
    assert_usage_error(capsys, ["scheme", "eigen", str(path)])


def tampered_one_class(tmp_path):
    obj = scheme_to_obj(one_class(2))
    obj["P"][1][1] = {"re": "5", "im": "0"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["code", "transform", "--base", "BAD", "CODE"],
    ["scheme", "eigen", "BAD"],
    ["gh", "eigen", "--base", "BAD", "--n", "2"],
])
def test_tampered_attached_P_is_rejected(tmp_path, capsys, argv):
    bad = tampered_one_class(tmp_path)
    code = write_code(tmp_path, ["0 0 0", "1 1 1"])
    argv = [bad if a == "BAD" else code if a == "CODE" else a for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_verify_does_not_certify_attached_P(tmp_path, capsys):
    # verify checks the table only; its report is unchanged by a bad P
    assert run(["scheme", "verify", tampered_one_class(tmp_path)]) == 0
    assert "FAILED" not in capsys.readouterr().out


def test_certified_attached_P_is_used(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(scheme_to_obj(cycle_scheme(4))))
    assert run(["scheme", "eigen", str(path), "--json"]) == 0
    assert parse_matrix(out_json(capsys)["P"]) == eigenmatrix(cycle_scheme(4))


def test_no_call_returns_a_scheme_with_a_tampered_P(tmp_path):
    obj = scheme_to_obj(one_class(2))
    obj["P"][1][1] = {"re": "5", "im": "0"}
    assert "check" not in inspect.signature(scheme_from_obj).parameters
    assert "check" not in inspect.signature(cli._load_scheme).parameters
    with pytest.raises(CertificationFailure):
        scheme_from_obj(obj)
    with pytest.raises(CertificationFailure):
        cli._load_scheme(tampered_one_class(tmp_path), 4096)
    # the format-checking half hands back a matrix, never a scheme
    relation, P = parse_scheme_obj(obj)
    assert (relation == one_class(2).relation).all()
    assert P == parse_matrix(obj["P"])


# -- the class-count cap ----------------------------------------------------


@pytest.mark.parametrize("argv, classes", [
    (["gh", "eigen", "--base", "one_class:2", "--n", "4"], 5),
    (["gh", "eigen", "--base", "group:4", "--n", "2"], 10),
    (["modinv", "lift", "--base", "one_class:2", "--n", "4", "--T", "1,i"],
     5),
    (["code", "transform", "--base", "one_class:2", "CODE"], 5),
])
def test_class_cap_boundary(tmp_path, capsys, argv, classes):
    code = write_code(tmp_path, ["0 0 0 0", "1 1 1 1"])
    argv = [code if a == "CODE" else a for a in argv]
    assert run(argv + ["--cap", str(classes)]) == 0
    assert capsys.readouterr().out
    assert_usage_error(capsys, argv + ["--cap", str(classes - 1)])


@pytest.mark.parametrize("argv", [
    ["gh", "eigen", "--base", "group:2:2:2", "--n", "20"],
    ["modinv", "lift", "--base", "group:2:2:2", "--n", "20"],
    ["code", "transform", "--base", "group:2:2:2", "CODE"],
])
def test_class_cap_runs_before_the_work(tmp_path, monkeypatch, capsys, argv):
    def fail(*args, **kwargs):
        raise AssertionError("called before the class cap was checked")

    for name in ("scheme.eigenmatrix", "genham.eigenmatrix_gh",
                 "modular.search_T", "codes.weight_enumerator"):
        monkeypatch.setattr("schemekit." + name, fail)
    code = write_code(tmp_path, [" ".join(["0"] * 20), " ".join(["7"] * 20)])
    # C(27, 7) = 888,030 classes, over the default cap of 4096
    assert_usage_error(capsys, [code if a == "CODE" else a for a in argv])


def _searches(monkeypatch):
    """The restart budgets `search_T` is called with from now on; each
    call finds nothing at once."""
    budgets = []

    def recording(P, restarts=200):
        budgets.append(restarts)

    monkeypatch.setattr("schemekit.modular.search_T", recording)
    return budgets


@pytest.mark.parametrize("argv, restarts", [
    (["modinv", "search", "--base", "hamming:4:2"], 200),
    (["modinv", "search", "--base", "hamming:4:2", "--restarts", "199"], 199),
    (["modinv", "lift", "--base", "hamming:4:2", "--n", "1"], 200),
])
def test_numeric_search_cap_boundary(monkeypatch, capsys, argv, restarts):
    # five classes: each step of the numeric witness search holds
    # min(restarts, 200) * 5^3 complex entries, 25,000 at 200 restarts,
    # and 158^2 = 24,964 < 25,000 <= 159^2; 199 restarts hold 24,875
    budgets = _searches(monkeypatch)
    cap = 158 if restarts < 200 else 159
    assert run(argv + ["--cap", str(cap)]) == 1
    assert budgets == [restarts]
    capsys.readouterr()
    if restarts == 200:
        assert_usage_error(capsys, argv + ["--cap", "158"])
        assert budgets == [restarts]


def test_numeric_search_cap_leaves_a_given_T_alone(capsys):
    # no search runs when T is given, so no search cap applies
    assert run(["modinv", "lift", "--base", "hamming:4:2", "--n", "1",
                "--T", "1,i,-1,-i,1", "--cap", "100"]) == 0
    assert "match" in capsys.readouterr().out


@pytest.mark.parametrize("classes, admitted", [(4, True), (43, True),
                                               (44, False)])
def test_numeric_search_cap_at_the_default(classes, admitted):
    # 200 * 43^3 = 15,901,400 <= 4096^2 = 16,777,216 < 200 * 44^3; four
    # classes are decided exactly or searched under any cap
    base = types.SimpleNamespace(d=classes - 1)
    if admitted:
        cli._check_search_cap(base, 200, 4096)
        cli._check_search_cap(base, 10**6, 4096)
    else:
        with pytest.raises(SizeCapExceeded, match="^44 classes: 17036800 "):
            cli._check_search_cap(base, 200, 4096)
    cli._check_search_cap(types.SimpleNamespace(d=3), 200, 1)


@pytest.mark.parametrize("command", ["search", "lift"])
def test_numeric_search_cap_refuses_128_classes_at_once(monkeypatch, capsys,
                                                       command):
    def fail(*args, **kwargs):
        raise AssertionError("called before the search cap was checked")

    for name in ("scheme.eigenmatrix", "modular.search_T"):
        monkeypatch.setattr("schemekit." + name, fail)
    argv = ["modinv", command, "--base", "group:2:2:2:2:2:2:2"]
    assert_usage_error(capsys, argv + (["--n", "1"] if command == "lift"
                                       else []))


# -- pinned text output -----------------------------------------------------

C4_P = "P:\n  1  2  1\n  1  0  -1\n  1  -2  1\n"
C4_SCHEME = ("v = 4\nd = 2\nvalencies = [1, 2, 1]\nsymmetric = True\n"
             "translation orders = (4,)\n")
ONE_CLASS_SCHEME = ("v = 2\nd = 1\nvalencies = [1, 1]\nsymmetric = True\n"
                    "translation orders = (2,)\n")
AXIOMS = ["identity", "partition", "transpose", "intersection",
          "commutativity"]


@pytest.mark.parametrize("argv, code, expected", [
    (["scheme", "build", "cycle", "4"], 0, C4_SCHEME + C4_P),
    (["scheme", "eigen", "cycle:4"], 0, C4_P),
    (["scheme", "eigen", "cycle:4", "--dual"], 0,
     C4_P + C4_P.replace("P:", "Q:")),
    (["scheme", "eigen", "cycle:5", "--numeric"], 0,
     "1+0i  2+0i  2+0i\n"
     "1+0i  0.618034+0i  -1.61803+0i\n"
     "1+0i  -1.61803+0i  0.618034+0i\n"),
    (["scheme", "krein", "cycle:4"], 0,
     "q[0][j][r]:\n  1  0  0\n  0  1  0\n  0  0  1\n"
     "q[1][j][r]:\n  0  1  0\n  2  0  2\n  0  1  0\n"
     "q[2][j][r]:\n  0  0  1\n  0  1  0\n  1  0  0\n"),
    (["scheme", "fuse", "group:4", "--blocks", "0;1,3;2"], 0, C4_SCHEME),
    (["gh", "build", "--base", "one_class:2", "--n", "2"], 0,
     C4_SCHEME.replace("(4,)", "(2, 2)")),
    (["gh", "fusion-check", "--base", "one_class:2", "--m", "2", "--n", "2"],
     0, "fusion holds\n  coarse class 2 splits into fine classes [2, 3]\n"),
    (["code", "dual", "--base", "one_class:2", "EVEN"], 0, "0 0 0\n1 1 1\n"),
    (["code", "gray-check", "REP4"], 0, "Gray/Lee identity holds\n"),
    (["modinv", "search", "--base", "one_class:3"], 1,
     "search incomplete: no witness within 200 restarts\n"),
    (["scheme", "build", "one_class", "2"], 0,
     ONE_CLASS_SCHEME + "P:\n  1  1\n  1  -1\n"),
    (["scheme", "verify", "cycle:4"], 0,
     "".join("axiom %d (%s): ok\n" % (k + 1, name)
             for k, name in enumerate(AXIOMS))),
    (["gh", "eigen", "--base", "one_class:2", "--n", "2"], 0, C4_P),
    (["code", "enumerate", "--base", "one_class:2", "REP3"], 0,
     "s0^3 + s1^3\n"),
    (["code", "transform", "--base", "one_class:2", "REP3"], 0,
     "t0^3 + 3*t0*t1^2\n"),
    (["code", "z4", "ZERO_TWO"], 0,
     "complete:    x0 + x2\nsymmetrized: x0 + x2\nlee:         s^2 + t^2\n"),
    (["modinv", "verify", "--base", "one_class:2", "--T", "1,i"], 0,
     "T = diag(1, i), c = 2+2i\n"),
    (["modinv", "search", "--base", "one_class:2"], 0,
     "T = diag(1, i), c = 2+2i\n"),
    (["modinv", "lift", "--base", "one_class:2", "--n", "2", "--T", "1,i"], 0,
     "base witness: T = diag(1, i), c = 2+2i\nlift to degree 2: constant = "
     "8i (expected 8i, match); diagonal lift consistent: True\n"),
])
def test_text_output(tmp_path, capsys, argv, code, expected):
    files = {"EVEN": ["0 0 0", "0 1 1", "1 0 1", "1 1 0"],
             "REP4": ["0 0", "1 1", "2 2", "3 3"],
             "REP3": ["0 0 0", "1 1 1"],
             "ZERO_TWO": ["0", "2"]}
    argv = [write_code(tmp_path, files[a]) if a in files else a for a in argv]
    assert run(argv) == code
    assert capsys.readouterr().out == expected


def test_code_z4_json(tmp_path, capsys):
    def poly(nvars, *exponents):
        return {"nvars": nvars,
                "terms": [{"exponents": list(e),
                           "coeff": {"re": "1", "im": "0"}}
                          for e in exponents]}

    assert run(["code", "z4", write_code(tmp_path, ["0", "2"]),
                "--json"]) == 0
    assert out_json(capsys) == {
        "complete": poly(4, (1, 0, 0, 0), (0, 0, 1, 0)),
        "symmetrized": poly(3, (1, 0, 0), (0, 0, 1)),
        "lee": poly(2, (2, 0), (0, 2)),
    }


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_modinv_lift_without_a_witness_is_an_error(capsys, mode):
    # one_class:3 has no Gaussian-rational witness (see search_incomplete)
    assert run(["modinv", "lift", "--base", "one_class:3", "--n", "2"]
               + mode) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: search incomplete: no witness found to lift\n"


# -- caps at the trust boundary ---------------------------------------------


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("argv", [
    ["scheme", "verify", "C4"],
    ["code", "enumerate", "--base", "C4", "CODE"],
])
def test_json_table_vertex_cap_boundary(tmp_path, monkeypatch, capsys,
                                        argv, mode):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(scheme_to_obj(cycle_scheme(4))))
    code = write_code(tmp_path, ["0 1", "2 3"])
    argv = [str(path) if a == "C4" else code if a == "CODE" else a
            for a in argv] + mode
    assert run(argv + ["--cap", "4"]) == 0
    assert capsys.readouterr().out

    def fail(*args, **kwargs):
        raise AssertionError("the table was verified before the cap")

    monkeypatch.setattr("schemekit.scheme.verify_axioms", fail)
    monkeypatch.setattr("schemekit.jsonio.AssociationScheme", fail)
    assert_usage_error(capsys, argv + ["--cap", "3"])


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("argv", [
    ["scheme", "eigen", "cycle:4"],
    ["scheme", "eigen", "cycle:4", "--dual"],
    ["scheme", "eigen", "cycle:5", "--numeric"],
    ["scheme", "krein", "cycle:4"],
    ["gh", "eigen", "--base", "cycle:4", "--n", "1"],
    ["code", "transform", "--base", "cycle:4", "CODE"],
    ["modinv", "verify", "--base", "cycle:4", "--T", "1,1,-1"],
    ["modinv", "search", "--base", "cycle:4"],
    ["modinv", "lift", "--base", "cycle:4", "--n", "1"],
])
def test_tensor_cap_boundary(tmp_path, monkeypatch, capsys, argv, mode):
    # 3 classes: 3^3 = 27 <= 6^2 runs, 27 > 5^2 is refused before P is
    # formed
    argv = [write_code(tmp_path, ["0", "2"]) if a == "CODE" else a
            for a in argv] + mode
    assert run(argv + ["--cap", "6"]) == 0
    assert capsys.readouterr().out

    def fail(*args, **kwargs):
        raise AssertionError("called before the class cap was checked")

    for name in ("scheme.eigenmatrix", "scheme.numeric_eigenmatrix",
                 "scheme.krein_parameters", "modular.search_T",
                 "codes.weight_enumerator"):
        monkeypatch.setattr("schemekit." + name, fail)
    assert_usage_error(capsys, argv + ["--cap", "5"])


@pytest.mark.parametrize("argv", [
    ["scheme", "eigen", "C4"],
    ["scheme", "eigen", "C4", "--numeric"],
    ["scheme", "krein", "C4"],
    ["gh", "eigen", "--base", "C4", "--n", "1"],
    ["code", "transform", "--base", "C4", "CODE"],
    ["modinv", "verify", "--base", "C4", "--T", "1,1,-1"],
    ["modinv", "search", "--base", "C4"],
    ["modinv", "lift", "--base", "C4", "--n", "1"],
])
def test_tensor_cap_refuses_a_json_table_before_verifying_it(
        tmp_path, monkeypatch, capsys, argv):
    # the 4-cycle as a JSON table: its 3 classes run at cap 6 and are
    # refused at cap 5 without the table being verified
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(scheme_to_obj(cycle_scheme(4))))
    argv = [str(path) if a == "C4" else
            write_code(tmp_path, ["0", "2"]) if a == "CODE" else a
            for a in argv]
    assert run(argv + ["--cap", "6"]) == 0
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise AssertionError("the table was verified before the class cap")

    monkeypatch.setattr("schemekit.jsonio.AssociationScheme", fail)
    assert_refused(capsys, argv + ["--cap", "5"],
                   "3 classes: 3^3 intersection numbers exceed cap^2 = 25")


@pytest.mark.parametrize("command", ["eigen", "krein", "verify"])
def test_class_rule_refuses_a_spec_before_its_builder(monkeypatch, capsys,
                                                      command):
    # 4096 classes inside the vertex cap: the count follows from the spec
    def fail(*args, **kwargs):
        raise AssertionError("the builder ran before the class rule")

    monkeypatch.setattr("schemekit.builders.group_scheme", fail)
    assert_refused(capsys, ["scheme", command, "group" + ":2" * 12],
                   "4096 classes: 4096^3 intersection numbers exceed "
                   "cap^2 = 16777216")
    monkeypatch.setattr("schemekit.builders.cycle_scheme", fail)
    assert_refused(capsys, ["scheme", command, "cycle:10", "--cap", "5"],
                   "6 classes: 6^3 intersection numbers exceed cap^2 = 25")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_scheme_verify_counts_a_spec_over_its_group(tmp_path, monkeypatch,
                                                    capsys, mode):
    """A builder spec is verified by its translation route, with the
    bytes the dense route prints for the same table from a JSON file."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(scheme_to_obj(group_scheme([4, 2, 2]))))
    assert run(["scheme", "verify", str(path)] + mode) == 0
    dense = capsys.readouterr()

    def fail(*args, **kwargs):
        raise AssertionError("the dense route ran on a builder spec")

    monkeypatch.setattr("schemekit.scheme.verify_axioms", fail)
    monkeypatch.setattr("schemekit.scheme._product_tensor", fail)
    assert run(["scheme", "verify", "group:4:2:2"] + mode) == 0
    assert capsys.readouterr() == dense


def test_gray_check_honours_the_cap(tmp_path, capsys):
    # the dual of a length-7 Z4 code has 4^7 = 16384 candidate words
    path = write_code(tmp_path, [" ".join(str(a) * 7) for a in range(4)])
    assert_refused(capsys, ["code", "gray-check", path],
                   "4^7 candidate words exceeds cap 4096")
    assert run(["code", "gray-check", path, "--cap", "20000"]) == 0
    assert capsys.readouterr().out == "Gray/Lee identity holds\n"


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("argv", [
    ["code", "enumerate", "--base", "one_class:2", "BIN"],
    ["code", "transform", "--base", "one_class:2", "BIN"],
    ["code", "dual", "--base", "one_class:2", "BIN"],
    ["code", "z4", "Z4"],
    ["code", "gray-check", "Z4"],
])
def test_code_word_cap_boundary(tmp_path, monkeypatch, capsys, argv, mode):
    # 16 words, the whole word space, so the dual's candidate words meet
    # the cap too: |C| = cap runs, |C| = cap + 1 is refused before the
    # code is built or any pair is profiled
    files = {"BIN": [" ".join("{:04b}".format(x)) for x in range(16)],
             "Z4": ["%d %d" % (a, b) for a in range(4) for b in range(4)]}
    argv = [write_code(tmp_path, files[a]) if a in files else a
            for a in argv] + mode
    assert run(argv + ["--cap", "16"]) == 0
    assert capsys.readouterr().out

    def fail(*args, **kwargs):
        raise AssertionError("called before the word cap was checked")

    for name in ("Code", "weight_enumerator", "dual_code", "z4_enumerators",
                 "gray_lee_check"):
        monkeypatch.setattr("schemekit.codes." + name, fail)
    assert run(argv + ["--cap", "15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 16 code words exceeds cap 15\n"


# -- pinned JSON output -------------------------------------------------------


def g(re, im="0"):
    return {"re": re, "im": im}


ONE_CLASS_P = [[g("1"), g("1")], [g("1"), g("-1")]]
WITNESS = {"T": [g("1"), g("0", "1")], "c": g("2", "2")}


@pytest.mark.parametrize("argv, code, obj", [
    (["scheme", "build", "one_class", "2"], 0,
     {"v": 2, "d": 1, "relation": [[0, 1], [1, 0]], "P": ONE_CLASS_P}),
    (["scheme", "verify", "cycle:4"], 0,
     {"ok": True, "checks": [{"axiom": k + 1, "name": name, "ok": True,
                              "witness": None, "detail": ""}
                             for k, name in enumerate(AXIOMS)]}),
    (["scheme", "eigen", "one_class:2", "--dual"], 0,
     {"P": ONE_CLASS_P, "Q": ONE_CLASS_P}),
    (["scheme", "eigen", "one_class:2", "--numeric"], 0,
     {"P_numeric": [[{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
                    [{"re": 1.0, "im": 0.0}, {"re": -1.0, "im": 0.0}]]}),
    (["scheme", "krein", "one_class:2"], 0,
     {"q": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]}),
    (["scheme", "fuse", "group:4", "--blocks", "0;1,3;2"], 0,
     {"v": 4, "d": 2, "relation": [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1],
                                   [1, 2, 1, 0]]}),
    (["gh", "build", "--base", "one_class:2", "--n", "1"], 0,
     {"v": 2, "d": 1, "relation": [[0, 1], [1, 0]]}),
    (["gh", "eigen", "--base", "one_class:2", "--n", "2"], 0,
     {"P": [[g("1"), g("2"), g("1")], [g("1"), g("0"), g("-1")],
            [g("1"), g("-2"), g("1")]]}),
    (["gh", "fusion-check", "--base", "one_class:2", "--m", "2", "--n", "2"],
     0, {"ok": True, "mapping": [0, 1, 2, 2, 3, 4],
         "split_classes": {"2": [2, 3]}, "detail": ""}),
    (["code", "enumerate", "--base", "one_class:2", "REP3"], 0,
     {"nvars": 2, "terms": [{"exponents": [3, 0], "coeff": g("1")},
                            {"exponents": [0, 3], "coeff": g("1")}]}),
    (["code", "transform", "--base", "one_class:2", "REP3"], 0,
     {"nvars": 2, "terms": [{"exponents": [3, 0], "coeff": g("1")},
                            {"exponents": [1, 2], "coeff": g("3")}]}),
    (["code", "dual", "--base", "one_class:2", "EVEN"], 0,
     {"size": 2, "words": [[0, 0, 0], [1, 1, 1]]}),
    (["code", "z4", "ZERO_TWO"], 0,
     {"complete": {"nvars": 4, "terms": [
         {"exponents": [1, 0, 0, 0], "coeff": g("1")},
         {"exponents": [0, 0, 1, 0], "coeff": g("1")}]},
      "symmetrized": {"nvars": 3, "terms": [
          {"exponents": [1, 0, 0], "coeff": g("1")},
          {"exponents": [0, 0, 1], "coeff": g("1")}]},
      "lee": {"nvars": 2, "terms": [{"exponents": [2, 0], "coeff": g("1")},
                                    {"exponents": [0, 2], "coeff": g("1")}]}}),
    (["code", "gray-check", "REP4"], 0, {"holds": True}),
    (["modinv", "verify", "--base", "one_class:2", "--T", "1,i"], 0, WITNESS),
    (["modinv", "search", "--base", "one_class:2"], 0,
     {"found": True, **WITNESS}),
    (["modinv", "search", "--base", "one_class:3", "--restarts", "3"], 1,
     {"found": False,
      "detail": "search incomplete: no witness within 3 restarts"}),
    (["modinv", "lift", "--base", "one_class:2", "--n", "2", "--T", "1,i"], 0,
     {"n": 2, "base": WITNESS, "holds": True, "constant": g("0", "8"),
      "expected": g("0", "8"), "matches_expected": True,
      "t_hat_consistent": True}),
])
def test_json_output(tmp_path, capsys, argv, code, obj):
    # the exact bytes: two-space indent, keys in the order written
    files = {"REP3": ["0 0 0", "1 1 1"],
             "EVEN": ["0 0 0", "0 1 1", "1 0 1", "1 1 0"],
             "ZERO_TWO": ["0", "2"],
             "REP4": ["0 0", "1 1", "2 2", "3 3"]}
    argv = [write_code(tmp_path, files[a]) if a in files else a for a in argv]
    assert run(argv + ["--json"]) == code
    assert capsys.readouterr() == (json.dumps(obj, indent=2) + "\n", "")


def test_non_commutative_table_fails_verify(tmp_path, capsys):
    # the thin scheme of S_3, as built by test_scheme.thin_s3_table
    table = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
             [4, 5, 1, 0, 3, 2], [3, 2, 5, 4, 0, 1], [5, 4, 3, 2, 1, 0]]
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"v": 6, "d": 5, "relation": table}))
    assert run(["scheme", "verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.endswith("axiom 4 (intersection): ok\naxiom 5 "
                        "(commutativity): FAILED (p[1][2][3] != p[2][1][3])\n")
    assert "FAILED" not in out.split("axiom 5")[0]
    assert run(["scheme", "eigen", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: axiom 5 (commutativity): FAILED (p[1][2][3] != "
            "p[2][1][3])\n")


# -- input errors -----------------------------------------------------------


def assert_refused(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("argv, message", [
    (["scheme", "verify", "hamming:x"],
     "bad builder spec 'hamming:x': arguments must be integers"),
    (["scheme", "eigen", "group:"],
     "bad builder spec 'group:': arguments must be integers"),
    (["scheme", "build", "group"], "builder 'group' needs at least one order"),
    (["scheme", "verify", "group"],
     "builder 'group' needs at least one order"),
    (["modinv", "verify", "--base", "one_class:2", "--T", ""],
     "empty diagonal for --T"),
    (["modinv", "verify", "--base", "one_class:2", "--T", " , ,"],
     "empty diagonal for --T"),
    (["modinv", "verify", "--base", "one_class:2", "--T", "1,1/-2i"],
     "bad number '1/-2i'"),
    (["scheme", "fuse", "group:4", "--blocks", "0;1,x;2"],
     "bad block '1,x' in --blocks"),
    (["scheme", "fuse", "group:4", "--blocks", ""], "empty --blocks"),
    (["scheme", "fuse", "group:4", "--blocks", " ; ;"], "empty --blocks"),
])
def test_bad_arguments_are_refused(capsys, argv, message):
    assert_refused(capsys, argv, message)


def test_bad_json_is_refused(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"v": 2,')
    assert_refused(capsys, ["scheme", "verify", str(path)],
                   "bad JSON in %r: Expecting property name enclosed in "
                   "double quotes: line 1 column 9 (char 8)" % str(path))


@pytest.mark.parametrize("text, expected", [
    ("2+2i", GaussRat(2, 2)),
    ("-i", GaussRat(0, -1)),
    ("i", GaussRat(0, 1)),
    ("1/2-3/4i", GaussRat(Fraction(1, 2), Fraction(-3, 4))),
    ("-3/4i", GaussRat(0, Fraction(-3, 4))),
    ("-1/2", GaussRat(Fraction(-1, 2))),
])
def test_parse_gauss_compact_forms(text, expected):
    assert parse_gauss(text) == expected


def test_parse_gauss_refuses_a_sign_in_a_denominator():
    with pytest.raises(FormatError, match=re.escape("bad number '1/-2i'")):
        parse_gauss("1/-2i")


def _entrywise_obj(M):
    """matrix_to_obj as one gauss_to_obj per GaussRat entry."""
    return [[gauss_to_obj(M[i, j]) for j in range(M.ncols)]
            for i in range(M.nrows)]


@pytest.mark.parametrize("rows", [
    [[-3, 0, GaussRat(Fraction(5, 6), Fraction(-1, 4))],
     [GaussRat(0, 2), Fraction(-7, 3), 1],
     [GaussRat(Fraction(1, 2), 1), GaussRat(4, Fraction(-2, 3)),
      GaussRat(-1, -1)]],
    [[Fraction(1, 2), Fraction(-3, 4)], [0, 6]],
    [[4, -2], [0, 10]],
    [[GaussRat(0, -1), 2], [GaussRat(-6, 3), 0]],
], ids=["mixed", "real-fractions", "integers", "gaussian-integers"])
def test_matrix_obj_formats_as_each_entry(rows):
    M = ExactMatrix([[GaussRat.coerce(x) for x in row] for row in rows])
    assert matrix_to_obj(M) == _entrywise_obj(M)


def test_gh_eigen_json_formats_as_each_entry(capsys):
    assert run(["gh", "eigen", "--base", "hamming:2:2", "--n", "20",
                "--json"]) == 0
    P = eigenmatrix_gh(eigenmatrix(hamming(2, 2)), 20)
    assert capsys.readouterr().out == json.dumps(
        {"P": _entrywise_obj(P)}, indent=2) + "\n"


R2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize("obj, message", [
    ([1, 2], "scheme object must be a JSON object"),
    ({"v": 2, "d": 1}, "scheme object missing 'relation'"),
    ({"v": 2, "relation": R2}, "scheme object missing 'd'"),
    ({"v": 2, "d": 1, "relation": [[0, 1]]}, "relation table must be square"),
    ({"v": 2, "d": 1, "relation": [0, 1]}, "relation table must be square"),
    ({"v": 3, "d": 1, "relation": R2}, "relation size 2 does not match v=3"),
    ({"v": 2, "d": 2, "relation": R2}, "relation classes do not match d=2"),
    ({"v": 2, "d": 1, "relation": [[0, "x"], [1, 0]]},
     "bad relation table: invalid literal for int() with base 10: 'x'"),
    ({"v": 2, "d": 1, "relation": R2, "P": []},
     "matrix must be a non-empty list of rows"),
    ({"v": 2, "d": 1, "relation": R2, "P": [[], []]},
     "matrix rows must be non-empty lists"),
    ({"v": 2, "d": 1, "relation": R2, "P": [["1", "1"], ["1"]]},
     "ragged matrix"),
    ({"v": 2, "d": 1, "relation": R2, "P": [["1", "1"], ["1", "x"]]},
     "bad rational 'x': Invalid literal for Fraction: 'x'"),
])
def test_scheme_object_format_errors(tmp_path, capsys, obj, message):
    with pytest.raises(FormatError) as info:
        parse_scheme_obj(obj)
    assert str(info.value) == message
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(obj))
    for command in ("verify", "eigen"):
        assert_refused(capsys, ["scheme", command, str(path)], message)


@pytest.mark.parametrize("text, message", [
    ('{"v": 2, "d": 1, "relation": [[0, 1.7], [1, 0.2]]}',
     "bad relation table: entries must be integers, got float"),
    ('{"v": 2, "d": 1, "relation": [[0, 1.0], [1, 0]]}',
     "bad relation table: entries must be integers, got float"),
    ('{"v": 2, "d": 1, "relation": [[0, true], [true, 0]]}',
     "bad relation table: entries must be integers, got bool"),
    ('{"v": 2, "d": 1, "relation": [[0, "1"], [1, 0]]}',
     "bad relation table: entries must be integers, got str"),
    ('{"v": 2, "d": 1, "relation": [[0, 99999999999999999999], [1, 0]]}',
     "bad relation table: an entry is outside int64"),
    ('{"v": 2, "d": 1, "relation": [[0, 9223372036854775808], [1, 0]]}',
     "bad relation table: an entry is outside int64"),
    ('{"v": 1e400, "d": 1, "relation": [[0, 1], [1, 0]]}',
     "v must be an integer, got inf"),
    ('{"v": 2.0, "d": 1, "relation": [[0, 1], [1, 0]]}',
     "v must be an integer, got 2.0"),
    ('{"v": true, "d": 1, "relation": [[0, 1], [1, 0]]}',
     "v must be an integer, got True"),
    ('{"v": 2, "d": 1.5, "relation": [[0, 1], [1, 0]]}',
     "d must be an integer, got 1.5"),
    ('{"v": 2, "d": 1, "relation": [[0, 1], [1, 0]], '
     '"P": [[true, true], [true, -1]]}',
     "bad rational True: not a JSON integer or string"),
    ('{"v": 2, "d": 1, "relation": [[0, 1], [1, 0]], '
     '"P": [[1.0, 1], [1, -1]]}',
     "bad rational 1.0: not a JSON integer or string"),
    ('{"v": 2, "d": 1, "relation": [[0, 1], [1, 0]], '
     '"P": [[1, 1], [1, {"re": -1, "im": 1e-400}]]}',
     "bad rational 0.0: not a JSON integer or string"),
    ('{"v": 2, "d": 1, "relation": [[0, 1], [1, 0]], '
     '"P": [[1, 1], [{"re": true}, -1]]}',
     "bad rational True: not a JSON integer or string"),
], ids=["float", "integral-float", "bool", "digit-string", "over-int64",
        "int64-max-plus-one", "v-1e400", "v-float", "v-bool", "d-float",
        "P-bool", "P-float", "P-im-1e-400", "P-re-bool"])
def test_scheme_json_refuses_non_integers(tmp_path, capsys, text, message):
    # before, the int64 cast truncated floats and read booleans, and an
    # out-of-range value ended in an OverflowError traceback (exit 1)
    with pytest.raises(FormatError) as info:
        parse_scheme_obj(json.loads(text))
    assert str(info.value) == message
    path = tmp_path / "odd.json"
    path.write_text(text)
    for command in ("verify", "eigen"):
        assert_refused(capsys, ["scheme", command, str(path)], message)


def bad_term(term):
    return ("bad term %r: needs a 'coeff' and 2 non-negative integer "
            "'exponents'" % (term,))


@pytest.mark.parametrize("obj, message", [
    ({"nvars": 2.7, "terms": [{"exponents": [1.9, True], "coeff": "1"}]},
     "nvars must be a positive integer, got 2.7"),
    ({"nvars": True, "terms": []},
     "nvars must be a positive integer, got True"),
    ({"nvars": 0, "terms": []}, "nvars must be a positive integer, got 0"),
    ({"nvars": 2, "terms": {"exponents": [1, 1]}},
     "terms must be a list, got {'exponents': [1, 1]}"),
    ({"nvars": 2, "terms": [{"exponents": [1.9, 1], "coeff": "1"}]},
     bad_term({"exponents": [1.9, 1], "coeff": "1"})),
    ({"nvars": 2, "terms": [{"exponents": [1, True], "coeff": "1"}]},
     bad_term({"exponents": [1, True], "coeff": "1"})),
    ({"nvars": 2, "terms": [{"exponents": [1, -1], "coeff": "1"}]},
     bad_term({"exponents": [1, -1], "coeff": "1"})),
    ({"nvars": 2, "terms": [{"exponents": [1], "coeff": "1"}]},
     bad_term({"exponents": [1], "coeff": "1"})),
    ({"nvars": 2, "terms": [{"exponents": "11", "coeff": "1"}]},
     bad_term({"exponents": "11", "coeff": "1"})),
    ({"nvars": 2, "terms": [{"coeff": "1"}]}, bad_term({"coeff": "1"})),
    ({"nvars": 2, "terms": [{"exponents": [1, 1]}]},
     bad_term({"exponents": [1, 1]})),
    ({"nvars": 2, "terms": [[1, 1]]}, bad_term([1, 1])),
    ({"nvars": 2, "terms": [{"exponents": [1, 1], "coeff": 0.5}]},
     "bad rational 0.5: not a JSON integer or string"),
    ({"nvars": 2, "terms": [{"exponents": [1, 1], "coeff": True}]},
     "bad rational True: not a JSON integer or string"),
    ({"nvars": 2, "terms": [{"exponents": [1, 1],
                             "coeff": {"re": "1", "im": 2.0}}]},
     "bad rational 2.0: not a JSON integer or string"),
], ids=["float-nvars", "bool-nvars", "zero-nvars", "terms-object",
        "float-exponent", "bool-exponent", "negative-exponent",
        "short-exponents", "string-exponents", "no-exponents", "no-coeff",
        "list-term", "float-coeff", "bool-coeff", "float-im-coeff"])
def test_poly_from_obj_refuses_non_integers(obj, message):
    # before, int() truncated the first to s0*s1, and a term with no
    # "exponents" raised a bare KeyError
    with pytest.raises(FormatError) as info:
        poly_from_obj(obj)
    assert str(info.value) == message


def test_poly_round_trip():
    code = Code([(0, 1, 2), (1, 1, 0), (2, 2, 2), (0, 0, 0)], one_class(3))
    W = weight_enumerator(code)
    assert poly_from_obj(poly_to_obj(W)) == W
    assert poly_from_obj(json.loads(json.dumps(poly_to_obj(W)))) == W


# -- one output point -------------------------------------------------------


def test_only_run_prints():
    """Commands return their result; `run` alone writes to stdout."""
    writers = []
    for fn in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "run":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                writers.append(fn.name)
            if isinstance(node, ast.Attribute) and node.attr == "stdout":
                writers.append(fn.name)
    assert writers == []


# -- start-up: what the package and each command load -------------------------
#
# Each case below starts a fresh interpreter (about 0.15 s), since a
# module once loaded stays in sys.modules.

_SRC = str(Path(cli.__file__).resolve().parents[1])
_LIBRARY = ["builders", "codes", "errors", "exact", "genham", "modular",
            "scheme"]
_LOADED = """
import contextlib, io, json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules
                  if m.startswith("schemekit."))
"""


def _fresh(*args):
    """`python *args` in a fresh interpreter on this checkout's src."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=_SRC))


def test_package_loads_nothing_until_a_public_name_is_read():
    proc = _fresh("-c", _LOADED + """
import schemekit
bare = loaded(), "numpy" in sys.modules
schemekit.eigenmatrix
print(json.dumps([bare, loaded()]))
""")
    assert json.loads(proc.stdout) == [[[], False], _LIBRARY]


def test_cli_import_help_and_refusals_load_errors_and_exact_alone():
    proc = _fresh("-c", _LOADED + """
import schemekit.cli
seen = [[None, loaded()]]
for argv in (["--help"], ["scheme", "bogus"], ["scheme", "build", "nosuch"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        seen.append([schemekit.cli.run(argv), loaded()])
print(json.dumps(seen))
""")
    modules = ["cli", "errors", "exact"]
    assert json.loads(proc.stdout) == [[None, modules], [0, modules],
                                       [2, modules], [2, modules]]


@pytest.mark.parametrize("argv, absent", [
    (["scheme", "eigen", "cycle:4", "--dual", "--json"], {"codes", "modular"}),
    (["gh", "eigen", "--base", "one_class:2", "--n", "2"],
     {"codes", "modular"}),
    (["code", "transform", "--base", "one_class:2", "CODE"], {"modular"}),
    (["modinv", "lift", "--base", "one_class:2", "--n", "2", "--json"],
     {"codes"}),
])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    argv = [write_code(tmp_path, ["0 0 0", "1 1 1"]) if a == "CODE" else a
            for a in argv]
    proc = _fresh("-c", _LOADED + """
import schemekit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = schemekit.cli.run(sys.argv[1:])
print(json.dumps([code, loaded()]))
""", *argv)
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "scheme" in loaded and not absent & set(loaded)


def test_module_entry_point_refuses_an_unknown_builder_cleanly():
    # runpy warns on stderr if loading the package imports schemekit.cli
    proc = _fresh("-m", "schemekit.cli", "scheme", "build", "nosuch")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: unknown builder 'nosuch' (expected one of "
                           "one_class, hamming, group, cycle)\n")


@pytest.mark.parametrize("name", schemekit.__all__)
def test_public_name_is_its_module_object(name):
    value = getattr(schemekit, name)
    homes = [vars(importlib.import_module("schemekit." + m))
             for m in _LIBRARY]
    homes = [home[name] for home in homes if name in home]
    assert homes and all(obj is value for obj in homes)


def test_public_names_are_listed_and_star_importable():
    assert set(schemekit.__all__) <= set(dir(schemekit))
    namespace = {}
    exec("from schemekit import *", namespace)
    assert {name: namespace[name] for name in schemekit.__all__} == {
        name: getattr(schemekit, name) for name in schemekit.__all__}


@pytest.mark.parametrize("name", _LIBRARY + ["cli", "jsonio"])
def test_reading_a_submodule_name_imports_it(monkeypatch, name):
    module = importlib.import_module("schemekit." + name)
    monkeypatch.delattr(schemekit, name)
    assert getattr(schemekit, name) is module


@pytest.mark.parametrize("name", ["nosuch", "DEFAULT_CAP", "run"])
def test_unknown_package_attribute_is_named(name):
    with pytest.raises(AttributeError, match="has no attribute %r" % name):
        getattr(schemekit, name)


def test_default_cap_lives_in_errors(capsys):
    assert scheme_module.DEFAULT_CAP is errors.DEFAULT_CAP == 4096
    assert run(["scheme", "eigen", "--help"]) == 0
    assert "(default 4096," in " ".join(capsys.readouterr().out.split())


# -- the process entry point and the cyclic collector -------------------------
#
# `main` runs a command with the collector off and freezes the heap before
# exit.  That is safe because a command's cyclic garbage (the parser) does
# not grow with its input: each pair below runs one command on a small and
# a large instance and finds the same count of unreachable objects.

_SEVEN_WORDS = ["0000000000", "1111111111", "1010101010", "0101010101",
                "1100110011", "0011001100", "1110001110"]


def _cyclic_garbage(argv):
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        return code, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("small, large", [
    (["gh", "eigen", "--base", "hamming:2:2", "--n", "3"],
     ["gh", "eigen", "--base", "hamming:2:2", "--n", "14"]),
    (["scheme", "krein", "hamming:2:2"], ["scheme", "krein", "group:4:4:4"]),
    (["code", "enumerate", "--base", "one_class:2", "SEVEN"],
     ["code", "enumerate", "--base", "one_class:2", "FULL"]),
    # decided exactly; the 8-class search runs the numeric stream
    (["modinv", "search", "--base", "group:2:2"],
     ["modinv", "search", "--base", "group:2:2:2"]),
])
def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, small, large,
                                                     json_flag):
    files = {
        "SEVEN": write_code(tmp_path, [" ".join(w) for w in _SEVEN_WORDS],
                            "seven.txt"),
        "FULL": write_code(tmp_path, [" ".join(w) for w in
                                      itertools.product("01", repeat=10)],
                           "full.txt"),
    }
    counts = []
    for argv in (small, large):
        code, garbage = _cyclic_garbage(
            [files.get(a, a) for a in argv] + json_flag)
        assert code in (0, 1)
        counts.append(garbage)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(capsys, enabled):
    if not enabled:
        gc.disable()
    try:
        assert run(["scheme", "eigen", "cycle:4"]) == 0
        state = gc.isenabled(), gc.get_freeze_count()
    finally:
        gc.enable()
    assert state == (enabled, 0)


def test_main_runs_the_command_without_the_collector_and_exits_with_its_code():
    proc = _fresh("-c", """
import atexit, gc, json, schemekit.cli
def at_exit():
    print(json.dumps(["exit", gc.isenabled(), gc.get_freeze_count() > 0]))
atexit.register(at_exit)
def run(argv=None):
    print(json.dumps(["run", gc.isenabled(), gc.get_freeze_count()]))
    return 3
schemekit.cli.run = run
schemekit.cli.main()
""")
    assert proc.returncode == 3
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        ["run", False, 0], ["exit", False, True]]


def test_module_entry_point_prints_what_run_prints(capsys):
    argv = ["scheme", "eigen", "cycle:4", "--json"]
    assert run(argv) == 0
    proc = _fresh("-m", "schemekit.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, capsys.readouterr().out, "")
