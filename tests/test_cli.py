import inspect
import io
import json

import pytest

from schemekit import cli
from schemekit.builders import cycle_scheme, group_scheme, hamming, one_class
from schemekit.cli import run
from schemekit.errors import CertificationFailure
from schemekit.jsonio import (
    parse_matrix,
    parse_scheme_obj,
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


def test_gh_build_cap(capsys):
    assert run(["gh", "build", "--base", "one_class:2", "--n", "13"]) == 2


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
    assert "incomplete" in obj["detail"]


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

    for name in ("eigenmatrix", "eigenmatrix_gh", "search_T",
                 "weight_enumerator"):
        monkeypatch.setattr(cli, name, fail)
    code = write_code(tmp_path, [" ".join(["0"] * 20), " ".join(["7"] * 20)])
    # C(27, 7) = 888,030 classes, over the default cap of 4096
    assert_usage_error(capsys, [code if a == "CODE" else a for a in argv])
