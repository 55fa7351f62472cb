import json

import numpy as np
import pytest

from pelletbounds import cli, from_json, matpoly, scalar_polynomial
from pelletbounds.bounds import squared_polynomial


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gap_known_polynomial(capsys):
    code, out, err = run_cli(capsys, "gap", "--poly", "1,-3,2", "--k", "1", "--norm", "one")
    assert code == 0
    assert "x1=1" in out and "x2=2" in out and "count=1" in out


def test_gap_requires_k(capsys):
    code, out, err = run_cli(capsys, "gap", "--poly", "1,-3,2")
    assert code == 1
    assert "k" in err


def test_gap_json_format(capsys):
    code, out, _ = run_cli(capsys, "gap", "--poly", "1,1,1", "--k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["status"] == "nogap"


def test_bounds_singular_constant_reports_absent(capsys):
    code, out, err = run_cli(capsys, "bounds", "--poly", "1,-3,0", "--norm", "one")
    assert code == 0
    assert "absent" in out


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--poly", "1,0,-4", "--norm", "one",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "norm,variant,upper,lower"
    assert lines[1].startswith("one,plain,2,2")


def test_squared_gap_and_bounds_tags_agree(capsys):
    # both go through bounds.squared_polynomial: +monicized comes first
    poly = ("--poly", "2,-3,1,5,-7", "--variant", "q", "--precondition", "--format", "json")
    code, out, _ = run_cli(capsys, "gap", *poly, "--k", "2")
    assert code == 0
    gap_tag = json.loads(out)[0]["variant"]
    code, out, _ = run_cli(capsys, "bounds", *poly)
    assert code == 0
    bounds_tag = json.loads(out)[0]["variant"]
    assert gap_tag == "squared-Q+monicized+B-preconditioned"
    assert bounds_tag == "squared-Q+monicized+B0-preconditioned"


def test_square_round_trip_bit_exact(capsys):
    code, out, _ = run_cli(capsys, "square", "--poly", "1,-3,2", "--variant", "qr")
    assert code == 0
    expected = squared_polynomial(scalar_polynomial([2.0, -3.0, 1.0]), True)[0]
    parsed = from_json(out)
    for c1, c2 in zip(parsed.stack, expected.stack):
        assert np.array_equal(c1, c2)
    assert out.strip() == matpoly.to_json(expected)


def test_embed_emits_valid_polynomial(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "embed", "--poly", "1,2,-1,0,0,0,3,0.5,-2")
    assert code == 0
    q = from_json(out)
    assert q.m == 2 and q.n == 4
    # lacunary JSON input path
    spec = {"n": 7, "a": [1.0, 0.0], "b": 2.0, "c": 0.5, "alpha": -3.0, "beta": 0.0,
            "gamma": [1.0, 0.0]}
    path = tmp_path / "lac.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "embed", "--input", str(path))
    assert code == 0
    assert from_json(out).n == 4


@pytest.mark.parametrize("key, value", [
    ("b", [1.0]), ("b", [1.0, 0.0, 99.0]), ("b", True), ("b", "1.5"), ("b", None), ("b", 10**400),
    ("n", "6"), ("n", True), ("n", 6.9), ("n", 6.0),
], ids=["one-element-pair", "three-element-pair", "bool", "string", "null", "int-beyond-double",
        "string-n", "bool-n", "float-n", "integral-float-n"])
def test_malformed_lacunary_json_is_an_input_error(capsys, tmp_path, key, value):
    spec = {"n": 6, "a": [1.0, 0.0], "b": 2.0, "c": 0.0, "alpha": 1.0, "beta": 0.0, "gamma": 1.0}
    path = tmp_path / "lac.json"
    path.write_text(json.dumps(spec))
    assert run_cli(capsys, "embed", "--input", str(path))[0] == 0
    spec[key] = value
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "embed", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_embed_rejects_dense_poly(capsys):
    code, _, err = run_cli(capsys, "embed", "--poly", "1,2,-1,9,0,0,3,0.5,-2")
    assert code == 1
    assert "lacunary" in err or "zero" in err


def test_oracle_moduli(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--poly", "1,-3,2")
    assert code == 0
    assert out.split() == ["1", "2"]
    code, out, _ = run_cli(capsys, "oracle", "--poly=-1,3")  # a leading negative coefficient
    assert code == 0
    assert out.split() == ["3"]


def test_oracle_singular_leading_is_inapplicable(capsys, tmp_path):
    p = matpoly.MatrixPolynomial([np.eye(2), np.diag([1.0, 0.0])])
    path = tmp_path / "p.json"
    path.write_text(matpoly.to_json(p))
    code, _, err = run_cli(capsys, "oracle", "--input", str(path))
    assert code == 2
    assert "Singular" in err


def test_gap_singular_pivot_exit_code(capsys, tmp_path):
    p = matpoly.MatrixPolynomial([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
    path = tmp_path / "p.json"
    path.write_text(matpoly.to_json(p))
    code, _, err = run_cli(capsys, "gap", "--input", str(path), "--k", "1")
    assert code == 2


def test_overflowing_pivot_inverse(capsys, tmp_path):
    # passes the LU pivot test, but its inverse overflows: the bound or
    # query that pivots on it is inapplicable, not an input error
    a = 1e-300 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    path = tmp_path / "p.json"
    path.write_text(matpoly.to_json(matpoly.MatrixPolynomial([a, np.eye(2), np.eye(2)])))
    for extra in (("--norm", "two"), ("--precondition",), ()):
        code, out, _ = run_cli(capsys, "bounds", "--input", str(path), *extra)
        assert code == 0
        assert out.splitlines()[-1].endswith("| absent |")
    path.write_text(matpoly.to_json(
        matpoly.MatrixPolynomial([np.eye(2), a, 1e-300 * np.eye(2), np.eye(2)])))
    for extra in (("--precondition",), ()):
        code, _, err = run_cli(capsys, "gap", "--input", str(path), "--k", "1", "--norm", "one",
                               *extra)
        assert code == 2
        assert "Singular" in err


def _set_entry(d, value):
    d["coeffs"][0][0][0] = value


def _set_row(d, value):
    d["coeffs"][0][1] = value


@pytest.mark.parametrize("spoil", [
    lambda d: _set_entry(d, [1.0]),
    lambda d: _set_entry(d, [1.0, 0.0, 2.0]),
    lambda d: _set_entry(d, ["1.5", 0.0]),
    lambda d: _set_entry(d, [True, 0.0]),
    lambda d: _set_entry(d, [None, 0.0]),
    lambda d: _set_entry(d, [10**400, 0.0]),
    lambda d: d.update(n=2),
    lambda d: d.update(m=3),
    lambda d: _set_row(d, [[0.0, 0.0]]),
    lambda d: d.update(n="1"),
    lambda d: d.update(n=True),
    lambda d: d.update(n=1.0),
    lambda d: d.update(m=2.0),
], ids=["one-element-pair", "three-element-pair", "string", "bool", "null", "int-beyond-double", "wrong-n",
        "wrong-m", "ragged-rows", "string-n", "bool-n", "float-n", "float-m"])
def test_malformed_json_is_an_input_error(capsys, tmp_path, spoil):
    d = json.loads(matpoly.to_json(matpoly.MatrixPolynomial([np.eye(2), np.eye(2)])))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    assert run_cli(capsys, "oracle", "--input", str(path))[0] == 0
    spoil(d)
    path.write_text(json.dumps(d))
    code, out, err = run_cli(capsys, "oracle", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_out_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "oracle", "--poly", "1,-3,2", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_format_only_where_it_is_used(capsys):
    assert run_cli(capsys, "square", "--poly", "1,-3,2", "--format", "md")[0] == 1
    assert run_cli(capsys, "embed", "--poly", "1,2,-1,0,0,0,3,0.5,-2", "--format", "json")[0] == 1
    assert run_cli(capsys, "gap", "--poly", "1,-3,2", "--k", "1", "--format", "csv")[0] == 1
    assert run_cli(capsys, "oracle", "--poly", "1,-3,2", "--format", "csv")[0] == 1


def test_bad_inputs_exit_one(capsys, tmp_path):
    assert run_cli(capsys, "gap", "--poly", "abc", "--k", "1")[0] == 1
    assert run_cli(capsys, "oracle", "--poly", "1,,-3,2")[0] == 1  # an empty field
    assert run_cli(capsys, "oracle", "--poly", "1,0,-3,2,")[0] == 1  # a trailing comma
    assert run_cli(capsys, "oracle", "--poly", "-1,3")[0] == 1  # -1,3 read as a flag
    assert run_cli(capsys, "bounds")[0] == 1  # no polynomial given
    assert run_cli(capsys, "gap", "--poly", "1,-3,2", "--k", "7")[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "bounds", "--input", str(bad))[0] == 1
    assert run_cli(capsys, "bounds", "--frobnicate")[0] == 1
    assert run_cli(capsys, "experiment", "--example", "ex3", "--trials", "1",
                   "--seed", str(2**64))[0] == 1
    assert run_cli(capsys, "experiment", "--example", "ex2", "--trials", "1",
                   "--eta", "nan")[0] == 1
    assert run_cli(capsys, "experiment", "--example", "ex1", "--m", "1", "--trials", "1",
                   "--norm", "one", "--norm", "one")[0] == 1  # a repeated norm kind
    assert run_cli(capsys, "experiment", "--example", "ex3", "--trials", "1",
                   "--norm", "one", "--norm", "two")[0] == 1  # two kinds where one is used


def test_experiment_csv_deterministic(capsys):
    argv = ["experiment", "--example", "ex1", "--m", "2", "--trials", "5",
            "--seed", "42", "--norm", "one", "--format", "csv"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "ex1_upper_m2_one" in out1


def test_experiment_json_is_strict(capsys):
    # undefined means and percentages print as null, not as the NaN token
    code, out, _ = run_cli(capsys, "experiment", "--example", "ex3", "--trials", "2",
                           "--seed", "1", "--format", "json")
    assert code == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    obj = json.loads(out, parse_constant=reject)
    ratio = obj["tables"]["ex3_gap_ratio"]
    assert None in [v for row in ratio["rows"] for v in row]


def test_experiment_out_file(capsys, tmp_path):
    path = tmp_path / "tables.csv"
    code, out, _ = run_cli(capsys, "experiment", "--example", "ex4", "--n", "20",
                           "--trials", "4", "--seed", "1", "--format", "csv",
                           "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "ex4_bounds_n20" in text


def test_bounds_root_beyond_double_range_is_inapplicable(capsys):
    # the upper radius is 1e310, which a double cannot hold
    code, out, err = run_cli(capsys, "bounds", "--poly", "1e-10,-1e300")
    assert code == 2
    assert "InvalidShapeError" in err
