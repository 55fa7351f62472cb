import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pelletbounds import cli, from_json, matpoly, scalar_polynomial
from pelletbounds.bounds import squared_polynomial

from conftest import pelletbounds_env


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
    ("b", float("inf")), ("n", "6"), ("n", True), ("n", 6.9), ("n", 6.0),
], ids=["one-element-pair", "three-element-pair", "bool", "string", "null", "int-beyond-double",
        "infinite", "string-n", "bool-n", "float-n", "integral-float-n"])
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


@pytest.mark.parametrize("poly, n", [("1,2", 1), ("1,0,0,1", 3), ("1,0,0,0,1", 4)])
def test_embed_low_degree_is_inapplicable_on_both_paths(capsys, tmp_path, poly, n):
    # the library's InvalidDegreeError, exit 2, from --poly as from --input
    spec = {"n": n, "a": 1.0, "b": 0.0, "c": 0.0, "alpha": 1.0, "beta": 0.0, "gamma": 1.0}
    path = tmp_path / "lac.json"
    path.write_text(json.dumps(spec))
    for argv in (["--poly", poly], ["--input", str(path)]):
        code, out, err = run_cli(capsys, "embed", *argv)
        assert code == 2 and out == ""
        assert err.startswith("inapplicable: InvalidDegreeError: ")


@pytest.mark.parametrize("poly", ["1e-300,1e5,1,0,0,1,1,1", "1e-300,1e5,1,0,0,0,1,1,1",
                                  "1e300,1e300,-1e300,0,0,0,1,1,1"])
def test_embed_that_overflows_is_inapplicable(capsys, poly):
    # finite input that bounds accepts; the embedding's factors overflow
    assert run_cli(capsys, "bounds", "--poly", poly)[0] == 0
    code, out, err = run_cli(capsys, "embed", "--poly", poly)
    assert code == 2 and out == ""
    assert err.startswith("inapplicable: SingularMatrixError: ") and "overflow" in err
    # an input that is itself beyond the double range stays an input error
    assert run_cli(capsys, "embed", "--poly", "1e400," + poly.split(",", 1)[1])[:2] == (1, "")

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


def test_preconditioned_coefficient_whose_norm_overflows_is_absent(capsys, tmp_path):
    # [[1e308, 0], [0.7e308, 0]] + I z + 0.9 I z^2: the 1-norm of A_2^-1 A_0
    # is past the double range, so the preconditioned upper radius is
    # absent at exit 0, as for any pivot left_precondition refuses
    path = tmp_path / "p.json"
    path.write_text(matpoly.to_json(matpoly.MatrixPolynomial(
        [[[1e308, 0.0], [0.7e308, 0.0]], np.eye(2), 0.9 * np.eye(2)])))
    code, out, err = run_cli(capsys, "bounds", "--input", str(path), "--norm", "one",
                             "--precondition")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "| one | monic-preconditioned | absent | absent |"


def test_overflowing_pivot_norm_is_named(capsys, tmp_path):
    # I z^2 + A_1 z + I with a well-conditioned A_1 whose infinity norm
    # passes the double range: inapplicable, and not called singular
    a1 = np.array([[1e308, 1e308], [1e308, -1e308]])
    path = tmp_path / "p.json"
    path.write_text(matpoly.to_json(matpoly.MatrixPolynomial([np.eye(2), a1, np.eye(2)])))
    for extra in (("--precondition",), ()):
        code, _, err = run_cli(capsys, "gap", "--input", str(path), "--k", "1", *extra)
        assert code == 2
        assert err.strip() == ("inapplicable: SingularMatrixError: "
                               "the pivot's infinity norm overflows the double range")


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


@pytest.mark.parametrize("root", [1e305, 1e-305])
def test_bounds_root_near_the_double_range_limit_is_found(capsys, root):
    # z + root has both radii at root, near an end of the double range
    code, out, err = run_cli(capsys, "bounds", "--poly", f"1,{root!r}", "--format", "json")
    assert code == 0, err
    [row] = json.loads(out)
    assert row["upper"] == pytest.approx(root, rel=1e-12)
    assert row["lower"] == pytest.approx(root, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("bounds", "--poly", "1,1e200,1e200", "--variant", "q"),
    ("bounds", "--poly", "1,1e200,1e200", "--variant", "q", "--precondition"),
    ("gap", "--poly", "1,1e200,1e200,1,1", "--k", "2", "--variant", "q"),
    ("square", "--poly", "1,1e200,1e200"),
], ids=["bounds", "bounds-preconditioned", "gap", "square"])
def test_overflowing_squared_coefficients_are_inapplicable(capsys, argv):
    # a valid input (eigenvalues near 1 and 1e200) whose Q holds 1e400:
    # exit 2 without a numpy warning, not an input error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("inapplicable: SingularMatrixError: the companion-squared coefficients "
                   "overflow the double range\n")


def test_underflowed_preconditioned_leading_coefficient_is_inapplicable(capsys):
    # A_0^-1 A_2 = 1e-400 underflows to zero (and A_2^-1 A_0 overflows):
    # absent radii, and an inapplicable gap query, not an input error; so
    # for 1e200 z^2 + 1e-200, whose upper radius through A_2^-1 A_0 = 1e-400
    # was 0, below the moduli 1e-200
    for poly in ("1e-200,1,1e200", "1e200,0,1e-200"):
        code, out, err = run_cli(capsys, "bounds", "--poly", poly, "--precondition",
                                 "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "norm,variant,upper,lower\none,monic-preconditioned,absent,absent\n"
    code, out, err = run_cli(capsys, "gap", "--poly", "1e-200,1e200,1", "--k", "1",
                             "--precondition")
    assert code == 2 and out == ""
    assert err == ("inapplicable: SingularMatrixError: the preconditioned coefficient "
                   "A_1^-1 A_2 underflows the normal double range\n")


@pytest.mark.parametrize("argv", [
    ("bounds", "--poly", "1e200,0,1e-200", "--variant", "q"),
    ("gap", "--poly", "1,1e200,1e-50,1e-150", "--k", "2", "--precondition"),
    ("oracle", "--poly", "1e200,0,1e-200"),
], ids=["bounds-q", "gap", "oracle"])
def test_underflowed_preconditioned_lower_coefficient_is_inapplicable(capsys, argv):
    # 1e200 z^2 + 1e-200 has eigenvalues of modulus 1e-200 and
    # z^3 + 1e200 z^2 + 1e-50 z + 1e-150 two of modulus 1e-175, but A_2^-1 A_0
    # (1e-400 and 1e-350) is zero in doubles: monicized, the first became z^2
    # (moduli 0, so the oracle exited 3), and the second claimed the annulus
    # (1e-250, 1e200) free of eigenvalues
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("inapplicable: SingularMatrixError: the preconditioned coefficient "
                   "A_2^-1 A_0 underflows the normal double range\n")


def _run_fresh(argv, env=None, **kwargs):
    """``python -m pelletbounds.cli *argv`` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "pelletbounds.cli", *argv],
                          env=env or pelletbounds_env(), timeout=120, **kwargs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_the_query_quietly(unbuffered):
    # unbuffered, the write in _emit meets the closed pipe; buffered, the
    # flush after it does, where the flush at exit used to
    env = pelletbounds_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_fresh(["oracle", "--poly", "1,-3,2"], env, stdout=write_end,
                          stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write to stdout") and proc.stderr.count("\n") == 1


# the CLI run as ``python -m pelletbounds.cli *argv``, then what it left
_AFTER_QUERY = """
import gc, json, runpy, sys
try:
    runpy.run_module("pelletbounds.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "experiments": "pelletbounds.experiments" in sys.modules,
                  "gc_enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


def test_query_loads_no_experiment_code_and_leaves_the_collector_on():
    proc = subprocess.run([sys.executable, "-c", _AFTER_QUERY, "gap", "--poly", "1,-3,2",
                           "--k", "1"], env=pelletbounds_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *out, report = proc.stdout.splitlines()
    assert out == ["norm=one k=1 gap: x1=1 x2=2 count=1"]
    report = json.loads(report)
    # the import-time objects are frozen, and the collector is on again
    assert report.pop("frozen") > 0
    assert report == {"exit": 0, "experiments": False, "gc_enabled": True}


def test_failed_import_leaves_the_collector_on():
    script = ("import gc, sys\n"
              "sys.modules['pelletbounds.rootloc'] = None\n"
              "try:\n"
              "    import pelletbounds.cli\n"
              "except ImportError:\n"
              "    print('ImportError', gc.isenabled())\n")
    proc = subprocess.run([sys.executable, "-c", script], env=pelletbounds_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "ImportError True\n"), proc.stderr


@pytest.mark.identity
def test_experiment_query_reproduces_a_golden_csv():
    proc = _run_fresh(["experiment", "--example", "ex3", "--trials", "60", "--seed", "1",
                       "--format", "csv"], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "data" / "ex3_trials60_seed1.csv").read_bytes()


def _overflowing_norm_poly(tmp_path, n):
    """I z^n + ... + I z + A_0 with every entry of A_0 1e308: its 1-norm
    and the eigenvalue -2e308 of I z + A_0 exceed the double range."""
    p = matpoly.MatrixPolynomial([np.full((2, 2), 1e308)] + [np.eye(2)] * n)
    path = tmp_path / f"p{n}.json"
    path.write_text(matpoly.to_json(p))
    return str(path)


def test_overflowing_norm_prints_only_the_verdict(tmp_path):
    # the 1-norm sum overflows in numpy, and LAPACK's SVD returns NaN for a
    # 2-norm whose entry's modulus overflows; the library reads both as inf
    # without numpy's RuntimeWarning, so the one line on stderr is the verdict
    two = tmp_path / "two.json"
    two.write_text(matpoly.to_json(matpoly.MatrixPolynomial([[[1.5e308 + 1.5e308j]], [[1.0]]])))
    for argv in (("bounds", "--input", _overflowing_norm_poly(tmp_path, 1)),
                 ("gap", "--input", _overflowing_norm_poly(tmp_path, 2), "--k", "1"),
                 ("bounds", "--input", str(two), "--norm", "two")):
        proc = _run_fresh(argv, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "inapplicable: InvalidShapeError: coefficients must be finite and nonnegative"]


def test_eigenvalue_beyond_double_range_is_a_numerical_failure(capsys, tmp_path):
    code, out, err = run_cli(capsys, "oracle", "--input", _overflowing_norm_poly(tmp_path, 1))
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: NonFiniteEigenvalueError: ")


def test_oracle_moduli_outside_the_cauchy_radii_are_a_numerical_failure(capsys):
    # z^2 + 1e200 z + 1e200 has moduli 1 + 1e-200 and 1e200 - 1, but the
    # companion eigensolve returns 0 and 1e200: the 1-norm Cauchy radius
    # r = 1 contradicts the 0, so no modulus is printed
    code, out, err = run_cli(capsys, "oracle", "--poly", "1,1e200,1e200")
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: SoundnessError: ")
    assert "lower bound 1.0 > min modulus 0.0" in err
    # a Cauchy radius near the top of the double range holds its modulus
    assert run_cli(capsys, "oracle", "--poly", "1,1e305")[:2] == (0, "1e+305\n")


def test_oracle_moduli_stand_when_the_cauchy_radius_is_past_the_double_range(capsys, tmp_path):
    # I z + A_0 with A_0 = [[1e308, 0], [1e308, 0]]: its 1-norm, 2e308, and
    # so the radius pass the double range, which tests nothing, while the
    # moduli 0 and 1e308 are finite
    p = matpoly.MatrixPolynomial([np.array([[1e308, 0.0], [1e308, 0.0]]), np.eye(2)])
    path = tmp_path / "p.json"
    path.write_text(matpoly.to_json(p))
    assert run_cli(capsys, "oracle", "--input", str(path))[:2] == (0, "0\n1e+308\n")


def test_near_identity_leading_coefficient_is_monicized(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--poly", "1.00000000000001,-3,2", "--variant", "q",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("one,squared-Q+monicized,")


@pytest.mark.identity
def test_benchmark_queries_reproduce_their_reference_output(capsys, monkeypatch):
    # the recorded exit code and stdout of each CLI query of the benchmark,
    # byte for byte, run from the repository root as the benchmark runs them
    root = Path(__file__).resolve().parents[1]
    queries = json.loads((root / "perfbench" / "reference.json").read_text())["cli"]
    monkeypatch.chdir(root)
    assert len(queries) == 13
    for query in queries:
        code, out, _ = run_cli(capsys, *query["argv"])
        assert (code, out) == (query["exit"], query["stdout"]), query["argv"]
