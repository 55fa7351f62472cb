import importlib
import subprocess
import sys

import pytest

import pelletbounds

from conftest import pelletbounds_env

# every name the package exports, by the submodule that defines it
EXPORTED = {
    "bounds": ["GAP", "NO_GAP", "UPPER_ONLY", "CauchyBounds", "GapResult", "OddIndexError",
               "cauchy_bounds", "pellet_gap", "squared_bounds", "squared_gap"],
    "embed": ["InvalidDegreeError", "LacunaryPolynomial", "ZeroLeadingError", "embed_even",
              "embed_odd", "to_scalar"],
    "experiments": ["ExperimentConfig", "ExperimentResult", "gen_ex1", "gen_ex2", "gen_ex3",
                    "gen_ex4", "run_experiment", "trial_rng"],
    "linalg": ["NoConvergenceError", "NormKind", "SingularMatrixError", "eigenvalues", "norm"],
    "matpoly": ["MatrixPolynomial", "NotMonicError", "OddDegreeError", "companion", "evaluate",
                "from_json", "left_precondition", "monicize", "reciprocal", "scalar_polynomial",
                "shift_by_z", "square_repartition", "to_json"],
    "oracle": ["EigenReport", "count_in_annulus", "count_in_disk", "eigen_oracle"],
    "rootloc": ["InvalidShapeError", "PositiveRoots", "SignedRadialPolynomial", "positive_roots"],
}


@pytest.mark.parametrize("module, name",
                         [(module, name) for module, names in EXPORTED.items() for name in names])
def test_every_exported_name_is_its_submodules_object(module, name):
    assert getattr(pelletbounds, name) is getattr(importlib.import_module(f"pelletbounds.{module}"),
                                                  name)


def test_all_version_and_dir():
    assert sorted(pelletbounds.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    assert pelletbounds.__version__ == "0.1.0"
    assert set(pelletbounds.__all__) <= set(dir(pelletbounds))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pelletbounds import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pelletbounds.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pelletbounds.no_such_name
    with pytest.raises(ImportError):
        exec("from pelletbounds import no_such_name", {})


def test_a_name_is_kept_after_its_first_use():
    # kept as an eager import kept it, so a tracer that replaces both the
    # submodule's and the package's binding sees calls through the package
    out = _fresh("import pelletbounds\n"
                 "print('cauchy_bounds' in vars(pelletbounds))\n"
                 "from pelletbounds import bounds\n"
                 "print(pelletbounds.cauchy_bounds is bounds.cauchy_bounds)\n"
                 "print(vars(pelletbounds)['cauchy_bounds'] is bounds.cauchy_bounds)")
    assert out == ["False", "True", "True"]


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], env=pelletbounds_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_neither_numpy_nor_scipy():
    loaded = _fresh("import sys, pelletbounds\n"
                    "print(*[m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'scipy'))])")
    assert loaded == []


def test_matpoly_does_not_load_root_isolation():
    # matpoly depends on linalg alone: the Newton polygon of the kept logs
    # is read by rootloc, which matpoly neither keeps nor imports
    out = _fresh("import sys\n"
                 "import pelletbounds.matpoly\n"
                 "print('pelletbounds.rootloc' in sys.modules)")
    assert out == ["False"]


def test_linalg_loads_only_scipys_lapack_extension():
    out = _fresh("import sys\n"
                 "from pelletbounds import linalg\n"
                 "print(*sorted(m for m in sys.modules if m.startswith('scipy')))\n"
                 "import scipy.linalg\n"
                 "print(scipy.linalg.lapack.zgetrf is linalg.lapack.zgetrf)")
    assert out == ["scipy.linalg._flapack", "True"]
