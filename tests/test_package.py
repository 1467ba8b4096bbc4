import importlib
import os
import pathlib
import re
import subprocess
import sys

import rieszkit

MODULES = ("errors", "numerics", "hilbert", "stieltjes", "conditional", "wiener")

PUBLIC_NAMES = {
    "errors": {
        "RieszkitError", "NumericError", "IntegrabilityError", "ConvergenceError",
        "ContractViolationError", "BudgetError",
    },
    "numerics": {"QuadratureRule", "gauss_legendre", "gauss_hermite", "adaptive_integrate"},
    "hilbert": {
        "BASIS_KINDS", "OrthonormalBasis", "HilbertVector", "DiscreteHValuedLaw",
        "inner_product", "project", "riesz_representer", "bochner_expectation",
        "expected_norm", "prefix_indicator_law",
    },
    "stieltjes": {
        "CdfLike", "ExpectationOracle", "RampSpec", "RecoveredCdf",
        "ls_measure_interval", "ls_integrate", "make_ramp", "make_cutoff",
        "recover_cdf", "total_mass", "uniform_cdf", "triangular_cdf",
        "two_atom_cdf", "point_mass_cdf", "oracle_from_cdf", "oracle_from_samples",
    },
    "conditional": {
        "FiniteMeasureSpace", "RandomVariable", "ConditionedRV", "L1LadderResult",
        "Partition", "ConjugateExponents", "cond_expectation", "cond_expectation_l1",
        "verify_duality", "DualityReport", "holder_bound_check", "HolderReport",
    },
    "wiener": {
        "WienerParams", "CylindricalFunctional", "CylinderSet", "BridgePath",
        "heat_kernel", "check_compatibility", "cylinder_probability",
        "wiener_integral_quadrature", "node_refinement_table", "sample_bridge",
        "wiener_integral_mc", "integrate_pointwise_limit", "PointwiseLimitResult",
    },
}


def test_package_exports_each_modules_public_names_once():
    assert len(rieszkit.__all__) == 61 == len(set(rieszkit.__all__))
    assert set(rieszkit.__all__) == set().union(*PUBLIC_NAMES.values())
    for name in MODULES:
        module = importlib.import_module(f"rieszkit.{name}")
        assert set(module.__all__) == PUBLIC_NAMES[name]
        for public in module.__all__:
            assert getattr(rieszkit, public) is getattr(module, public)


def test_version_runs_from_source():
    # the CLI reports rieszkit.__version__ without installed metadata, and
    # that version is the one pyproject.toml declares
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "rieszkit.cli", "--version"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert rieszkit.__version__ in result.stdout
    declared = re.search(r'^version = "([^"]+)"', (root / "pyproject.toml").read_text(), re.M)
    assert declared.group(1) == rieszkit.__version__
