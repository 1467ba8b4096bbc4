import importlib
import inspect
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


def settable_values() -> list[str]:
    """Every parameter with a default, as "callable(parameter)", across the
    public functions, class constructors and public methods of the names in
    ``rieszkit.__all__``."""
    found = []
    for name in rieszkit.__all__:
        obj = getattr(rieszkit, name)
        if not callable(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [
                (f"{name}.{attr}", getattr(obj, attr)) for attr, raw in vars(obj).items()
                if not attr.startswith("_")
                and (inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)))
            ]
        for label, member in members:
            try:
                parameters = inspect.signature(member).parameters.values()
            except ValueError:  # a class that keeps Exception's constructor
                continue
            found += [f"{label}({p.name})" for p in parameters if p.default is not p.empty]
    return found


# Each entry is a setting some caller can change; a new one is added here on purpose.
SETTABLE_VALUES = [
    "NumericError(point)", "ConvergenceError(estimates)", "ContractViolationError(index)",
    "adaptive_integrate(breakpoints)",
    "OrthonormalBasis(kind)", "OrthonormalBasis(size)",
    "DiscreteHValuedLaw.from_sampler(omega_rule)", "project(breakpoints)",
    "CdfLike(breakpoints)", "CdfLike(kinks)", "ExpectationOracle(support)",
    "ls_integrate(tol)", "ls_integrate(max_depth)",
    "recover_cdf(j_max)", "recover_cdf(m_max)", "recover_cdf(tol)", "recover_cdf(full_output)",
    "total_mass(m_max)", "RecoveredCdf(j_max)", "RecoveredCdf(m_max)", "RecoveredCdf(tol)",
    "RecoveredCdf.as_cdf(grid)", "uniform_cdf(lo)", "uniform_cdf(hi)",
    "triangular_cdf(lo)", "triangular_cdf(mode)", "triangular_cdf(hi)", "point_mass_cdf(at)",
    "oracle_from_cdf(tol)",
    "ConditionedRV(zero_mass_blocks)", "L1LadderResult(zero_mass_blocks)",
    "L1LadderResult(converged)", "L1LadderResult(j_reached)", "L1LadderResult(ladder)",
    "cond_expectation_l1(j_max)", "verify_duality(tol)",
    "WienerParams(x)", "WienerParams(y)", "WienerParams(t)", "WienerParams(D)",
    "CylindricalFunctional(bound)", "check_compatibility(n_nodes)",
    "cylinder_probability(n_nodes)", "wiener_integral_quadrature(n_nodes)",
    "node_refinement_table(node_counts)", "wiener_integral_mc(seed)",
    "integrate_pointwise_limit(n_nodes)", "integrate_pointwise_limit(tol)",
]


def test_public_settings_are_the_listed_ones():
    assert len(SETTABLE_VALUES) == 48
    assert settable_values() == SETTABLE_VALUES


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
