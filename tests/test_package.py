import importlib
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import rieszkit
from rieszkit import (
    CdfLike, ConjugateExponents, CylinderSet, CylindricalFunctional, DiscreteHValuedLaw,
    ExpectationOracle, FiniteMeasureSpace, QuadratureRule,
    HilbertVector, OrthonormalBasis, Partition, RampSpec, RandomVariable, RecoveredCdf,
    WienerParams, adaptive_integrate, check_compatibility, cond_expectation_l1,
    cylinder_probability, gauss_hermite, gauss_legendre, heat_kernel, integrate_pointwise_limit,
    ls_integrate, ls_measure_interval, make_cutoff, oracle_from_cdf, oracle_from_samples,
    point_mass_cdf, project,
    recover_cdf, total_mass, triangular_cdf, two_atom_cdf, uniform_cdf, verify_duality,
    wiener_integral_mc, wiener_integral_quadrature,
)

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


def public_parameters() -> list[tuple[str, inspect.Parameter]]:
    """Every parameter, as ("callable", parameter), of the public functions,
    class constructors and public methods of the names in ``rieszkit.__all__``."""
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
            found += [(label, p) for p in parameters]
    return found


def settable_values() -> list[str]:
    """Every parameter with a default, as "callable(parameter)"."""
    return [f"{label}({p.name})" for label, p in public_parameters() if p.default is not p.empty]


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


# The argument contract (README): the kind of every public numeric parameter,
# that is every parameter annotated int or float, required or not. A count is
# (low, high), high None for no ceiling; RESULT marks a field of a returned
# record, which the library fills and nothing checks.
REAL, POSITIVE, RESULT = "finite real", "positive real", "result field"
COUNT, SEED = (1, None), (0, 2**128 - 1)
CONTRACT = {
    "gauss_legendre(n)": COUNT, "gauss_legendre(a)": REAL, "gauss_legendre(b)": REAL,
    "gauss_hermite(n)": (1, 370),
    "adaptive_integrate(a)": REAL, "adaptive_integrate(b)": REAL,
    "adaptive_integrate(tol)": POSITIVE,
    "OrthonormalBasis(size)": COUNT,
    # an index lies in 0..size-1, here on the size-4 basis of VALID_CALLS
    "OrthonormalBasis.evaluate(index)": (0, 3), "HilbertVector.unit(index)": (0, 3),
    "CdfLike(c_minus)": REAL, "CdfLike(c_plus)": REAL, "RampSpec(x)": REAL, "RampSpec(j)": COUNT,
    "ls_measure_interval(a)": REAL, "ls_measure_interval(b)": REAL,
    "ls_integrate(tol)": POSITIVE, "ls_integrate(max_depth)": (5, None), "make_cutoff(j)": COUNT,
    "recover_cdf(x)": REAL, "recover_cdf(j_max)": COUNT, "recover_cdf(m_max)": COUNT,
    "recover_cdf(tol)": POSITIVE, "total_mass(m_max)": COUNT,
    "RecoveredCdf(j_max)": COUNT, "RecoveredCdf(m_max)": COUNT, "RecoveredCdf(tol)": POSITIVE,
    "uniform_cdf(lo)": REAL, "uniform_cdf(hi)": REAL, "triangular_cdf(lo)": REAL,
    "triangular_cdf(mode)": REAL, "triangular_cdf(hi)": REAL, "two_atom_cdf(x1)": REAL,
    "two_atom_cdf(p1)": REAL, "two_atom_cdf(x2)": REAL, "point_mass_cdf(at)": REAL,
    "oracle_from_cdf(tol)": POSITIVE,
    "FiniteMeasureSpace.uniform(n)": COUNT, "L1LadderResult(j_reached)": RESULT,
    "Partition.trivial(n)": COUNT, "Partition.singletons(n)": COUNT,
    "Partition.covers(n)": (0, None), "ConjugateExponents(p)": REAL,
    "cond_expectation_l1(j_max)": COUNT, "verify_duality(tol)": POSITIVE,
    "DualityReport(tol)": RESULT, "HolderReport(lhs)": RESULT, "HolderReport(rhs)": RESULT,
    "HolderReport(p)": RESULT, "HolderReport(q)": RESULT,
    "WienerParams(x)": REAL, "WienerParams(y)": REAL, "WienerParams(t)": POSITIVE,
    "WienerParams(D)": POSITIVE, "CylindricalFunctional(bound)": REAL,
    "heat_kernel(dt)": POSITIVE, "heat_kernel(D)": POSITIVE,
    "check_compatibility(x)": REAL, "check_compatibility(z)": REAL, "check_compatibility(u)": REAL,
    "check_compatibility(s)": REAL, "check_compatibility(t)": REAL,
    "check_compatibility(D)": POSITIVE, "check_compatibility(n_nodes)": (8, 370),
    "cylinder_probability(n_nodes)": (8, None), "wiener_integral_quadrature(n_nodes)": (8, 370),
    "wiener_integral_mc(n_paths)": (100, None), "wiener_integral_mc(seed)": SEED,
    "integrate_pointwise_limit(n_nodes)": (8, 370), "integrate_pointwise_limit(tol)": POSITIVE,
    "PointwiseLimitResult(value)": RESULT, "PointwiseLimitResult(stabilized_at)": RESULT,
}

_UNIFORM = uniform_cdf()
_ORACLE = oracle_from_cdf(_UNIFORM, (-0.5, 1.5))
_BASIS = OrthonormalBasis(size=4)
_X, _PAIRS = RandomVariable((1.0, 2.0, 3.0, 4.0)), Partition(((0, 1), (2, 3)))
_F = CylindricalFunctional((0.5,), lambda X: np.ones(len(X)), bound=1.0)
# one valid call per callable; the contract test swaps one argument for a bad value
VALID_CALLS = {
    "gauss_legendre": (gauss_legendre, dict(n=4, a=0.0, b=1.0)),
    "gauss_hermite": (gauss_hermite, dict(n=4)),
    "adaptive_integrate": (adaptive_integrate, dict(f=np.sin, a=0.0, b=1.0, tol=1e-8)),
    "OrthonormalBasis": (OrthonormalBasis, dict(size=4)),
    "OrthonormalBasis.evaluate": (_BASIS.evaluate, dict(index=0, t=0.5)),
    "HilbertVector.unit": (HilbertVector.unit, dict(basis=_BASIS, index=0)),
    "CdfLike": (CdfLike, dict(eval=_UNIFORM.eval, c_minus=0.0, c_plus=1.0)),
    "RampSpec": (RampSpec, dict(x=0.3, j=4)),
    "ls_measure_interval": (ls_measure_interval, dict(alpha=_UNIFORM, a=0.0, b=0.5)),
    "ls_integrate": (ls_integrate, dict(f=lambda t: t, alpha=_UNIFORM, support=(0.0, 1.0))),
    "make_cutoff": (make_cutoff, dict(j=2)),
    "recover_cdf": (recover_cdf, dict(L=_ORACLE, x=0.3, j_max=4)),
    "total_mass": (total_mass, dict(L=_ORACLE)),
    "RecoveredCdf": (RecoveredCdf, dict(oracle=_ORACLE)),
    "uniform_cdf": (uniform_cdf, {}),
    "triangular_cdf": (triangular_cdf, {}),
    "two_atom_cdf": (two_atom_cdf, dict(x1=0.3, p1=0.5, x2=0.7)),
    "point_mass_cdf": (point_mass_cdf, {}),
    "oracle_from_cdf": (oracle_from_cdf, dict(alpha=_UNIFORM, support=(0.0, 1.0))),
    "FiniteMeasureSpace.uniform": (FiniteMeasureSpace.uniform, dict(n=4)),
    "Partition.trivial": (Partition.trivial, dict(n=4)),
    "Partition.singletons": (Partition.singletons, dict(n=4)),
    "Partition.covers": (_PAIRS.covers, dict(n=4)),
    "ConjugateExponents": (ConjugateExponents, dict(p=2.0)),
    "cond_expectation_l1": (cond_expectation_l1,
                            dict(X=_X, G=_PAIRS, space=FiniteMeasureSpace.uniform(4))),
    "verify_duality": (verify_duality,
                       dict(X=_X, xi=_X, G=_PAIRS, space=FiniteMeasureSpace.uniform(4))),
    "WienerParams": (WienerParams, {}),
    "CylindricalFunctional": (CylindricalFunctional, dict(times=(0.5,), fn=np.sum)),
    "heat_kernel": (heat_kernel, dict(dx=0.0, dt=1.0, D=0.5)),
    "check_compatibility": (check_compatibility,
                            dict(x=0.0, z=0.0, u=0.0, s=0.5, t=1.0, D=0.5, n_nodes=8)),
    "cylinder_probability": (cylinder_probability,
                             dict(C=CylinderSet((0.5,), ((0.0, 1.0),)), params=WienerParams(),
                                  n_nodes=8)),
    "wiener_integral_quadrature": (wiener_integral_quadrature,
                                   dict(F=_F, params=WienerParams(), n_nodes=8)),
    "wiener_integral_mc": (wiener_integral_mc, dict(F=_F, params=WienerParams(), n_paths=100)),
    "integrate_pointwise_limit": (integrate_pointwise_limit,
                                  dict(F_sequence=[_F, _F], params=WienerParams(), n_nodes=8)),
}


def forbidden(kind) -> list:
    """The values of bool, str, 2.5, NaN, ±inf, 0 and -1 that ``kind`` rejects,
    and for a count the integers just below its floor and just above its ceiling."""
    if kind == RESULT:
        return []
    bad = [True, "x", math.nan, math.inf, -math.inf]
    if kind == REAL:
        return bad
    if kind == POSITIVE:
        return bad + [0.0, -1.0]
    low, high = kind
    return bad + [2.5] + sorted({v for v in (0, -1, low - 1) if v < low}) + (
        [] if high is None else [high + 1])


def test_one_argument_contract_checks_every_numeric_parameter():
    numeric = [f"{label}({p.name})" for label, p in public_parameters()
               if p.annotation in ("int", "float", "float | None")]
    assert sorted(CONTRACT) == sorted(numeric)  # a new one is classified here on purpose
    settings = [f"{label}({p.name})" for label, p in public_parameters()
                if type(p.default) in (int, float)]
    assert set(settings) <= set(CONTRACT)
    failures = []
    for entry, kind in CONTRACT.items():
        label, name = re.fullmatch(r"(.+)\((\w+)\)", entry).groups()
        if kind == RESULT:
            continue
        call, valid = VALID_CALLS[label]
        call(**valid)
        for bad in forbidden(kind):
            try:
                call(**{**valid, name: bad})
            except ValueError as exc:
                if not re.search(rf"\b{name}\b", str(exc)):
                    failures.append(f"{entry} = {bad!r}: {exc} (does not name {name})")
            except Exception as exc:
                failures.append(f"{entry} = {bad!r}: {type(exc).__name__}: {exc}")
            else:
                failures.append(f"{entry} = {bad!r}: accepted")
    assert failures == []


_BASIS2 = OrthonormalBasis("shifted_legendre", 2)


def _kinked(points):
    """|t - 0.5|, an integrand that declares ``points`` as its breakpoints."""
    def f(t):
        return np.abs(np.asarray(t) - 0.5)
    f.breakpoints = points
    return f


def test_sequence_arguments_reject_bools():
    # the elements of times, boxes, supports and positions are real numbers,
    # as scalars are; an array argument of dtype bool, str or object is
    # refused without a per-element scan; atom indices are integers; every
    # breakpoint a caller passes or an integrand declares is a finite real
    cases = (
        ("oracle support must be a real number", lambda: ExpectationOracle(
            lambda f: 0.0, support=(False, True))),
        ("support must be a real number", lambda: ls_integrate(lambda t: t, _UNIFORM, (False, True))),
        ("times must be a real number", lambda: CylindricalFunctional((True,), np.sum)),
        ("box edges must be a real number", lambda: CylinderSet((0.5,), ((False, True),))),
        ("positions must be a real number", lambda: rieszkit.BridgePath((0.5,), (True,))),
        ("samples must be real numbers", lambda: oracle_from_samples([True, False])),
        ("samples must be real numbers", lambda: oracle_from_samples(["0.1", "0.9"])),
        ("probabilities must be real numbers", lambda: FiniteMeasureSpace([("a", "0.5"), ("b", "0.5")])),
        ("values must be real numbers", lambda: RandomVariable(["1", "2"])),
        ("values must be real numbers", lambda: RandomVariable([True, False])),
        ("nodes must be real numbers", lambda: QuadratureRule(["0.1", "0.2"], ["1", "1"])),
        ("weights must be real numbers", lambda: QuadratureRule([0.1, 0.2], [True, True])),
        ("coeffs must be real numbers", lambda: HilbertVector([True, False], _BASIS2)),
        ("coeffs must be real numbers", lambda: HilbertVector(["1", "0"], _BASIS2)),
        ("weights must be real numbers", lambda: DiscreteHValuedLaw(_BASIS2, ["1"], [[1.0, 0.0]])),
        ("rows must be real numbers", lambda: DiscreteHValuedLaw(_BASIS2, [1.0], [["1", "0"]])),
        ("rows must be real numbers", lambda: DiscreteHValuedLaw(
            _BASIS2, [1.0], np.array([[None, 0.0]], dtype=object))),
        ("atom indices must be integers", lambda: Partition([[0.9, 1.2]])),
        ("atom indices must be integers", lambda: Partition([["0"], ["1"]])),
        ("atom indices must be integers", lambda: Partition([[True], [False]])),
        ("breakpoints must be real numbers", lambda: adaptive_integrate(
            np.sin, 0.0, 1.0, 1e-8, breakpoints=["0.5"])),
        ("breakpoints must be real numbers", lambda: adaptive_integrate(
            np.sin, 0.0, 1.0, 1e-8, breakpoints=[True])),
        ("breakpoints must be finite", lambda: adaptive_integrate(
            np.sin, 0.0, 1.0, 1e-8, breakpoints=[math.nan])),
        ("breakpoints must be real numbers", lambda: project(np.sin, _BASIS2, breakpoints=[None])),
        ("breakpoints must be finite", lambda: project(
            np.sin, _BASIS2, breakpoints=[0.5, math.inf])),
        ("breakpoints must be real numbers", lambda: ls_integrate(
            _kinked(("0.5",)), _UNIFORM, (0.0, 1.0))),
        ("breakpoints must be finite", lambda: ls_integrate(
            _kinked((math.nan,)), _UNIFORM, (0.0, 1.0))),
    )
    for message, call in cases:
        with pytest.raises(ValueError, match=rf"^{message}, got"):
            call()
    # a caller's float64 array is kept as a read-only view, so its later writes show
    nodes, coeffs = np.array([0.1, 0.2]), np.array([1.0, 0.0])
    rule, vector = QuadratureRule(nodes, np.ones(2)), HilbertVector(coeffs, _BASIS2)
    nodes[1], coeffs[0] = 0.3, 2.0
    assert rule.nodes[1] == 0.3 and vector.coeffs[0] == 2.0
    assert not rule.nodes.flags.writeable and not vector.coeffs.flags.writeable
    assert Partition([[np.int64(1)], [0]]).blocks == ((1,), (0,))  # as a count takes it
    assert CylinderSet((0.5,), ((-math.inf, math.inf),)).boxes == ((-math.inf, math.inf),)
    with pytest.raises(ValueError, match="box edges must not be NaN"):
        CylinderSet((0.5,), ((math.nan, 0.0),))
