"""Span tracer for the traced benchmark run, installed from outside ``src/``.

Every public function of the library modules is wrapped at each module
attribute where a caller looks it up (``rieszkit.wiener.gauss_hermite``
as well as ``rieszkit.numerics.gauss_hermite``), together with a few
class-level entry points (space and partition construction) and the
benchmark's own CLI entry. A wrapped call records a span -- name, start,
end, parent span, job id -- in memory; a few hot callbacks (CDF
evaluations, oracle probes, indicator coefficients) are counted without a
span. ``restore`` puts every original attribute back.

Derived times:

* span self time: its duration minus its direct children's durations;
* a layer's self time: the sum of its spans' self times;
* entry time of a function: the layer's self time over all spans reached
  from a call of that function that entered the layer from outside it
  (so ``conditional.l1_s`` includes the ladder's inner block averages).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

import rieszkit
import rieszkit.conditional as cd
import rieszkit.hilbert as hb
import rieszkit.numerics as nm
import rieszkit.stieltjes as st
import rieszkit.wiener as wn

import jobs

LAYERS = ("cli", "numerics", "hilbert", "stieltjes", "conditional", "wiener")
_MODULES = {"numerics": nm, "hilbert": hb, "stieltjes": st, "conditional": cd, "wiener": wn}
_LOOKUP_SITES = (rieszkit, nm, hb, st, cd, wn)

_CDF_FACTORIES = ("uniform_cdf", "triangular_cdf", "two_atom_cdf", "point_mass_cdf")

# (unit, better) per metric; the order is the report order.
PER_LAYER = {
    "numerics.rule_builds": ("count", "lower"),
    "numerics.rule_s": ("s", "lower"),
    "numerics.self_s": ("s", "lower"),
    "wiener.quad_calls": ("count", "lower"),
    "wiener.quad_s": ("s", "lower"),
    "wiener.tensor_rows": ("computed_rows", "lower"),
    "wiener.tensor_bytes": ("computed_B", "lower"),
    "wiener.kernel_points": ("count", "lower"),
    "wiener.mc_paths": ("count", "lower"),
    "wiener.mc_s": ("s", "lower"),
    "wiener.compat_s": ("s", "lower"),
    "wiener.self_s": ("s", "lower"),
    "stieltjes.recover_points": ("count", "lower"),
    "stieltjes.recover_s": ("s", "lower"),
    "stieltjes.oracle_calls": ("count", "lower"),
    "stieltjes.oracle_calls_per_point": ("1", "lower"),
    "stieltjes.ls_integrate_calls": ("count", "lower"),
    "stieltjes.ls_integrate_s": ("s", "lower"),
    "stieltjes.alpha_points": ("count", "lower"),
    "stieltjes.sample_points": ("count", "lower"),
    "stieltjes.self_s": ("s", "lower"),
    "hilbert.calls": ("count", "lower"),
    "hilbert.self_s": ("s", "lower"),
    "hilbert.indicator_calls": ("count", "lower"),
    "conditional.atoms": ("count", "lower"),
    "conditional.space_s": ("s", "lower"),
    "conditional.cond_s": ("s", "lower"),
    "conditional.duality_s": ("s", "lower"),
    "conditional.l1_s": ("s", "lower"),
    "conditional.l1_levels": ("count", "lower"),
    "conditional.self_s": ("s", "lower"),
    "cli.jobs": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics each workload is predicted to leave at zero (it bypasses the
# layer) or to drive above zero (it was chosen to stress the layer).
PREDICTED_ZERO = {
    "cdf-recovery": ("numerics.rule_builds", "wiener.quad_calls", "wiener.kernel_points",
                     "wiener.mc_paths", "hilbert.calls", "conditional.atoms",
                     "stieltjes.sample_points"),
    "paths": ("stieltjes.recover_points", "stieltjes.oracle_calls",
              "stieltjes.ls_integrate_calls", "hilbert.calls", "conditional.atoms"),
    "expectations": ("wiener.quad_calls", "wiener.kernel_points", "wiener.mc_paths",
                     "stieltjes.ls_integrate_calls", "stieltjes.alpha_points"),
}
PREDICTED_NONZERO = {
    "cdf-recovery": ("stieltjes.recover_points", "stieltjes.ls_integrate_calls",
                     "stieltjes.alpha_points", "cli.jobs"),
    "paths": ("numerics.rule_builds", "wiener.quad_calls", "wiener.tensor_rows",
              "wiener.mc_paths", "cli.jobs"),
    "expectations": ("hilbert.calls", "hilbert.indicator_calls", "conditional.atoms",
                     "conditional.l1_levels", "stieltjes.sample_points", "cli.jobs"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args)`` / ``after(args, out)``
        get the call's bound arguments to update the counters."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if before or after else None

        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(bound.arguments)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            return out if after is None else after(bound.arguments, out)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, layer, name, before=None, after=None):
        orig = getattr(_MODULES[layer], name)
        wrapped = self._span(f"{layer}.{name}", orig, before, after)
        for site in _LOOKUP_SITES:
            if site.__dict__.get(name) is orig:
                self._patch(site, name, wrapped)

    def _in_layer(self, layer: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0].startswith(layer + ".")

    def install(self):
        """Wrap every public library function and the extra entry points."""
        c = self.counts

        def counted(key, fn, size):
            def inner(*args, **kwargs):
                c[key] += size(args)
                return fn(*args, **kwargs)
            return inner

        def cdf_after(a, cdf):
            return dataclasses.replace(
                cdf, eval=counted("alpha_points", cdf.eval, lambda x: np.size(x[0])))

        def oracle_after(a, oracle):
            apply = counted("oracle_calls", oracle.apply, lambda x: 1)
            if "samples" in a:
                n = len(a["samples"])
                apply = counted("sample_points", apply, lambda x: n)
            return dataclasses.replace(oracle, apply=apply)

        def tensor_before(a):
            # the first argument, a functional or a cylinder set, carries the times
            n_times, n_nodes = len(next(iter(a.values())).times), a["n_nodes"]
            c["tensor_rows"] += n_nodes**n_times
            c["tensor_bytes"] += jobs.tensor_bytes(n_times, n_nodes)

        def atoms_before(a):
            if not self._in_layer("conditional"):
                c["atoms"] += a["space"].n

        def l1_after(a, result):
            c["l1_levels"] += len(result.ladder)
            return result

        hooks = {
            "oracle_from_cdf": (None, oracle_after),
            "oracle_from_samples": (None, oracle_after),
            "wiener_integral_quadrature": (tensor_before, None),
            "cylinder_probability": (tensor_before, None),
            "heat_kernel": (lambda a: c.update(kernel_points=np.size(a["dx"])), None),
            "wiener_integral_mc": (lambda a: c.update(mc_paths=a["n_paths"]), None),
            "sample_bridge": (lambda a: c.update(mc_paths=1), None),
            "cond_expectation": (atoms_before, None),
            "verify_duality": (atoms_before, None),
            "holder_bound_check": (atoms_before, None),
            "cond_expectation_l1": (atoms_before, l1_after),
        }
        hooks.update((name, (None, cdf_after)) for name in _CDF_FACTORIES)
        for layer, mod in _MODULES.items():
            for name in mod.__all__:
                if inspect.isfunction(getattr(mod, name)):
                    self._wrap_everywhere(layer, name, *hooks.get(name, (None, None)))

        # construction of the finite space, partition and variable
        for cls in (cd.FiniteMeasureSpace, cd.Partition, cd.RandomVariable):
            self._patch(cls, "__post_init__",
                        self._span(f"conditional.{cls.__name__}", cls.__dict__["__post_init__"]))
        for cls, attr in ((cd.FiniteMeasureSpace, "uniform"), (cd.Partition, "from_spec")):
            raw = cls.__dict__[attr].__func__
            self._patch(cls, attr, classmethod(self._span(f"conditional.{cls.__name__}", raw)))
        self._patch(
            hb.OrthonormalBasis, "indicator_coefficients",
            counted("indicator_calls", hb.OrthonormalBasis.indicator_coefficients, lambda x: 1),
        )

        def cli_after(a, out):
            c["out_bytes"] += len(out.encode())
            return out

        self._patch(jobs, "invoke_cli", self._span("cli.main", jobs.invoke_cli, after=cli_after))

    def restore(self):
        """Put every wrapped attribute back; raises if one did not come back."""
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        if any(owner.__dict__[attr] is not value for owner, attr, value in self._saved):
            raise RuntimeError("a traced attribute was not restored")
        self._saved.clear()

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list, c: Counter, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch from its spans and counts."""
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_t = [spans[i][2] - spans[i][1] - child[i] for i in range(n)]
    layer = [s[0].split(".", 1)[0] for s in spans]
    entry = list(range(n))
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0 and layer[p] == layer[i]:
            entry[i] = entry[p]
    by_layer = defaultdict(float)
    by_self = defaultdict(float)
    by_entry = defaultdict(float)
    calls = Counter()
    for i, s in enumerate(spans):
        by_layer[layer[i]] += self_t[i]
        by_self[s[0]] += self_t[i]
        by_entry[spans[entry[i]][0]] += self_t[i]
        calls[s[0]] += 1

    def entry_s(*names):
        return sum(by_entry[n] for n in names)

    recover_points = calls["stieltjes.recover_cdf"]
    m = {
        "numerics.rule_builds": calls["numerics.gauss_hermite"] + calls["numerics.gauss_legendre"],
        "numerics.rule_s": entry_s("numerics.gauss_hermite", "numerics.gauss_legendre"),
        "wiener.quad_calls": calls["wiener.wiener_integral_quadrature"]
        + calls["wiener.cylinder_probability"],
        "wiener.quad_s": entry_s("wiener.wiener_integral_quadrature", "wiener.cylinder_probability",
                                 "wiener.node_refinement_table", "wiener.integrate_pointwise_limit"),
        "wiener.tensor_rows": c["tensor_rows"],
        "wiener.tensor_bytes": c["tensor_bytes"],
        "wiener.kernel_points": c["kernel_points"],
        "wiener.mc_paths": c["mc_paths"],
        "wiener.mc_s": entry_s("wiener.wiener_integral_mc", "wiener.sample_bridge"),
        "wiener.compat_s": entry_s("wiener.check_compatibility"),
        "stieltjes.recover_points": recover_points,
        "stieltjes.recover_s": by_self["stieltjes.recover_cdf"],
        "stieltjes.oracle_calls": c["oracle_calls"],
        "stieltjes.oracle_calls_per_point": c["oracle_calls"] / recover_points if recover_points else 0.0,
        "stieltjes.ls_integrate_calls": calls["stieltjes.ls_integrate"],
        "stieltjes.ls_integrate_s": by_self["stieltjes.ls_integrate"],
        "stieltjes.alpha_points": c["alpha_points"],
        "stieltjes.sample_points": c["sample_points"],
        "hilbert.calls": sum(v for k, v in calls.items() if k.startswith("hilbert.")),
        "hilbert.indicator_calls": c["indicator_calls"],
        "conditional.atoms": c["atoms"],
        "conditional.space_s": entry_s("conditional.FiniteMeasureSpace", "conditional.Partition",
                                       "conditional.RandomVariable"),
        "conditional.cond_s": entry_s("conditional.cond_expectation"),
        "conditional.duality_s": entry_s("conditional.verify_duality"),
        "conditional.l1_s": entry_s("conditional.cond_expectation_l1"),
        "conditional.l1_levels": c["l1_levels"],
        "cli.jobs": calls["cli.main"],
        "cli.out_bytes": c["out_bytes"],
        "trace.wall_s": wall_s,
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = by_layer[name]
    m["bench.self_s"] = wall_s - sum(by_layer[name] for name in LAYERS)
    return m


def dump_spans(spans: list, path: str):
    """Write spans as JSON lines: name, start, end, parent, job."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
