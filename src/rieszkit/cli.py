"""Batch command-line front door for the toolkit.

Every command computes a table, then emits it as CSV (header row plus
data rows) or as a JSON object mirroring the same columns plus a
``meta`` block carrying the reproducibility knobs (seed, tolerances,
node counts). All floats are printed with shortest round-trip
representation, so parsing the output recovers the exact binary values.

Exit codes: 0 on success, 1 when a numerical contract is violated or a
selftest check fails, 2 on usage errors.
"""

from __future__ import annotations

import csv as _csv
import json
import math
import warnings

import click
import numpy as np

from . import __version__
from . import conditional as cond
from . import hilbert as hb
from . import stieltjes as st
from . import wiener as wn
from .errors import RieszkitError
from .numerics import _count, _positive, _seed


def _cell(v):
    # a float, numpy's float64 included, prints as float.__repr__: the rule
    # json.dumps applies, so CSV and JSON cells carry the same digits
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _text(column):
    """The cells of a column as ``_cell`` prints them; a text column is kept."""
    try:
        return list(map(float.__repr__, column))
    except TypeError:  # a cell that is not a float
        pass
    kinds = set(map(type, column))
    if kinds <= {str}:
        return column
    return list(map(str if kinds == {int} else _cell, column))


# float.__repr__ and str(int) never print one of these
_CSV_SPECIAL = (",", '"', "\r", "\n")


def _quote(cells):
    """A column of text cells as CSV writes them: a cell holding a comma, a
    double quote, CR or LF is put in double quotes, with each inner quote
    doubled. A column with none of these is returned as it is."""
    joined = "".join(cells)
    if not any(c in joined for c in _CSV_SPECIAL):
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(s in c for s in _CSV_SPECIAL) else c
            for c in cells]


def _emit(names, columns, meta, fmt: str, out: str | None) -> None:
    """Print a table given as one sequence of cells per column name."""
    if fmt == "csv":
        rows = zip(*(_quote(_text(c)) for c in columns))
        # each row is joined as it is zipped, so no row tuple outlives its line;
        # the empty last line ends the text with a newline
        text = "\n".join([",".join(_quote(names)), *map(",".join, rows), ""])
    else:
        text = (
            json.dumps(
                {"columns": list(names), "rows": list(zip(*columns)), "meta": meta},
                indent=2,
            )
            + "\n"
        )
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        # color=True: control characters reach stdout as they reach --out
        click.echo(text, nl=False, color=True)


def _parse_list(text: str, flag: str, kind=float) -> tuple:
    """One or more comma-separated values of ``kind`` (float or int)."""
    try:
        values = tuple(kind(s) for s in text.split(",") if s.strip())
    except ValueError:
        values = ()
    if not values:
        noun = "integers" if kind is int else "reals"
        raise click.UsageError(f"could not parse {flag}={text!r} as comma-separated {noun}")
    return values


# law name -> (CDF factory, default parameters); the first and last
# parameter bound the support for every law
_LAWS = {
    "uniform": (st.uniform_cdf, (0.0, 1.0)),
    "triangular": (st.triangular_cdf, (0.0, 0.5, 1.0)),
    "two-atom": (st.two_atom_cdf, (0.3, 0.4, 0.7)),
}


_out_opt = click.option("--out", type=click.Path(dir_okay=False), default=None,
                        help="Write output to this file instead of stdout.")
_fmt_opt = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                        default="csv", show_default=True, help="Output format.")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True,
                         help="RNG seed for anything stochastic.")


class _Command(click.Command):
    """The error boundary of every subcommand but selftest: a ``RieszkitError``
    exits 1, a ``ValueError`` is a usage error (exit 2) under its usage line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RieszkitError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}")
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.version_option(__version__)
def main():
    """Numerical toolkit for representer-based integration and recovery.

    Subcommands cover basis expansions of vector-valued expectations,
    distribution-function recovery from expectation oracles, conditional
    expectation on finite spaces, transition-kernel compatibility checks,
    path-functional integration, bridge sampling, and a selftest.
    """


@main.command()
@click.option("--basis", type=click.Choice(list(hb.BASIS_KINDS)),
              default="shifted_legendre", show_default=True)
@click.option("--size", type=int, default=32, show_default=True,
              help="Number of basis coefficients.")
@click.option("--grid-n", type=int, default=101, show_default=True,
              help="Number of reconstruction sample points in (0,1).")
@_fmt_opt
@_out_opt
def bochner(basis, size, grid_n, fmt, out):
    """Expectation of the segment-indicator law in an orthonormal basis.

    Emits columns (t, reconstructed, exact): the coefficient expansion of
    the expectation reconstructed at grid points against the closed form
    1 - t.
    """
    _count(grid_n, "--grid-n")
    b = hb.OrthonormalBasis(kind=basis, size=size)
    law = hb.prefix_indicator_law(b)
    mu = hb.bochner_expectation(law)
    ts = (np.arange(grid_n) + 0.5) / grid_n
    recon = mu.reconstruct(ts)
    columns = [ts.tolist(), recon.tolist(), (1.0 - ts).tolist()]
    meta = {"command": "bochner", "basis": basis, "size": size, "grid_n": grid_n}
    _emit(("t", "reconstructed", "exact"), columns, meta, fmt, out)


@main.command(name="recover-cdf")
@click.option("--law", type=click.Choice(list(_LAWS)),
              default=None, help="Built-in law for the oracle.")
@click.option("--law-args", default=None,
              help="Comma-separated law parameters: uniform lo,hi;"
                   " triangular lo,mode,hi; two-atom x1,p1,x2.")
@click.option("--samples", type=click.Path(exists=True, dir_okay=False), default=None,
              help="CSV/text file of sample values for an empirical-mean oracle.")
@click.option("--grid-lo", type=float, default=-0.5, show_default=True)
@click.option("--grid-hi", type=float, default=1.5, show_default=True)
@click.option("--grid-n", type=int, default=101, show_default=True)
@click.option("--j-max", type=int, default=64, show_default=True)
@click.option("--m-max", type=int, default=64, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@_fmt_opt
@_out_opt
def recover_cdf_cmd(law, law_args, samples, grid_lo, grid_hi, grid_n,
                    j_max, m_max, tol, fmt, out):
    """Recover the distribution function of an expectation oracle on a grid.

    The oracle is either a named built-in law or the empirical mean over
    a sample file. Emits columns (x, F).
    """
    if (law is None) == (samples is None):
        raise click.UsageError("provide exactly one of --law or --samples")
    if law is None and law_args is not None:
        raise click.UsageError("--law-args needs --law")
    _count(grid_n, "--grid-n")
    if not -math.inf < grid_lo < grid_hi < math.inf:
        raise click.UsageError("need finite grid-lo < grid-hi")
    if law is not None:
        factory, defaults = _LAWS[law]
        given = _parse_list(law_args, "--law-args") if law_args is not None else ()
        if given and len(given) != len(defaults):
            raise click.UsageError(
                f"--law {law} takes {len(defaults)} --law-args, got {len(given)}"
            )
        args = given or defaults
        alpha = factory(*args)
        oracle = st.oracle_from_cdf(alpha, (args[0] - 0.5, args[-1] + 0.5))
        source = f"{law}({','.join(repr(a) for a in given)})"
    else:
        try:
            # an empty file is reported below as having no samples
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(samples, delimiter=",").ravel()
        except ValueError as exc:
            raise click.UsageError(f"{samples}: not comma-separated reals ({exc})")
        oracle = st.oracle_from_samples(data)
        source = f"samples:{samples}"
    xs = np.linspace(grid_lo, grid_hi, grid_n)
    F = st.RecoveredCdf(oracle, j_max, m_max, tol).eval(xs)
    meta = {
        "command": "recover-cdf", "oracle": source, "j_max": j_max,
        "m_max": m_max, "tol": tol,
    }
    _emit(("x", "F"), [xs.tolist(), F.tolist()], meta, fmt, out)


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="CSV of (label, probability, value) rows.")
@click.option("--partition", "partition_spec", required=True,
              help='Blocks of atom labels, e.g. "1,2|3,4".')
@click.option("--tol", type=float, default=1e-14, show_default=True,
              help="Duality residual tolerance.")
@_fmt_opt
@_out_opt
def condexp(input_path, partition_spec, tol, fmt, out):
    """Conditional expectation of a finite random variable given a partition.

    Emits one row per atom: (label, probability, x, xi, block, residual,
    zero_mass), where residual is the block's duality defect.
    """
    labels, probs, values = _read_atoms(input_path)
    space = cond.FiniteMeasureSpace(tuple(zip(labels, probs)))
    X = cond.RandomVariable(values)
    G = cond.Partition.from_spec(partition_spec, space.labels)
    xi = cond.cond_expectation(X, G, space)
    report = cond.verify_duality(X, xi, G, space, tol)
    # xi, block, residual and zero_mass are functions of the block: each is
    # built, and for CSV formatted, once per block, then spread over the atoms
    n_blocks = len(report.residuals)
    xi_block = np.empty(n_blocks)
    xi_block[G._ids] = xi._x
    zero_mass = [0] * n_blocks
    for b in xi.zero_mass_blocks:
        zero_mass[b] = 1
    per_block = [xi_block.tolist(), range(n_blocks), report.residuals, zero_mass]
    if fmt == "csv":
        per_block = map(_text, per_block)
    columns = [labels, probs, values]
    columns += [np.array(c, dtype=object)[G._ids].tolist() for c in per_block]
    meta = {
        "command": "condexp", "partition": partition_spec, "tol": tol,
        "duality_passed": report.passed,
    }
    _emit(
        ("label", "probability", "x", "xi", "block", "residual", "zero_mass"),
        columns, meta, fmt, out,
    )


def _record_fault(record: list) -> str:
    """What keeps a record from being (label, probability, value); "" if nothing."""
    if len(record) < 3:
        return f"has {len(record)} fields, need 3"
    try:
        float(record[1]), float(record[2])
    except ValueError:
        return "is not (label, probability, value)"
    return ""


def _read_atoms(path: str) -> tuple[list, list, list]:
    """The label, probability and value columns of a condexp input file.

    The file is UTF-8, with or without a byte-order mark. Blank records are
    skipped, labels are stripped and fields after the third are ignored.
    The first other record is a header if its numbers do not parse. A label
    that is empty once stripped, or holds ',' or '|', is a usage error.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = list(_csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"{path}: cannot decode as text ({exc})")
    except _csv.Error as exc:  # e.g. a field over csv's field size limit
        raise click.UsageError(f"{path}: cannot read as CSV ({exc})")
    # a record is blank when all its fields are; a label settles most at once
    rows = [r for r in records if r and (r[0].strip() or any(map(str.strip, r)))]
    header = rows.pop(0) if rows and len(rows[0]) >= 3 and _record_fault(rows[0]) else None
    try:
        probs = [float(r[1]) for r in rows]
        values = [float(r[2]) for r in rows]
    except (IndexError, ValueError):
        # name the first bad record, numbered as in the file
        for k, record in enumerate(records, 1):
            fault = record is not header and any(map(str.strip, record)) and _record_fault(record)
            if fault:
                raise click.UsageError(f"{path}: row {k} {fault}")
        raise
    labels = [r[0].strip() for r in rows]
    joined = "".join(labels)
    if "," in joined or "|" in joined or not all(labels):
        # --partition splits on both and drops empty names: it could never cover such an atom
        bad = next(r for r in rows if "," in r[0] or "|" in r[0] or not r[0].strip())
        k = next(k for k, r in enumerate(records, 1) if r is bad)
        label = bad[0].strip()
        fault = "holds ',' or '|'" if label else "is empty"
        raise click.UsageError(
            f"{path}: row {k} label {label!r} {fault}, which --partition cannot name"
        )
    return labels, probs, values


@main.command(name="compat-check")
@click.option("--x", type=float, default=0.0, show_default=True)
@click.option("--z", type=float, default=0.0, show_default=True)
@click.option("--u", type=float, default=0.0, show_default=True)
@click.option("--s", type=float, default=0.5, show_default=True)
@click.option("--t", type=float, default=1.0, show_default=True)
@click.option("--D", "d_coef", type=float, default=0.5, show_default=True)
@click.option("--nodes", default="8,16,32,64", show_default=True,
              help="Comma-separated Hermite node counts.")
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Residual considered passing at the largest node count.")
@_fmt_opt
@_out_opt
def compat_check(x, z, u, s, t, d_coef, nodes, tol, fmt, out):
    """Two-step transition-identity residuals over a node-count ladder.

    Emits columns (n_nodes, residual) for the configuration given by
    --x, --z, --u, --s, --t, --D.
    """
    _positive(tol, "--tol")
    counts = _parse_list(nodes, "--nodes", int)
    resid = [float(wn.check_compatibility(x, z, u, s, t, d_coef, n)) for n in counts]
    meta = {
        "command": "compat-check", "x": x, "z": z, "u": u, "s": s, "t": t,
        "D": d_coef, "nodes": list(counts), "tol": tol,
        "passed": bool(resid[-1] < tol),
    }
    _emit(("n_nodes", "residual"), [counts, resid], meta, fmt, out)


def _parse_functional(spec: str, times: tuple[float, ...]):
    """Built-in functional families: const, mono:<k1,k2,...>, box:<lo:hi,...>."""
    n = len(times)
    if spec == "const":
        fn = lambda X: np.ones(np.asarray(X).shape[:-1])
        return wn.CylindricalFunctional(times, fn, bound=1.0), None
    if spec.startswith("mono:"):
        powers = _parse_list(spec[5:], "--F mono powers", int)
        if len(powers) != n:
            raise click.UsageError(
                f"mono needs one exponent per time ({n}), got {len(powers)}"
            )
        if any(k < 0 for k in powers):
            raise click.UsageError("mono exponents must be nonnegative")
        # a scalar power per time column, the columns multiplied in time order
        fn = lambda X: math.prod(c ** k for c, k in zip(np.moveaxis(X, -1, 0), powers))
        return wn.CylindricalFunctional(times, fn), None
    if spec.startswith("box:"):
        pairs = []
        for chunk in spec[4:].split(","):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise click.UsageError(f"bad box {chunk!r}, want lo:hi")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise click.UsageError(f"bad box bounds in {chunk!r}")
        if len(pairs) != n:
            raise click.UsageError(f"box needs one interval per time ({n})")
        lows = np.array([a for a, _ in pairs])
        highs = np.array([b for _, b in pairs])
        fn = lambda X: np.all(
            (np.asarray(X) >= lows) & (np.asarray(X) <= highs), axis=-1
        ).astype(float)
        functional = wn.CylindricalFunctional(times, fn, bound=1.0)
        return functional, wn.CylinderSet(times, tuple(pairs))
    raise click.UsageError(f"unknown functional spec {spec!r}")


@main.command(name="wiener-integrate")
@click.option("--F", "f_spec", default="const", show_default=True,
              help="Functional: const | mono:k1,k2,... | box:lo:hi,...")
@click.option("--times", default="0.5", show_default=True,
              help="Comma-separated interior times.")
@click.option("--x", type=float, default=0.0, show_default=True)
@click.option("--y", type=float, default=0.0, show_default=True)
@click.option("--t", type=float, default=1.0, show_default=True)
@click.option("--D", "d_coef", type=float, default=0.5, show_default=True)
@click.option("--nodes", default="8,16,32,64", show_default=True,
              help="Node counts for the refinement table.")
@click.option("--paths", type=int, default=None,
              help="If given, append a Monte Carlo row with this many paths.")
@_seed_opt
@_fmt_opt
@_out_opt
def wiener_integrate(f_spec, times, x, y, t, d_coef, nodes, paths, seed, fmt, out):
    """Integrate a built-in cylindrical functional over pinned paths.

    Emits a node-refinement table (method, n_nodes, n_paths, value,
    stderr, delta) and, when --paths is given, a Monte Carlo row with
    its standard error.
    """
    seed = _seed(seed, "--seed")  # recorded in meta with or without --paths
    ts = _parse_list(times, "--times")
    counts = _parse_list(nodes, "--nodes", int)
    params = wn.WienerParams(x, y, t, d_coef)
    functional, cyl = _parse_functional(f_spec, ts)
    if cyl is None:
        values = [val for _, val, _ in wn.node_refinement_table(functional, params, counts)]
    else:
        values = [float(wn.cylinder_probability(cyl, params, n)) for n in counts]
    deltas = [None, *(abs(b - a) for a, b in zip(values, values[1:]))]
    rows = [("quadrature", n, None, val, None, delta)
            for n, val, delta in zip(counts, values, deltas)]
    if paths is not None:
        est, se = wn.wiener_integral_mc(functional, params, paths, seed)
        rows.append(("mc", None, paths, float(est), float(se), None))
    meta = {
        "command": "wiener-integrate", "F": f_spec, "times": list(ts),
        "x": x, "y": y, "t": t, "D": d_coef, "nodes": list(counts),
        "paths": paths, "seed": seed,
    }
    _emit(
        ("method", "n_nodes", "n_paths", "value", "stderr", "delta"),
        list(zip(*rows)), meta, fmt, out,
    )


@main.command(name="bridge-sample")
@click.option("--times", default="0.25,0.5,0.75", show_default=True,
              help="Comma-separated interior times.")
@click.option("--x", type=float, default=0.0, show_default=True)
@click.option("--y", type=float, default=0.0, show_default=True)
@click.option("--t", type=float, default=1.0, show_default=True)
@click.option("--D", "d_coef", type=float, default=0.5, show_default=True)
@click.option("--paths", type=int, default=1, show_default=True,
              help="Number of independent paths to draw.")
@_seed_opt
@_fmt_opt
@_out_opt
def bridge_sample(times, x, y, t, d_coef, paths, seed, fmt, out):
    """Draw pinned-path samples restricted to a time grid.

    Emits columns (path, t, position), one row per (path, time).
    """
    _count(paths, "--paths")
    ts = _parse_list(times, "--times")
    params = wn.WienerParams(x, y, t, d_coef)
    rng = np.random.Generator(np.random.Philox(key=_seed(seed, "--seed")))
    ts = wn._checked_times(ts)
    wn._check_horizon(ts, params)
    # drawn path by path, as a loop of sample_bridge on this generator would
    z = rng.standard_normal((paths, len(ts))).T
    pos = wn._bridge_positions(params, ts, z, z)
    # for CSV each time is formatted once, then spread over the paths
    times_once = _text(list(ts)) if fmt == "csv" else list(ts)
    columns = [
        np.repeat(np.arange(paths), len(ts)).tolist(), times_once * paths,
        pos.ravel().tolist(),
    ]
    meta = {
        "command": "bridge-sample", "times": list(ts), "x": x, "y": y,
        "t": t, "D": d_coef, "paths": paths, "seed": seed,
    }
    _emit(("path", "t", "position"), columns, meta, fmt, out)


@main.command(cls=click.Command)  # no option can cause a ValueError: one is a bug
@_seed_opt
@_fmt_opt
@_out_opt
def selftest(seed, fmt, out):
    """Run the built-in reference checks and report pass/fail per line.

    Covers the segment-indicator expected norm (2/3), its expectation
    curve (1 - t), the transition-identity residual, the path-measure
    total mass, distribution recovery at a known point, and conditional
    expectation duality. Exit code 1 if any check fails.
    """
    checks = []

    basis = hb.OrthonormalBasis(kind="shifted_legendre", size=2048)
    law = hb.prefix_indicator_law(basis)
    en = hb.expected_norm(law)
    checks.append(("expected_norm_segment_indicator", en, 2.0 / 3.0, 1e-4))

    basis32 = hb.OrthonormalBasis(kind="shifted_legendre", size=32)
    law32 = hb.prefix_indicator_law(basis32)
    mu = hb.bochner_expectation(law32)
    target = hb.project(lambda s: 1.0 - np.asarray(s, dtype=float), basis32)
    dist = float(
        np.sqrt(np.sum((np.array(mu.coeffs) - np.array(target.coeffs)) ** 2))
    )
    checks.append(("expectation_curve_distance", dist, 0.0, 1e-3))

    resid = wn.check_compatibility(1.0, -1.0, 0.0, 0.3, 1.0, 0.5, 64)
    checks.append(("transition_identity_residual", resid, 0.0, 1e-10))

    params = wn.WienerParams(0.0, 0.0, 1.0, 0.5)
    const, _ = _parse_functional("const", (0.5,))
    mass = wn.wiener_integral_quadrature(const, params, 32)
    checks.append(("path_measure_total_mass", mass, 1.0 / math.sqrt(2 * math.pi), 1e-8))

    oracle = st.oracle_from_cdf(st.uniform_cdf(), (-0.5, 1.5))
    fval = st.recover_cdf(oracle, 0.5)
    checks.append(("recovered_F_uniform_half", fval, 0.5, 1e-3))

    space = cond.FiniteMeasureSpace.uniform(4)
    X = cond.RandomVariable((1.0, 2.0, 3.0, 4.0))
    G = cond.Partition(((0, 1), (2, 3)))
    xi = cond.cond_expectation(X, G, space)
    report = cond.verify_duality(X, xi, G, space, 1e-14)
    checks.append(
        ("conditional_duality_residual", max(report.residuals), 0.0, 1e-14)
    )

    rows = []
    all_ok = True
    for name, value, reference, bound in checks:
        err = abs(value - reference)
        ok = err <= bound
        all_ok = all_ok and ok
        rows.append((name, float(value), float(reference), float(err),
                     float(bound), "pass" if ok else "FAIL"))
    meta = {"command": "selftest", "seed": seed}
    _emit(
        ("check", "value", "reference", "abs_error", "bound", "status"),
        list(zip(*rows)), meta, fmt, out,
    )
    if not all_ok:
        raise click.ClickException("selftest found failing checks")


if __name__ == "__main__":
    main()
