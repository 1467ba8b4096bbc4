import contextlib
import csv
import io
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rieszkit import hilbert as hb
from rieszkit.cli import _cell, _emit, main
from rieszkit.conditional import (
    FiniteMeasureSpace, Partition, RandomVariable, cond_expectation, verify_duality,
)
from rieszkit.stieltjes import oracle_from_cdf, recover_cdf, uniform_cdf
from rieszkit.wiener import WienerParams, sample_bridge


DATA = pathlib.Path(__file__).parent / "data"


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def combined_output(result):
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_selftest_passes():
    result = run("selftest")
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
    assert header == ["check", "value", "reference", "abs_error", "bound", "status"]
    assert len(rows) == 6
    assert all(row[-1] == "pass" for row in rows)
    assert {row[0] for row in rows} == {
        "expected_norm_segment_indicator",
        "expectation_curve_distance",
        "transition_identity_residual",
        "path_measure_total_mass",
        "recovered_F_uniform_half",
        "conditional_duality_residual",
    }


def test_bochner_matches_the_exact_curve():
    result = run("bochner", "--size", "16", "--grid-n", "21")
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
    assert header == ["t", "reconstructed", "exact"]
    assert len(rows) == 21
    for t, recon, exact in rows:
        assert abs(float(exact) - (1.0 - float(t))) < 1e-15
        assert abs(float(recon) - float(exact)) < 1e-8


def test_csv_and_json_agree_bit_for_bit():
    as_csv = run("bochner", "--size", "8", "--grid-n", "5")
    as_json = run("bochner", "--size", "8", "--grid-n", "5", "--format", "json")
    assert as_csv.exit_code == 0 and as_json.exit_code == 0
    _, csv_rows = parse_csv(as_csv.output)
    doc = json.loads(as_json.output)
    assert doc["columns"] == ["t", "reconstructed", "exact"]
    assert doc["meta"]["size"] == 8
    for text_row, json_row in zip(csv_rows, doc["rows"]):
        assert [float(c) for c in text_row] == json_row


def test_recover_cdf_uniform_grid():
    result = run(
        "recover-cdf", "--law", "uniform",
        "--grid-lo", "0.25", "--grid-hi", "0.75", "--grid-n", "3",
    )
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
    assert header == ["x", "F"]
    for x, F in rows:
        assert abs(float(F) - float(x)) < 1e-3


def test_bochner_fourier_sine_is_the_library_expansion():
    doc = json.loads(run("bochner", "--basis", "fourier_sine", "--size", "12", "--grid-n", "9",
                         "--format", "json").output)
    assert doc["meta"] == {"command": "bochner", "basis": "fourier_sine", "size": 12, "grid_n": 9}
    basis = hb.OrthonormalBasis(kind="fourier_sine", size=12)
    ts = (np.arange(9) + 0.5) / 9
    recon = hb.bochner_expectation(hb.prefix_indicator_law(basis)).reconstruct(ts)
    assert doc["rows"] == [list(row) for row in zip(ts.tolist(), recon.tolist(),
                                                     (1.0 - ts).tolist())]


def test_recover_cdf_limits_are_those_of_the_library():
    # mass beyond +-1 sits outside the cutoff of index 1, so --m-max 1 shows
    limits = ("--j-max", "5", "--m-max", "1", "--tol", "1e-3")
    args = ("recover-cdf", "--law", "uniform", "--law-args", "-1.5,1.5", "--grid-lo", "-2",
            "--grid-hi", "2", "--grid-n", "17", "--format", "json")
    doc = json.loads(run(*args, *limits).output)
    assert doc["meta"] == {"command": "recover-cdf", "oracle": "uniform(-1.5,1.5)",
                           "j_max": 5, "m_max": 1, "tol": 1e-3}
    oracle = oracle_from_cdf(uniform_cdf(-1.5, 1.5), (-2.0, 2.0))
    xs = np.linspace(-2.0, 2.0, 17).tolist()
    assert doc["rows"] == [[x, recover_cdf(oracle, x, 5, 1, 1e-3)] for x in xs]
    assert doc["rows"] != json.loads(run(*args).output)["rows"]


@pytest.mark.parametrize("mode, exact", [
    ("0", lambda x: 1.0 - (1.0 - x) ** 2),
    ("1", lambda x: x ** 2),
])
def test_recover_cdf_on_a_degenerate_triangular_law(mode, exact):
    doc = json.loads(run("recover-cdf", "--law", "triangular", "--law-args", f"0,{mode},1",
                         "--format", "json").output)
    x, F = np.array(doc["rows"]).T
    # acceptance 03's bound on the same grid
    assert np.max(np.abs(F - exact(np.clip(x, 0.0, 1.0)))) < 5e-3


def test_recover_cdf_from_samples(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("0.1\n0.4\n0.6\n0.9\n")
    result = run(
        "recover-cdf", "--samples", str(path),
        "--grid-lo", "0.5", "--grid-hi", "2.0", "--grid-n", "2",
    )
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert abs(float(rows[0][1]) - 0.5) < 1e-3
    assert abs(float(rows[1][1]) - 1.0) < 1e-3


def test_recover_cdf_requires_exactly_one_source(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("0.5\n")
    assert run("recover-cdf").exit_code == 2
    assert (
        run("recover-cdf", "--law", "uniform", "--samples", str(path)).exit_code
        == 2
    )


def test_condexp_golden(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text(
        "label,probability,value\n"
        "1,0.25,1\n2,0.25,2\n3,0.25,3\n4,0.25,4\n"
    )
    result = run(
        "condexp", "--input", str(path), "--partition", "1,2|3,4",
        "--format", "json",
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["meta"]["duality_passed"] is True
    xi = [row[3] for row in doc["rows"]]
    assert xi == [1.5, 1.5, 3.5, 3.5]
    blocks = [row[4] for row in doc["rows"]]
    assert blocks == [0, 0, 1, 1]
    assert all(row[6] == 0 for row in doc["rows"])


def test_condexp_rejects_unknown_label(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("a,0.5,1\nb,0.5,2\n")
    result = run("condexp", "--input", str(path), "--partition", "a|z")
    assert result.exit_code == 2


def test_condexp_names_a_repeated_label(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("a,0.5,1\na,0.5,3\n")
    result = run("condexp", "--input", str(path), "--partition", "a")
    assert result.exit_code == 2
    assert "atom labels must be unique; 'a' repeats" in result.stderr


def test_condexp_reads_a_byte_order_mark_as_no_part_of_a_label(tmp_path):
    path = tmp_path / "atoms.csv"
    for text in ("a,0.5,1\nb,0.5,3\n", "label,probability,value\na,0.5,1\nb,0.5,3\n"):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        result = run("condexp", "--input", str(path), "--partition", "a|b")
        assert result.exit_code == 0, result.stderr
        _, rows = parse_csv(result.output)
        assert [row[0] for row in rows] == ["a", "b"]


def test_condexp_takes_the_header_from_the_first_non_blank_record(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("\n  ,\nlabel,p,v\na,0.5,1\n\nb,0.5,3\n")
    result = run("condexp", "--input", str(path), "--partition", "a|b")
    assert result.exit_code == 0, result.stderr
    _, rows = parse_csv(result.output)
    assert [row[:3] for row in rows] == [["a", "0.5", "1.0"], ["b", "0.5", "3.0"]]


def _condexp_reference(path, spec, fmt, tol=1e-14):
    """condexp by the row-by-row route: a loop over the records, then
    csv.writer over _cell values. Returns (exit code, output or error)."""
    labels, probs, values = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for k, row in enumerate(csv.reader(fh)):
            if not row or not any(c.strip() for c in row):
                continue
            if len(row) < 3:
                return 2, f"{path}: row {k + 1} has {len(row)} fields, need 3"
            try:
                p, v = float(row[1]), float(row[2])
            except ValueError:
                if k == 0:
                    continue  # header row
                return 2, f"{path}: row {k + 1} is not (label, probability, value)"
            labels.append(row[0].strip())
            probs.append(p)
            values.append(v)
    space = FiniteMeasureSpace(tuple(zip(labels, probs)))
    X = RandomVariable(tuple(values))
    G = Partition.from_spec(spec, space.labels)
    xi = cond_expectation(X, G, space)
    report = verify_duality(X, xi, G, space, tol)
    block_of = {atom: b for b, block in enumerate(G.blocks) for atom in block}
    rows = []
    for k in range(len(labels)):
        b = block_of[k]
        rows.append((labels[k], probs[k], values[k], xi.values[k], b,
                     report.residuals[b], int(b in xi.zero_mass_blocks)))
    names = ["label", "probability", "x", "xi", "block", "residual", "zero_mass"]
    if fmt == "json":
        meta = {"command": "condexp", "partition": spec, "tol": tol,
                "duality_passed": report.passed}
        return 0, json.dumps({"columns": names, "rows": rows, "meta": meta}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return 0, buf.getvalue()


def test_condexp_prints_the_bytes_of_the_row_by_row_route(tmp_path):
    rng = np.random.default_rng(7)
    n = 2000
    weights = rng.dirichlet(np.ones(n)).tolist()
    draws = rng.normal(0.0, 3.0, n).tolist()
    dirichlet = "".join(f"a{k},{p!r},{x!r}\n" for k, (p, x) in enumerate(zip(weights, draws)))
    dirichlet_spec = "|".join(",".join(f"a{k}" for k in range(b, n, 37)) for b in range(37))
    cases = {
        "header": ("label,probability,value\na,0.25,1\nb,0.75,-2.5e-3\n", "a|b"),
        "no header": ("a,0.25,1\nb,0.75,-2.5e-3\n", "a,b"),
        "blank records": ("\n \t\na,0.5,1\n , \n\nb,0.5,3\n\n", "a|b"),
        "spaced labels": ("  a ,0.5,1\n\tb,0.5, 3 \n", "a|b"),
        "quoted label": ('"x""y",0.5,1\nz,0.5,3\n', 'x"y|z'),
        "extra fields": ("a,0.5,1,more,fields\nb,0.5,3,\n", "a|b"),
        "zero mass": ("a,0.0,7\nb,1.0,2\nc,0.0,-1\nd,0.0,0.1\n", "a,c|b|d"),
        "one atom": ("a,1.0,4.5\n", "a"),
        "dirichlet": (dirichlet, dirichlet_spec),
        "short record": ("a,0.5,1\nb,0.5,3\nc,0.5\nd,x,1\n", "a|b|c"),
        "non-numeric": ("a,0.5,1\nb,0.5,3\n\nc,x,1\nd,0.5\n", "a|b|c"),
        "blank label": ("a,0.5,1\n ,0.5,oops\nb,0.5,3\n", "a|b"),
    }
    path = tmp_path / "atoms.csv"
    target = tmp_path / "table.out"
    for name, (text, spec) in cases.items():
        path.write_text(text)
        for fmt in ("csv", "json"):
            code, expected = _condexp_reference(path, spec, fmt)
            args = ("condexp", "--input", str(path), "--partition", spec, "--format", fmt)
            result = run(*args)
            assert result.exit_code == code, (name, fmt, result.stderr)
            if code:
                assert f"Error: {expected}\n" in result.stderr, (name, fmt)
                continue
            assert result.output == expected, (name, fmt)
            filed = run(*args, "--out", str(target))
            assert filed.exit_code == 0 and filed.output == "", (name, fmt)
            assert target.read_text() == expected, (name, fmt)
    path.write_text(cases["quoted label"][0])
    first = run("condexp", "--input", str(path), "--partition", 'x"y|z').output.splitlines()[1]
    assert first.startswith('"x""y",0.5,1.0,1.0,0,')


def test_condexp_rejects_short_rows(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("a,0.5\n")
    result = run("condexp", "--input", str(path), "--partition", "a")
    assert result.exit_code == 2


def test_compat_check_default_configuration():
    result = run("compat-check", "--nodes", "8,64", "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["columns"] == ["n_nodes", "residual"]
    assert doc["rows"][-1][0] == 64
    assert doc["rows"][-1][1] < 1e-10
    assert doc["meta"]["passed"] is True


def test_wiener_integrate_constant():
    result = run("wiener-integrate", "--nodes", "64")
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
    assert header == ["method", "n_nodes", "n_paths", "value", "stderr", "delta"]
    assert rows[0][0] == "quadrature"
    assert abs(float(rows[0][3]) - 1.0 / math.sqrt(2 * math.pi)) < 1e-8


def test_wiener_integrate_constant_mc_row():
    result = run("wiener-integrate", "--nodes", "32", "--paths", "500")
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert rows[-1][0] == "mc"
    assert rows[-1][2] == "500"
    assert abs(float(rows[-1][3]) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12
    assert float(rows[-1][4]) == 0.0


def test_wiener_integrate_odd_monomial():
    result = run("wiener-integrate", "--F", "mono:1", "--nodes", "32")
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert abs(float(rows[0][3])) < 1e-12


def test_wiener_integrate_half_line_box():
    result = run("wiener-integrate", "--F", "box:0:inf", "--nodes", "64")
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert abs(float(rows[0][3]) - 0.5 / math.sqrt(2 * math.pi)) < 1e-6


def test_wiener_integrate_budget_exceeded():
    result = run(
        "wiener-integrate", "--F", "mono:2,2,2,2,2",
        "--times", "0.1,0.2,0.3,0.4,0.5", "--nodes", "64",
    )
    assert result.exit_code == 1
    assert "BudgetError" in combined_output(result)


def test_library_errors_leave_through_the_subcommand():
    # a library ValueError is a usage error of the subcommand that met it
    result = run("recover-cdf", "--law", "uniform", "--law-args", "1,0",
                 prog_name="rieszkit")
    assert result.exit_code == 2
    assert result.stderr.startswith("Usage: rieszkit recover-cdf [OPTIONS]\n")
    assert result.stderr.endswith("Error: need lo < hi, got 1.0, 0.0\n")
    # a RieszkitError fails the run, without a usage line
    result = run("wiener-integrate", "--F", "mono:2,2,2,2,2",
                 "--times", "0.1,0.2,0.3,0.4,0.5", "--nodes", "64", prog_name="rieszkit")
    assert result.exit_code == 1
    assert result.stderr.startswith("Error: BudgetError: tensor quadrature needs")


def test_selftest_lets_a_library_value_error_through(monkeypatch):
    # selftest's options cannot cause a ValueError, so one from its checks
    # is a bug and must not pass for a usage error
    def broken(*args, **kwargs):
        raise ValueError("broken check")

    monkeypatch.setattr("rieszkit.hilbert.expected_norm", broken)
    result = run("selftest")
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError)
    assert "Usage:" not in combined_output(result)


def test_wiener_integrate_rejects_bad_specs():
    assert run("wiener-integrate", "--F", "gauss").exit_code == 2
    assert run("wiener-integrate", "--F", "mono:1,2").exit_code == 2
    assert run("wiener-integrate", "--F", "box:1").exit_code == 2
    assert run("wiener-integrate", "--times", "oops").exit_code == 2


def test_bridge_sample_layout_and_determinism():
    args = (
        "bridge-sample", "--times", "0.25,0.5", "--paths", "2", "--seed", "9"
    )
    first = run(*args)
    second = run(*args)
    other = run(
        "bridge-sample", "--times", "0.25,0.5", "--paths", "2", "--seed", "10"
    )
    assert first.exit_code == 0
    assert first.output == second.output
    assert first.output != other.output
    header, rows = parse_csv(first.output)
    assert header == ["path", "t", "position"]
    assert [r[0] for r in rows] == ["0", "0", "1", "1"]
    assert [float(r[1]) for r in rows] == [0.25, 0.5, 0.25, 0.5]


def test_bridge_sample_matches_a_loop_of_sample_bridge():
    # the batch draw must consume the generator exactly as one
    # sample_bridge call per path did, so seeded output keeps its bytes
    result = run("bridge-sample", "--paths", "5", "--seed", "11")
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    params = WienerParams(0.0, 0.0, 1.0, 0.5)
    rng = np.random.Generator(np.random.Philox(key=11))
    expected = []
    for k in range(5):
        path = sample_bridge(params, (0.25, 0.5, 0.75), rng)
        expected.extend(zip([k] * 3, path.times, path.positions))
    assert [(int(k), float(t), float(x)) for k, t, x in rows] == expected


def test_bridge_sample_bits_are_those_of_sample_bridge_path_by_path():
    # one recurrence serves both routes: floats for a path, arrays for a batch
    gen = np.random.default_rng(2024)
    for n_times in range(1, 9):
        t = float(gen.uniform(0.1, 5.0))
        params = WienerParams(float(gen.normal()), float(gen.normal()), t,
                              float(gen.uniform(0.05, 3.0)))
        times = tuple(sorted(float(s) for s in gen.uniform(0.0, t, n_times)))
        seed = int(gen.integers(2**32))
        result = run("bridge-sample", "--times", ",".join(map(repr, times)),
                     "--x", repr(params.x), "--y", repr(params.y), "--t", repr(t),
                     "--D", repr(params.D), "--paths", "7", "--seed", str(seed),
                     "--format", "json")
        assert result.exit_code == 0, result.output
        got = [float(p).hex() for _, _, p in json.loads(result.output)["rows"]]
        rng = np.random.Generator(np.random.Philox(key=seed))
        want = [v.hex() for _ in range(7)
                for v in sample_bridge(params, times, rng).positions]
        assert got == want, n_times


def test_output_file_matches_stdout(tmp_path):
    target = tmp_path / "table.csv"
    direct = run("compat-check", "--nodes", "8,16")
    filed = run("compat-check", "--nodes", "8,16", "--out", str(target))
    assert filed.exit_code == 0
    assert filed.output == ""
    assert target.read_text() == direct.output


def test_control_characters_in_labels_reach_stdout_and_read_back(tmp_path):
    # labels: an ANSI escape, which click strips from a stdout that is no
    # terminal unless told not to; a CR, which csv.writer leaves unquoted
    # before Python 3.13; and a double quote
    args = ("condexp", "--input", str(DATA / "control_labels.csv"),
            "--partition", '\x1b[31mred,a\rb|x"y')
    target = tmp_path / "table.csv"
    direct = run(*args)
    filed = run(*args, "--out", str(target))
    assert direct.exit_code == filed.exit_code == 0
    assert direct.stdout_bytes == target.read_bytes()
    _, rows = parse_csv(direct.stdout_bytes.decode())
    assert [row[0] for row in rows] == ["\x1b[31mred", "a\rb", 'x"y']


def test_condexp_rejects_a_label_the_partition_cannot_name(tmp_path):
    path = tmp_path / "atoms.csv"
    for text, row, label in (
        ('a,0.5,1\n"x,y",0.5,2\n', 2, "x,y"),
        ('label,p,v\n\na,0.25,1\nb,0.25,2\n p|q ,0.5,3\n"r,s",0,4\n', 5, "p|q"),
    ):
        path.write_text(text)
        for fmt in ("csv", "json"):
            result = run("condexp", "--input", str(path), "--partition", "a", "--format", fmt)
            assert result.exit_code == 2, (text, fmt)
            assert f"row {row} label {label!r} holds" in result.stderr, (text, fmt)


def test_overflowing_endpoints_are_a_usage_error_without_warnings():
    commands = (
        ("bridge-sample", "--x", "1e308", "--y", "-1e308", "--times", "0.5"),
        ("wiener-integrate", "--x", "1e308", "--y", "-1e308", "--paths", "100",
         "--nodes", "8"),
    )
    for args in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(*args)
        assert result.exit_code == 2, args
        assert "y - x overflows" in combined_output(result)
        assert caught == [], args


def test_far_apart_endpoints_integrate_to_zero_without_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run("wiener-integrate", "--x", "0", "--y", "1e200", "--paths", "100",
                     "--nodes", "8")
    assert result.exit_code == 0
    assert caught == []
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [float(r["value"]) for r in rows] == [0.0, 0.0]


def test_usage_errors(tmp_path):
    assert run().exit_code == 2
    assert run("no-such-command").exit_code == 2
    assert run("selftest", "--no-such-flag").exit_code == 2
    assert run("selftest", "--tol", "1e-6").exit_code == 2
    assert run("recover-cdf", "--law", "uniform", "--grid-hi", "inf").exit_code == 2
    assert run("recover-cdf", "--law", "uniform", "--law-args", "0,inf",
               "--grid-n", "1").exit_code == 2
    assert run("recover-cdf", "--law", "uniform", "--law-args", "1,2,3").exit_code == 2
    assert run("recover-cdf", "--law", "two-atom", "--law-args", "0.3").exit_code == 2
    assert run("recover-cdf", "--law", "triangular", "--law-args", "0,1").exit_code == 2
    assert run("recover-cdf", "--law", "two-atom", "--law-args", "").exit_code == 2
    assert run("compat-check", "--nodes", "").exit_code == 2
    assert run("wiener-integrate", "--nodes", "").exit_code == 2
    assert run("wiener-integrate", "--nodes", "8,x").exit_code == 2
    result = run("wiener-integrate", "--x", "0", "--y", "0", "--t", "1e-300", "--D", "1e-300",
                 "--times", "5e-301", "--paths", "100", "--nodes", "8")
    assert result.exit_code == 2
    assert "underflows" in result.stderr
    assert "Warning" not in combined_output(result)
    draws = tmp_path / "draws.csv"
    draws.write_text("0.1\n0.9\n")
    result = run("recover-cdf", "--samples", str(draws), "--law-args", "5,6", "--grid-n", "3")
    assert result.exit_code == 2
    assert "--law-args needs --law" in combined_output(result)
    draws.write_text("0.1\nnan\n0.9\n")
    result = run("recover-cdf", "--samples", str(draws), "--grid-n", "3")
    assert result.exit_code == 2
    assert "samples must be finite" in combined_output(result)
    result = run("recover-cdf", "--law", "uniform", "--tol", "nan", "--grid-n", "3")
    assert result.exit_code == 2
    assert "tol must be positive" in combined_output(result)
    for name, text in (("letters.csv", "abc\n"), ("ragged.csv", "0.1,0.2\n0.3\n")):
        bad = tmp_path / name
        bad.write_text(text)
        result = run("recover-cdf", "--samples", str(bad), "--grid-n", "3")
        assert result.exit_code == 2
        assert str(bad) in combined_output(result)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    result = run("recover-cdf", "--samples", str(empty), "--grid-n", "3")
    assert result.exit_code == 2
    assert "need at least one sample" in result.stderr
    assert "Warning" not in combined_output(result)
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("a,0.5,1.0\nb,0.5,3.0\n")
    for tol in ("nan", "0", "-1", "inf"):
        result = run("condexp", "--input", str(atoms), "--partition", "a|b",
                     "--tol", tol, "--format", "json")
        assert result.exit_code == 2
        assert "tol must be positive" in combined_output(result)
        result = run("compat-check", "--tol", tol, "--format", "json")
        assert result.exit_code == 2
        assert "tol must be positive" in combined_output(result)
    # an infinite tolerance would print "tol": Infinity, which is not JSON
    result = run("recover-cdf", "--law", "uniform", "--tol", "inf", "--grid-n", "3",
                 "--format", "json")
    assert result.exit_code == 2
    assert "tol must be positive and finite" in combined_output(result)
    for flag in ("--x", "--z", "--u", "--s", "--t", "--D"):
        for bad in ("nan", "inf"):
            result = run("compat-check", flag, bad, "--format", "json")
            assert result.exit_code == 2, (flag, bad)
    assert run("bridge-sample", "--seed", "-1").exit_code == 2
    for cmd in (("bridge-sample",), ("wiener-integrate", "--nodes", "8")):
        result = run(*cmd, "--times", "nan,0.5")
        assert result.exit_code == 2, cmd
        assert "times must be finite" in combined_output(result)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("a,0.5,1.0\nb\xe9,0.5,3.0\n".encode("latin-1"))
    result = run("condexp", "--input", str(latin1), "--partition", "a|b\xe9")
    assert result.exit_code == 2
    assert str(latin1) in combined_output(result)
    # csv's field limit is 131,072 characters
    long_label = tmp_path / "long_label.csv"
    long_label.write_text(f"{'a' * 200_000},0.5,1.0\nb,0.5,3.0\n")
    result = run("condexp", "--input", str(long_label), "--partition", "b")
    assert result.exit_code == 2
    assert f"{long_label}: cannot read as CSV (field larger than field limit" in result.stderr


def test_csv_cells_match_cell_by_cell_formatting(tmp_path):
    # the column-wise writer prints every cell as _cell would: 0.0 and
    # -0.0 compare equal but must keep their own text
    floats = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2, 0.0, -0.0, 1e16]
    rows = [
        (f, k, None if k % 3 else "x", np.float64(f), bool(k % 2), f)
        for k, f in enumerate(floats)
    ]
    target = tmp_path / "cells.csv"
    _emit(("a", "b", "c", "d", "e", "f"), list(zip(*rows)), {}, "csv", str(target))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("a", "b", "c", "d", "e", "f"))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    assert target.read_text() == expected.getvalue()
    assert target.read_text().splitlines()[2].startswith("-0.0,1,,-0.0,True,-0.0")


def test_cell_prints_numpy_floats_as_plain_floats():
    assert _cell(np.float64(0.5)) == "0.5"
    assert _cell(np.float64(0.1) + np.float64(0.2)) == repr(0.1 + 0.2)
    assert _cell(None) == "" and _cell(3) == "3" and _cell("a") == "a"


def _emitted(names, columns):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(names, columns, {}, "csv", None)
    return buf.getvalue()


# no NUL: Python 3.10's csv.reader rejects it
_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\x00\r")
_FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324])


@st.composite
def _tables(draw, specials):
    """Column names and 2 or more columns of equal length (0 rows too); a
    column holds cells of one kind, or of any kind."""
    text = st.text(_CHARS | st.sampled_from(specials), max_size=6)
    kinds = [_FLOATS, _FLOATS.map(np.float64), st.integers(-2**70, 2**70),
             st.booleans(), st.none(), text]
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(2, 5))
    columns = []
    for _ in range(n_cols):
        cell = draw(st.sampled_from([*kinds, st.one_of(kinds)]))
        columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    return draw(st.lists(text, min_size=n_cols, max_size=n_cols)), columns


@settings(max_examples=300, deadline=None)
@given(_tables(',"\n é'))
def test_csv_is_the_bytes_of_csv_writer_over_cell_texts(table):
    # csv.writer leaves a bare CR unquoted before Python 3.13, so CR is not drawn here
    names, columns = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([_cell(v) for v in row] for row in zip(*columns))
    assert _emitted(names, columns) == expected.getvalue()


@settings(max_examples=300, deadline=None)
@given(_tables(',"\n\r '))
def test_csv_reads_back_to_the_cell_texts(table):
    names, columns = table
    rows = list(csv.reader(io.StringIO(_emitted(names, columns))))
    assert rows == [list(names), *([_cell(v) for v in row] for row in zip(*columns))]


# Recorded output of every command, CSV and JSON, keyed "command/format";
# <DIR> stands for the directory holding the input files below.
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())
GOLDEN_ARGS = {
    "bochner": ["bochner", "--size", "4", "--grid-n", "3"],
    "recover-cdf": ["recover-cdf", "--law", "triangular", "--grid-lo", "0.25",
                    "--grid-hi", "0.75", "--grid-n", "3"],
    "recover-cdf-samples": ["recover-cdf", "--samples", "<DIR>/draws.csv",
                            "--grid-lo", "0.5", "--grid-hi", "1.0", "--grid-n", "2"],
    "condexp": ["condexp", "--input", "<DIR>/atoms.csv", "--partition", "d,a|e|b,c"],
    "compat-check": ["compat-check", "--nodes", "8,16"],
    "wiener-integrate": ["wiener-integrate", "--F", "mono:2", "--nodes", "8,16",
                         "--paths", "100", "--seed", "3"],
    "bridge-sample": ["bridge-sample", "--times", "0.5", "--paths", "2", "--seed", "4"],
    "selftest": ["selftest"],
}


def test_every_command_prints_its_recorded_bytes(tmp_path):
    (tmp_path / "atoms.csv").write_text(
        "label,probability,value\nc,0.0,7\na,0.5,-1.25\nb,0.375,3\nd,0.125,0.1\ne,0.0,2\n"
    )
    (tmp_path / "draws.csv").write_text("0.1\n0.4\n0.6\n0.9\n")
    assert len(GOLDEN) == 2 * len(GOLDEN_ARGS)
    for name, args in GOLDEN_ARGS.items():
        args = [a.replace("<DIR>", str(tmp_path)) for a in args]
        for fmt in ("csv", "json"):
            result = run(*args, "--format", fmt)
            assert result.exit_code == 0, (name, fmt)
            got = result.output.replace(str(tmp_path), "<DIR>")
            assert got == GOLDEN[f"{name}/{fmt}"], (name, fmt)
