import csv
import io
import json
import math
import pathlib

import numpy as np
from click.testing import CliRunner

from rieszkit.cli import _cell, _emit, main
from rieszkit.wiener import WienerParams, sample_bridge


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


def test_output_file_matches_stdout(tmp_path):
    target = tmp_path / "table.csv"
    direct = run("compat-check", "--nodes", "8,16")
    filed = run("compat-check", "--nodes", "8,16", "--out", str(target))
    assert filed.exit_code == 0
    assert filed.output == ""
    assert target.read_text() == direct.output


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
    assert run("compat-check", "--nodes", "").exit_code == 2
    assert run("wiener-integrate", "--nodes", "").exit_code == 2
    assert run("wiener-integrate", "--nodes", "8,x").exit_code == 2
    draws = tmp_path / "draws.csv"
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


def test_csv_cells_match_cell_by_cell_formatting(tmp_path):
    # the column-wise writer prints every cell as _cell would: 0.0 and
    # -0.0 compare equal but must keep their own text
    floats = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2, 0.0, -0.0, 1e16]
    rows = [
        (f, k, None if k % 3 else "x", np.float64(f), bool(k % 2), f)
        for k, f in enumerate(floats)
    ]
    target = tmp_path / "cells.csv"
    _emit(("a", "b", "c", "d", "e", "f"), rows, {}, "csv", str(target))
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


# Recorded output of every command, CSV and JSON, keyed "command/format";
# <DIR> stands for the directory holding the input files below.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())
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
