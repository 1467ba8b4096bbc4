"""The python examples of README.md run, and print what their comments say;
its command lines run from the source tree."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines() if line.startswith("rieszkit ")
]


def _run(argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120, cwd=cwd)


def test_readme_examples_run_and_print_the_stated_values():
    assert len(BLOCKS) == 4  # hilbert, stieltjes, conditional, wiener
    printed = []
    for block in BLOCKS:
        proc = _run(["-c", block])
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout.splitlines())
    # the outputs the comments state exactly; the others are approximate
    assert printed[1] == ["0.6", "1.0"]
    assert printed[2][:2] == ["(1.5, 1.5, 3.5, 3.5)", "True"]


def test_readme_wiener_example_keeps_its_bits():
    # cylinder probability, then quadrature, Monte Carlo estimate and stderr;
    # repr round-trips, so the printed values pin every bit
    proc = _run(["-c", BLOCKS[3]])
    assert proc.returncode == 0, proc.stderr
    printed = [float(v).hex() for line in proc.stdout.splitlines() for v in line.split()]
    assert printed == [
        "0x1.9884533e82c18p-3", "0x1.9884533d43806p-4",
        "0x1.966d8c00f2375p-4", "0x1.d313dedb6cafdp-12",
    ]


def test_readme_commands_run_from_source(tmp_path):
    # the files the commands name, written where the commands run
    (tmp_path / "atoms.csv").write_text(
        "label,probability,value\n1,0.25,1\n2,0.25,2\n3,0.25,3\n4,0.25,4\n"
    )
    (tmp_path / "data.txt").write_text("0.1\n0.35\n0.6\n0.85\n")
    assert [args[0] for args in COMMANDS] == [
        "selftest", "bochner", "recover-cdf", "recover-cdf", "condexp",
        "compat-check", "wiener-integrate", "wiener-integrate", "bridge-sample",
    ]
    for args in COMMANDS:
        proc = _run(["-m", "rieszkit.cli", *args], cwd=tmp_path)
        assert proc.returncode == 0, (args, proc.stderr)
        if args[0] == "condexp":
            assert len(json.loads(proc.stdout)["rows"]) == 4
