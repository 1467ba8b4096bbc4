"""The python examples of README.md run, and print what their comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _run(block):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, env=env, timeout=120)


def test_readme_examples_run_and_print_the_stated_values():
    assert len(BLOCKS) == 4  # hilbert, stieltjes, conditional, wiener
    printed = []
    for block in BLOCKS:
        proc = _run(block)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout.splitlines())
    # the outputs the comments state exactly; the others are approximate
    assert printed[1] == ["0.6", "1.0"]
    assert printed[2][:2] == ["(1.5, 1.5, 3.5, 3.5)", "True"]
