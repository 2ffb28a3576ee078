"""The README's "Library quick start" and "Command line" blocks run as written.

The quick start's Python block runs in a fresh namespace.  Each line of the
command block runs in a shell whose PATH starts with a `tailratio` that
calls ``python -m tailratio.cli``, in a directory holding the `data.txt`
that two of the lines read, and must exit 0.  A public name, or a flag,
removed or renamed in the library but not in the README fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailratio

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading, language):
    """The first ```language block after the README's `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def command_lines():
    return [line for line in block("Command line", "sh").splitlines() if line.strip()]


def test_library_quick_start_runs():
    exec(compile(block("Library quick start", "python"), "README.md", "exec"), {})


@pytest.fixture(scope="module")
def shell(tmp_path_factory):
    """The environment and working directory the lines run in."""
    bin_dir = tmp_path_factory.mktemp("bin")
    shim = bin_dir / "tailratio"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m tailratio.cli "$@"\n')
    shim.chmod(0o755)
    work = tmp_path_factory.mktemp("work")
    # Pareto(1.5) magnitudes: 100 blocks of 100 for estimate-alpha
    values = (1.0 - np.random.default_rng(3).random(10_000)) ** (-1.0 / 1.5)
    (work / "data.txt").write_text("".join(f"{v!r}\n" for v in values.tolist()))
    src = str(Path(tailratio.__file__).resolve().parents[1])
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return env, work


@pytest.mark.parametrize("line", command_lines(),
                         ids=lambda line: line.split("tailratio ", 1)[1].split()[0])
def test_command_line_runs(shell, line):
    env, work = shell
    done = subprocess.run(line, shell=True, cwd=work, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
