"""Imports: no command loads scipy, and no module imports a name it does not use.

No command loads any scipy module: numpy is the only runtime dependency.
Quadrature, the normal quantile and the half-normal family's erf are the
library's own or the standard library's; scipy is only the tests' reference.
A command that draws no random numbers loads no numpy.random module either;
one that draws does, which shows that the check can see it.  No command loads
numpy.ma, which np.median imports to look for masked arrays.

Each case runs in a fresh interpreter, because sys.modules keeps whatever an
earlier import in the test process loaded; every check reads that one run.
"""

import ast
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PARETO = "pareto:alpha=1.5,xm=1"
CAUCHY = "half_cauchy:scale=1"
NORMAL = "half_normal:sigma=1"

# argv for cli.main (None: only import tailratio.cli)
CASES = {
    "import": None,
    "detect": ["detect", "--input", "{data}"],
    "ksigma": ["ksigma", "--input", "{data}"],
    "prob-limit": ["prob-limit", "--alpha", "1.5"],
    "lln-demo": ["lln-demo", "--dist", "stable:alpha=0.6", "--seed", "1",
                 "--ns", "10,100", "--replications", "3"],
    "lln-demo-half_normal": ["lln-demo", "--dist", NORMAL, "--seed", "1",
                             "--ns", "10,100", "--replications", "3"],
    "check-conditions": ["check-conditions", "--dist", PARETO],
    "check-conditions-half_normal": ["check-conditions", "--dist", NORMAL],
    "estimate-alpha": ["estimate-alpha", "--input", "{data}", "--block-size", "10"],
    "prob-mc": ["prob-mc", "--dist", PARETO, "--n", "5", "--trials", "50", "--seed", "1"],
    "prob-mc-half_cauchy": ["prob-mc", "--dist", CAUCHY, "--n", "5", "--trials", "50",
                            "--seed", "1"],
    "prob-mc-half_normal": ["prob-mc", "--dist", NORMAL, "--n", "5", "--trials", "50",
                            "--seed", "1"],
    "prob-exact-pareto": ["prob-exact", "--dist", PARETO, "--n", "10"],
    "prob-exact-half_cauchy": ["prob-exact", "--dist", CAUCHY, "--n", "10"],
    "prob-exact-half_normal": ["prob-exact", "--dist", NORMAL, "--n", "10"],
    "prob-oracle-pareto": ["prob-oracle", "--dist", PARETO, "--n", "3"],
    "prob-oracle-half_cauchy": ["prob-oracle", "--dist", CAUCHY, "--n", "3"],
    "prob-oracle-half_normal": ["prob-oracle", "--dist", NORMAL, "--n", "3"],
}

SCRIPT = """
import contextlib, io, json, sys
import tailratio.cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = tailratio.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""

# the cases that draw random numbers
DRAWS = {c for c in CASES if c.startswith(("lln-demo", "prob-mc"))}


@pytest.fixture(scope="module")
def modules_loaded(tmp_path_factory):
    """`case` -> every module in sys.modules after it ran in a fresh interpreter.

    Each case starts its interpreter once, for all the tests that read it.
    """
    data = tmp_path_factory.mktemp("imports") / "data.txt"
    pareto = (1.0 - np.random.default_rng(3).random(200)) ** (-1.0 / 1.5)
    data.write_text("".join(f"{v!r}\n" for v in pareto.tolist()))
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    @cache
    def modules(case):
        argv = CASES[case]
        if argv is not None:
            argv = [a.format(data=data) for a in argv]
        proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return modules


@pytest.mark.parametrize("case", sorted(CASES))
def test_scipy_modules_loaded(case, modules_loaded):
    assert [m for m in modules_loaded(case) if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_random_loaded_only_to_draw(case, modules_loaded):
    loaded = modules_loaded(case)
    assert any(m.split(".")[:2] == ["numpy", "random"] for m in loaded) == (case in DRAWS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_ma_loaded_by_no_command(case, modules_loaded):
    assert [m for m in modules_loaded(case) if m.split(".")[:2] == ["numpy", "ma"]] == []


# the package's __init__ imports names to re-export them
MODULES = sorted(p.name for p in (ROOT / "src" / "tailratio").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((ROOT / "src" / "tailratio" / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == set()
