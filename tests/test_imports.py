"""scipy is loaded only by the half_normal family, for erf and ndtri.

Quadrature and the Wilson interval's normal quantile are the library's own,
so no command loads scipy.integrate, and prob-mc and estimate-alpha load no
scipy module at all.

Each case runs in a fresh interpreter, because sys.modules keeps whatever an
earlier import in the test process loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PARETO = "pareto:alpha=1.5,xm=1"
CAUCHY = "half_cauchy:scale=1"

# argv for cli.main (None: only import tailratio.cli) -> the public scipy
# subpackages it loads; a case needing none loads no scipy module at all
CASES = {
    "import": (None, set()),
    "detect": (["detect", "--input", "{data}"], set()),
    "ksigma": (["ksigma", "--input", "{data}"], set()),
    "prob-limit": (["prob-limit", "--alpha", "1.5"], set()),
    "lln-demo": (["lln-demo", "--dist", "stable:alpha=0.6", "--seed", "1",
                  "--ns", "10,100", "--replications", "3"], set()),
    "check-conditions": (["check-conditions", "--dist", PARETO], set()),
    "estimate-alpha": (["estimate-alpha", "--input", "{data}", "--block-size", "10"],
                       set()),
    "prob-mc": (["prob-mc", "--dist", PARETO, "--n", "5", "--trials", "50",
                 "--seed", "1"], set()),
    "prob-mc-half_cauchy": (["prob-mc", "--dist", CAUCHY, "--n", "5", "--trials", "50",
                             "--seed", "1"], set()),
    "prob-exact-pareto": (["prob-exact", "--dist", PARETO, "--n", "10"], set()),
    "prob-exact-half_cauchy": (["prob-exact", "--dist", CAUCHY, "--n", "10"], set()),
    "prob-exact-half_normal": (["prob-exact", "--dist", "half_normal:sigma=1", "--n", "10"],
                               {"scipy.special"}),
    "prob-oracle-pareto": (["prob-oracle", "--dist", PARETO, "--n", "3"], set()),
    "prob-oracle-half_cauchy": (["prob-oracle", "--dist", CAUCHY, "--n", "3"], set()),
}

SCRIPT = """
import contextlib, io, json, sys
import tailratio.cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = tailratio.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.mark.parametrize("case", sorted(CASES))
def test_scipy_modules_loaded(case, tmp_path):
    argv, needed = CASES[case]
    data = tmp_path / "data.txt"
    pareto = (1.0 - np.random.default_rng(3).random(200)) ** (-1.0 / 1.5)
    data.write_text("".join(f"{v!r}\n" for v in pareto.tolist()))
    if argv is not None:
        argv = [a.format(data=data) for a in argv]
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "scipy.integrate" not in loaded
    # scipy's private modules and version come with any subpackage
    public = {name for name in loaded if name.count(".") == 1
              and not name.split(".")[1].startswith("_") and name != "scipy.version"}
    assert public == needed
    if not needed:
        assert not loaded, sorted(loaded)
