"""Imports: no command loads scipy, and no module imports a name it does not use.

No command loads any scipy module: numpy is the only runtime dependency.
Quadrature, the normal quantile and the half-normal family's erf are the
library's own or the standard library's; scipy is only the tests' reference.
The quadrature commands (prob-limit, prob-exact, prob-oracle and
check-conditions) and `import tailratio` load no numpy at all; a command
that reads data does, which shows that the check can see it.  They load
neither the standard library's inspect nor its dataclasses (with inspect's own
imports, over half of what `import tailratio.cli` would cost); a command that
reads data loads inspect through numpy.  A command that draws no random
numbers loads no numpy.random module either; one that draws does.  No command
loads numpy.ma, which np.median imports to look for masked arrays.  Only a
command that runs a normal quantile (the Wilson interval's z or the
half-normal family's quantile) loads tailratio.intervals.

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
    "check-conditions-half_cauchy": ["check-conditions", "--dist", CAUCHY],
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
# the cases that load no numpy: the quadrature commands, and importing the CLI
NO_NUMPY = {c for c in CASES if c == "import" or c.startswith(
    ("prob-limit", "prob-exact", "prob-oracle", "check-conditions"))}

# the cases that run a normal quantile: a Wilson interval, or a half-normal family
NORMAL_QUANTILE = {c for c in CASES
                   if c.startswith(("prob-mc", "estimate-alpha")) or c.endswith("half_normal")}


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


@pytest.mark.parametrize("case", sorted(NO_NUMPY | {"detect"}))
def test_quadrature_commands_load_no_numpy(case, modules_loaded):
    numpy = [m for m in modules_loaded(case) if m.split(".")[0] == "numpy"]
    assert (numpy == []) == (case in NO_NUMPY), numpy[:5]


@pytest.mark.parametrize("case", sorted(NO_NUMPY | {"detect"}))
def test_quadrature_commands_load_no_inspect_or_dataclasses(case, modules_loaded):
    loaded = [m for m in modules_loaded(case) if m in ("inspect", "dataclasses")]
    assert loaded == ([] if case in NO_NUMPY else ["inspect"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_intervals_loaded_only_to_run_a_normal_quantile(case, modules_loaded):
    assert ("tailratio.intervals" in modules_loaded(case)) == (case in NORMAL_QUANTILE)


# the package's names, as its eager imports gave them before they were made lazy
ALL = [
    "AccuracyError", "AlphaEstimate", "CapabilityError", "ConditionReport",
    "DegenerateFrequencyError", "InsufficientDataError", "OutlierVerdict",
    "ParameterDomainError", "ProbabilityResult", "ScalingResult", "SingularityError",
    "TailFamily", "TailRatioError", "TopTwo", "TrajectorySeries", "block_event_frequency",
    "boundary_ratio", "check_theorem_conditions", "estimate_alpha_from_data",
    "estimate_alpha_from_frequency", "exact_probability", "is_outlier",
    "joint_oracle_probability", "ksigma_outliers", "limit_probability", "make_exponential",
    "make_half_cauchy", "make_half_normal", "make_pareto", "make_symmetric_stable",
    "mc_probability", "parse_family_spec", "running_mean_trajectory",
    "scaling_exponent_experiment", "theory_slope", "top_two_magnitudes", "trajectories",
    "wilson_interval",
]

PACKAGE_SCRIPT = """
import json, sys
import tailratio
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
names = {n: getattr(tailratio, n).__module__ for n in tailratio.__all__}
kept = sorted(set(tailratio.__all__) & set(vars(tailratio)))
print(json.dumps([loaded, tailratio.__all__, names, kept, sorted(dir(tailratio))]))
"""


def run_fresh(script):
    """The JSON that `script` prints, run in a fresh interpreter on the repo's source."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_tailratio_loads_no_numpy_and_resolves_every_name():
    loaded, names, modules, kept, listed = run_fresh(PACKAGE_SCRIPT)
    assert loaded == []  # read before any name was resolved
    assert names == ALL
    assert all(module.startswith("tailratio.") for module in modules.values())
    # resolved on every use, never kept in the package: a wrapper bound to a
    # module's name later (as perfbench's tracer does) is what the package gives
    assert kept == []
    assert set(ALL) <= set(listed)


def test_dir_lists_every_name_sorted_and_loads_no_numpy():
    listed, names, loaded = run_fresh("""
import json, sys
import tailratio
listed = dir(tailratio)
print(json.dumps([listed, tailratio.__all__, [m for m in sys.modules if m.split(".")[0] == "numpy"]]))
""")
    assert listed == sorted(listed)
    assert set(names) <= set(listed)
    assert loaded == []  # listing a name does not resolve it


def test_package_name_follows_its_module():
    import tailratio
    from tailratio import probability

    original = probability.exact_probability
    try:
        probability.exact_probability = wrapped = lambda *args: original(*args)
        assert tailratio.exact_probability is wrapped
    finally:
        probability.exact_probability = original
    assert tailratio.exact_probability is original
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        tailratio.nonesuch


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
