"""Tests of the benchmark's own logic: span self time, wrapping at every
binding site, the import-time parser and the output checks."""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_hand_built_tree():
    tree = [
        (0, "root", None, 0, 100, None),
        (1, "a", 0, 10, 40, None),
        (2, "leaf", 1, 15, 20, None),
        (3, "b", 0, 30, 60, None),  # overlaps a, as a child on a pool thread would
        (4, "c", 0, 90, 120, None),  # runs past the end of its parent
    ]
    # root: 100 minus the union [10, 60] + [90, 100]
    assert spans.self_times_ns(tree) == [40, 25, 5, 30, 30]
    stats = spans.summarize(tree)
    assert stats["root"]["calls"] == 1
    assert stats["a"]["self_s"] == pytest.approx(25e-9)


def test_pool_threads_keep_the_submitting_span_as_parent():
    mod = types.ModuleType("fake")
    exec(
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def leaf(x):\n"
        "    return x\n"
        "def pooled():\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        return list(pool.map(leaf, range(4)))\n"
        "def bare():\n"
        "    t = threading.Thread(target=leaf, args=(0,))\n"
        "    t.start()\n"
        "    t.join()\n",
        mod.__dict__)
    recorder = spans.Recorder()
    uninstall = spans.install(recorder, [mod])
    try:
        assert mod.pooled() == [0, 1, 2, 3]
        assert not recorder.orphans
        mod.bare()
    finally:
        uninstall()
    pooled = next(s for s in recorder.spans if s[1] == "fake.pooled")
    leaves = [s for s in recorder.spans if s[1] == "fake.leaf"]
    assert [s[2] for s in leaves].count(pooled[0]) == 4
    assert recorder.orphans == {"fake.leaf"}  # the bare thread's call has no parent


def _traced(fn):
    import tailratio
    import tailratio.cli  # noqa: F401
    from tailratio import cli, estimation, families, intervals, lln, outliers
    from tailratio import probability, records, rng

    recorder = spans.Recorder()
    modules = [tailratio, cli, estimation, families, intervals, lln, outliers,
               probability, records, rng]
    uninstall = spans.install(recorder, modules)
    try:
        fn()
    finally:
        uninstall()
    return recorder.spans


def test_wrapped_function_seen_through_direct_import():
    from tailratio import probability, rng
    from tailratio.families import make_half_cauchy

    original = rng.substream
    recorded = _traced(lambda: probability.mc_probability(
        make_half_cauchy(), n=5, kappa=0.5, trials=20, seed=1))
    assert probability.substream is original  # restored after the run
    names = [s[1] for s in recorded]
    assert names.count("rng.substream") == 20
    assert names.count("families.TailFamily.sample_with") == 20
    assert "intervals.wilson_interval" in names  # bound as probability.wilson_interval
    metrics = spans.layer_metrics(recorded)
    assert metrics["rng.substreams_per_trial"] == 1.0
    assert metrics["families.sample_with.values"] == 100
    assert metrics["probability.mc_probability.self_s"] > 0
    assert "rng.substream" not in spans.missing_calls(recorded, "montecarlo")
    assert "probability.exact_probability" in spans.missing_calls(recorded, "quick")


def test_cli_bindings_are_wrapped():
    from tailratio import cli

    data = io.StringIO("1\n-2\n10\n")
    saved, sys.stdin = sys.stdin, data
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            recorded = _traced(lambda: cli.main(["detect", "--kappa", "0.5"]))
    finally:
        sys.stdin = saved
    names = {s[1] for s in recorded}
    assert {"cli.main", "records.read_values", "outliers.is_outlier",
            "outliers.top_two_magnitudes", "records.to_json"} <= names
    assert spans.layer_metrics(recorded)["records.read_values.values"] == 3


def test_parse_importtime_sums_lazily_loaded_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       200 |       1000 |       numpy",
        "import time:        50 |         50 |       scipy.integrate._quadpack",
        "import time:        70 |        300 |       scipy.integrate._ode",
        "import time:        10 |         10 |         scipy.special._ufuncs",
        "import time:        20 |       2000 |     tailratio.probability",
        "import time:        30 |       2500 |   tailratio",
        "import time:        40 |       2600 | tailratio.cli",
    ])
    got = run.parse_importtime(text)
    assert got["import.total_s"] == pytest.approx(2600e-6)
    assert got["import.numpy_s"] == pytest.approx(1000e-6)
    assert got["import.scipy_integrate_s"] == pytest.approx(350e-6)
    assert got["import.scipy_special_s"] == pytest.approx(10e-6)


def _cli_output(args, stdin):
    from tailratio import cli

    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(list(args)) == 0
    finally:
        sys.stdin = saved
    return out.getvalue().encode()


def _corrupt(out):
    text = out.decode()
    if text.startswith("n,"):
        lines = text.splitlines()
        lines[5] = "1.5," + lines[5].split(",")[1]
        return "\n".join(lines).encode()
    rec = json.loads(text)
    for key in ("value", "p_hat", "ratio", "boundary_ratio_limit"):
        if key in rec:
            rec[key] += 0.01
            break
    else:
        rec["indices"] = rec["indices"].rpartition(";")[0]
    return json.dumps(rec).encode()


def _assert_checks(check, outs):
    assert check(outs) == {}
    for label in outs:
        assert label in check({**outs, label: _corrupt(outs[label])}), label


def test_quick_checks_accept_real_outputs_and_reject_corrupted(tmp_path):
    plan = workloads.plan("quick", 7, tmp_path)
    outs = {}
    for cmd in plan.commands:
        stdin = Path(cmd.stdin).read_text() if cmd.stdin else ""
        outs[cmd.label] = _cli_output(cmd.args, stdin)
    _assert_checks(plan.check, outs)


def test_ingest_checks_accept_real_outputs_and_reject_corrupted(tmp_path):
    rng = np.random.default_rng([7, 0])
    values = workloads.pareto_values(rng, 200_000)
    path = tmp_path / "values.txt"
    workloads.write_values(path, values, rng)
    text = path.read_text()
    assert "#" in text and "\n\n" in text
    outs = {
        "detect": _cli_output(["detect", "--kappa", "0.5"], text),
        "estimate-alpha": _cli_output(["estimate-alpha", "--block-size", "100"], text),
        "ksigma": _cli_output(["ksigma", "--k", "3"], text),
    }
    checks = {
        "detect": lambda out: workloads.check_detect(out, values),
        "estimate-alpha": lambda out: workloads.check_estimate(out, values, 100),
        "ksigma": lambda out: workloads.check_ksigma(out, values, 3.0),
    }
    _assert_checks(lambda o: workloads.run_checks(checks, o), outs)


def test_montecarlo_and_lln_checks_reject_corrupted(tmp_path):
    exact = workloads.event_probability("half_cauchy", workloads.MC_N)
    mc = json.dumps({"method": "monte_carlo", "n": workloads.MC_N, "value": exact,
                     "trials": workloads.MC_TRIALS}).encode()
    _assert_checks(workloads.plan("montecarlo", 7, tmp_path).check,
                   {"prob-mc-t1": mc, "prob-mc-t2": mc})
    table = ("n,median_abs_mean\n1000,99.5\n10000,462.5\n100000,2384.2\n"
             "slope,theory_slope\n0.68964982399342667,0.66666666666666674\n")
    _assert_checks(workloads.plan("lln", 7, tmp_path).check,
                   {"lln-demo": table.encode()})


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PLANS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_norm", "setup_s", "peak_rss_mb"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced = {m for m, *_ in spans.PER_LAYER} | set(spans.DERIVED)
    imports = set(run.parse_importtime(""))
    assert per_layer == traced | imports | {"trace.overhead_frac"}
