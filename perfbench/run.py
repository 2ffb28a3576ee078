"""Benchmark of the tailratio command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ingest, montecarlo, lln, quick, or ``all`` to run each in
turn.  Inputs are generated from the seed before any timing.

With ``--trace 0`` the benchmark runs passes over the workload's CLI
commands, each command in a fresh ``python -m tailratio.cli`` interpreter
with numeric thread pools capped at 2, and runs the REFERENCE task in a
fresh interpreter before each command and once after the last.  The first
pass always completes; after it, the run stops before the first command
whose last time would take it past S seconds.  A set-up probe, a fresh
interpreter that only runs ``import tailratio.cli``, runs before the first
command of every pass, and further probes are spread over the S seconds so
that a run has at least MIN_PROBES of them (topped up at the end if the
run stopped early).  Reported metrics:

    wall_norm    ref    one pass in units of the reference task: the sum
                        over commands of the median ratio of the command's
                        time to the mean of the reference times measured
                        just before and just after it
    setup_s      s      median set-up probe
    peak_rss_mb  MB     largest median peak RSS of any command

The report line adds wall_s (one pass in seconds: the sum of the
commands' median times), reference_s, the workload's named rates, each
from the median command times: values_per_s (input values per second,
ingest), trials_per_s and trials_per_s_t2 (prob-mc at --threads 1 and 2,
montecarlo), samples_per_s (variates per second, lln) and commands_per_s
(quick), and error_rate, the failed share of the commands attempted.

With ``--trace 1`` it parses ``python -X importtime`` for the import
breakdown and then runs the commands in one interpreter (perfbench/traced.py)
with every public tailratio function wrapped by the span recorder
(perfbench/spans.py), reporting the per-layer metrics and the tracing
overhead against untraced passes in the same interpreter.

Every command's output is checked (perfbench/workloads.py); a command that
exits non-zero or fails its check counts as failed.  The last line of
standard output is the JSON result; the line before it is a report with the
machine, the input files, per-command times, stdout hashes and the named
rates.
"""

import argparse
import base64
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PROBES = 4
# A fixed task in a fresh interpreter, run between commands: the machine's
# speed drifts by tens of percent over tens of seconds, and the ratio of a
# command's time to the reference times on either side of it cancels that.
REFERENCE = [sys.executable, "-c", "\n".join((
    "import numpy as np",
    "s = 0",
    "for i in range(400_000):",
    "    s += i * i",
    "np.sort(np.random.default_rng(0).random(500_000))",
))]
IMPORT_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB",
    "wall_s": "s", "reference_s": "s",
    "values_per_s": "1/s", "trials_per_s": "1/s", "trials_per_s_t2": "1/s",
    "samples_per_s": "1/s", "commands_per_s": "1/s", "error_rate": "fraction",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.update({var: "2" for var in THREAD_VARS})
    return env


ENV = _env()


class Launcher:
    """Runs commands through perfbench/launcher.py, one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(WORK)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ENV, cwd=ROOT,
            text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def spawn(self, argv, stdin=None):
        """Run argv: (seconds, exit code, stdout, stderr, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stdin": stdin}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        r = json.loads(reply)
        return (r["seconds"], r["code"], base64.b64decode(r["stdout"]),
                base64.b64decode(r["stderr"]), r["rss_mb"])

    def probe(self):
        """Seconds for a fresh interpreter to run ``import tailratio.cli``."""
        seconds, code, _, err, _ = self.spawn(
            [sys.executable, "-c", "import tailratio.cli"])
        if code != 0:
            raise RuntimeError(f"import tailratio.cli failed: {err.decode()[-500:]}")
        return seconds


def parse_importtime(text):
    """import.* metrics in seconds from ``python -X importtime`` output.

    A package's time is the summed cumulative time of its outermost module
    rows.  scipy loads ``scipy.special`` and ``scipy.integrate`` through
    ``importlib.import_module``, which prints no row for the package itself,
    so its submodules are summed instead.
    """
    rows = []
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def under(name, package):
        return name == package or name.startswith(package + ".")

    def seconds(package):
        # a row's parent is the next row with a smaller depth
        total = 0
        for i, (depth, name, us) in enumerate(rows):
            if not under(name, package):
                continue
            parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
            if parent is None or not under(parent[1], package):
                total += us
        return 1e-6 * total

    return {
        "import.total_s": seconds("tailratio"),
        "import.scipy_special_s": seconds("scipy.special"),
        "import.scipy_integrate_s": seconds("scipy.integrate"),
        "import.numpy_s": seconds("numpy"),
    }


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(launcher, plan, seconds):
    """Untraced passes; returns (result, report)."""
    times = {cmd.label: [] for cmd in plan.commands}
    rss = {cmd.label: [] for cmd in plan.commands}
    probes, refs, order, latest, failures, ran = [], [], [], {}, [], []
    start = time.perf_counter()
    for cmd in itertools.cycle(plan.commands):
        elapsed = time.perf_counter() - start
        if times[cmd.label] and elapsed + refs[-1] + times[cmd.label][-1] > seconds:
            break
        if cmd is plan.commands[0] or elapsed >= len(probes) * seconds / MIN_PROBES:
            probes.append(launcher.probe())
        refs.append(launcher.spawn(REFERENCE)[0])
        took, code, latest[cmd.label], err, peak = launcher.spawn(
            [sys.executable, "-m", "tailratio.cli", *cmd.args], cmd.stdin)
        times[cmd.label].append(took)
        rss[cmd.label].append(peak)
        order.append((cmd.label, took))
        ran.append((cmd.label, code, err))
        if cmd is plan.commands[-1]:
            failures.append(_failures(plan, latest, ran))
            ran = []
    refs.append(launcher.spawn(REFERENCE)[0])
    if ran:
        failures.append(_failures(plan, latest, ran))
    failed = sum(map(len, failures))
    while len(probes) < MIN_PROBES:
        probes.append(launcher.probe())

    # each command's time over the mean of the references on either side
    ratios = {cmd.label: [] for cmd in plan.commands}
    for k, (label, took) in enumerate(order):
        ratios[label].append(2 * took / (refs[k] + refs[k + 1]))
    medians = {label: statistics.median(t) for label, t in times.items()}
    named = plan.rates(medians)
    named["error_rate"] = failed / len(order)
    named["wall_s"] = sum(medians.values())
    named["reference_s"] = statistics.median(refs)
    metrics = {
        "wall_norm": sum(statistics.median(r) for r in ratios.values()),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": max(statistics.median(r) for r in rss.values()),
    }
    report = {
        "probes": len(probes),
        "commands": {
            cmd.label: {"args": list(cmd.args), "runs": len(times[cmd.label]),
                        "median_s": medians[cmd.label],
                        "stdout_sha256": hashlib.sha256(latest[cmd.label]).hexdigest()}
            for cmd in plan.commands
        },
        "named_metrics": {k: _metric(v, UNITS[k]) for k, v in named.items()},
        "failures": [f for f in failures if f],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(order),
        "failed": failed,
        "metrics": {k: _metric(v, UNITS[k]) for k, v in metrics.items()},
    }
    return result, report


def _failures(plan, outs, ran):
    """Check the latest outputs; {label: reason} for the failed commands in `ran`."""
    checked = plan.check(outs)
    failures = {}
    for label, code, err in ran:
        if code != 0:
            failures[label] = f"exit {code}: {err.decode()[-300:]}"
        elif label in checked:
            failures[label] = checked[label]
    return failures


def trace(launcher, name, plan, seconds):
    """Import breakdown plus the in-process traced run; returns (result, report)."""
    start = time.perf_counter()
    breakdowns = []
    for _ in range(IMPORT_PROBES):
        _, code, _, err, _ = launcher.spawn(
            [sys.executable, "-X", "importtime", "-c", "import tailratio.cli"])
        if code != 0:
            raise RuntimeError(f"import tailratio.cli failed: {err.decode()[-500:]}")
        breakdowns.append(parse_importtime(err.decode()))
    spec = {
        "src": str(SRC),
        "workload": name,
        "commands": [{"label": c.label, "args": list(c.args), "stdin": c.stdin}
                     for c in plan.commands],
        "seconds": max(0.0, seconds - (time.perf_counter() - start)),
        "spans_path": str(WORK / f"spans-{name}.json"),
    }
    spec_path, result_path = WORK / "trace-spec.json", WORK / "trace-result.json"
    spec_path.write_text(json.dumps(spec))
    _, code, _, err, _ = launcher.spawn(
        [sys.executable, str(HERE / "traced.py"), str(spec_path), str(result_path)])
    if code != 0:
        raise RuntimeError(f"traced run failed: {err.decode()[-2000:]}")
    run = json.loads(result_path.read_text())
    if run["missing"]:
        raise RuntimeError(
            f"per-layer spans recorded no call on workload {name}: {run['missing']}")

    outs = {label: text.encode() for label, text in run["outputs"].items()}
    ran = [(label, code, run["stderr"][label].encode())
           for label, code in run["exit_codes"].items()]
    failures = _failures(plan, outs, ran)
    metrics = {
        key: _metric(statistics.median(b[key] for b in breakdowns), "s")
        for key in breakdowns[0]
    }
    for key in run["layers"][0]:
        unit = "count" if key.endswith((".calls", ".values")) else (
            "s" if key.endswith("_s") else "ratio")
        metrics[key] = _metric(statistics.median(l[key] for l in run["layers"]), unit)
    overhead = statistics.median(run["traced_s"]) / statistics.median(run["untraced_s"]) - 1
    metrics["trace.overhead_frac"] = _metric(overhead, "fraction")
    result = {
        "correct": not failures,
        "attempted": len(ran),
        "failed": len(failures),
        "metrics": metrics,
    }
    report = {
        "traced_passes": len(run["traced_s"]),
        "spans_path": spec["spans_path"],
        "stdout_sha256": {label: hashlib.sha256(out).hexdigest()
                          for label, out in outs.items()},
        "failures": failures,
    }
    return result, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.PLANS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tailratio" / "cli.py").is_file():
        print(f"error: no tailratio sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    WORK.mkdir(exist_ok=True)
    names = list(workloads.PLANS) if args.workload == "all" else [args.workload]
    facts = machine()
    with Launcher() as launcher:
        for name in names:
            plan = workloads.plan(name, args.seed, WORK)
            if args.trace:
                result, report = trace(launcher, name, plan, args.seconds)
            else:
                result, report = measure(launcher, plan, args.seconds)
            report = {"workload": name, "seed": args.seed, "machine": facts,
                      "inputs": plan.inputs, **report}
            for metric, entry in {**result["metrics"],
                                  **report.get("named_metrics", {})}.items():
                print(f"# {name:<10} {metric:<46} {entry['value']:<14.6g} "
                      f"{entry['unit']}")
            print(json.dumps(report))
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
