"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

Each workload is a fixed list of ``python -m tailratio.cli`` commands as a
user would type them.  ``plan(name, seed, workdir)`` generates the inputs
from the seed (outside any timing) and returns the commands together with
the function that checks their outputs and the function that turns command
times into the workload's rates.

Why these workloads: ``ingest`` puts text parsing and the outliers kernels
under load and leaves rng and probability idle; ``montecarlo`` is
dominated by per-trial generator construction, where chunking or threading
shows; ``lln`` uses the same rng and families layers the opposite way, with
few generators and bulk sampling; ``quick`` is short commands whose cost is
interpreter start and imports, and the only workload that runs quadrature.

The checks recompute every result independently with numpy and scipy and
never compare Monte Carlo digits, because the Monte Carlo stream layout is
allowed to change.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

KAPPA = 0.5
PARETO_ALPHA = 1.5
# share of the input lines that are `#` comments or blanks
NOISE = 0.01
INGEST_VALUES = 1_000_000
DETECT_VALUES = 1_000
MC_N = 50
MC_TRIALS = 100_000
LLN_ALPHA = 0.6
LLN_NS = (1000, 10000, 100000)
LLN_REPLICATIONS = 200
ORACLE_NS = (4, 8)
EXACT_FAMILIES = ("pareto:alpha=1.5,xm=1", "half_cauchy:scale=1",
                  "exponential:rate=1", "half_normal:sigma=1")
EXACT_NS = (10, 1_000_000)

@dataclass(frozen=True)
class Command:
    label: str
    args: tuple  # arguments after `python -m tailratio.cli`
    stdin: str | None = None  # path of a file fed to standard input


@dataclass(frozen=True)
class Plan:
    commands: tuple
    check: object  # outputs {label: bytes} -> failures {label: message}
    rates: object  # command seconds {label: float} -> {metric: value}
    inputs: dict  # provenance of generated input files


class CheckError(Exception):
    pass


def _expect(condition, message):
    if not condition:
        raise CheckError(message)


def _record(out):
    return json.loads(out.decode())


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


def _file_facts(path):
    data = Path(path).read_bytes()
    return {"path": Path(path).name, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def pareto_values(rng, count):
    return (1.0 - rng.random(count)) ** (-1.0 / PARETO_ALPHA)


def write_values(path, values, rng):
    """One value per line at 17 significant digits, with about NOISE of the
    lines being `#` comments or blanks, which readers must skip."""
    lines = []
    extra = 0
    for value, mark in zip(values.tolist(), (rng.random(values.size) < NOISE).tolist()):
        if mark:
            lines.append("# comment line" if extra % 2 else "")
            extra += 1
        lines.append(format(value, ".17g"))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- checks


def check_detect(out, values):
    rec = _record(out)
    mags = np.abs(values)
    i1 = int(np.argmax(mags))
    rest = mags.copy()
    rest[i1] = -np.inf
    i2 = int(np.argmax(rest))
    m1, m2 = float(mags[i1]), float(mags[i2])
    _expect(rec["max_index"] == i1 and rec["second_index"] == i2,
            f"top-two indices {rec['max_index']},{rec['second_index']} != {i1},{i2}")
    _expect(rec["max_magnitude"] == m1 and rec["second_magnitude"] == m2,
            "top-two magnitudes differ from the recomputation")
    _expect(rec["ratio"] == m2 / m1, f"ratio {rec['ratio']} != {m2 / m1}")
    _expect(rec["is_outlier"] is (m2 <= KAPPA * m1), "verdict differs")


def check_ksigma(out, values, k):
    rec = _record(out)
    idx = np.flatnonzero(np.abs(values - values.mean()) > k * values.std())
    _expect(rec["count"] == idx.size, f"count {rec['count']} != {idx.size}")
    _expect(rec["indices"] == ";".join(map(str, idx.tolist())), "indices differ")


def check_estimate(out, values, block_size):
    rec = _record(out)
    blocks = values.size // block_size
    mags = np.abs(values[: blocks * block_size]).reshape(blocks, block_size)
    top = np.sort(mags, axis=1)[:, -2:]
    p_hat = float((top[:, 0] <= KAPPA * top[:, 1]).mean())
    _expect(rec["blocks"] == blocks, f"blocks {rec['blocks']} != {blocks}")
    _expect(rec["p_hat"] == p_hat, f"p_hat {rec['p_hat']} != {p_hat}")
    _expect(abs(rec["alpha_hat"] - PARETO_ALPHA) < 0.1,
            f"alpha_hat {rec['alpha_hat']} is not within 0.1 of {PARETO_ALPHA}")
    _expect(rec["ci_lo"] < rec["alpha_hat"] < rec["ci_hi"], "CI misses alpha_hat")


# magnitude laws written out independently of tailratio.families:
# (cdf, quantile) of |X|
def _laws():
    from scipy import special

    return {
        "half_cauchy": (lambda x: (2 / math.pi) * math.atan(x),
                        lambda v: math.tan(math.pi * v / 2)),
        "exponential": (lambda x: -math.expm1(-x), lambda v: -math.log1p(-v)),
        "half_normal": (lambda x: math.erf(x / math.sqrt(2)),
                        lambda v: math.sqrt(2) * float(special.erfinv(v))),
    }


def event_probability(family, n):
    """P(second <= KAPPA * max) = int_0^1 n F(KAPPA Q(v))**(n-1) dv."""
    from scipy import integrate

    cdf, quantile = _laws()[family]
    value, _ = integrate.quad(
        lambda v: n * cdf(KAPPA * quantile(v)) ** (n - 1) if v < 1 else float(n),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    return value


def check_mc(out, other, exact):
    rec = _record(out)
    _expect(out == other, "output differs between --threads 1 and --threads 2")
    _expect(rec["trials"] == MC_TRIALS and rec["n"] == MC_N, "trials or n differ")
    se = math.sqrt(exact * (1 - exact) / MC_TRIALS)
    _expect(abs(rec["value"] - exact) <= 4 * se,
            f"p_hat {rec['value']} is more than 4 se from {exact}")


def check_lln(out):
    lines = out.decode().splitlines()
    _expect(lines[0] == "n,median_abs_mean" and lines[4] == "slope,theory_slope",
            "unexpected table layout")
    ns = tuple(int(line.split(",")[0]) for line in lines[1:4])
    _expect(ns == LLN_NS, f"ns {ns} != {LLN_NS}")
    slope, theory = map(float, lines[5].split(","))
    _expect(_close(theory, 1 / LLN_ALPHA - 1, 1e-12), f"theory_slope {theory}")
    _expect(abs(slope - theory) < 0.15, f"slope {slope} not within 0.15 of {theory}")


def check_exact(out, family, n):
    rec = _record(out)
    _expect(rec["method"] == "quadrature" and rec["n"] == n, "method or n differ")
    value, err = rec["value"], rec["error_estimate"]
    if family == "pareto":
        _expect(_close(value, KAPPA**PARETO_ALPHA, 1e-8), f"{value} != kappa**alpha")
    elif family == "exponential":  # 2/(n+1) in closed form at kappa = 1/2
        _expect(_close(value, 2 / (n + 1), 1e-8 + err), f"{value} != 2/(n+1)")
    elif n <= 1000:
        expected = event_probability(family, n)
        _expect(_close(value, expected, 1e-8 + err), f"{value} != {expected}")
    elif family == "half_cauchy":  # tail index 1: within O(1/n) of kappa
        _expect(_close(value, KAPPA, 1e-5), f"{value} is not near kappa")
    else:  # light tail: the event vanishes as n grows
        _expect(0.0 <= value < 1e-12, f"{value} does not vanish")


def check_limit(out):
    rec = _record(out)
    _expect(_close(rec["value"], KAPPA**PARETO_ALPHA, 1e-12), "limit != kappa**alpha")


def check_conditions(out):
    rec = _record(out)
    _expect(_close(rec["boundary_ratio_limit"], KAPPA**PARETO_ALPHA, 1e-8),
            "boundary ratio != kappa**alpha")
    _expect(rec["zero_limit_ok"] is True, "edge probe did not decay")


def check_oracle(out, exact_out):
    rec, ref = _record(out), _record(exact_out)
    _expect(rec["method"] == "joint_oracle" and rec["n"] == ref["n"], "method or n")
    tol = rec["error_estimate"] + ref["error_estimate"]
    _expect(_close(rec["value"], ref["value"], tol),
            f"oracle {rec['value']} and exact {ref['value']} differ by more than {tol}")


def run_checks(checks, outs):
    """Apply {label: thunk(out)}; a label fails on CheckError or bad output."""
    failures = {}
    for label, thunk in checks.items():
        try:
            thunk(outs[label])
        except (CheckError, ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            failures[label] = f"{type(exc).__name__}: {exc}"
    return failures


# -------------------------------------------------------------- workloads


def _ingest(seed, workdir):
    rng = np.random.default_rng([seed, 0])
    values = pareto_values(rng, INGEST_VALUES)
    path = Path(workdir) / "ingest.txt"
    write_values(path, values, rng)
    data = str(path)
    commands = (
        Command("detect", ("detect", "--kappa", str(KAPPA), "--input", data)),
        Command("estimate-alpha", ("estimate-alpha", "--block-size", "100",
                                   "--kappa", str(KAPPA), "--input", data)),
        Command("ksigma", ("ksigma", "--k", "3", "--input", data)),
    )
    checks = {
        "detect": lambda out: check_detect(out, values),
        "estimate-alpha": lambda out: check_estimate(out, values, 100),
        "ksigma": lambda out: check_ksigma(out, values, 3.0),
    }

    def rates(seconds):
        return {"values_per_s": len(commands) * INGEST_VALUES / sum(seconds.values())}

    return Plan(commands, lambda outs: run_checks(checks, outs), rates,
                {"ingest": _file_facts(path)})


def _montecarlo(seed, workdir):
    base = ("prob-mc", "--dist", "half_cauchy:scale=1", "--n", str(MC_N),
            "--trials", str(MC_TRIALS), "--seed", str(seed))
    commands = (Command("prob-mc-t1", base + ("--threads", "1")),
                Command("prob-mc-t2", base + ("--threads", "2")))

    exact = event_probability("half_cauchy", MC_N)

    def check(outs):
        return run_checks({
            "prob-mc-t1": lambda out: check_mc(out, out, exact),
            "prob-mc-t2": lambda out: check_mc(out, outs.get("prob-mc-t1"), exact),
        }, outs)

    def rates(seconds):
        return {"trials_per_s": MC_TRIALS / seconds["prob-mc-t1"],
                "trials_per_s_t2": MC_TRIALS / seconds["prob-mc-t2"]}

    return Plan(commands, check, rates, {})


def _lln(seed, workdir):
    commands = (Command("lln-demo", (
        "lln-demo", "--dist", f"stable:alpha={LLN_ALPHA},scale=1",
        "--ns", ",".join(map(str, LLN_NS)),
        "--replications", str(LLN_REPLICATIONS), "--seed", str(seed))),)

    def rates(seconds):
        return {"samples_per_s": sum(LLN_NS) * LLN_REPLICATIONS / seconds["lln-demo"]}

    return Plan(commands, lambda outs: run_checks({"lln-demo": check_lln}, outs),
                rates, {})


def _quick(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    values = pareto_values(rng, DETECT_VALUES)
    path = Path(workdir) / "detect.txt"
    write_values(path, values, rng)
    commands = [Command("prob-limit", ("prob-limit", "--kappa", str(KAPPA),
                                       "--alpha", str(PARETO_ALPHA)))]
    checks = {"prob-limit": check_limit}
    exact_runs = [(spec, n) for spec in EXACT_FAMILIES for n in EXACT_NS]
    exact_runs += [("half_cauchy:scale=1", n) for n in ORACLE_NS]
    for spec, n in exact_runs:
        label = f"prob-exact-{spec.partition(':')[0]}-{n}"
        commands.append(Command(label, ("prob-exact", "--dist", spec, "--n", str(n),
                                        "--kappa", str(KAPPA))))
        checks[label] = partial(check_exact, family=spec.partition(":")[0], n=n)
    for n in ORACLE_NS:
        label = f"prob-oracle-{n}"
        commands.append(Command(label, ("prob-oracle", "--dist", "half_cauchy:scale=1",
                                        "--n", str(n), "--kappa", str(KAPPA))))
    commands.append(Command("check-conditions", (
        "check-conditions", "--dist", "pareto:alpha=1.5,xm=1", "--kappa", str(KAPPA))))
    checks["check-conditions"] = check_conditions
    commands.append(Command("detect-stdin", ("detect", "--kappa", str(KAPPA)),
                            stdin=str(path)))
    checks["detect-stdin"] = lambda out: check_detect(out, values)

    def check(outs):
        oracle = {
            f"prob-oracle-{n}": partial(
                check_oracle, exact_out=outs.get(f"prob-exact-half_cauchy-{n}"))
            for n in ORACLE_NS
        }
        return run_checks({**checks, **oracle}, outs)

    def rates(seconds):
        return {"commands_per_s": len(seconds) / sum(seconds.values())}

    return Plan(tuple(commands), check, rates, {"detect": _file_facts(path)})


PLANS = {"ingest": _ingest, "montecarlo": _montecarlo, "lln": _lln, "quick": _quick}


def plan(name, seed, workdir):
    """Generate the inputs of workload `name` from `seed` and return its Plan."""
    return PLANS[name](seed, workdir)
