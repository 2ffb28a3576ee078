"""The CLI's contract at the ends of the floats: a number is right or the exit says why.

A seeded fuzz of ``cli.main`` crosses the five families, units from the
smallest subnormal to the largest float, tail indices from 1e-300 to 1e300
and kappa from 1e-300 to 1 - 2**-53, over every probability command and
lln-demo.  Each command must exit 0 or with a documented error status
(2..6), raise no warning, and on exit 0 print strict JSON, or CSV, with no
NaN or infinity among its numbers.
"""

import contextlib
import csv
import io
import json
import math
import random
import sys
import warnings

import pytest

from tailratio import cli

FAMILIES = ["pareto", "half_cauchy", "exponential", "half_normal", "stable"]
UNITS = [5e-324, 1e-320, 1e-300, 1.0, 3.0, 1e9, 1e300, 1e308, sys.float_info.max]
ALPHAS = [1e-300, 0.01, 0.3, 1.0, 1.5, 2.0, 50.0, 1e300]
KAPPAS = [1e-300, 1e-17, 0.1, 0.5, 0.9, 1.0 - 2.0**-53]
COMMANDS = 300


def family_spec(rng):
    """A family at a unit and a tail index drawn from the grid (out of a domain: exit 2)."""
    name, unit, alpha = rng.choice(FAMILIES), rng.choice(UNITS), rng.choice(ALPHAS)
    params = {
        "pareto": f"alpha={alpha!r},xm={unit!r}",
        "half_cauchy": f"scale={unit!r}",
        "exponential": f"rate={1.0 / unit!r}",  # 1/5e-324 is inf: an argument error
        "half_normal": f"sigma={unit!r}",
        "stable": f"alpha={alpha!r},scale={unit!r}",
    }[name]
    return f"{name}:{params}"


def command(rng):
    name = rng.choice(["prob-limit", "prob-exact", "prob-mc", "prob-oracle",
                       "check-conditions", "lln-demo"])
    kappa = ["--kappa", repr(rng.choice(KAPPAS))]
    if name == "prob-limit":
        return [name, *kappa, "--alpha", repr(rng.choice(ALPHAS)),
                "--format", rng.choice(["json", "csv"])]
    argv = [name, "--dist", family_spec(rng)]
    if name == "lln-demo":
        return argv + ["--ns", "10,100", "--replications", "3", "--seed", "1", "--threads", "1",
                       "--mode", rng.choice(["scaling", "trajectory"])]
    argv += kappa + ["--format", rng.choice(["json", "csv"])]
    if name == "prob-exact":
        return argv + ["--n", str(rng.choice([2, 5, 1000]))]
    if name == "prob-mc":
        return argv + ["--n", str(rng.choice([2, 50])), "--trials", "300", "--seed", "1"]
    if name == "prob-oracle":
        return argv + ["--n", str(rng.choice([2, 5, 8]))]
    return argv


_RNG = random.Random(26)
ARGVS = [command(_RNG) for _ in range(COMMANDS)]


def strict_number(text):
    raise ValueError(f"not a JSON number: {text}")


def assert_finite_csv(text):
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # a header, a name or a note
            assert math.isfinite(value), f"CSV cell {cell!r}"


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_exit_is_documented_and_output_is_finite(argv):
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5, 6)
    assert [str(w.message) for w in caught] == []
    if code != 0:
        return
    if argv[0] == "lln-demo" or "csv" in argv:
        assert_finite_csv(out.getvalue())
    else:
        json.loads(out.getvalue(), parse_constant=strict_number)
