"""Command-line front end.

Subcommands cover the whole library: ratio-outlier detection, the k-sigma
baseline, the three probability routes plus the small-n oracle, the
convergence-condition probe, tail-index estimation, and the running-mean
experiments.  All numeric output is reproducible bit-for-bit from the flags:
Monte Carlo subcommands require an explicit --seed (no silent entropy).
--threads (an integer >= 1, by default the CPUs the process may use) sets
the threads lln-demo runs its replications on; the output does not depend
on it.  prob-mc accepts --threads but runs on one thread: a trial is short
(4.2 us for a half-Cauchy n = 50 on a 2-vCPU Xeon, numpy 2.4.6), and most
of it is Python work that holds the GIL, setting up the trial's generator
and calling its sampler, so threads would slow it down.

Each subcommand is declared once in _COMMANDS: its help, its options and a
handler that turns the resolved options into a record, which --format
writes as JSON or CSV, or into ready CSV tables (lln-demo, which has no
--format).  An option's value is the flag, else the key of the --config
file, else the option's default; flag and file values alike are cast with
the option's type and checked against its choices.  A --config key that
names no option of the subcommand, `config` itself included, is an
argument error, and so is a flag abbreviated to a prefix of its name.

Exit codes: 0 success, else the `exit_code` of the error: 2 argument error
(TailRatioError, ValueError, OSError, and OverflowError or MemoryError from
a count too large to run), 3 CapabilityError, 4 InsufficientDataError, 5
AccuracyError (quadrature missed its tolerance, or a sample, a sum or a
scaled result overflowed the floats where its value decides the output), 6
DegenerateFrequencyError.
"""

import argparse
import json
import math
import sys
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

from . import probability, records
from .errors import ParameterDomainError, TailRatioError, check_int, check_real
from .families import parse_family_spec

_REQUIRED = object()


def _int(value, lo=-math.inf):
    """An integer option: text through int(), any value through check_int."""
    return check_int(int(value) if isinstance(value, str) else value, "value", lo)


def _real(value):
    """A real option: check_real parses text and refuses booleans and NaN."""
    return check_real(value, "value", -math.inf, math.inf, "[]")


def _int_list(text):
    if isinstance(text, (list, tuple)):
        return [_int(v) for v in text]
    return [_int(v) for v in str(text).split(",") if v.strip()]


class _Option(NamedTuple):
    """A flag: its name, the cast of its value, its default and its help.

    A default of _REQUIRED makes the flag mandatory; `choices` limits its values.
    """

    name: str
    type: object
    default: object
    help: str
    choices: tuple | None = None


_KAPPA = _Option("kappa", _real, 0.5, "ratio threshold in (0,1)")
_INPUT = _Option("input", str, None, "input file, one number per line ('-' or omit for stdin)")
# looked up per call, so a wrapper bound to the name (perfbench's tracer) sees it
_DIST = _Option("dist", lambda spec: parse_family_spec(spec), _REQUIRED,
                "family spec, name:key=value,... "
                "(e.g. pareto:alpha=1.5,xm=1 or stable:alpha=0.6,scale=1)")
_N = _Option("n", _int, _REQUIRED, "sample size, >= 2")
_SEED = _Option("seed", _int, _REQUIRED, "64-bit RNG seed; no silent entropy")
_THREADS = _Option("threads", partial(_int, lo=1), None,
                   "worker threads, >= 1 (default: the usable CPUs)")
# an option of the commands whose handler returns a record
_FORMAT = _Option("format", str, "json", "output format", ("json", "csv"))
_OUTPUT = _Option("output", str, None, "output file (default: stdout)")


# outliers, estimation and lln load numpy, so the handlers that use them import them
# when they run: the quadrature commands load no numpy
def _detect(opts):
    from .outliers import is_outlier

    return records.flat(is_outlier(records.read_values(opts.input), opts.kappa))


def _ksigma(opts):
    from .outliers import ksigma_outliers

    idx = ksigma_outliers(records.read_values(opts.input), opts.k)
    return {"k": opts.k, "count": len(idx), "indices": ";".join(str(i) for i in sorted(idx))}


def _prob_limit(opts):
    value = probability.limit_probability(opts.kappa, opts.alpha)
    # the limit has no family: its record names none and gives the tail index
    return records.flat(probability.ProbabilityResult(
        "limit", None, {"alpha": opts.alpha}, None, opts.kappa, value, 0.0))


def _prob_exact(opts):
    return records.flat(probability.exact_probability(opts.dist, opts.n, opts.kappa))


def _prob_mc(opts):
    return records.flat(probability.mc_probability(
        opts.dist, opts.n, opts.kappa, opts.trials, opts.seed, opts.confidence))


def _prob_oracle(opts):
    return records.flat(probability.joint_oracle_probability(opts.dist, opts.n, opts.kappa))


def _check_conditions(opts):
    return records.flat(probability.check_theorem_conditions(
        opts.dist, opts.kappa, opts.n, (opts.probe_lo, opts.probe_hi), opts.grid_points))


def _estimate_alpha(opts):
    from .estimation import estimate_alpha_from_data

    return records.flat(estimate_alpha_from_data(
        records.read_values(opts.input), opts.block_size, opts.kappa, opts.confidence
    ))


def _lln_demo(opts):
    from . import lln

    if opts.mode == "trajectory":
        reps = 1 if opts.replications is None else opts.replications
        series = lln.trajectories(opts.dist, opts.ns, reps, opts.seed, opts.threads)
        rows = [(n, r, m) for r, s in enumerate(series) for n, m in zip(s.ns, s.running_means)]
        return records.rows_to_csv(["n", "replication", "running_mean"], rows)
    reps = 200 if opts.replications is None else opts.replications
    result = lln.scaling_exponent_experiment(opts.dist, opts.ns, reps, opts.seed, opts.threads)
    table = records.rows_to_csv(["n", "median_abs_mean"], zip(result.ns, result.per_n_medians))
    slope = records.rows_to_csv(["slope", "theory_slope"], [(result.slope, result.theory_slope)])
    return table + slope


# subcommand -> (help, options, handler); a handler returns a record or a CSV table
_COMMANDS = {
    "detect": (
        "ratio-outlier verdict on newline-delimited input data",
        (_KAPPA, _INPUT, _FORMAT),
        _detect,
    ),
    "ksigma": (
        "classical k-sigma outlier indices (baseline rule)",
        (_Option("k", _real, 3.0, "number of standard deviations"), _INPUT, _FORMAT),
        _ksigma,
    ),
    "prob-limit": (
        "large-n outlier probability kappa**alpha",
        (_KAPPA._replace(help="ratio threshold in (0,1]"),
         _Option("alpha", _real, _REQUIRED, "tail index, positive"),
         _FORMAT),
        _prob_limit,
    ),
    "prob-exact": (
        "finite-n outlier probability by quadrature",
        (_DIST, _N, _KAPPA, _FORMAT),
        _prob_exact,
    ),
    "prob-mc": (
        "Monte Carlo outlier probability with Wilson interval",
        (_DIST, _N, _KAPPA,
         _Option("trials", _int, 100_000, "number of samples"),
         _SEED,
         _Option("confidence", _real, 0.95, "Wilson interval level"),
         _THREADS._replace(help="accepted; prob-mc runs on one thread"),
         _FORMAT),
        _prob_mc,
    ),
    "prob-oracle": (
        "small-n probability from the joint top-two density",
        (_DIST, _N._replace(help="sample size in 2..8"), _KAPPA, _FORMAT),
        _prob_oracle,
    ),
    "check-conditions": (
        "numeric probe of the convergence conditions",
        (_DIST, _KAPPA,
         _Option("n", _int, 1000, "sample size for the edge probe"),
         _Option("probe_lo", _real, None,
                 "lower end of probe range (default: support edge + 0.01 * scale)"),
         _Option("probe_hi", _real, None,
                 "upper end of probe range (default: support edge + 50 * scale)"),
         _Option("grid_points", _int, 401, "grid size for the integrand probe, 2..10**7"),
         _FORMAT),
        _check_conditions,
    ),
    "estimate-alpha": (
        "tail index from block outlier frequency",
        (_Option("block_size", _int, _REQUIRED, "observations per block, >= 2"),
         _KAPPA,
         _Option("confidence", _real, 0.95, "CI level"),
         _INPUT,
         _FORMAT),
        _estimate_alpha,
    ),
    "lln-demo": (
        "running-mean trajectories / scaling-exponent experiment",
        (_DIST,
         _Option("mode", str, "scaling", "experiment", ("trajectory", "scaling")),
         _Option("ns", _int_list, "1000,10000,100000",
                 "comma-separated sample sizes, increasing"),
         _Option("replications", _int, None,
                 "replications (default: 1 in trajectory mode, 200 in scaling mode)"),
         _SEED,
         _THREADS),
        _lln_demo,
    ),
}


def _flag(option):
    return "--" + option.name.replace("_", "-")


def _help(option):
    text = option.help
    if option.choices:
        text += f", one of {', '.join(option.choices)}"
    if option.default is _REQUIRED:
        return f"{text} (required)"
    if option.default is None:
        return text
    return f"{text} (default {option.default})"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tailratio", allow_abbrev=False,
        description="Ratio-based outlier detection and tail-index estimation "
        "for heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for option in options + (_OUTPUT,):
            p.add_argument(_flag(option), default=None, help=_help(option))
        # not an option: a config file cannot name another
        p.add_argument("--config", help="JSON file supplying the same keys as the flags; "
                       "flags override it")
    return parser


def _resolve(args, options):
    """Each option's value: the flag, else the --config file, else its default."""
    file = {}
    if args.get("config"):
        with open(args["config"], encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ParameterDomainError("config file must hold a JSON object")
        file = {str(k).replace("-", "_"): v for k, v in loaded.items()}
        unknown = sorted(file.keys() - {option.name for option in options})
        if unknown:
            raise ParameterDomainError(
                f"config key {unknown[0]!r} names no option of this subcommand"
            )
    opts = SimpleNamespace()
    for option in options:
        value = args.get(option.name)
        if value is None:
            value = file.get(option.name)
        if value is None:
            value = option.default
        if value is _REQUIRED:
            raise ParameterDomainError(f"missing required option {_flag(option)}")
        if value is not None:
            try:
                value = option.type(value)
            except (TypeError, ValueError) as exc:
                raise ParameterDomainError(f"{_flag(option)}: {exc}") from None
            if option.choices and value not in option.choices:
                raise ParameterDomainError(
                    f"{_flag(option)}: {value!r} is not one of {', '.join(option.choices)}"
                )
        setattr(opts, option.name, value)
    return opts


def _emit(payload, opts):
    if isinstance(payload, str):
        text = payload
    elif opts.format == "csv":
        text = records.rows_to_csv(payload, [payload.values()])
    else:
        text = records.to_json(payload)
    if opts.output:
        with open(opts.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    _, options, handler = _COMMANDS[args.subcommand]
    try:
        opts = _resolve(vars(args), options + (_OUTPUT,))
        _emit(handler(opts), opts)
    except (TailRatioError, ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
