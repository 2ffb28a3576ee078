"""Command-line front end.

Subcommands cover the whole library: ratio-outlier detection, the k-sigma
baseline, the three probability routes plus the small-n oracle, the
convergence-condition probe, tail-index estimation, and the running-mean
experiments.  All numeric output is reproducible bit-for-bit from the flags:
Monte Carlo subcommands require an explicit --seed (no silent entropy) and
--threads never changes numbers, only scheduling.

Each subcommand is declared once in _COMMANDS: its help, its options and a
handler that turns the resolved options into a record (or a ready CSV
table).  An option's value is the flag, else the key of the --config file,
else the option's default; flag and file values alike are cast with the
option's type and checked against its choices.

Exit codes: 0 success, 2 argument error, 3 capability error, 4 insufficient
data, 5 accuracy failure, 6 degenerate frequency.
"""

import argparse
import json
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import lln, probability, records
from .errors import (
    AccuracyError,
    CapabilityError,
    DegenerateFrequencyError,
    InsufficientDataError,
    ParameterDomainError,
)
from .estimation import estimate_alpha_from_data
from .families import parse_family_spec
from .outliers import is_outlier, ksigma_outliers

EXIT_ARGUMENT = 2
EXIT_CAPABILITY = 3
EXIT_INSUFFICIENT = 4
EXIT_ACCURACY = 5
EXIT_DEGENERATE = 6

_REQUIRED = object()


def _int(value):
    """int(value), refusing booleans and floats with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


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


_KAPPA = _Option("kappa", float, 0.5, "ratio threshold in (0,1)")
_INPUT = _Option("input", str, None, "input file, one number per line ('-' or omit for stdin)")
_DIST = _Option("dist", str, _REQUIRED, "family spec, name:key=value,... "
                "(e.g. pareto:alpha=1.5,xm=1 or stable:alpha=0.6,scale=1)")
_N = _Option("n", _int, _REQUIRED, "sample size, >= 2")
_SEED = _Option("seed", _int, _REQUIRED, "64-bit RNG seed; no silent entropy")
_THREADS = _Option("threads", _int, 1, "worker threads; never changes numeric output")
_OUTPUT = (
    _Option("format", str, "json", "output format", ("json", "csv")),
    _Option("output", str, None, "output file (default: stdout)"),
    _Option("config", str, None,
            "JSON file supplying the same keys as the flags; flags override it"),
)


def _check_threads(opts):
    if opts.threads < 1:
        raise ParameterDomainError(f"threads must be >= 1, got {opts.threads}")


def _detect(opts):
    verdict = is_outlier(records.read_values(opts.input), opts.kappa)
    return records.verdict_record(verdict)


def _ksigma(opts):
    idx = ksigma_outliers(records.read_values(opts.input), opts.k)
    return {"k": opts.k, "count": len(idx), "indices": ";".join(str(i) for i in sorted(idx))}


def _prob_limit(opts):
    result = probability.ProbabilityResult(
        value=probability.limit_probability(opts.kappa, opts.alpha),
        method="limit",
        error_estimate=0.0,
        kappa=opts.kappa,
    )
    return records.probability_record(result, None, {"alpha": opts.alpha})


def _prob_exact(opts):
    family = parse_family_spec(opts.dist)
    result = probability.exact_probability(family, opts.n, opts.kappa)
    return records.probability_record(result, family.name, family.params)


def _prob_mc(opts):
    family = parse_family_spec(opts.dist)
    _check_threads(opts)
    result = probability.mc_probability(
        family, opts.n, opts.kappa, opts.trials, opts.seed, opts.confidence
    )
    return records.probability_record(result, family.name, family.params)


def _prob_oracle(opts):
    family = parse_family_spec(opts.dist)
    result = probability.joint_oracle_probability(family, opts.n, opts.kappa)
    return records.probability_record(result, family.name, family.params)


def _check_conditions(opts):
    family = parse_family_spec(opts.dist)
    report = probability.check_theorem_conditions(
        family,
        opts.kappa,
        opts.n,
        probe_range=(opts.probe_lo, opts.probe_hi),
        grid_points=opts.grid_points,
    )
    return records.condition_record(report, family, opts.kappa, opts.n)


def _estimate_alpha(opts):
    estimate = estimate_alpha_from_data(
        records.read_values(opts.input), opts.block_size, opts.kappa, opts.confidence
    )
    return records.alpha_record(estimate)


def _lln_demo(opts):
    family = parse_family_spec(opts.dist)
    _check_threads(opts)
    if opts.mode == "trajectory":
        reps = 1 if opts.replications is None else opts.replications
        rows = []
        for r in range(reps):
            series = lln.running_mean_trajectory(
                family, opts.total, opts.checkpoints, (opts.seed + r) % 2**64
            )
            rows.extend((n, r, m) for n, m in zip(series.checkpoints, series.running_means))
        return records.rows_to_csv(["n", "replication", "running_mean"], rows)
    reps = 200 if opts.replications is None else opts.replications
    result = lln.scaling_exponent_experiment(family, opts.ns, reps, opts.seed)
    alpha = family.tail_index
    if alpha is None and family.name == "stable":
        alpha = family.params["alpha"]
    theory = lln.theory_slope(alpha) if alpha is not None else None
    table = records.rows_to_csv(["n", "median_abs_mean"], zip(result.ns, result.per_n_medians))
    return table + records.rows_to_csv(["slope", "theory_slope"], [(result.slope, theory)])


# subcommand -> (help, options, handler); a handler returns a record or a CSV table
_COMMANDS = {
    "detect": (
        "ratio-outlier verdict on newline-delimited input data",
        (_KAPPA, _INPUT),
        _detect,
    ),
    "ksigma": (
        "classical k-sigma outlier indices (baseline rule)",
        (_Option("k", float, 3.0, "number of standard deviations"), _INPUT),
        _ksigma,
    ),
    "prob-limit": (
        "large-n outlier probability kappa**alpha",
        (_KAPPA._replace(help="ratio threshold in (0,1]"),
         _Option("alpha", float, _REQUIRED, "tail index, positive")),
        _prob_limit,
    ),
    "prob-exact": (
        "finite-n outlier probability by quadrature",
        (_DIST, _N, _KAPPA),
        _prob_exact,
    ),
    "prob-mc": (
        "Monte Carlo outlier probability with Wilson interval",
        (_DIST, _N, _KAPPA,
         _Option("trials", _int, 100_000, "number of samples"),
         _SEED,
         _Option("confidence", float, 0.95, "Wilson interval level"),
         _THREADS),
        _prob_mc,
    ),
    "prob-oracle": (
        "small-n probability from the joint top-two density",
        (_DIST, _N._replace(help="sample size in 2..8"), _KAPPA),
        _prob_oracle,
    ),
    "check-conditions": (
        "numeric probe of the convergence conditions",
        (_DIST, _KAPPA,
         _Option("n", _int, 1000, "sample size for the edge probe"),
         _Option("probe_lo", float, None,
                 "lower end of probe range (default: support edge + 0.01)"),
         _Option("probe_hi", float, None,
                 "upper end of probe range (default: support edge + 50)"),
         _Option("grid_points", _int, 401, "grid size for the integrand probe")),
        _check_conditions,
    ),
    "estimate-alpha": (
        "tail index from block outlier frequency",
        (_Option("block_size", _int, _REQUIRED, "observations per block, >= 2"),
         _KAPPA,
         _Option("confidence", float, 0.95, "CI level"),
         _INPUT),
        _estimate_alpha,
    ),
    "lln-demo": (
        "running-mean trajectories / scaling-exponent experiment",
        (_DIST,
         _Option("mode", str, "scaling", "experiment", ("trajectory", "scaling")),
         _Option("total", _int, 100_000, "trajectory stream length"),
         _Option("checkpoints", _int_list, "100,1000,10000,100000", "comma-separated checkpoints"),
         _Option("replications", _int, None,
                 "replications (default: 1 in trajectory mode, 200 in scaling mode)"),
         _Option("ns", _int_list, "1000,10000,100000", "comma-separated sample sizes for scaling"),
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
        prog="tailratio",
        description="Ratio-based outlier detection and tail-index estimation "
        "for heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option in options + _OUTPUT:
            p.add_argument(_flag(option), default=None, help=_help(option))
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
        text = records.to_csv(payload)
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
        opts = _resolve(vars(args), options + _OUTPUT)
        _emit(handler(opts), opts)
    except DegenerateFrequencyError as exc:
        print(
            f"error: {exc} "
            f"({exc.confidence:.0%} {exc.bound_side} bound on alpha: {exc.bound:.6g})",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    except AccuracyError as exc:
        print(
            f"error: {exc} (best estimate {exc.best_estimate!r})", file=sys.stderr
        )
        return EXIT_ACCURACY
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ParameterDomainError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    return 0


if __name__ == "__main__":
    sys.exit(main())
