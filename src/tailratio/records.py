"""Flat output records and plain-text data ingestion.

Every analysis result serializes to a flat record with a fixed key order,
emitted as a single JSON object or a one-row CSV table.  CSV uses '.' as
the decimal separator, no grouping, and 17 significant digits so 64-bit
floats round-trip losslessly.
"""

import io
import json
import sys
import warnings

import numpy as np


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _params_string(params):
    return ";".join(f"{k}={_fmt(float(v))}" for k, v in params.items())


def probability_record(result, family_name, params):
    """Record for any ProbabilityResult, keyed by method.

    `params` are the parameters behind the value: the family's, or the tail
    index of the limit.
    """
    ci = result.ci or (None, None)
    return {
        "method": result.method,
        "family": family_name,
        "params": _params_string(params),
        "n": result.n,
        "kappa": result.kappa,
        "value": result.value,
        "error_estimate": result.error_estimate,
        "ci_lo": ci[0],
        "ci_hi": ci[1],
        "trials": result.trials,
        "seed": result.seed,
    }


def alpha_record(estimate):
    return {
        "alpha_hat": estimate.alpha_hat,
        "p_hat": estimate.p_hat,
        "kappa": estimate.kappa,
        "block_size": estimate.block_size,
        "blocks": estimate.blocks,
        "ci_lo": estimate.ci[0],
        "ci_hi": estimate.ci[1],
        "confidence": estimate.confidence,
    }


def verdict_record(verdict):
    top = verdict.top_two
    return {
        "is_outlier": verdict.is_outlier,
        "kappa": verdict.kappa,
        "ratio": verdict.ratio,
        "max_magnitude": top.max_magnitude,
        "second_magnitude": top.second_magnitude,
        "max_index": top.max_index,
        "second_index": top.second_index,
    }


def condition_record(report, family, kappa, n):
    return {
        "family": family.name,
        "params": _params_string(family.params),
        "n": n,
        "kappa": kappa,
        "boundary_ratio_limit": report.boundary_ratio_limit,
        "zero_limit_ok": report.zero_limit_ok,
        "integrand_integral": report.integrand_integral,
        "notes": report.notes,
    }


def to_json(record):
    """Single JSON object with the record's fixed key order."""
    return json.dumps(record) + "\n"


def to_csv(record):
    """One header row plus one value row."""
    out = io.StringIO()
    out.write(",".join(record.keys()) + "\n")
    out.write(",".join(_fmt(v).replace(",", ";") for v in record.values()) + "\n")
    return out.getvalue()


def rows_to_csv(header, rows):
    """Plot-ready CSV from an iterable of row tuples."""
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()


def read_values(path=None):
    """Read newline-delimited numbers from a file path or standard input.

    '#' starts a comment anywhere on a line; blank lines are ignored.  Returns
    a 1-D float64 array.  numpy's C parser reads the input; a line it refuses
    goes through float() line by line, which names the line it cannot read
    and accepts the ``1_000`` syntax that float() takes.
    """
    if path is None or path == "-":
        data = sys.stdin.read().encode("utf-8")
    else:
        # the builtin open: numpy given a path would also fetch URLs and
        # read a compressed sibling of a missing file
        with open(path, "rb") as fh:
            data = fh.read()

    def lines():
        # the input is read once, so a pipe can be parsed twice
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")

    try:
        with warnings.catch_warnings():
            # no data is no error here: callers report too few values
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(lines(), comments="#", ndmin=2)
        # ndmin=2, so that an input of one line "1 2" is a (1, 2) row, not two values
        if table.shape[1] == 1:
            return table[:, 0]
    except ValueError:
        pass
    values = []
    for lineno, line in enumerate(lines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        try:
            values.append(float(stripped))
        except ValueError:
            raise ValueError(
                f"line {lineno}: not a number: {stripped!r}"
            ) from None
    return np.array(values, dtype=float)
