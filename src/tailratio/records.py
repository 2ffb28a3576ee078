"""Flat output records and plain-text data ingestion.

A record is its result: :func:`flat` writes a result named tuple's fields in
their declared order, so the fixed key order of every record is the order
of its result's fields, and a field is kept out of the record by naming it
in the class attribute ``_unrecorded``.  A record is emitted as a single
JSON object or a one-row CSV table.  CSV uses '.' as the decimal separator,
no grouping, and 17 significant digits so 64-bit floats round-trip
losslessly.
"""

import contextlib
import io
import json
import math
import sys
import warnings


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def flat(result):
    """The record of a result: its fields in order, a nested result's in its place.

    ``ci`` becomes ci_lo, ci_hi (two nulls for None), a ``params`` dict one
    ``key=value;...`` string, and a field named in the result's
    ``_unrecorded`` is left out.
    """
    record = {}
    unrecorded = getattr(result, "_unrecorded", ())
    for name, value in zip(result._fields, result):
        if name in unrecorded:
            continue
        if hasattr(value, "_fields"):  # a nested result
            record.update(flat(value))
        elif name == "ci":
            record["ci_lo"], record["ci_hi"] = value or (None, None)
        elif name == "params":
            record["params"] = ";".join(f"{k}={_fmt(float(v))}" for k, v in value.items())
        else:
            record[name] = value
    return record


def to_json(record):
    """Single JSON object with the record's fixed key order."""
    return json.dumps(record) + "\n"


def rows_to_csv(header, rows):
    """CSV from a header and an iterable of rows; a ',' in a cell becomes ';'."""
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v).replace(",", ";") for v in row) + "\n")
    return out.getvalue()


def read_values(path=None):
    """Read newline-delimited numbers from a file path or standard input.

    The input is UTF-8, with or without a byte-order mark, and standard input
    is read as bytes, from its ``buffer`` where it has one.  '#' starts a
    comment anywhere on a line; blank lines are ignored.  Returns a 1-D
    float64 array.  numpy's C parser reads the input; a line it refuses, or a
    value that is not finite (``nan``, ``inf`` or too large for a float) sends
    it through float() line by line, which names that line and takes ``1_000``.

    A file, or a standard input redirected from one, is parsed where it lies,
    from its current offset; a pipe is spooled to a temporary file (RAM, but
    not the process's, on a tmpfs; bytes in memory if no file can be made).  So
    peak RSS is the parsed values plus numpy's read buffer, from any source.
    """
    if path is None or path == "-":
        if sys.stdin is None:  # the process was started with its stdin closed
            raise OSError("standard input is closed: give the values with --input")
        stdin = getattr(sys.stdin, "buffer", None)
        if stdin is None:
            stdin = io.BytesIO(sys.stdin.read().encode("utf-8"))
        return _parse(stdin)
    # the builtin open: numpy given a path would also fetch URLs and
    # read a compressed sibling of a missing file
    with open(path, "rb") as fh:
        return _parse(fh)


def _parse(source):
    """The values in the binary stream `source`, from its position on; it is left open."""
    if not source.seekable():  # both parsers may read it, so a pipe is spooled to disk once
        import shutil
        import tempfile
        try:
            spool = tempfile.TemporaryFile()
        except OSError:  # no writable temporary directory: hold the bytes instead
            spool = io.BytesIO()
        with spool:
            shutil.copyfileobj(source, spool)
            spool.seek(0)
            return _parse(spool)
    import numpy as np

    start = source.tell()

    @contextlib.contextmanager
    def lines():
        source.seek(start)
        text = io.TextIOWrapper(source, encoding="utf-8-sig")
        try:
            yield text
        finally:
            text.detach()  # a wrapper closes its source when it closes

    try:
        with warnings.catch_warnings(), lines() as text:
            # no data is no error here: callers report too few values
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(text, comments="#", ndmin=2)
        # ndmin=2, so that an input of one line "1 2" is a (1, 2) row, not two values
        if table.shape[1] == 1 and np.isfinite(table).all():
            return table[:, 0]
    except ValueError:
        pass
    values = []
    with lines() as text:
        for lineno, line in enumerate(text, start=1):
            stripped = line.partition("#")[0].strip()
            if not stripped:
                continue
            try:
                value = float(stripped)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: not a number: {stripped!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: not a finite number: {stripped!r}")
            values.append(value)
    return np.array(values, dtype=float)
