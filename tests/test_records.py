"""The record rule, flat, and data ingestion: read_values on files and on standard input."""

import contextlib
import gc
import gzip
import io
import os
import sys
import threading
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import tailratio as tr
from tailratio.cli import main
from tailratio.records import flat, read_values


def test_flat_writes_params_a_missing_ci_and_leaves_out_what_is_not_recorded():
    class Result(NamedTuple):
        params: dict
        ci: tuple | None
        count: int = 0

        _unrecorded = ("count",)

    assert flat(Result({"alpha": 1.5, "xm": 3}, None, 7)) == {
        "params": "alpha=1.5;xm=3", "ci_lo": None, "ci_hi": None}


def test_flat_writes_a_nested_result_in_its_place():
    verdict = tr.is_outlier([1.0, -2.0, 30.0], 0.5)
    assert list(flat(verdict).items()) == [
        ("is_outlier", True), ("kappa", 0.5), ("ratio", 2.0 / 30.0),
        ("max_magnitude", 30.0), ("second_magnitude", 2.0), ("max_index", 2),
        ("second_index", 1)]


@pytest.mark.parametrize("family,params", [
    (tr.make_pareto(1.5, 3.0), "alpha=1.5;xm=3"),
    (tr.make_exponential(1e300), "rate=1.0000000000000001e+300"),
], ids=["xm=3", "rate=1e300"])
@pytest.mark.parametrize("route", [
    lambda fam: tr.exact_probability(fam, 10, 0.5),
    lambda fam: tr.mc_probability(fam, 10, 0.5, 50, seed=1),
    lambda fam: tr.joint_oracle_probability(fam, 4, 0.5),
    lambda fam: tr.check_theorem_conditions(fam, 0.5, 10),
], ids=["quadrature", "monte_carlo", "joint_oracle", "conditions"])
def test_result_names_the_family_it_was_given(route, family, params):
    # each route works on the standard law, and names the law in the data's unit
    result = route(family)
    assert (result.family, result.params) == (family.name, family.params)
    assert flat(result)["params"] == params


@pytest.mark.parametrize("result,keys", [
    (tr.ProbabilityResult, "method,family,params,n,kappa,value,error_estimate,ci_lo,ci_hi,"
                           "trials,seed"),
    (tr.ConditionReport, "family,params,n,kappa,boundary_ratio_limit,zero_limit_ok,"
                         "integrand_integral,notes"),
], ids=["probability", "conditions"])
def test_record_keys_are_the_result_fields(result, keys):
    unrecorded = getattr(result, "_unrecorded", ())
    names = [name for name in result._fields if name not in unrecorded]
    if "ci" in names:
        names[names.index("ci"):names.index("ci") + 1] = ["ci_lo", "ci_hi"]
    assert names == keys.split(",")


RESULTS = [tr.ProbabilityResult, tr.ConditionReport, tr.AlphaEstimate, tr.OutlierVerdict,
           tr.TopTwo, tr.TrajectorySeries, tr.ScalingResult]


@pytest.mark.parametrize("cls", RESULTS, ids=lambda cls: cls.__name__)
def test_result_fields_cannot_be_assigned(cls):
    values = tuple(range(len(cls._fields)))
    result = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(result, name, -1)
    with pytest.raises(AttributeError):
        result.extra = -1
    assert result == values


def test_result_replace_and_asdict():
    result = tr.exact_probability(tr.make_pareto(1.5, 3.0), 10, 0.5)
    changed = result._replace(value=0.25)
    assert type(changed) is tr.ProbabilityResult
    assert (changed.value, result.value) == (0.25, pytest.approx(0.5**1.5))
    assert list(result._asdict()) == list(result._fields)
    assert changed._asdict() == dict(result._asdict(), value=0.25)


@pytest.fixture(params=["stdin", "file"])
def read(request, tmp_path, monkeypatch):
    """read_values over `text`, given on standard input or as an --input file."""

    def read_text(text):
        if request.param == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            return read_values()
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        return read_values(str(path))

    return read_text


def _reference(text):
    """The per-line float() loop that the parser must agree with, bit for bit."""
    fields = (line.partition("#")[0].strip() for line in text.splitlines())
    return np.array([float(f) for f in fields if f], dtype=float)


def test_returns_float64_vector(read):
    values = read("1\n2\n3\n")
    assert values.dtype == np.float64 and values.shape == (3,)


def test_inline_comment_accepted(read):
    assert read("1\n2.5 # note\n10\n").tolist() == [1.0, 2.5, 10.0]


def test_value_after_comment_and_blank_line(read):
    assert read("1\n# header\n\n   \n3\n").tolist() == [1.0, 3.0]


def test_bad_value_names_its_line(read):
    with pytest.raises(ValueError, match=r"^line 4: not a number: 'abc'$"):
        read("1\n# c\n\nabc # why\n5\n")


@pytest.mark.parametrize(
    "text,lineno",
    [("1\n2 3\n4\n", 2), ("1 2\n3 4\n", 1), ("1 2\n", 1), ("5\n1,2\n", 2)],
    ids=["mixed", "all-pairs", "one-pair", "comma"],
)
def test_two_numbers_on_a_line_refused(read, text, lineno):
    with pytest.raises(ValueError, match=rf"^line {lineno}: not a number"):
        read(text)


def test_line_number_counts_only_line_ends(read):
    # a form feed is whitespace on its line, not a line break
    with pytest.raises(ValueError, match=r"^line 2: not a number: 'x'$"):
        read("1\n\fx\n")


def test_underscore_digits_parse(read):
    assert read("1_000\n2\n").tolist() == [1000.0, 2.0]


@pytest.mark.parametrize("first", ["1", "1_0"], ids=["parser", "float"])
def test_byte_order_mark_skipped(read, first):
    # a UTF-8 byte-order mark, as some editors write first, is not data
    assert read(f"\ufeff{first}\n2\n10\n").tolist() == [float(first), 2.0, 10.0]


def test_crlf_line_ends(read):
    assert read("1\r\n# c\r\n\r\n2.5 # d\r\n").tolist() == [1.0, 2.5]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "NaN"])
def test_non_finite_value_names_its_line(read, text):
    with pytest.raises(ValueError, match=rf"^line 4: not a finite number: '{text}'$"):
        read(f"# header\n1\n\n{text}  # why\n10\n")


def test_agrees_with_float_bit_for_bit(read):
    rng = np.random.default_rng(7)
    lines = [format(v, ".17g") for v in (1.0 - rng.random(2000)) ** (-1.0 / 1.5)]
    lines[10:10] = ["# comment", "", "  "]
    lines[500] += "  # trailing note"
    text = "\n".join(lines) + "\n"
    got = read(text)
    assert got.tobytes() == _reference(text).tobytes()


def test_stdin_and_file_give_equal_arrays(tmp_path, monkeypatch):
    text = "# data\n0.1\n1e-300\n-2.5e10 # big\n\n3\n"
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    from_stdin = read_values("-")
    assert from_stdin.tobytes() == read_values(str(path)).tobytes()


def test_stdin_read_as_bytes_whatever_its_encoding(monkeypatch):
    # a latin-1 stdin would decode the UTF-8 byte-order mark as three letters
    stdin = io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf1\n2\n10\n"), encoding="latin-1")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert read_values().tolist() == [1.0, 2.0, 10.0]


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n# another\n"],
                         ids=["empty", "blank", "comments"])
def test_no_values_exits_4_with_only_the_error(text, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["detect"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_closed_stdin_exits_2_naming_it(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)  # as Python sets it when started with fd 0 closed
    assert main(["detect"]) == 2
    assert "standard input" in capsys.readouterr().err


def test_missing_file_exits_2_naming_it(tmp_path, capsys):
    path = str(tmp_path / "absent.txt")
    assert main(["detect", "--input", path]) == 2
    assert path in capsys.readouterr().err


def test_compressed_sibling_of_a_missing_file_not_read(tmp_path, capsys):
    path = tmp_path / "absent.txt"
    with gzip.open(str(path) + ".gz", "wt") as fh:
        fh.write("1\n2\n3\n")
    assert main(["detect", "--input", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "text,expected",
    [("1_000\n2\n", [1000.0, 2.0]), ("1\nabc\n", "line 2: not a number: 'abc'")],
    ids=["underscore", "bad-line"],
)
def test_pipe_read_once_for_both_parsers(tmp_path, text, expected):
    # a line numpy refuses is parsed again from what was read, not from the pipe
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{expected}$"):
                read_values(str(fifo))
        else:
            assert read_values(str(fifo)).tolist() == expected
    finally:
        writer.join()


def test_file_parsed_where_it_lies(tmp_path):
    # numpy's buffers are traced: the values and a read buffer, not the file's bytes too
    path = tmp_path / "data.txt"
    values = np.random.default_rng(11).random(200_000)
    path.write_text("".join(f"{v:.17g}\n" for v in values), encoding="utf-8")
    tracemalloc.start()
    try:
        got = read_values(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == values.tobytes()
    assert peak < 1.5 * got.nbytes


@pytest.mark.parametrize(
    "text,expected",
    [("1_000\n2\n", [1000.0, 2.0]), ("1\nabc\n", "line 2: not a number: 'abc'")],
    ids=["underscore", "bad-line"],
)
def test_pipe_held_as_bytes_without_a_temporary_directory(text, expected, monkeypatch):
    import tempfile

    def unwritable():
        raise FileNotFoundError("no usable temporary directory")

    monkeypatch.setattr(tempfile, "TemporaryFile", unwritable)
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(text.encode("utf-8"))  # a few bytes: the pipe's buffer holds them
    with os.fdopen(read_end, "rb") as pipe:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(pipe))
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{expected}$"):
                read_values()
        else:
            assert read_values().tolist() == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_costs_what_a_file_costs(tmp_path):
    # a pipe is spooled to a temporary file, not held as bytes: the traced peaks
    # differ by at most the copy's buffer
    values = np.random.default_rng(12).random(100_000)
    data = "".join(f"{v:.17g}\n" for v in values).encode("utf-8")
    path, fifo = tmp_path / "data.txt", tmp_path / "pipe"
    path.write_bytes(data)
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    def traced_read(source):
        tracemalloc.start()
        try:
            return read_values(str(source)), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    from_file, file_peak = traced_read(path)
    writer = threading.Thread(target=write)
    writer.start()  # it waits in open() until the pipe has a reader
    try:
        from_pipe, pipe_peak = traced_read(fifo)
    finally:
        writer.join()
    assert from_file.tobytes() == from_pipe.tobytes() == values.tobytes()
    assert abs(pipe_peak - file_peak) < 0.1 * 2**20


@pytest.mark.parametrize(
    "text,expected",
    [("9\n1\n2\n", [1.0, 2.0]), ("9\n1_000\n2\n", [1000.0, 2.0]),
     ("9\n1\nabc\n", "line 2: not a number: 'abc'")],
    ids=["parser", "float", "bad-line"],
)
def test_seekable_stdin_read_from_where_it_stands(tmp_path, monkeypatch, text, expected):
    # the first line is consumed: both parsers start at the offset stdin had, not
    # at 0, and neither closes it
    path = tmp_path / "data.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "rb") as fh:
        fh.readline()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(fh, encoding="utf-8"))
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{expected}$"):
                read_values()
        else:
            assert read_values().tolist() == expected
        assert not sys.stdin.buffer.closed


@pytest.mark.parametrize("text", ["1\n2\n", "1_000\n2\n", "1\nabc\n"],
                         ids=["parser", "float", "bad-line"])
def test_file_closed_after_either_parser(tmp_path, text):
    path = tmp_path / "data.txt"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.suppress(ValueError):  # the bad line
            read_values(str(path))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
