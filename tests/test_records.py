"""Data ingestion: read_values on files and on standard input."""

import gzip
import io
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from tailratio.cli import main
from tailratio.records import read_values


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


def test_crlf_line_ends(read):
    assert read("1\r\n# c\r\n\r\n2.5 # d\r\n").tolist() == [1.0, 2.5]


def test_non_finite_text_reaches_the_finite_check(read):
    values = read("1\nnan\n-inf\n")
    assert values[0] == 1.0 and np.isnan(values[1]) and values[2] == -np.inf


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
