"""The document readers read an open file as they read its text.

``read_*_file(path)`` (and the `randset invert` and `cm extend` handlers)
hand the open file to ``parse_*_text``, which reads it in blocks of
``errors.READ_BLOCK`` characters; a text given whole is split at once.  Both
must give equal tables, and on bad input the same FormatError at the same
line, for every line separator ``str.splitlines`` knows.
"""

import contextlib
import gc
import io
import os
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import cli, errors
from cmlat.cm import parse_function_text, read_function_file
from cmlat.errors import CmlatError, FormatError
from cmlat.lattice import boolean_lattice, diamond_lattice, parse_lattice_text, read_lattice_file
from cmlat.randset import parse_distribution_text, parse_void_text, read_distribution_file

SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BAD_LINES = ["x y", "1 2 3", "0", "1 1/0", "99 1", "-1 1/2", "0 1", "1 -1/2", "2 0.5e"]
B2, D3 = boolean_lattice(2), diamond_lattice(3)


def _read_void_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_void_text(fh)


def _void_records(n, weights):
    """The exact void table of the law with these weights on the masks."""
    total = sum(weights) or 1
    return [f"{k} {Fraction(sum(w for a, w in enumerate(weights) if not a & k), total)}" for k in range(1 << n)]


def _documents(draw):
    """A (kind, header, record lines) triple of a valid document."""
    kind = draw(st.sampled_from(["distribution", "void", "function", "lattice"]))
    if kind == "distribution":
        n = draw(st.integers(1, 3))
        weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=len(weights), max_size=len(weights)))
        return kind, str(n), [f"{m} {Fraction(w, sum(weights))}" for m, w in zip(masks, weights)]
    if kind == "void":
        n = draw(st.integers(1, 2))
        weights = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
        records = _void_records(n, weights)
        if draw(st.booleans()):  # decimal values read as floats
            records = [f"{r.split()[0]} {float(Fraction(r.split()[1]))!r}" for r in records]
        return kind, str(n), records
    if kind == "function":
        values = draw(st.lists(st.fractions(0, 2, max_denominator=9), min_size=B2.n, max_size=B2.n))
        return kind, "lattice b2", [f"{x} {v}" for x, v in enumerate(values)]
    return kind, str(D3.n), [f"{lo} {hi}" for lo, hi in sorted(D3.cover_pairs())]


@st.composite
def documents(draw):
    """A document text: a valid document with comments, blank lines, any line
    separators and perhaps one bad line, and whether it ends in a separator."""
    kind, header, records = _documents(draw)
    lines = [header, *records]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(BAD_LINES)))
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "   ", "# comment", " \t# 1 2 3"]), max_size=2))
        out.append(line + draw(st.sampled_from(["", "  ", " # note"])))
    text = "".join(line + draw(st.sampled_from(SEPARATORS)) for line in out)
    if draw(st.booleans()):
        text = text.rstrip("".join(SEPARATORS))
    return kind, text


def _outcome(call):
    """The table ``call`` returns, or the type, message and line of its error."""
    try:
        table = call()
    except CmlatError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    if kind_of := getattr(table, "kind", None):
        return kind_of, table
    return table.n, sorted(table.cover_pairs())


def _parse(kind, source):
    if kind == "distribution":
        return parse_distribution_text(source)
    if kind == "void":
        return parse_void_text(source)
    if kind == "function":
        return parse_function_text(source, B2)
    return parse_lattice_text(source)


def _read_file(kind, path):
    if kind == "distribution":
        return read_distribution_file(path)
    if kind == "void":
        return _read_void_file(path)
    if kind == "function":
        return read_function_file(path, B2)
    return read_lattice_file(path)


@contextlib.contextmanager
def _read_block(size):
    saved, errors.READ_BLOCK = errors.READ_BLOCK, size
    try:
        yield
    finally:
        errors.READ_BLOCK = saved


@settings(max_examples=300, deadline=None)
@given(documents(), st.sampled_from([1, 2, 3, 5, 8, 64, errors.READ_BLOCK]))
def test_a_file_reads_as_its_text(doc, block):
    kind, text = doc
    want = _outcome(lambda: _parse(kind, text))
    with tempfile.TemporaryDirectory() as tmp, _read_block(block):
        path = os.path.join(tmp, "doc.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:  # the separators as drawn
            fh.write(text)
        assert _outcome(lambda: _read_file(kind, path)) == want
        # a stream that keeps "\r\n" untranslated, which may then span two blocks
        assert _outcome(lambda: _parse(kind, io.StringIO(text))) == want


@pytest.mark.parametrize("offset", [-3, -1, 0, 1, 2])
def test_a_bad_line_just_past_a_block_boundary(tmp_path, offset):
    # a comment line fills the first block up to ``offset`` characters from
    # its end, where the bad line starts
    head = "2\n0 1/4\n"
    text = head + "#" * (errors.READ_BLOCK + offset - len(head) - 1) + "\n1 1/0\n3 3/4\n"
    path = tmp_path / "law.dist"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as from_file:
        read_distribution_file(path)
    with pytest.raises(FormatError) as from_text:
        parse_distribution_text(text)
    assert str(from_file.value) == str(from_text.value) == "line 4: bad entry '1 1/0'"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# a valid document of each kind, read by each file reader; each gets a bad last line
READERS = {
    "distribution": ("2\n0 1/2\n3 1/2\n", read_distribution_file),
    "void": ("1\n0 1\n1 1/2\n", lambda path: cli.main(["randset", "invert", "--void", path])),
    "function": ("lattice b2\n0 1\n1 1/2\n2 1/2\n3 1/4\n", lambda path: read_function_file(path, B2)),
    "partial function": ("lattice b2\n0 1\n3 1/4\n",
                         lambda path: cli.main(["cm", "extend", "--lattice", "boolean:2", "--fn", path])),
    "lattice": ("3\n0 1\n1 2\n", read_lattice_file),
}


@pytest.mark.parametrize("kind", READERS)
def test_a_bad_last_line_closes_the_file(kind, tmp_path, capsys):
    text, read = READERS[kind]
    path = _write(tmp_path / "doc.txt", text + "1 2 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = read(path)
        except FormatError as exc:
            assert exc.line == text.count("\n") + 1
        else:  # through the CLI: exit code 2 and the line in the message
            assert code == 2
            assert f"line {text.count(chr(10)) + 1}: expected" in capsys.readouterr().err
        gc.collect()
    assert [str(w.message) for w in caught] == []


def test_parsing_an_open_float_void_file_holds_no_copy_of_it(tmp_path):
    # V(K) = product over i in K of (1 - p_i): independent points, 17-digit floats
    n = 16
    void = np.ones(1 << n)
    for i, p in enumerate(np.random.default_rng(16).uniform(0.01, 0.2, n)):
        void.reshape(-1, 2, 1 << i)[:, 1, :] *= 1 - p
    path = tmp_path / "float16.void"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        fh.writelines(f"{k} {v!r}\n" for k, v in enumerate(void.tolist()))
    with open(path, encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            v = parse_void_text(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert v.kind == "float" and np.array_equal(v._dense.values, void)
    # read whole, the text and its list of lines made a traced peak of 8.7 MiB
    assert peak < 4 << 20, f"traced peak {peak / 2**20:.2f} MiB"
