"""The one CSV row reader behind ratings and comparisons."""

import contextlib
import csv
import errno
import os
import pickle
import signal
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rateorank as rr
from helpers import read_rows_by_line
from rateorank import cli, graph


def _weight(text):
    weight = int(text)
    if not 0 < weight < 2**63:
        raise ValueError(weight)
    return weight


# Besides the CLI's two formats, a three-column one whose parse returns ints, which the reader reads as float64.
EDGE_ROWS = rr.RowFormat("left,right,weight", "edge", _weight, "a positive 64-bit integer")
FORMATS = {"comparison": cli.COMPARISON_ROWS, "rating": cli.RATING_ROWS, "edge": EDGE_ROWS}

_names = st.text(alphabet="abcXY09_-.é", min_size=1, max_size=3)
_pad = st.sampled_from(["", " ", "  \t"])
_filler = st.lists(st.sampled_from(["", "   ", "# comment", "  # a,b,c", "#"]), max_size=2)


@st.composite
def _row(draw, kind):
    """One data row as (filler lines before it, ids, value, value text)."""
    if kind == "rating":
        ids = [draw(_names)]
        value = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
        text = draw(st.sampled_from([repr(value), f"{value:.17g}"]))
    else:
        ids = draw(st.lists(_names, min_size=2, max_size=2, unique=True))
        text = draw(st.sampled_from(["+1", "1", "-1"]))
        value = -1.0 if text == "-1" else 1.0
    return draw(_filler), ids, value, text


# The hypothesis parity tests draw the CLI's two formats.
_KINDS = st.sampled_from(["comparison", "rating"])


@st.composite
def _table(draw):
    kind = draw(_KINDS)
    return kind, draw(st.lists(_row(kind), min_size=1, max_size=25))


def _render(rows, pad):
    lines = []
    for filler, ids, _, text in rows:
        lines.extend(filler)
        lines.append(",".join(f"{pad}{field}{pad}" for field in [*ids, text]))
    return "\n".join(lines) + "\n"


def _expected(rows, id_order):
    first = {}
    for _, ids, _, _ in rows:
        for name in ids:
            first.setdefault(name, len(first))
    item_ids = sorted(first) if id_order == "sorted" else list(first)
    number = {name: i for i, name in enumerate(item_ids)}
    index = [[number[name] for name in ids] for _, ids, _, _ in rows]
    return tuple(item_ids), index, [value for _, _, value, _ in rows]


@settings(max_examples=150, deadline=None)
@given(table=_table(), pad=_pad, id_order=st.sampled_from(cli.ID_ORDERS))
def test_reader_matches_rows(table, pad, id_order):
    kind, rows = table
    row_format = FORMATS[kind]
    width = row_format.header.count(",")  # id columns
    item_ids, index, values = _expected(rows, id_order)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_render(rows, pad))
        got_ids, got_index, got_values = rr.read_rows(path, row_format, id_order)
        assert got_ids == item_ids
        assert got_index.dtype == np.intp
        assert got_index.shape == ((len(rows), 2) if width == 2 else (len(rows),))
        assert got_index.reshape(len(rows), width).tolist() == index
        assert got_values.dtype == np.float64
        assert got_values.tolist() == values

        if kind == "comparison":
            data = cli.read_ordinal_csv(path, id_order)
        else:
            data = cli.read_cardinal_csv(path, id_order)
    assert data.item_ids == got_ids
    assert np.array_equal(data.design, got_index) and data.design.dtype == np.intp
    assert np.array_equal(data.outcomes, got_values) and data.outcomes.dtype == np.float64


def _read(tmp_path, kind, text):
    path = tmp_path / f"{kind}.csv"
    path.write_text(text, encoding="utf-8")
    if kind == "comparison":
        return cli.read_ordinal_csv(path)
    if kind == "rating":
        return cli.read_cardinal_csv(path)
    return rr.read_rows(path, EDGE_ROWS)


BAD_ROWS = {
    "comparison": [("a,b", "expected 'left,right,outcome'"), ("a,b,2", "outcome must be"),
                   ("a,a,+1", "an item cannot be compared with itself"), ("a,b,+1,c", "expected 'left,right,outcome'")],
    "rating": [("x", "expected 'item,rating'"), ("x,abc", "rating must be a number"),
               ("x,1,2", "expected 'item,rating'")],
    "edge": [("a,b", "expected 'left,right,weight'"), ("a,b,x", "weight must be"), ("a,b,0", "weight must be"),
             ("a,a,3", "an item cannot be compared with itself"), ("a,b,-2", "weight must be"),
             ("a,b,9223372036854775808", "weight must be")],
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_first_bad_line_decides(tmp_path, kind):
    good = {"comparison": "p,q,-1", "rating": "p,0.5", "edge": "p,q,4"}[kind]
    bad = BAD_ROWS[kind]
    for shift in range(len(bad)):
        order = bad[shift:] + bad[:shift]
        text = "\n".join([good, "# note", ""] + [row for row, _ in order]) + "\n"
        fragment = order[0][1]
        with pytest.raises(rr.DataFormatError, match=f"{kind}.csv, line 4: {fragment}"):
            _read(tmp_path, kind, text)


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_empty_file_names_the_rows(tmp_path, kind):
    with pytest.raises(rr.DataFormatError, match=f"{kind}.csv: no {kind} rows found"):
        _read(tmp_path, kind, "# only a comment\n\n")


@pytest.mark.parametrize("kind, text", [
    ("comparison", "a,b,+1\nb,c,-1\nc,a,+1\n"),
    ("rating", "a,1\nb,2\nc,3\na,4\n"),
    ("edge", "a,b,2\nb,c,1\nc,a,3\n"),
], ids=["comparison", "rating", "edge"])
def test_byte_order_mark_is_not_part_of_the_first_id(tmp_path, kind, text):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark.
    path = tmp_path / f"{kind}.csv"
    reads = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + text.encode("utf-8"))
        reads.append(rr.read_rows(path, FORMATS[kind]))
    (ids, index, values), (bom_ids, bom_index, bom_values) = reads
    assert ids == bom_ids == ("a", "b", "c")
    assert np.array_equal(index, bom_index) and np.array_equal(values, bom_values)


def test_edge_weight_round_trips_exactly(tmp_path):
    weight = 2**53 + 1  # the first integer a float64 cannot hold
    g = rr.comparison_graph(3, [(0, 1, weight), (1, 2, 1)])
    path = tmp_path / "edges.csv"
    rr.write_edge_list(g, path, item_ids=["a", "b", "c"])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b", str(weight)], ["b", "c", "1"]]
    ids = {"a": 0, "b": 1, "c": 2}
    assert rr.comparison_graph(3, [(ids[a], ids[b], int(w)) for a, b, w in rows]) == g


@pytest.mark.parametrize("kind, text, fragment", [
    ("comparison", "a,b,+1,c\nx,+1\n", "expected 'left,right,outcome'"),
    ("rating", "x\ny,1,2\n", "expected 'item,rating'"),
])
def test_rows_that_balance_each_others_fields_are_refused(tmp_path, kind, text, fragment):
    # Together the two rows hold the right number of fields; each row alone does not.
    with pytest.raises(rr.DataFormatError, match=f"{kind}.csv, line 1: {fragment}"):
        _read(tmp_path, kind, text)


def test_value_beyond_the_float_range_is_refused(tmp_path):
    # Values must be finite, and a format that parses with int can give one that no float holds.
    path = tmp_path / "counts.csv"
    path.write_text(f"a,b,1\na,b,{10**400}\n", encoding="utf-8")
    with pytest.raises(rr.DataFormatError, match="counts.csv, line 2: count must be an integer, got '1000"):
        rr.read_rows(path, rr.RowFormat("left,right,count", "count", int, "an integer"))


# 7 bytes spreads a file over many chunks; 4096 holds it in one, as the default size does.
@pytest.mark.parametrize("block_bytes", [7, 4096])
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_non_utf8_file_names_the_path(tmp_path, monkeypatch, block_bytes, kind):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    good = GOOD_ROWS[kind].encode()
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(b"\n".join([good] * 5 + [b"\xff" + good]))  # the bad byte opens the last line
    with pytest.raises(rr.DataFormatError) as caught:
        rr.read_rows(path, FORMATS[kind])
    assert str(caught.value) == f"{path}: not UTF-8 text: invalid start byte (0xff)"


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Read a few bytes at a time, so that every table spans many blocks."""
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 7)


def test_reader_matches_rows_across_blocks(tiny_blocks):
    test_reader_matches_rows()


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_first_bad_line_decides_across_blocks(tmp_path, kind, tiny_blocks):
    test_first_bad_line_decides(tmp_path, kind)


# Rows on lines 1-3 and 9-10 with comment-only lines between; ``late`` first appears on line 10.
MULTI_BLOCK_LINES = ("a,b,+1", " b , c ,-1", "c,a,1", "# one", "#two", "", "   ", "# three", "c,b,-1", "late,a,+1")


def test_multi_block_file(tmp_path, monkeypatch):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 8)
    path = tmp_path / "comparison.csv"
    path.write_bytes("\r\n".join(MULTI_BLOCK_LINES).encode())  # CRLF, no trailing newline
    data = path.read_bytes()
    chunks = list(graph._chunks(data[i:i + 8] for i in range(0, len(data), 8)))
    assert b"".join(chunks) == data
    assert b"# one\r\n#two\r\n" in chunks and b"\r\n   \r\n" in chunks  # chunks with no rows
    assert chunks[-1] == b"late,a,+1" and len(chunks) == 8
    item_ids, index, values = rr.read_rows(path, cli.COMPARISON_ROWS)
    assert item_ids == ("a", "b", "c", "late")
    assert index.tolist() == [[0, 1], [1, 2], [2, 0], [2, 1], [3, 0]]
    assert values.tolist() == [1.0, -1.0, 1.0, -1.0, 1.0]

    lines = list(MULTI_BLOCK_LINES)
    lines[8] = "c,c,-1"
    path.write_bytes("\r\n".join(lines).encode())
    with pytest.raises(rr.DataFormatError, match="comparison.csv, line 9: an item cannot be compared with itself"):
        rr.read_rows(path, cli.COMPARISON_ROWS)


# Bad rows, each with the whole message that follows "<path>, line <n>: " when the reader refuses it.
FULL_TEXTS = {
    "comparison": [
        ("a,b", "expected 'left,right,outcome', got 'a,b'"),
        (" a , b ", "expected 'left,right,outcome', got 'a,b'"),
        ("a,b,+1,c", "expected 'left,right,outcome', got 'a,b,+1,c'"),
        ("a,b,2", "outcome must be +1 or -1, got '2'"),
        (" a , b , 2 ", "outcome must be +1 or -1, got '2'"),
        ("a,b,+2", "outcome must be +1 or -1, got '+2'"),
        ("a,b,1.0", "outcome must be +1 or -1, got '1.0'"),
        ("a,b,1e400", "outcome must be +1 or -1, got '1e400'"),
        (",,", "outcome must be +1 or -1, got ''"),
        ("a,a,+1", "an item cannot be compared with itself"),
        (" a , a , +1 ", "an item cannot be compared with itself"),
    ],
    "rating": [
        ("x", "expected 'item,rating', got 'x'"),
        ("x,1,2", "expected 'item,rating', got 'x,1,2'"),
        (" x , 1 , 2 ", "expected 'item,rating', got 'x,1,2'"),
        (",,", "expected 'item,rating', got ',,'"),
        ("x,abc", "rating must be a number, got 'abc'"),
        ("x,", "rating must be a number, got ''"),
        ("x, nan", "rating must be a number, got 'nan'"),
        ("x,NaN", "rating must be a number, got 'NaN'"),
        ("x, inf", "rating must be a number, got 'inf'"),
        ("x,-inf", "rating must be a number, got '-inf'"),
        ("x,1e400", "rating must be a number, got '1e400'"),
    ],
    "edge": [
        ("a,b", "expected 'left,right,weight', got 'a,b'"),
        ("a,b,x", "weight must be a positive 64-bit integer, got 'x'"),
        ("a,b,0", "weight must be a positive 64-bit integer, got '0'"),
        (" a , b , 0 ", "weight must be a positive 64-bit integer, got '0'"),
        ("a,b,-2", "weight must be a positive 64-bit integer, got '-2'"),
        ("a,b,1.5", "weight must be a positive 64-bit integer, got '1.5'"),
        ("a,b,9223372036854775808", "weight must be a positive 64-bit integer, got '9223372036854775808'"),
        ("a,b,1e400", "weight must be a positive 64-bit integer, got '1e400'"),
        (",,", "weight must be a positive 64-bit integer, got ''"),
        ("a,a,3", "an item cannot be compared with itself"),
        (" a , a , 3 ", "an item cannot be compared with itself"),
    ],
}
GOOD_ROWS = {"comparison": "p,q,-1", "rating": "p,0.5", "edge": "p,q,4"}


# 7 bytes spreads a file over many chunks; 4096 holds it in one, as the default size does.
@pytest.mark.parametrize("block_bytes", [7, 4096])
@pytest.mark.parametrize("kind, row, reason", [(kind, *case) for kind, cases in FULL_TEXTS.items() for case in cases])
def test_error_texts_in_full(tmp_path, monkeypatch, block_bytes, kind, row, reason):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    good = GOOD_ROWS[kind]
    path = tmp_path / f"{kind}.csv"
    # The bad row first, in the middle, and last with no newline after it.
    for line_no, lines in ((1, [row, good]), (3, [good, "# note", row, good]), (3, [good, "", row])):
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(rr.DataFormatError) as caught:
            rr.read_rows(path, FORMATS[kind])
        assert str(caught.value) == f"{path}, line {line_no}: {reason}"



@settings(max_examples=100, deadline=None)
@given(data=st.lists(st.sampled_from([b"a", b"bcd", b",", b"\r", b"\n", b"\r\n"]), max_size=200).map(b"".join),
       block_bytes=st.integers(16, 64))
@example(data=b"a" * 15 + b"\r\nb\n", block_bytes=16)  # a CRLF across two blocks
def test_chunks_hold_whole_lines(data, block_bytes):
    chunks = list(graph._chunks(data[i:i + block_bytes] for i in range(0, len(data), block_bytes)))
    assert b"".join(chunks) == data and all(chunks)
    for chunk, after in zip(chunks, chunks[1:]):
        assert chunk.endswith((b"\n", b"\r")) and not (chunk.endswith(b"\r") and after.startswith(b"\n"))
    if max(map(len, data.splitlines(keepends=True)), default=0) <= 10:  # a line end in the first 10 bytes of a block
        assert all(len(chunk) < 2 * block_bytes for chunk in chunks)


# Reading in parts: forked children parse the later byte ranges of a large regular file.


def _assert_no_children():
    """Every child that a read forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(path, row_format, id_order="first-appearance", read=rr.read_rows):
    """read_rows' ids and each array's dtype, shape, write flag and bytes; or the type and text of what it raised."""
    try:
        item_ids, index, values = read(path, row_format, id_order)
    except rr.DataFormatError as exc:
        return type(exc), str(exc)
    finally:
        _assert_no_children()
    return item_ids, *[(a.dtype, a.shape, a.flags.writeable, a.tobytes()) for a in (index, values)]


@contextlib.contextmanager
def _parts(part_bytes, cpus=4):
    """Split every regular file of at least two ``part_bytes`` into up to ``cpus`` parts; yields the forks made."""
    forks = []
    fork = os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PART_BYTES", part_bytes)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        mp.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        yield forks


def _serial(path, row_format, id_order="first-appearance"):
    """The outcome of reading the file in one part."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PART_BYTES", 1 << 62)
        return _outcome(path, row_format, id_order)


@settings(max_examples=100, deadline=None)
@given(table=_table(), pad=_pad, id_order=st.sampled_from(cli.ID_ORDERS), part_bytes=st.integers(4, 200))
def test_parts_match_the_serial_read(table, pad, id_order, part_bytes):
    kind, rows = table
    row_format = FORMATS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_render(rows, pad))
        want = _serial(path, row_format, id_order)
        with _parts(part_bytes):
            assert _outcome(path, row_format, id_order) == want


def test_parts_match_the_serial_read_across_blocks(tiny_blocks):
    test_parts_match_the_serial_read()


@st.composite
def _mixed_table(draw):
    """A table of one kind whose lines mix clean rows with padded and tabbed ones, CRLF and bare-CR endings,
    comments and blank lines."""
    kind = draw(_KINDS)
    text = ""
    for filler, ids, _, value in draw(st.lists(_row(kind), min_size=1, max_size=60)):
        pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
        for line in [*filler, ",".join(f"{pad}{field}{pad}" for field in [*ids, value])]:
            text += line + draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return kind, text


@settings(max_examples=100, deadline=None)
@given(table=_mixed_table(), id_order=st.sampled_from(cli.ID_ORDERS), chunk_bytes=st.integers(16, 200),
       part_bytes=st.integers(64, 400))
def test_chunks_match_the_line_by_line_reader(table, id_order, chunk_bytes, part_bytes):
    kind, text = table
    row_format = FORMATS[kind]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_BYTES", chunk_bytes)
        path = os.path.join(tmp, "rows.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        want = _outcome(path, row_format, id_order, read=read_rows_by_line)
        assert _serial(path, row_format, id_order) == want
        with _parts(part_bytes):
            assert _outcome(path, row_format, id_order) == want


def _good_row(i, kind):
    """Row ``i`` of a good table of ``kind``; its edge weights are integers past 2**53."""
    return {"comparison": f"a{i % 7},b{i % 5},{'+1' if i % 3 else '-1'}", "rating": f"r{i % 11},{i / 8}",
            "edge": f"a{i % 7},b{i % 5},{2**60 + i}"}[kind]


def _write_lines(path, lines, newline="\n"):
    """Write ``lines``, each ended by ``newline``; a lone surrogate such as "\\udcff" becomes the byte it escapes."""
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8", "surrogateescape"))


def _ranges(path, parts):
    """The lines of each byte range that read_rows would give ``parts`` parts."""
    data = path.read_bytes()
    with open(path, "rb") as fh:
        starts = graph._part_starts(fh.fileno(), len(data), parts)
    return [data[a:b].decode().splitlines() for a, b in zip(starts, [*starts[1:], len(data)])]


@pytest.mark.parametrize("id_order", cli.ID_ORDERS)
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_parts_holding_only_comments_or_blank_lines(tmp_path, kind, id_order):
    filler = ["# a comment, with commas"] * 10 + ["", "   "] * 10 + ["#"] * 10
    path = tmp_path / f"{kind}.csv"
    _write_lines(path, [_good_row(i, kind) for i in range(20)] + filler + [_good_row(i, kind) for i in range(20, 25)]
                 + filler)
    ranges = _ranges(path, 8)
    assert len(ranges) == 8
    assert sum(all(not line.strip() or line.startswith("#") for line in lines) for lines in ranges) >= 3
    want = _serial(path, FORMATS[kind], id_order)
    assert want[2][0] == np.float64
    with _parts(path.stat().st_size // 8, cpus=8) as forks:
        assert _outcome(path, FORMATS[kind], id_order) == want
    assert len(forks) == 7


def _int_or_float(text):
    return int(text) if text.isdigit() else float(text)


@pytest.mark.parametrize("rows", ["ints", "ints-then-floats", "floats-then-ints"])
def test_integer_values_read_as_float64(tmp_path, rows):
    # A parse that returns ints gives float64 values, each float(x), in one part and in parts alike.
    ints = [(f"a{i}", 2**60 + i) for i in range(100)]  # past 2**53, where float(x) rounds
    floats = [(f"b{i}", i / 4) for i in range(100)]
    table = {"ints": ints + [(f"c{i}", i) for i in range(100)], "ints-then-floats": ints + floats,
             "floats-then-ints": floats + ints}[rows]
    path = tmp_path / "values.csv"
    _write_lines(path, [f"{name},{value}" for name, value in table])
    row_format = rr.RowFormat("item,value", "value", _int_or_float, "a number")
    want = _serial(path, row_format)
    assert want[2][0] == np.float64
    assert np.frombuffer(want[2][3]).tolist() == [float(value) for _, value in table]
    with _parts(256) as forks:
        assert _outcome(path, row_format) == want
    assert len(forks) == 3


def test_parts_start_after_newlines(tmp_path):
    path = tmp_path / "starts.csv"
    path.write_bytes(b"a,b,+1\r\nccc,d,-1\ne,f,+1\r" * 10)
    data = path.read_bytes()
    with open(path, "rb") as fh:
        for parts in range(1, 40):
            starts = graph._part_starts(fh.fileno(), len(data), parts)
            assert starts[0] == 0 and starts == sorted(set(starts)) and len(starts) <= parts
            assert all(data[s - 1:s] == b"\n" for s in starts[1:]) and starts[-1] < len(data)


# At 256-byte parts the 200 rows "a<i>,b<i>,+1" split into 4 ranges: rows 0-55, 56-108, 109-154 and 155-199.
TABLE = [f"a{i},b{i},+1" for i in range(200)]
BAD_BYTE = "\udcff"  # written as the byte 0xff
BAD = {"row": ("a,b,2", "outcome must be +1 or -1, got '2'"),
       "self": ("x,x,+1", "an item cannot be compared with itself"),
       "byte": (BAD_BYTE, None)}


def test_table_splits_as_the_failure_tests_expect(tmp_path):
    path = tmp_path / "comparison.csv"
    _write_lines(path, TABLE)
    assert [lines[0] for lines in _ranges(path, 4)] == ["a0,b0,+1", "a56,b56,+1", "a109,b109,+1", "a155,b155,+1"]


@pytest.mark.parametrize("failures", [
    [(150, "self")],
    [(170, "byte")],
    [(70, "row"), (150, "self")],
    [(10, "row"), (170, "self")],
    [(70, "byte"), (150, "self")],
    [(70, "self"), (80, "row")],
], ids=str)
def test_the_earliest_failure_is_raised(tmp_path, failures):
    lines = list(TABLE)
    for at, kind in failures:
        lines[at] = BAD[kind][0]
    path = tmp_path / "comparison.csv"
    _write_lines(path, lines)
    at, kind = failures[0]
    reason = BAD[kind][1]
    message = f"{path}, line {at + 1}: {reason}" if reason else f"{path}: not UTF-8 text: invalid start byte (0xff)"
    want = _serial(path, cli.COMPARISON_ROWS)
    assert want == (rr.DataFormatError, message)
    with _parts(256) as forks:
        assert _outcome(path, cli.COMPARISON_ROWS) == want
    assert len(forks) == 3


def test_a_row_in_an_earlier_part_wins_over_bytes_in_a_later_one(tmp_path):
    # The row on line 71 and the byte on line 151 share one chunk of a one-part read, which is read again line by
    # line when it fails to decode, so the row wins there too.  In parts, each range stops at its own first failure
    # and the earlier range wins.
    lines = list(TABLE)
    lines[70], lines[150] = BAD["row"][0], BAD_BYTE
    path = tmp_path / "comparison.csv"
    _write_lines(path, lines)
    row = (rr.DataFormatError, f"{path}, line 71: {BAD['row'][1]}")
    assert _serial(path, cli.COMPARISON_ROWS) == row
    with _parts(256):
        assert _outcome(path, cli.COMPARISON_ROWS) == row


@pytest.mark.parametrize("kind, row, reason", [(kind, *case) for kind, cases in FULL_TEXTS.items() for case in cases]
                         + [(kind, BAD_BYTE + GOOD_ROWS[kind], None) for kind in sorted(FORMATS)])
def test_a_bad_row_in_a_clean_chunk(tmp_path, kind, row, reason):
    # 300 clean rows make one chunk that takes no cleaning; the bad row on line 151 is its only flaw.
    lines = [_good_row(i, kind) for i in range(300)]
    path = tmp_path / f"{kind}.csv"
    _write_lines(path, lines)
    assert len(path.read_bytes()) < graph._BLOCK_BYTES and graph._is_clean(path.read_bytes())
    lines[150] = row
    _write_lines(path, lines)
    with pytest.raises(rr.DataFormatError) as caught:
        rr.read_rows(path, FORMATS[kind])
    assert str(caught.value) == (f"{path}, line 151: {reason}" if reason else
                                 f"{path}: not UTF-8 text: invalid start byte (0xff)")


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"], ids=["crlf", "cr", "lf"])
@pytest.mark.parametrize("bad", [False, True])
def test_line_endings_across_parts(tmp_path, newline, bad):
    lines = list(TABLE)
    lines[100:110] = ["# comment", ""] * 5
    if bad:
        lines[170] = BAD["self"][0]
    path = tmp_path / "comparison.csv"
    _write_lines(path, lines, newline)
    want = _serial(path, cli.COMPARISON_ROWS)
    if bad:
        assert want == (rr.DataFormatError, f"{path}, line 171: an item cannot be compared with itself")
    else:
        assert want[0][:4] == ("a0", "b0", "a1", "b1") and want[1][1] == (190, 2)
    with _parts(256) as forks:
        assert _outcome(path, cli.COMPARISON_ROWS) == want
    assert len(forks) == (0 if newline == "\r" else 3)  # bare CRs leave no newline to split after


def test_byte_order_mark_is_skipped_only_at_byte_0(tmp_path):
    # Every line starts with a byte-order mark; only the one at byte 0 is skipped, so the others open ids.
    path = tmp_path / "comparison.csv"
    _write_lines(path, ["\ufeff" + line for line in TABLE])
    want = _serial(path, cli.COMPARISON_ROWS)
    assert want[0][:3] == ("a0", "b0", "\ufeffa1")
    with _parts(256) as forks:
        assert _outcome(path, cli.COMPARISON_ROWS) == want
    assert len(forks) == 3


def _raise_in_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def _short_dump(obj, file, protocol):
    file.write(pickle.dumps(obj, protocol)[:100])


@pytest.mark.parametrize("failure", ["fork", "exit", "kill", "raise", "short"])
def test_a_failed_child_leaves_its_part_to_the_caller(tmp_path, failure):
    parent = os.getpid()
    action = {"exit": lambda: os._exit(1), "kill": lambda: os.kill(os.getpid(), signal.SIGKILL),
              "raise": lambda: 1 / 0}.get(failure)

    def parse(text):
        if action and os.getpid() != parent:
            action()
        return float(text)

    row_format = rr.RowFormat("item,rating", "rating", parse, "a number")
    path = tmp_path / "rating.csv"
    _write_lines(path, [_good_row(i, "rating") for i in range(300)])
    want = _serial(path, row_format)
    with _parts(256) as forks, pytest.MonkeyPatch.context() as mp:
        if failure == "fork":
            mp.setattr(os, "fork", _raise_in_fork)
        if failure == "short":
            mp.setattr(pickle, "dump", _short_dump)
        assert _outcome(path, row_format) == want
    assert len(forks) == (0 if failure == "fork" else 3)


def test_children_are_reaped_when_the_caller_fails(tmp_path):
    parent = os.getpid()

    def parse(text):
        if os.getpid() == parent:
            raise RuntimeError("the caller's part fails")
        return float(text)

    path = tmp_path / "rating.csv"
    _write_lines(path, [_good_row(i, "rating") for i in range(300)])
    with _parts(256) as forks, pytest.raises(RuntimeError, match="the caller's part fails"):
        rr.read_rows(path, rr.RowFormat("item,rating", "rating", parse, "a number"))
    assert len(forks) == 3
    _assert_no_children()


def test_children_reaped_by_the_system_leave_their_parts_to_the_caller(tmp_path):
    # With SIGCHLD ignored, the system reaps every child and waitpid can give no exit status.
    path = tmp_path / "rating.csv"
    _write_lines(path, [_good_row(i, "rating") for i in range(300)])
    want = _serial(path, cli.RATING_ROWS)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with _parts(256) as forks:
            assert _outcome(path, cli.RATING_ROWS) == want
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert len(forks) == 3


def test_a_pipe_reads_like_the_regular_file(tmp_path):
    # Over two default parts, so the regular file splits; a pipe cannot be split and streams in one part.
    path = tmp_path / "comparison.csv"
    _write_lines(path, [f"item{i % 997},item{(i + 1 + i % 13) % 997},{'+1' if i % 3 else '-1'}"
                        for i in range(140_000)])
    data = path.read_bytes()
    assert len(data) > 2 * graph._PART_BYTES

    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as pipe:
            pipe.write(data)

    with _parts(graph._PART_BYTES, cpus=2) as forks:
        want = _outcome(path, cli.COMPARISON_ROWS)
        assert len(forks) == 1
        writer = threading.Thread(target=write)
        writer.start()
        try:
            got = _outcome(f"/dev/fd/{read_end}", cli.COMPARISON_ROWS)
        finally:
            os.close(read_end)
            writer.join(timeout=60)
        assert not writer.is_alive()
    assert len(forks) == 1
    assert got == want
