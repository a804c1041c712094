"""The one CSV row reader behind ratings, comparisons and edge lists."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rateorank as rr
from rateorank import cli, graph

FORMATS = {
    "comparison": (cli.COMPARISON_ROWS, 2, np.float64),
    "rating": (cli.RATING_ROWS, 1, np.float64),
    "edge": (graph.EDGE_ROWS, 2, np.int64),
}

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
        if kind == "comparison":
            text = draw(st.sampled_from(["+1", "1", "-1"]))
            value = -1.0 if text == "-1" else 1.0
        else:
            value = draw(st.integers(1, 2**56))  # 25 merged rows stay inside int64
            text = str(value)
    return draw(_filler), ids, value, text


@st.composite
def _table(draw):
    kind = draw(st.sampled_from(sorted(FORMATS)))
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
    row_format, width, dtype = FORMATS[kind]
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
        assert got_values.dtype == dtype
        assert got_values.tolist() == values

        if kind == "comparison":
            data = cli.read_ordinal_csv(path, id_order)
        elif kind == "rating":
            data = cli.read_cardinal_csv(path, id_order)
        else:
            g, ids = rr.read_edge_list(path)
            first_ids, first_index, _ = _expected(rows, "first-appearance")
            assert tuple(ids) == first_ids
            triples = [(a, b, w) for (a, b), w in zip(first_index, values)]
            assert g == rr.comparison_graph(len(ids), triples)
            return
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
    return rr.read_edge_list(path)


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
        reads.append(rr.read_rows(path, FORMATS[kind][0]))
    (ids, index, values), (bom_ids, bom_index, bom_values) = reads
    assert ids == bom_ids == ("a", "b", "c")
    assert np.array_equal(index, bom_index) and np.array_equal(values, bom_values)


def test_edge_weight_round_trips_exactly(tmp_path):
    weight = 2**53 + 1  # the first integer a float64 cannot hold
    g = rr.comparison_graph(3, [(0, 1, weight), (1, 2, 1)])
    path = tmp_path / "edges.csv"
    rr.write_edge_list(g, path, item_ids=["a", "b", "c"])
    back, ids = rr.read_edge_list(path)
    assert ids == ["a", "b", "c"]
    assert back.edges == ((0, 1, weight), (1, 2, 1))
    assert back.n == weight + 1


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


@pytest.mark.parametrize("block_bytes", [7, graph._BLOCK_BYTES])
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_non_utf8_file_names_the_path(tmp_path, monkeypatch, block_bytes, kind):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    good = GOOD_ROWS[kind].encode()
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(b"\n".join([good] * 5 + [b"\xff" + good]))  # the bad byte opens the last line
    with pytest.raises(rr.DataFormatError) as caught:
        rr.read_rows(path, FORMATS[kind][0])
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
    with open(path, encoding="utf-8") as fh:
        blocks = [[line.strip() for line in block] for block in iter(lambda: fh.readlines(graph._BLOCK_BYTES), [])]
    assert ["#two", "", ""] in blocks  # a block with no rows
    assert blocks[-1] == ["late,a,+1"] and len(blocks) == 5
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


@pytest.mark.parametrize("block_bytes", [7, graph._BLOCK_BYTES])
@pytest.mark.parametrize("kind, row, reason", [(kind, *case) for kind, cases in FULL_TEXTS.items() for case in cases])
def test_error_texts_in_full(tmp_path, monkeypatch, block_bytes, kind, row, reason):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    good = GOOD_ROWS[kind]
    path = tmp_path / f"{kind}.csv"
    # The bad row first, in the middle, and last with no newline after it.
    for line_no, lines in ((1, [row, good]), (3, [good, "# note", row, good]), (3, [good, "", row])):
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(rr.DataFormatError) as caught:
            rr.read_rows(path, FORMATS[kind][0])
        assert str(caught.value) == f"{path}, line {line_no}: {reason}"
