"""The split reader gives what the csv reader gives, or gives up.

``load_trace_csv`` and ``load_measurement_stream_csv`` read a file inside
``csvio``'s split subset without the ``csv`` module. Three things hold
them to the ``read_rows`` fallback: ``split_columns`` returns exactly the
cells ``csv.reader`` reads, or None; over generated files each loader
gives the same sources, or raises the same error, with its lean path on
and off; and a file inside the subset whose rows run in order takes the
lean path. The field limit is lowered while files are generated, so
that a generated cell can exceed it.
"""

import csv
import io
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quell import detectors
from quell.csvio import split_columns
from quell.detectors import (
    STREAM_CSV_HEADER,
    TRACE_CSV_HEADER,
    load_measurement_stream_csv,
    load_trace_csv,
)

LIMIT = 48


@contextmanager
def field_limit(limit: int):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def outcome(load, path: Path):
    """What ``load`` returns for ``path``, or the type and text of the ``ValueError`` it raises."""
    try:
        return load(path)
    except ValueError as exc:
        return type(exc), str(exc)


def both_paths(load, path: Path) -> tuple[object, object]:
    """``load``'s outcome for ``path`` as it reads it, and with both lean paths off."""
    with field_limit(LIMIT), pytest.MonkeyPatch.context() as patch:
        as_read = outcome(load, path)
        patch.setattr(detectors, "_lean_traces", lambda text: None)
        patch.setattr(detectors, "_lean_stream", lambda text: None)
        return as_read, outcome(load, path)


def csv_columns(text: str) -> list[tuple[str, ...]]:
    """The non-blank rows after the header as ``csv.reader`` reads them, column by column."""
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    return list(zip(*(row for row in rows if "".join(row).strip())))


@pytest.fixture(scope="module")
def path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("lean") / "input.csv"


# -- generated files ---------------------------------------------------------

LONG = "x" * (LIMIT + 1)


def epoch_cells(epoch: int):
    """``epoch`` as ``int`` reads it: plain, signed, zero-padded, space-padded or with ``_``."""
    return st.sampled_from(
        [str(epoch)] * 3 + [f"+{epoch}", f"0{epoch}", f" {epoch}\t", "_".join(str(epoch))]
    )


process_ids = st.sampled_from(["p", "q", "r", "p", "q", " p", "q\t", " r ", "naïve", "", " ", LONG])
verdict_cells = st.sampled_from(
    ["benign", "malicious"] * 4 + [" benign", "malicious\t", "Benign", "sus", ""]
)
value_cells = st.sampled_from(
    ["1.5", "0.25", "-2", "3"] * 3
    + [" 0.5 ", "1e3", "1_0.5", "nan", "inf", "-inf", "1e400", "x", "", "0." + "5" * LIMIT]
)
# Rows a loader skips, rejects or leaves to the fallback: blank, separator-only,
# of the wrong width, quoted, or holding CR or NUL.
junk_rows = st.sampled_from(
    ["", " ", "\t", ",", ",,", " , ,", ",,,", "0", "0,p", "0,p,benign,x", "1,2,3,4",
     '0,"p",benign', '"0",1.5', "0\r,p,benign", "1,p\r,benign", "0\r,1.5", "0,1\0"]
)
line_ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])


@st.composite
def runs(draw, first_epochs) -> list[int]:
    """A few epochs counting up from one of ``first_epochs``, perhaps with a gap, a repeat or a swap."""
    first = draw(st.sampled_from(first_epochs))
    epochs = list(range(first, first + draw(st.integers(1, 5))))
    fault = draw(st.sampled_from([None] * 5 + ["gap", "duplicate", "swap"]))
    at = draw(st.integers(0, len(epochs) - 1))
    if fault == "gap" and 0 < at < len(epochs) - 1:
        del epochs[at]
    elif fault == "duplicate":
        epochs.insert(at, epochs[at])
    elif fault == "swap" and at:
        epochs[at - 1], epochs[at] = epochs[at], epochs[at - 1]
    return epochs


@st.composite
def interleaved(draw, blocks: list[list[str]]) -> list[str]:
    """The rows of ``blocks`` merged, each block's rows kept in order."""
    merged = []
    blocks = [block for block in blocks if block]
    while blocks:
        block = blocks[draw(st.integers(0, len(blocks) - 1))]
        merged.append(block.pop(0))
        blocks = [block for block in blocks if block]
    return merged


@st.composite
def trace_rows(draw) -> list[str]:
    blocks = []
    for process in draw(st.lists(process_ids, max_size=4)):
        blocks.append([
            f"{draw(epoch_cells(epoch))},{process},{draw(verdict_cells)}"
            for epoch in draw(runs([0, 1, 1, 2, -1]))
        ])
    return draw(interleaved(blocks))


@st.composite
def stream_rows(draw) -> list[str]:
    epochs = draw(runs([0, 0, 0, 1])) if draw(st.integers(0, 7)) else []
    return [f"{draw(epoch_cells(epoch))},{draw(value_cells)}" for epoch in epochs]


@st.composite
def files(draw, header: tuple[str, ...], rows) -> bytes:
    """A header, ``rows`` with perhaps a few junk rows, any line ends, perhaps a byte that is not UTF-8."""
    headers = [",".join(header)] * 4 + [
        " , ".join(header) + " ", "\t" + ",".join(header), ",".join(header[:-1]),
        ",".join(reversed(header)), '"epoch",' + ",".join(header[1:]), "",
    ]
    lines = draw(rows)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk_rows))
    lines.insert(0, draw(st.sampled_from(headers)))
    text = "".join(line + draw(line_ends) for line in lines)
    data = (text.rstrip("\r\n") if draw(st.booleans()) else text).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9"])) + data[at:]
    return data


# -- files inside the subset, and files one fault away from it ---------------

good_verdicts = st.sampled_from(["benign", "malicious", " benign", "malicious\t"])
good_values = st.sampled_from(["1.5", "0.25", "-2", " 0.5 ", "1e3", "1_0.5"])
blank_rows = st.sampled_from(["", " ", "\t"])


@st.composite
def good_traces(draw) -> list[str]:
    """Processes with consecutive epochs from 0 or 1, interleaved, blank rows between them."""
    blocks = []
    for process in draw(st.lists(process_ids.filter(lambda p: p.strip() and p != LONG),
                                 min_size=1, max_size=4, unique_by=str.strip)):
        first = draw(st.sampled_from([0, 1]))
        blocks.append([
            f"{draw(epoch_cells(epoch))},{process},{draw(good_verdicts)}"
            for epoch in range(first, first + draw(st.integers(1, 12)))
        ])
    rows = draw(interleaved(blocks))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(blank_rows))
    return [" epoch, process ,verdict", *rows]


@st.composite
def good_streams(draw) -> list[str]:
    """Epochs from 0 on, finite values, a blank row among them."""
    count = draw(st.integers(1, 12))
    rows = [f"{draw(epoch_cells(epoch))},{draw(good_values)}" for epoch in range(count)]
    rows.insert(draw(st.integers(0, count)), draw(blank_rows))
    return ["epoch,value", *rows]


def spelled(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


@st.composite
def one_fault(draw, good) -> bytes:
    """A file inside the subset whose rows run in order, but for one fault."""
    lines = draw(good)
    fault = draw(st.sampled_from(["repeat", "drop", "junk", "long", "line end", "char", "byte"]))
    at = draw(st.integers(1, len(lines) - 1))
    if fault == "repeat":  # perhaps past another process's rows
        lines.insert(draw(st.integers(at + 1, len(lines))), lines[at])
    elif fault == "drop":  # a gap, a later first epoch, or only the header left
        del lines[at]
    elif fault == "junk":
        lines.insert(at, draw(junk_rows))
    elif fault == "long":
        cut = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + "5" * LIMIT + lines[at][cut:]
    text = spelled(lines)
    if fault == "line end":
        cut = draw(st.sampled_from([index for index, char in enumerate(text) if char == "\n"]))
        text = text[:cut] + draw(st.sampled_from(["\r", "\r\n"])) + text[cut + 1 :]
    elif fault == "char":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(['"', "\r", "\0", ","])) + text[cut:]
    data = text.encode("utf-8")
    if fault == "byte":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=600)
@given(data=files(TRACE_CSV_HEADER, trace_rows()) | one_fault(good_traces()))
@example(data=b"")
@example(data=b"epoch,process,verdict\n")
@example(data=b"epoch,process,verdict\n2,p,benign\n3,p,benign\n")
@example(data=b"epoch,process,verdict\n1,p,benign\n1,p,benign\n")
@example(data=b"epoch,process,verdict\n0,p,benign\n2,p,benign\n")
@example(data=b"epoch,process,verdict\n1,p,benign\n1,q,benign\n1,p,malicious\n")
@example(data=b"epoch,process,verdict\n1,p,benign\n1,q,benign\n3,p,malicious\n")
@example(data=b"epoch,process,verdict\n1, p,benign\n2,p ,malicious\n")
@example(data=b"epoch,process,verdict\n1,p\r,benign\n")
@example(data=b"epoch,process,verdict\n1,p,benign\n2,p,benign\n,,\n")
@example(data=("epoch,process,verdict\n1," + LONG + ",benign\n").encode())
def test_trace_is_the_same_on_both_paths(path, data):
    path.write_bytes(data)
    as_read, fallback = both_paths(load_trace_csv, path)
    assert as_read == fallback


@settings(max_examples=400)
@given(data=files(STREAM_CSV_HEADER, stream_rows()) | one_fault(good_streams()))
@example(data=b"")
@example(data=b"epoch,value\n")
@example(data=b"epoch,value\n0,1.5\n0,2.5\n1,3.5\n")
@example(data=b"epoch,value\n0,1.5\n2,2.5\n")
@example(data=b"epoch,value\n0,nan\n")
@example(data=b"epoch,value\n0,1.5\r\n1,2.5\r\n")
@example(data=("epoch,value\n0,0." + "5" * LIMIT + "\n").encode())
def test_stream_is_the_same_on_both_paths(path, data):
    path.write_bytes(data)
    as_read, fallback = both_paths(load_measurement_stream_csv, path)
    assert as_read == fallback


@settings(max_examples=300)
@given(
    data=st.one_of(
        files(TRACE_CSV_HEADER, trace_rows()),
        files(STREAM_CSV_HEADER, stream_rows()),
        one_fault(good_traces()),
        one_fault(good_streams()),
    )
)
def test_split_columns_reads_what_the_csv_reader_reads(data):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    for header in (TRACE_CSV_HEADER, STREAM_CSV_HEADER):
        with field_limit(LIMIT):
            columns = split_columns(text, header)
            if columns is not None:
                assert columns == csv_columns(text)


# -- files inside the subset take the lean path; others give up -----------------


@given(lines=good_traces())
def test_a_trace_in_order_is_read_lean(path, lines):
    text = spelled(lines)
    path.write_text(text, encoding="utf-8")
    with field_limit(LIMIT):
        assert detectors._lean_traces(text) is not None
    as_read, fallback = both_paths(load_trace_csv, path)
    assert as_read == fallback


@given(lines=good_streams())
def test_a_stream_in_order_is_read_lean(path, lines):
    text = spelled(lines)
    path.write_text(text, encoding="utf-8")
    with field_limit(LIMIT):
        assert detectors._lean_stream(text) is not None
    as_read, fallback = both_paths(load_measurement_stream_csv, path)
    assert as_read == fallback


@pytest.mark.parametrize(
    "text",
    [
        "",
        "epoch,value",
        "epoch,value\n",
        "epoch,value\n\n \n",
        'epoch,value\n0,"1.5"\n',
        "epoch,value\n0,1.5\r\n",
        "epoch,value\r0,1.5\r",
        "epoch,value\n0,1.5\0\n",
        "epoch,value\n0,1.5,2\n",
        "epoch,value\n0,1.5\n1\n",
        "epoch,process\n0,1.5\n",
        "\ufeffepoch,value\n0,1.5\n",
        "epoch,value\n0," + "5" * (LIMIT + 1) + "\n",
    ],
)
def test_each_excluded_feature_gives_up(text):
    with field_limit(LIMIT):
        assert split_columns(text, STREAM_CSV_HEADER) is None


def test_a_line_at_the_field_limit_is_inside_the_subset():
    text = "epoch,value\n0," + "5" * (LIMIT - 2) + "\n"
    with field_limit(LIMIT):
        assert split_columns(text, STREAM_CSV_HEADER) == [("0",), ("5" * (LIMIT - 2),)]
