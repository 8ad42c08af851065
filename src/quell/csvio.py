"""The one CSV dialect quell reads and writes.

Input files (verdict traces, measurement streams, efficacy curves) are
UTF-8 with a fixed header, compared after stripping each cell. Blank and
whitespace-only rows are skipped, every other row has one field per
header column, and every row error names ``path:line``, as does the
first byte that is not UTF-8. A file inside a strict subset (all UTF-8,
no ``"``, CR or NUL, no line longer than the ``csv`` module's field
limit, the expected header) is split into columns by ``split_columns``
with ``str.split`` alone: on such a file ``csv.reader`` reads each line
as ``line.split(",")``, so the cells are the same. Any other file, and
any file a loader's lean path doubts, goes through ``read_rows``, which
alone raises; the results and the errors are the same either way.
Output files (``log.csv``, ``slowdown.csv``,
``calls.csv``, ``supervision.csv``) are UTF-8 with LF line endings and
minimal quoting, written to a path or to an open text stream. The short
reports go through ``csv.writer`` (``write_rows``); the two long logs
spell each row as one line and stream the lines out (``write_lines``),
so neither builds its file as one string.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence


def read_rows(
    path: Path, header: tuple[str, ...], kind: str, decoded: tuple[str, int, str] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, row)`` for each non-blank row after the header.

    ``line`` is the physical line the row starts on, counting the header
    as line 1, so a quoted field that spans lines does not shift the
    rows after it; a caller names a bad row as ``path:line``. An empty
    file (named by ``kind`` in the message), a header other than
    ``header``, or a row whose field count differs from the header's
    raises ``ValueError``, as does the row that reaches the first byte
    that is not UTF-8. Every row before that one is still yielded, so
    the first error in line order is the one raised, whether the caller
    or this reader finds it. ``decoded`` is ``read_text(path)`` when the
    caller has it already; else the file is read when iteration starts.
    """
    text, bad_line, bad_message = decoded or read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(header)
    end = 0
    try:
        for row in reader:
            line, end = end + 1, reader.line_num
            if bad_line and end >= bad_line:
                raise ValueError(bad_message)
            if line == 1:
                if tuple(cell.strip() for cell in row) != header:
                    raise ValueError(
                        f"{path}: expected header {','.join(header)!r}, got {','.join(row)!r}"
                    )
                continue
            if not "".join(row).strip():
                continue
            if len(row) != width:
                raise ValueError(f"{path}:{line}: expected {width} fields, got {len(row)}")
            yield line, row
    except csv.Error as exc:
        if bad_line and reader.line_num >= bad_line:
            raise ValueError(bad_message) from None
        raise ValueError(f"{path}:{end + 1}: {exc}") from None
    if not end:
        raise ValueError(f"{path}: empty {kind} file")


def read_text(path: Path) -> tuple[str, int, str]:
    """``path`` decoded as UTF-8, the line of its first byte that is not, and a message naming it.

    A file that is all UTF-8 gives line 0 and an empty message. Otherwise
    each bad byte decodes to a stand-in character, and the line counts
    line ends as universal newlines do, so the message names the byte as
    ``path:line`` whichever line ends the file uses. A caller parses the
    lines before that one and reports an error it finds there first.
    """
    data = path.read_bytes()
    try:
        return data.decode("utf-8"), 0, ""
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        message = f"{path}:{line}: not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        return data.decode("utf-8", "surrogateescape"), line, message


def split_columns(text: str, header: tuple[str, ...]) -> list[tuple[str, ...]] | None:
    """The cells of ``text``'s non-blank rows after the header, column by column.

    None unless ``text`` is inside the split subset (module docstring)
    and has at least one such row, each with one field per ``header``
    column. The cells are then those ``read_rows`` yields, unstripped,
    but for one kind of row: a row of only commas and blanks, such as
    ``,,``, which ``read_rows`` skips as blank, is kept here as a row of
    empty cells. No loader's lean path takes an empty epoch cell, so each
    gives up on such a file and the fallback reads it; the results agree.
    ``text`` must be all UTF-8. Never raises.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    if tuple(cell.strip() for cell in lines[0].split(",")) != header:
        return None
    try:
        columns = list(zip(*map(str.split, filter(str.strip, lines[1:]), repeat(",")), strict=True))
    except ValueError:  # rows of different widths
        return None
    return columns if len(columns) == len(header) else None


@contextmanager
def _text_sink(destination: str | Path | io.TextIOBase) -> Iterator[io.TextIOBase]:
    """An open stream as it is, or a path opened for UTF-8 without newline translation."""
    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield destination


def _format_row(cells: Sequence[str]) -> str:
    """One output row as the writers spell it, LF included."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()


def quote_cell(cell: str) -> str:
    """``cell`` as it appears in a row of several fields: quoted only if it must be."""
    # A row of one empty field is spelled '""', so format a row of two.
    return _format_row((cell, ""))[:-2]


def write_rows(
    destination: str | Path | io.TextIOBase,
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> None:
    """Write ``header`` and then ``rows`` to a path or an open text stream."""
    with _text_sink(destination) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# Lines per write call in ``write_lines``: few enough calls that their
# cost vanishes, and one chunk of a long log is still well under 1 MB.
_CHUNK_LINES = 1024


def write_lines(
    destination: str | Path | io.TextIOBase, header: Sequence[str], lines: Iterable[str]
) -> None:
    """Write ``header`` and then rows already spelled as ``write_rows`` spells them.

    The caller owns the quoting of every cell in ``lines`` (``quote_cell``
    does it for free text); each line ends in LF. The header is written
    before the first line is asked for. The lines then go out joined in
    chunks of ``_CHUNK_LINES``, one write call per chunk, so ``lines`` may
    be a one-shot generator and the file is never held whole in memory.
    """
    lines = iter(lines)
    with _text_sink(destination) as handle:
        handle.write(_format_row(header))
        while chunk := list(islice(lines, _CHUNK_LINES)):
            handle.write("".join(chunk))
