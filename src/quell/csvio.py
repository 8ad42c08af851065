"""The one CSV dialect quell reads and writes.

Input files (verdict traces, measurement streams, efficacy curves) are
UTF-8 with a fixed header, compared after stripping each cell. Blank and
whitespace-only rows are skipped, every other row has one field per
header column, and every row error names ``path:line``. Output files
(``log.csv``, ``slowdown.csv``, ``calls.csv``, ``supervision.csv``) are
UTF-8 with LF line endings and minimal quoting, written to a path or to
an open text stream.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator, Sequence


def read_rows(
    path: Path, header: tuple[str, ...], kind: str
) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(where, row)`` for each non-blank row after the header.

    ``where`` is ``path:line``, counting the header as line 1. An empty
    file (named by ``kind`` in the message), a header other than
    ``header``, or a row whose field count differs from the header's
    raises ``ValueError``. The file is closed when iteration stops.
    """
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty {kind} file") from None
        if tuple(cell.strip() for cell in first) != header:
            raise ValueError(
                f"{path}: expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        width = len(header)
        for line, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != width:
                raise ValueError(f"{path}:{line}: expected {width} fields, got {len(row)}")
            yield f"{path}:{line}", row


def write_rows(
    destination: str | Path | io.TextIOBase,
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> None:
    """Write ``header`` and then ``rows`` to a path or an open text stream."""
    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", encoding="utf-8", newline="") as handle:
            write_rows(handle, header, rows)
        return
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
