"""The one CSV dialect every quell input and output file shares.

Inputs (verdict traces, measurement streams, efficacy curves): UTF-8, a
fixed header compared after stripping each cell, blank rows skipped, one
field per header column, and ``path:line`` in every row error. Outputs
(``log.csv``, ``slowdown.csv``, ``calls.csv``, ``supervision.csv``):
UTF-8, LF line endings, minimal quoting, the same bytes whether the
writer gets a path or an open stream.
"""

import csv
import io
import os
from pathlib import Path

import pytest

from quell.cli import EXIT_OK, main
from quell.config import load_scenario
from quell.detectors import (
    STREAM_CSV_HEADER,
    TRACE_CSV_HEADER,
    load_measurement_stream_csv,
    load_trace_csv,
)
from quell.efficacy import CURVE_CSV_HEADER, load_curve_csv
from quell.hostadapter import CALLS_CSV_HEADER, FakeHostAdapter
from quell.simulation import (
    LOG_CSV_HEADER,
    SLOWDOWN_CSV_HEADER,
    EpochRecord,
    ScenarioLog,
    SlowdownReport,
    run_scenario,
    slowdown_reports,
    write_slowdown_csv,
)
from quell.supervisor import SUPERVISION_CSV_HEADER, supervise

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


class Loader:
    def __init__(self, load, kind, header, rows, bad_row, bad_message):
        self.load = load
        self.kind = kind
        self.header = header
        self.rows = rows
        self.bad_row = bad_row
        self.bad_message = bad_message

    def text(self, header=None, rows=None) -> str:
        header = ",".join(self.header) if header is None else header
        rows = self.rows if rows is None else rows
        return "".join(line + "\n" for line in (header, *rows))


LOADERS = [
    Loader(
        load_trace_csv,
        "trace",
        TRACE_CSV_HEADER,
        ["0,p,benign", "1,p,malicious"],
        "2,p,sus",
        "verdict must be 'malicious' or 'benign', got 'sus'",
    ),
    Loader(
        load_measurement_stream_csv,
        "stream",
        STREAM_CSV_HEADER,
        ["0,1.5", "1,2.5"],
        "2,fast",
        "malformed row ['2', 'fast']",
    ),
    Loader(
        load_curve_csv,
        "curve",
        CURVE_CSV_HEADER,
        ["1,0.5,0.2", "10,0.9,0.05"],
        "20,1.5,0.01",
        "f1 must lie in [0, 1], got 1.5",
    ),
]


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.kind)
def loader(request) -> Loader:
    return request.param


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return path


def message(path: Path, loader: Loader, text: str) -> str:
    with pytest.raises(ValueError) as excinfo:
        loader.load(path)
    assert str(excinfo.value) == text
    return text


class TestLoaders:
    def test_empty_file(self, tmp_path, loader):
        path = write(tmp_path, "")
        message(path, loader, f"{path}: empty {loader.kind} file")

    def test_wrong_header(self, tmp_path, loader):
        wrong = ",".join(("x", *loader.header[1:]))
        path = write(tmp_path, loader.text(header=wrong))
        expected = ",".join(loader.header)
        message(path, loader, f"{path}: expected header {expected!r}, got {wrong!r}")

    def test_header_is_compared_after_stripping_cells(self, tmp_path, loader):
        padded = ",".join(f"  {cell}\t" for cell in loader.header)
        reference = loader.load(write(tmp_path, loader.text()))
        assert loader.load(write(tmp_path, loader.text(header=padded))) == reference

    def test_reported_header_keeps_its_cells(self, tmp_path, loader):
        wrong = " ".join(loader.header) + ", extra "
        path = write(tmp_path, loader.text(header=wrong))
        expected = ",".join(loader.header)
        message(path, loader, f"{path}: expected header {expected!r}, got {wrong!r}")

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_field_count_names_the_line(self, tmp_path, loader, extra):
        width = len(loader.header)
        cells = loader.rows[0].split(",")
        bad = ",".join(cells[:-1] if extra < 0 else cells + ["0"])
        path = write(tmp_path, loader.text(rows=[loader.rows[0], bad]))
        message(path, loader, f"{path}:3: expected {width} fields, got {width + extra}")

    def test_blank_and_whitespace_rows_are_skipped(self, tmp_path, loader):
        reference = loader.load(write(tmp_path, loader.text()))
        blanks = ["", "   ", "\t", ",", " , ,", ",,,,"]
        rows = [*blanks, loader.rows[0], *blanks, loader.rows[1], *blanks]
        assert loader.load(write(tmp_path, loader.text(rows=rows))) == reference

    def test_skipped_rows_still_count_toward_line_numbers(self, tmp_path, loader):
        width = len(loader.header)
        rows = ["", "  ", loader.rows[0], "", "0"]
        path = write(tmp_path, loader.text(rows=rows))
        message(path, loader, f"{path}:6: expected {width} fields, got 1")

    def test_header_then_only_blank_rows(self, tmp_path, loader):
        path = write(tmp_path, loader.text(rows=["", "  "]))
        with pytest.raises(ValueError):
            loader.load(path)

    def test_crlf_input_reads_like_lf(self, tmp_path, loader):
        reference = loader.load(write(tmp_path, loader.text()))
        path = tmp_path / "input.csv"
        path.write_bytes(loader.text().replace("\n", "\r\n").encode("utf-8"))
        assert loader.load(path) == reference

    def test_row_error_names_file_and_line(self, tmp_path, loader):
        path = write(tmp_path, loader.text(rows=[*loader.rows, loader.bad_row]))
        message(path, loader, f"{path}:4: {loader.bad_message}")

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_file_rejected_midway_is_closed(self, tmp_path, loader):
        rows = [loader.rows[0], loader.bad_row, *loader.rows[1:]]
        path = write(tmp_path, loader.text(rows=rows))
        with pytest.raises(ValueError) as excinfo:
            loader.load(path)
        # The traceback keeps the loader's frames alive: the file must be
        # closed by the time the error propagates, not when they are freed.
        assert excinfo.value is not None
        assert str(path.resolve()) not in open_files()


def open_files() -> list[str]:
    """The targets of this process's open file descriptors."""
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            targets.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the descriptor listdir itself used
            pass
    return targets


# -- writers ---------------------------------------------------------------

QUOTED_ID = 'naïve,"id"'


def reference_bytes(header, rows) -> bytes:
    """The dialect spelled out with the csv module: excel, LF, UTF-8."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _record(process_id: str) -> EpochRecord:
    return EpochRecord(1, process_id, "benign", 1.0, 0.5, 0.5, "running",
                       1.0, 1.0, 1.0, 1.0, 2.25, 2.25)


def _log_writer(process_id):
    log = ScenarioLog(epochs=1, records=(_record(process_id),))
    return log.write_csv, LOG_CSV_HEADER, [r.csv_row() for r in log.records]


def _slowdown_writer(process_id):
    reports = (SlowdownReport(process_id, 1.0, 2.0, 50.0),)
    return (lambda dest: write_slowdown_csv(reports, dest)), SLOWDOWN_CSV_HEADER, [
        r.csv_row() for r in reports
    ]


def _calls_writer(process_id):
    adapter = FakeHostAdapter()
    adapter.terminate(adapter.spawn(process_id))
    return adapter.export_calls_csv, CALLS_CSV_HEADER, [c.csv_row() for c in adapter.calls]


STREAM_WRITERS = {"log": _log_writer, "slowdown": _slowdown_writer, "calls": _calls_writer}


class TestWriters:
    @pytest.mark.parametrize("name", sorted(STREAM_WRITERS))
    @pytest.mark.parametrize("process_id", ["plain", QUOTED_ID])
    def test_path_and_stream_get_the_same_lf_bytes(self, tmp_path, name, process_id):
        writer, header, rows = STREAM_WRITERS[name](process_id)
        path = tmp_path / f"{name}.csv"
        writer(path)
        writer(str(tmp_path / "as_str.csv"))
        buffer = io.StringIO()
        writer(buffer)
        expected = reference_bytes(header, rows)
        assert path.read_bytes() == expected
        assert (tmp_path / "as_str.csv").read_bytes() == expected
        assert buffer.getvalue().encode("utf-8") == expected
        assert b"\r" not in expected

    @pytest.mark.parametrize("name", sorted(STREAM_WRITERS))
    def test_quoted_ids_round_trip(self, tmp_path, name):
        writer, _, _ = STREAM_WRITERS[name](QUOTED_ID)
        buffer = io.StringIO()
        writer(buffer)
        assert '"naïve,""id"""' in buffer.getvalue()
        parsed = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert QUOTED_ID in {cell for row in parsed for cell in row}

    def test_stream_writer_leaves_the_stream_open(self):
        writer, _, _ = _log_writer("plain")
        buffer = io.StringIO()
        writer(buffer)
        buffer.write("after")
        assert buffer.getvalue().endswith("after")

    def test_simulate_outputs_match_the_reference_dialect(self, tmp_path, configs_dir, capsys):
        ini = configs_dir / "worked_attack.ini"
        assert main(["simulate", "--scenario", str(ini), "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        scenario = load_scenario(ini)
        with_log = run_scenario(scenario)
        reports = slowdown_reports(with_log, run_scenario(scenario.without_response()))
        assert (tmp_path / "log.csv").read_bytes() == reference_bytes(
            LOG_CSV_HEADER, [r.csv_row() for r in with_log.records]
        )
        assert (tmp_path / "slowdown.csv").read_bytes() == reference_bytes(
            SLOWDOWN_CSV_HEADER, [r.csv_row() for r in reports]
        )

    def test_supervise_outputs_match_the_reference_dialect(self, tmp_path, configs_dir, capsys):
        ini = configs_dir / "supervised_attack.ini"
        argv = ["supervise", "--scenario", str(ini), "--out", str(tmp_path), "--fake-adapter"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        adapter = FakeHostAdapter()
        reports = supervise(load_scenario(ini), adapter)
        assert (tmp_path / "calls.csv").read_bytes() == reference_bytes(
            CALLS_CSV_HEADER, [c.csv_row() for c in adapter.calls]
        )
        supervision = (tmp_path / "supervision.csv").read_bytes()
        assert supervision == reference_bytes(
            SUPERVISION_CSV_HEADER, [r.csv_row() for r in reports]
        )
        assert b"\r" not in supervision
