"""Line numbers across multi-line fields, and the line-formatted log writers."""

import csv
import io
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quell.actuation import ResourceShares
from quell.config import ConfigError, load_scenario
from quell.cli import EXIT_CONFIG, main
from quell.csvio import write_lines
from quell.detectors import load_measurement_stream_csv, load_trace_csv
from quell.hostadapter import FakeHostAdapter
from quell.simulation import LOG_CSV_HEADER, EpochRecord, ScenarioLog
from quell.threat import LifecycleState


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return path


def error(load, path: Path) -> str:
    with pytest.raises(ValueError) as excinfo:
        load(path)
    return str(excinfo.value)


class TestPhysicalLineNumbers:
    """A quoted field spanning lines does not shift the lines after it."""

    def test_stream_row_after_a_multi_line_field(self, tmp_path):
        path = write(tmp_path, 'epoch,value\n0,"1.5\n"\n1,2.0\n2,x\n')
        assert error(load_measurement_stream_csv, path) == f"{path}:5: malformed row ['2', 'x']"

    def test_trace_row_after_a_multi_line_field(self, tmp_path):
        path = write(tmp_path, 'epoch,process,verdict\n0,p,"benign\n\n"\n1,p,malicious\n2,p,sus\n')
        assert error(load_trace_csv, path) == (
            f"{path}:6: verdict must be 'malicious' or 'benign', got 'sus'"
        )

    def test_field_count_after_a_multi_line_field(self, tmp_path):
        path = write(tmp_path, 'epoch,process,verdict\n0,"p\n",benign\n\n1,p\n')
        assert error(load_trace_csv, path) == f"{path}:5: expected 3 fields, got 2"

    def test_multi_line_row_names_the_line_it_starts_on(self, tmp_path):
        path = write(tmp_path, 'epoch,value\n0,1.0\n1,"2.0\nx"\n')
        assert error(load_measurement_stream_csv, path) == (
            f"{path}:3: malformed row ['1', '2.0\\nx']"
        )

    def test_crlf_lines_count_once(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b'epoch,value\r\n0,"1.5\r\n"\r\n\r\n1,2.0\r\n2,x\r\n')
        assert error(load_measurement_stream_csv, path) == f"{path}:6: malformed row ['2', 'x']"


class TestUndecodableBytes:
    """The first byte that is not UTF-8 is named by its file and physical line."""

    def test_line_beyond_the_decoders_first_chunk(self, tmp_path):
        rows = [f"{epoch},1.0\n".encode() for epoch in range(3000)]
        rows[2497] = b"2497,1\xff.0\n"
        path = tmp_path / "input.csv"
        path.write_bytes(b"epoch,value\n" + b"".join(rows))
        assert error(load_measurement_stream_csv, path) == (
            f"{path}:2499: not UTF-8: byte 0xff (invalid start byte)"
        )

    def test_cr_crlf_and_lf_each_end_one_line(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"epoch,process,verdict\r0,p,benign\r\n1,p,benign\n2,p,b\xe9nign\n")
        assert error(load_trace_csv, path) == (
            f"{path}:4: not UTF-8: byte 0xe9 (invalid continuation byte)"
        )

    def test_bad_byte_in_the_header(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"epoch,\xffvalue\n0,1.0\n")
        assert error(load_measurement_stream_csv, path) == (
            f"{path}:1: not UTF-8: byte 0xff (invalid start byte)"
        )


class TestErrorsInLineOrder:
    """The first error in the file wins, whether it is a bad row or a bad byte."""

    def load(self, tmp_path, load, data: bytes) -> tuple[Path, str]:
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        return path, error(load, path)

    def test_stream_field_count_before_a_bad_byte(self, tmp_path):
        path, message = self.load(
            tmp_path, load_measurement_stream_csv, b"epoch,value\n0,1.0\n1,2,3\n2,1.0\n3,\xff\n"
        )
        assert message == f"{path}:3: expected 2 fields, got 3"

    def test_stream_malformed_row_before_a_bad_byte(self, tmp_path):
        path, message = self.load(
            tmp_path, load_measurement_stream_csv, b"epoch,value\n0,1.0\n1,x\n2,1.0\n3,\xff\n"
        )
        assert message == f"{path}:3: malformed row ['1', 'x']"

    def test_stream_bad_byte_before_a_row_error(self, tmp_path):
        path, message = self.load(
            tmp_path, load_measurement_stream_csv, b"epoch,value\n0,1.0\n1,\xff\n2,1,3\n3,x\n"
        )
        assert message == f"{path}:3: not UTF-8: byte 0xff (invalid start byte)"

    def test_trace_row_error_before_a_bad_byte(self, tmp_path):
        path, message = self.load(
            tmp_path,
            load_trace_csv,
            b"epoch,process,verdict\n0,p,benign\n1,p,sus\n2,p,benign\n3,p,b\xe9nign\n",
        )
        assert message == f"{path}:3: verdict must be 'malicious' or 'benign', got 'sus'"

    def test_trace_field_count_before_a_bad_byte(self, tmp_path):
        path, message = self.load(
            tmp_path, load_trace_csv, b"epoch,process,verdict\n0,p\n1,p,\xffbenign\n"
        )
        assert message == f"{path}:2: expected 3 fields, got 2"

    def test_trace_bad_byte_before_a_row_error(self, tmp_path):
        path, message = self.load(
            tmp_path,
            load_trace_csv,
            b"epoch,process,verdict\n0,p,benign\n1,p,b\xe9nign\n2,p,sus\n3,p\n",
        )
        assert message == f"{path}:3: not UTF-8: byte 0xe9 (invalid continuation byte)"

    def test_bad_byte_wins_on_its_own_line(self, tmp_path):
        path, message = self.load(
            tmp_path, load_measurement_stream_csv, b"epoch,value\n0,1.0\n1,2,\xff\n"
        )
        assert message == f"{path}:3: not UTF-8: byte 0xff (invalid start byte)"

    def test_row_reaching_the_bad_line_is_not_read(self, tmp_path):
        # The quoted field starts on line 3 and runs into line 4's bad byte.
        path, message = self.load(
            tmp_path, load_measurement_stream_csv, b'epoch,value\n0,1.0\n1,"2\n\xff"\n2,x\n'
        )
        assert message == f"{path}:4: not UTF-8: byte 0xff (invalid start byte)"

    def test_rows_before_a_late_bad_byte_are_checked(self, tmp_path):
        rows = [f"{epoch},1.0\n".encode() for epoch in range(3000)]
        rows[2400] = b"2400,1.0,2\n"
        rows[2497] = b"2497,1\xff.0\n"
        path, message = self.load(
            tmp_path, load_measurement_stream_csv, b"epoch,value\n" + b"".join(rows)
        )
        assert message == f"{path}:2402: expected 2 fields, got 3"


class TestCsvModuleErrors:
    """A row the ``csv`` module rejects is a ``ValueError`` naming ``path:line``, not a crash."""

    LIMIT = csv.field_size_limit()

    def huge_cell(self, tmp_path, header: str, row: str) -> Path:
        return write(tmp_path, f"{header}\n{row}\n" + "x" * (self.LIMIT + 8_928) + "\n")

    def test_trace_cell_over_the_field_limit(self, tmp_path):
        path = self.huge_cell(tmp_path, "epoch,process,verdict", "0,p,benign")
        assert error(load_trace_csv, path) == (
            f"{path}:3: field larger than field limit ({self.LIMIT})"
        )

    def test_stream_cell_over_the_field_limit(self, tmp_path):
        path = self.huge_cell(tmp_path, "epoch,value", "0,1.0")
        assert error(load_measurement_stream_csv, path) == (
            f"{path}:3: field larger than field limit ({self.LIMIT})"
        )

    def test_the_row_is_named_by_the_line_it_starts_on(self, tmp_path):
        path = write(tmp_path, 'epoch,value\n0,1.0\n1,"\n' + "x" * (self.LIMIT + 1) + '"\n')
        assert error(load_measurement_stream_csv, path) == (
            f"{path}:3: field larger than field limit ({self.LIMIT})"
        )

    def test_a_bad_byte_in_the_rejected_row_wins(self, tmp_path):
        # The row reaches the bad byte, so that is its error, as for any other row.
        path = tmp_path / "input.csv"
        path.write_bytes(b"epoch,value\n0,1.0\n1," + b"x" * (self.LIMIT + 1) + b"\xff\n")
        assert error(load_measurement_stream_csv, path) == (
            f"{path}:3: not UTF-8: byte 0xff (invalid start byte)"
        )

    def test_simulate_reports_it_as_a_config_error(self, tmp_path, capsys):
        trace = self.huge_cell(tmp_path, "epoch,process,verdict", "0,p,benign")
        ini = tmp_path / "scenario.ini"
        ini.write_text(
            "[scenario]\nepochs = 2\nmeasurement_budget = 5\n\n"
            "[process.p]\nbase_rate = 1.0\ndetector = d\n\n"
            f"[detector.d]\nkind = trace\nfile = {trace.name}\n"
        )
        code = main(["simulate", "--scenario", str(ini), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: [detector.d] {trace}:3: field larger than field limit ({self.LIMIT})\n"
        )


# -- log.csv writer ----------------------------------------------------------

ROUNDING_EDGES = [5e-7, 0.0000005, 4.999999e-7, 1.5e-6, 0.9999995, 100.0, 1.0, 0.0, -0.0]
values = st.sampled_from(ROUNDING_EDGES) | st.floats()
process_ids = st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\rid", " padded ", "naïve"]) | (
    st.text(min_size=1)
)
shares = st.tuples(values, values, values, values)
STATES = [state.value for state in LifecycleState]


@st.composite
def logs(draw) -> ScenarioLog:
    """Records over a few ids and shares, so both caches get reused."""
    ids = draw(st.lists(process_ids, min_size=1, max_size=4))
    share_pool = draw(st.lists(shares, min_size=1, max_size=4))
    records = []
    for epoch in range(draw(st.integers(0, 12))):
        cpu, memory, network, filesystem = draw(st.sampled_from(share_pool))
        records.append(
            EpochRecord(
                epoch,
                draw(st.sampled_from(ids)),
                draw(st.sampled_from(["none", "benign", "malicious"])),
                draw(values),
                draw(values),
                draw(values),
                draw(st.sampled_from(STATES)),
                cpu,
                memory,
                network,
                filesystem,
                draw(values),
                draw(values),
            )
        )
    return ScenarioLog(epochs=max(1, len(records)), records=tuple(records))


def csv_module_bytes(log: ScenarioLog) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(LOG_CSV_HEADER)
    writer.writerows(record.csv_row() for record in log.records)
    return buffer.getvalue().encode("utf-8")


SIGNED_ZEROS = ScenarioLog(
    epochs=2,
    records=(
        EpochRecord(0, "p", "none", 0.0, 0.0, 0.0, "normal", 0.0, 1.0, 1.0, 1.0, 0.0, 0.0),
        EpochRecord(1, "p", "none", -0.0, 0.0, 0.0, "normal", -0.0, 1.0, 1.0, 1.0, 0.0, 0.0),
    ),
)


@given(log=logs())
@example(log=SIGNED_ZEROS)
def test_log_writer_matches_the_csv_module(tmp_path_factory, log):
    expected = csv_module_bytes(log)
    buffer = io.StringIO()
    log.write_csv(buffer)
    assert buffer.getvalue().encode("utf-8") == expected
    path = tmp_path_factory.mktemp("log") / "log.csv"
    log.write_csv(path)
    assert path.read_bytes() == expected


class TestWriteLinesStreams:
    """``write_lines`` writes as it is handed lines and holds none of them."""

    HEADER = ("seq", "name")

    def test_header_goes_out_before_the_first_line_is_asked_for(self):
        buffer = io.StringIO()
        seen = []

        def lines():
            seen.append(buffer.getvalue())
            yield "0,a\n"
            seen.append(buffer.getvalue())
            yield "1,b\n"

        write_lines(buffer, self.HEADER, lines())
        # Both lines fall in the first chunk, so neither is written before the other is asked for.
        assert seen == ["seq,name\n", "seq,name\n"]
        assert buffer.getvalue() == "seq,name\n0,a\n1,b\n"

    @pytest.mark.parametrize("count", [0, 1, 1024, 1025])
    def test_lines_go_out_in_chunks_of_1024(self, count):
        writes = []

        class Sink(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        lines = [f"{n},x\n" for n in range(count)]
        sink = Sink()
        write_lines(sink, self.HEADER, lines)
        assert sink.getvalue() == "seq,name\n" + "".join(lines)
        assert writes == ["seq,name\n"] + [
            "".join(lines[start : start + 1024]) for start in range(0, count, 1024)
        ]

    @pytest.mark.parametrize("count", [0, 1, 1024, 1025])
    def test_a_one_shot_generator_is_written_whole(self, tmp_path, count):
        path = tmp_path / "lines.csv"
        write_lines(path, self.HEADER, (f"{n},x\n" for n in range(count)))
        assert path.read_bytes() == b"seq,name\n" + "".join(
            f"{n},x\n" for n in range(count)
        ).encode()

    def test_no_lines_write_only_the_header(self, tmp_path):
        buffer = io.StringIO()
        write_lines(buffer, self.HEADER, iter(()))
        assert buffer.getvalue() == "seq,name\n"
        write_lines(tmp_path / "empty.csv", self.HEADER, [])
        assert (tmp_path / "empty.csv").read_bytes() == b"seq,name\n"

    def test_a_stream_destination_is_left_open(self):
        buffer = io.StringIO()
        write_lines(buffer, self.HEADER, ["0,a\n"])
        buffer.write("1,b\n")
        assert buffer.getvalue() == "seq,name\n0,a\n1,b\n"

    def test_a_long_call_log_is_not_held_whole(self, tmp_path):
        # Each apply logs a distinct shares cell, so the file (1.46 MB) is
        # larger than the bound. Streamed, the export peaks near 0.14 MB;
        # joining the lines into one string peaks near 4.1 MB, and handing
        # the writer a list of them near 2.8 MB.
        adapter = FakeHostAdapter()
        handles = [adapter.spawn(f"p{index}") for index in range(20)]
        for n in range(20_000):
            adapter.apply_shares(handles[n % 20], ResourceShares(cpu=(n + 1) / 20_000))
        path = tmp_path / "calls.csv"
        tracemalloc.start()
        try:
            adapter.export_calls_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 1_000_000
        assert peak < 1_000_000


class TestScenarioErrorsInLineOrder:
    """A scenario INI reports its first error, a parse error or a bad byte, by line."""

    DUPLICATE = "[scenario]\nepochs = 5\nepochs = 6\nmeasurement_budget = 10\n"

    @staticmethod
    def message(tmp_path, text: str, newline: str) -> tuple[Path, str]:
        path = tmp_path / "dup.ini"
        path.write_bytes(text.replace("\n", newline).encode("latin-1"))
        with pytest.raises(ConfigError) as excinfo:
            load_scenario(path)
        return path, str(excinfo.value)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_duplicate_option_before_a_bad_byte(self, tmp_path, newline):
        path, message = self.message(tmp_path, self.DUPLICATE + "; caf\xe9\n", newline)
        assert message == (
            f"{path}: While reading from '{path}' [line  3]: option 'epochs' in section "
            "'scenario' already exists"
        )

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bad_byte_before_a_duplicate_option(self, tmp_path, newline):
        text = self.DUPLICATE.replace("epochs = 6", "; caf\xe9")
        path, message = self.message(tmp_path, text + "epochs = 6\n", newline)
        assert message == f"{path}:3: not UTF-8: byte 0xe9 (invalid continuation byte)"

    def test_crlf_scenario_loads_as_lf(self, tmp_path, configs_dir):
        text = (configs_dir / "worked_attack.ini").read_bytes()
        path = tmp_path / "scenario.ini"
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        assert load_scenario(path) == load_scenario(configs_dir / "worked_attack.ini")
