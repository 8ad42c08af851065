"""Command-line interface, driven in-process through main()."""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from quell import cli
from quell.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_UNREACHABLE, main
from quell.csvio import write_rows
from quell.hostadapter import CALLS_CSV_HEADER, FakeHostAdapter

DIPPING_CURVE = """\
measurements,f1,fpr
1,0.50,0.50
5,0.92,0.30
10,0.85,0.20
20,0.95,0.10
30,0.96,0.05
"""


class TestSimulate:
    def test_worked_attack_outputs(self, tmp_path, configs_dir, capsys):
        code = main(
            ["simulate", "--scenario", str(configs_dir / "worked_attack.ini"), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "attack: slowdown 79.266667% (with 701.927000, without 3385.500000)" in out
        slowdown_lines = (tmp_path / "slowdown.csv").read_text().splitlines()
        assert slowdown_lines == [
            "process,progress_with,progress_without,slowdown_pct",
            "attack,701.927000,3385.500000,79.266667",
        ]
        log_lines = (tmp_path / "log.csv").read_text().splitlines()
        assert log_lines[0] == (
            "epoch,process,verdict,penalty,compensation,threat,state,"
            "cpu,mem,net,fs,progress,cumulative"
        )
        assert len(log_lines) == 1 + 15

    def test_benign_scenario_has_zero_slowdown(self, tmp_path, configs_dir, capsys):
        code = main(
            ["simulate", "--scenario", str(configs_dir / "benign.ini"), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "builder: slowdown 0.000000% (with 500.000000, without 500.000000)" in out

    def test_reruns_are_byte_identical(self, tmp_path, configs_dir, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        scenario = str(configs_dir / "worked_attack.ini")
        assert main(["simulate", "--scenario", scenario, "--out", str(first)]) == EXIT_OK
        assert main(["simulate", "--scenario", scenario, "--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert (first / "log.csv").read_bytes() == (second / "log.csv").read_bytes()
        assert (first / "slowdown.csv").read_bytes() == (second / "slowdown.csv").read_bytes()

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_malformed_ini(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("epochs = 5\n")
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestPlan:
    def test_f1_target_on_shipped_curve(self, configs_dir, capsys):
        code = main(["plan", "--curve", str(configs_dir / "curve_boosted_trees.csv"), "--f1", "0.9"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "required measurements: 23"
        assert out[1] == "time budget: 2.300000 s (100 ms per epoch)"

    def test_fpr_target(self, configs_dir, capsys):
        code = main(["plan", "--curve", str(configs_dir / "curve_boosted_trees.csv"), "--fpr", "0.1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "required measurements: 50"
        assert out[1] == "time budget: 5.000000 s (100 ms per epoch)"

    def test_sparser_curve_needs_more_measurements(self, configs_dir, capsys):
        code = main(["plan", "--curve", str(configs_dir / "curve_small_ann.csv"), "--f1", "0.75"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "required measurements: 40"
        assert out[1] == "time budget: 4.000000 s (100 ms per epoch)"

    def test_unreachable_target(self, configs_dir, capsys):
        code = main(["plan", "--curve", str(configs_dir / "curve_boosted_trees.csv"), "--f1", "0.99"])
        assert code == EXIT_UNREACHABLE
        assert "error:" in capsys.readouterr().err

    def test_sustained_versus_first_crossing(self, tmp_path, capsys):
        curve = tmp_path / "dip.csv"
        curve.write_text(DIPPING_CURVE)
        assert main(["plan", "--curve", str(curve), "--f1", "0.9"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "required measurements: 15"
        assert main(["plan", "--curve", str(curve), "--f1", "0.9", "--first-crossing"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "required measurements: 5"

    def test_epoch_duration_scales_the_time_budget(self, tmp_path, capsys):
        curve = tmp_path / "dip.csv"
        curve.write_text(DIPPING_CURVE)
        code = main(
            ["plan", "--curve", str(curve), "--f1", "0.9", "--first-crossing", "--epoch-ms", "250"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "time budget: 1.250000 s (250 ms per epoch)"

    def test_malformed_curve_header(self, tmp_path, capsys):
        curve = tmp_path / "bad.csv"
        curve.write_text("n,f1,fpr\n1,0.5,0.5\n")
        code = main(["plan", "--curve", str(curve), "--f1", "0.9"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("5,0.5,0.5\n", "a curve needs at least two points"),
            ("5,0.5,0.5\n5,0.9,0.1\n", "measurement counts must be strictly increasing"),
        ],
    )
    def test_malformed_curve_names_its_file(self, tmp_path, capsys, rows, problem):
        curve = tmp_path / "bad.csv"
        curve.write_text("measurements,f1,fpr\n" + rows)
        code = main(["plan", "--curve", str(curve), "--f1", "0.5"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: {curve}: {problem}\n"

    def test_bad_epoch_duration_names_the_flag_not_the_file(self, tmp_path, capsys):
        curve = tmp_path / "dip.csv"
        curve.write_text(DIPPING_CURVE)
        code = main(["plan", "--curve", str(curve), "--f1", "0.9", "--epoch-ms", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "error: epoch duration must be positive\n"

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_epoch_duration_is_named(self, tmp_path, capsys, value):
        curve = tmp_path / "dip.csv"
        curve.write_text(DIPPING_CURVE)
        # The ``=`` form, or argparse would read ``-inf`` as an option.
        code = main(["plan", "--curve", str(curve), "--f1", "0.9", f"--epoch-ms={value}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: epoch duration must be finite, got {value}\n"


class TestReplay:
    def test_recovery_trace(self, tmp_path, configs_dir, capsys):
        code = main(
            [
                "replay",
                "--scenario", str(configs_dir / "recovery.ini"),
                "--trace", str(configs_dir / "recovery_trace.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "worker: slowdown 33.000000% (with 1005.000000, without 1500.000000)" in out

    def test_trace_missing_the_process(self, tmp_path, configs_dir, capsys):
        code = main(
            [
                "replay",
                "--scenario", str(configs_dir / "recovery.ini"),
                "--trace", str(configs_dir / "attack_trace.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    def test_trace_too_short_for_the_scenario(self, tmp_path, configs_dir, capsys):
        trace = tmp_path / "short.csv"
        rows = ["epoch,process,verdict"] + [f"{e},worker,benign" for e in range(1, 4)]
        trace.write_text("\n".join(rows) + "\n")
        code = main(
            [
                "replay",
                "--scenario", str(configs_dir / "recovery.ini"),
                "--trace", str(trace),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    def test_missing_trace_file(self, tmp_path, configs_dir, capsys):
        trace = tmp_path / "absent.csv"
        code = main(
            [
                "replay",
                "--scenario", str(configs_dir / "recovery.ini"),
                "--trace", str(trace),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: cannot read trace {trace}: [Errno 2] No such file or directory: '{trace}'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_malformed_trace_header(self, tmp_path, configs_dir, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("when,who,what\n1,worker,benign\n")
        code = main(
            [
                "replay",
                "--scenario", str(configs_dir / "recovery.ini"),
                "--trace", str(trace),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestSuperviseFake:
    def test_scripted_attack_call_log_and_report(self, tmp_path, configs_dir, capsys):
        code = main(
            [
                "supervise",
                "--scenario", str(configs_dir / "supervised_attack.ini"),
                "--out", str(tmp_path),
                "--fake-adapter",
            ]
        )
        assert code == EXIT_OK
        assert "attack: terminated after epoch 16 (detector)" in capsys.readouterr().out
        calls = (tmp_path / "calls.csv").read_text().splitlines()
        assert calls == [
            "seq,handle,call,args",
            "0,attack,attach,cpu=1.000000;mem=1.000000;net=1.000000;fs=1.000000",
            "1,attack,apply_shares,cpu=0.900000;mem=1.000000;net=1.000000;fs=1.000000",
            "2,attack,apply_shares,cpu=0.700000;mem=1.000000;net=1.000000;fs=1.000000",
            "3,attack,apply_shares,cpu=0.400000;mem=1.000000;net=1.000000;fs=1.000000",
            "4,attack,apply_shares,cpu=0.010000;mem=1.000000;net=1.000000;fs=1.000000",
            "5,attack,terminate,",
        ]
        supervision = (tmp_path / "supervision.csv").read_text().splitlines()
        assert supervision == [
            "process,final_state,epochs_run,exit_reason,cpu,mem,net,fs",
            "attack,terminated,16,detector,0.010000,1.000000,1.000000,1.000000",
        ]

    def test_processes_listed_out_of_id_order_are_stepped_in_id_order(self, tmp_path, capsys):
        section = (
            "[process.{}]\nbase_rate = 100\nresponse_cpu = proportional\ndetector = flagger\n\n"
        )
        head = "[scenario]\nepochs = 4\nmeasurement_budget = 10\n\n"
        detector = "[detector.flagger]\nkind = stochastic\ntpr = 1.0\nfpr = 0.0\nground_truth = attack\n"
        outputs = {}
        for order in ("za", "az"):
            path = tmp_path / f"{order}.ini"
            path.write_text(head + "".join(map(section.format, order)) + detector)
            out = tmp_path / order
            assert main(["supervise", "--scenario", str(path), "--out", str(out), "--fake-adapter"]) == EXIT_OK
            outputs[order] = [(out / name).read_bytes() for name in ("calls.csv", "supervision.csv")]
        capsys.readouterr()
        assert outputs["za"] == outputs["az"]
        calls = outputs["za"][0].decode().splitlines()[1:]
        assert [tuple(row.split(",")[1:3]) for row in calls] == [
            ("a", "attach"), ("z", "attach"), *[("a", "apply_shares"), ("z", "apply_shares")] * 3
        ]

    @pytest.fixture
    def refused(self, monkeypatch):
        """The CLI's fake host fails its third apply; holds the calls logged by then."""
        at_failure = []

        class RefusingHost(FakeHostAdapter):
            applies = 0

            def apply_shares(self, handle, shares):
                self.applies += 1
                if self.applies == 3:
                    at_failure.extend(self.calls)
                    raise OSError("host refused the limit")
                return super().apply_shares(handle, shares)

        # cmd_supervise imports the host adapters when it runs, so patch their module.
        monkeypatch.setattr("quell.hostadapter.FakeHostAdapter", RefusingHost)
        return at_failure

    @staticmethod
    def run_attack(tmp_path, configs_dir) -> int:
        scenario = str(configs_dir / "supervised_attack.ini")
        return main(["supervise", "--scenario", scenario, "--out", str(tmp_path), "--fake-adapter"])

    def test_failed_run_keeps_the_calls_made_before_it_failed(
        self, tmp_path, configs_dir, capsys, refused
    ):
        assert self.run_attack(tmp_path, configs_dir) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: host refused the limit\n"
        assert [call.call for call in refused] == ["attach", "apply_shares", "apply_shares"]
        expected = io.StringIO()
        write_rows(expected, CALLS_CSV_HEADER, [call.csv_row() for call in refused])
        assert (tmp_path / "calls.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_failed_run_keeps_the_states_reached_before_it_failed(
        self, tmp_path, configs_dir, capsys, refused
    ):
        assert self.run_attack(tmp_path, configs_dir) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: host refused the limit\n")
        # Epoch 3's step went through; its shares were refused, so the
        # report holds the ledger's state and the last shares the host took.
        assert (tmp_path / "supervision.csv").read_text().splitlines() == [
            "process,final_state,epochs_run,exit_reason,cpu,mem,net,fs",
            "attack,suspicious,3,,0.700000,1.000000,1.000000,1.000000",
        ]

    def test_one_process_adapter_error_keeps_every_report(self, tmp_path, capsys, monkeypatch):
        class RefusingA(FakeHostAdapter):
            """Fails ``a``'s second apply with an error that is not a stale handle."""

            def apply_shares(self, handle, shares):
                if handle.ident == "a" and len(self.calls) > 3:
                    raise OSError("host refused the limit")
                return super().apply_shares(handle, shares)

        monkeypatch.setattr("quell.hostadapter.FakeHostAdapter", RefusingA)
        section = "[process.{}]\nbase_rate = 100\nresponse_cpu = proportional\ndetector = flagger\n\n"
        ini = tmp_path / "two.ini"
        ini.write_text(
            "[scenario]\nepochs = 6\nmeasurement_budget = 10\n\n"
            + section.format("a") + section.format("z")
            + "[detector.flagger]\nkind = stochastic\ntpr = 1.0\nfpr = 0.0\nground_truth = attack\n"
        )
        out = tmp_path / "out"
        assert main(["supervise", "--scenario", str(ini), "--out", str(out), "--fake-adapter"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: host refused the limit\n")
        # The run ended in epoch 2 at ``a``, before ``z`` was stepped again.
        assert (out / "supervision.csv").read_text().splitlines() == [
            "process,final_state,epochs_run,exit_reason,cpu,mem,net,fs",
            "a,suspicious,2,,0.900000,1.000000,1.000000,1.000000",
            "z,suspicious,1,,0.900000,1.000000,1.000000,1.000000",
        ]
        calls = (out / "calls.csv").read_text().splitlines()[1:]
        assert [tuple(row.split(",")[1:3]) for row in calls] == [
            ("a", "attach"), ("z", "attach"), ("a", "apply_shares"), ("z", "apply_shares"),
        ]

    def test_failed_report_write_leaves_the_error_that_stopped_the_run(
        self, tmp_path, configs_dir, capsys, caplog, refused, monkeypatch
    ):
        def no_space(destination, header, rows):
            raise OSError("no space left for supervision.csv")

        monkeypatch.setattr(cli, "write_rows", no_space)
        assert self.run_attack(tmp_path, configs_dir) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines()[-1] == "error: host refused the limit"
        assert "could not write" in caplog.text
        assert "no space left for supervision.csv" in caplog.text
        assert (tmp_path / "calls.csv").exists()

    def test_failed_export_leaves_the_error_that_stopped_the_run(
        self, tmp_path, configs_dir, capsys, caplog, refused, monkeypatch
    ):
        def no_space(self, destination):
            raise OSError("no space left for calls.csv")

        monkeypatch.setattr(FakeHostAdapter, "export_calls_csv", no_space)
        assert self.run_attack(tmp_path, configs_dir) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines()[-1] == "error: host refused the limit"
        assert "could not write" in caplog.text
        assert "no space left for calls.csv" in caplog.text

    def test_failed_export_after_a_finished_run_is_the_error(
        self, tmp_path, configs_dir, capsys, monkeypatch
    ):
        def no_space(self, destination):
            raise OSError("no space left for calls.csv")

        monkeypatch.setattr(FakeHostAdapter, "export_calls_csv", no_space)
        assert self.run_attack(tmp_path, configs_dir) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: no space left for calls.csv\n"


needs_linux = pytest.mark.skipif(
    sys.platform != "linux", reason="drives real processes with Linux signals"
)


@needs_linux
class TestSupervisePid:
    @pytest.fixture
    def sleeper(self):
        proc = subprocess.Popen(["sleep", "30"])
        yield proc
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    @pytest.fixture
    def quick_scenario(self, tmp_path):
        path = tmp_path / "live.ini"
        path.write_text(
            "[scenario]\n"
            "epochs = 3\n"
            "measurement_budget = 1\n"
            "epoch_duration_ms = 20\n"
            "\n"
            "[process.target]\n"
            "base_rate = 100.0\n"
            "response_cpu = proportional\n"
            "detector = flagger\n"
            "\n"
            "[detector.flagger]\n"
            "kind = stochastic\n"
            "tpr = 1.0\n"
            "fpr = 0.0\n"
            "ground_truth = attack\n"
            "seed = 1\n"
        )
        return path

    def test_real_process_is_throttled_then_killed(
        self, tmp_path, quick_scenario, sleeper, capsys
    ):
        code = main(
            [
                "supervise",
                "--scenario", str(quick_scenario),
                "--out", str(tmp_path),
                "--pid", str(sleeper.pid),
            ]
        )
        assert code == EXIT_OK
        assert "target: terminated after epoch 2 (detector)" in capsys.readouterr().out
        assert sleeper.wait(timeout=5) != 0
        supervision = (tmp_path / "supervision.csv").read_text().splitlines()
        assert supervision[1].startswith("target,terminated,2,detector,0.900000")

    def test_pid_mode_requires_exactly_one_process(self, tmp_path, sleeper, capsys):
        path = tmp_path / "two.ini"
        path.write_text(
            "[scenario]\n"
            "epochs = 3\n"
            "measurement_budget = 5\n"
            "\n"
            "[process.a]\n"
            "base_rate = 1.0\n"
            "detector = flagger\n"
            "\n"
            "[process.b]\n"
            "base_rate = 1.0\n"
            "detector = flagger\n"
            "\n"
            "[detector.flagger]\n"
            "kind = stochastic\n"
            "tpr = 1.0\n"
            "fpr = 0.0\n"
            "ground_truth = benign\n"
        )
        code = main(
            ["supervise", "--scenario", str(path), "--out", str(tmp_path), "--pid", str(sleeper.pid)]
        )
        assert code == EXIT_CONFIG
        assert "exactly one" in capsys.readouterr().err

    def test_two_processes_are_rejected_before_the_output_directory(
        self, tmp_path, quick_scenario, sleeper, capsys
    ):
        two = tmp_path / "two.ini"
        two.write_text(
            quick_scenario.read_text()
            + "\n[process.other]\nbase_rate = 1.0\ndetector = flagger\n"
        )
        out = tmp_path / "out"
        code = main(
            ["supervise", "--scenario", str(two), "--out", str(out), "--pid", str(sleeper.pid)]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --pid supervision needs exactly one [process.<id>] section\n"
        )
        assert not out.exists()
        assert sleeper.poll() is None

    @pytest.mark.parametrize(
        ("pid", "message"),
        [
            ("0", "pid must be between 1 and 2147483647, got 0"),
            ("-1", "pid must be between 1 and 2147483647, got -1"),
            ("99999999999", "pid must be between 1 and 2147483647, got 99999999999"),
            ("own", "pid {own} is quell's own process"),
            (
                "1",
                "pid 1 is the init of quell's pid namespace,"
                " which ignores SIGSTOP and SIGKILL sent from inside it",
            ),
        ],
        ids=["zero", "negative", "too-large", "own", "init"],
    )
    def test_pid_naming_no_single_other_process_is_rejected_before_the_output_directory(
        self, tmp_path, quick_scenario, capsys, monkeypatch, pid, message
    ):
        own = str(os.getpid())
        sent = []
        monkeypatch.setattr(os, "kill", lambda *call: sent.append(call))
        out = tmp_path / "out"
        code = main(
            [
                "supervise",
                "--scenario", str(quick_scenario),
                "--out", str(out),
                "--pid", own if pid == "own" else pid,
            ]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message.format(own=own)}\n"
        assert not out.exists()
        assert sent == []

    def test_dead_pid_is_rejected_before_the_output_directory(self, tmp_path, quick_scenario, capsys):
        child = subprocess.Popen(["true"])
        child.wait()  # reaped: the pid names no process now
        out = tmp_path / "out"
        code = main(
            ["supervise", "--scenario", str(quick_scenario), "--out", str(out), "--pid", str(child.pid)]
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: no such process: {child.pid}\n"
        assert not out.exists()


CONFIGS = Path(__file__).parent.parent / "configs"
CURVE = str(CONFIGS / "curve_boosted_trees.csv")
SUPERVISED = str(CONFIGS / "supervised_attack.ini")


TOP_USAGE = "usage: quell [-h] [--verbose] {simulate,plan,replay,supervise} ...\n"


class TestArgumentErrors:
    """Every help text, usage message and argument error is argparse's own, byte for byte.

    Each case also gives the exit code and, for an error, the start of
    its last line: with the usage line, the parts that read the same on
    every supported Python. Help goes to stdout, errors to stderr.
    """

    @staticmethod
    def exit_and_output(parse, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        return (exit_info.value.code, *capsys.readouterr())

    @pytest.mark.parametrize(
        ("argv", "code", "last_line"),
        [
            (["--help"], 0, ""),
            (["simulate", "--help"], 0, ""),
            (["plan", "--help"], 0, ""),
            (["replay", "--help"], 0, ""),
            (["supervise", "--help"], 0, ""),
            (
                ["simulate", "--scenario", "s.ini"], 2,
                "quell simulate: error: the following arguments are required: --out",
            ),
            (
                ["plan", "--curve", CURVE, "--f1", "0.9", "--fpr", "0.1"], 2,
                "quell plan: error: argument --fpr: not allowed with argument --f1",
            ),
            (
                ["supervise", "--scenario", SUPERVISED, "--out", "out"], 2,
                "quell supervise: error: one of the arguments --fake-adapter --pid is required",
            ),
            (["nope"], 2, "quell: error: argument command: invalid choice: 'nope'"),
            ([], 2, "quell: error: the following arguments are required: command"),
        ],
        ids=[
            "quell help", "simulate help", "plan help", "replay help", "supervise help",
            "missing required option", "f1 with fpr", "supervise without an adapter",
            "unknown subcommand", "no subcommand",
        ],
    )
    def test_argparse_prints_every_text(self, argv, code, last_line, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps its help to
        printed = self.exit_and_output(main, argv, capsys)
        assert printed == self.exit_and_output(cli.build_parser().parse_args, argv, capsys)
        exit_code, out, err = printed
        text, other = (out, err) if code == 0 else (err, out)
        assert (exit_code, other) == (code, "")
        command = next((arg for arg in argv if arg in ("simulate", "plan", "replay", "supervise")), None)
        assert text.startswith(f"usage: quell {command} [-h] " if command else TOP_USAGE)
        assert text.splitlines()[-1].startswith(last_line)

    # Each --help text, line by line: the usage, the description, then each
    # listed argument with its help. The comparison collapses whitespace,
    # so argparse's line wrapping does not count, and drops the headings,
    # which Python 3.10 spells "optional arguments:" for "options:".
    HELP_TEXTS = {
        "quell": [
            "usage: quell [-h] [--verbose] {simulate,plan,replay,supervise} ...",
            "Throttle-first post-detection response: simulate, plan, replay, supervise.",
            "{simulate,plan,replay,supervise}",
            "simulate run a scenario and write log.csv + slowdown.csv",
            "plan measurement budget for a detection quality target",
            "replay run a scenario with verdicts from a trace file",
            "supervise drive a host adapter epoch by epoch",
            "-h, --help show this help message and exit",
            "--verbose log progress to stderr",
        ],
        "simulate": [
            "usage: quell simulate [-h] --scenario SCENARIO --out OUT [--seed SEED]",
            "-h, --help show this help message and exit",
            "--scenario SCENARIO scenario INI file",
            "--out OUT output directory",
            "--seed SEED override the scenario seed",
        ],
        "plan": [
            "usage: quell plan [-h] --curve CURVE (--f1 F1 | --fpr FPR) [--epoch-ms EPOCH_MS]"
            " [--first-crossing]",
            "-h, --help show this help message and exit",
            "--curve CURVE efficacy curve CSV",
            "--f1 F1 require F1 at least this value",
            "--fpr FPR require FPR at most this value",
            "--epoch-ms EPOCH_MS epoch duration in ms",
            "--first-crossing use the plain first crossing instead of the sustained one",
        ],
        "replay": [
            "usage: quell replay [-h] --scenario SCENARIO --trace TRACE --out OUT [--seed SEED]",
            "-h, --help show this help message and exit",
            "--scenario SCENARIO scenario INI file",
            "--trace TRACE verdict trace CSV (epoch,process,verdict)",
            "--out OUT output directory",
            "--seed SEED override the scenario seed",
        ],
        "supervise": [
            "usage: quell supervise [-h] --scenario SCENARIO --out OUT [--seed SEED]"
            " (--fake-adapter | --pid PID)",
            "-h, --help show this help message and exit",
            "--scenario SCENARIO scenario INI file",
            "--out OUT output directory",
            "--seed SEED override the scenario seed",
            "--fake-adapter supervise scripted fake processes",
            "--pid PID supervise one real process (Linux)",
        ],
    }

    @pytest.mark.parametrize("command", list(HELP_TEXTS))
    def test_each_help_text_is_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command == "quell" else [command, "--help"]
        exit_code, out, err = self.exit_and_output(main, argv, capsys)
        assert (exit_code, err) == (0, "")
        headings = {"positional arguments:", "options:", "optional arguments:"}
        kept = " ".join(line for line in out.splitlines() if line not in headings)
        assert " ".join(kept.split()) == " ".join(self.HELP_TEXTS[command])

    def test_main_without_argv_reads_the_command_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["quell", "plan", "--curve", CURVE, "--f1", "0.9"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out.startswith("required measurements: 23\n")
        monkeypatch.setattr(sys, "argv", ["quell", "plan", "--help"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: quell plan [-h] ")


class TestCoverageUpFront:
    @pytest.mark.parametrize("command", [["simulate"], ["supervise", "--fake-adapter"]])
    def test_short_trace_fails_before_the_run(self, tmp_path, short_trace_ini, capsys, command):
        out = tmp_path / "out"
        name, *flags = command
        code = main([name, "--scenario", str(short_trace_ini), "--out", str(out), *flags])
        assert code == EXIT_RUNTIME
        assert "covers epochs" in capsys.readouterr().err
        # Rejected while loading: the output directory was never made.
        assert not out.exists()


THRESHOLD_INI = """\
[scenario]
epochs = 6
measurement_budget = 10

[process.a]
base_rate = 100
response_cpu = proportional
detector = d

[detector.d]
kind = threshold
window = 2
cutoff = 1.0
stream = stream.csv
"""


def _threshold_scenario(directory, ini=THRESHOLD_INI, values=("5.0",) * 6):
    directory.mkdir()
    rows = "".join(f"{epoch},{value}\n" for epoch, value in enumerate(values))
    (directory / "stream.csv").write_text("epoch,value\n" + rows)
    (directory / "scenario.ini").write_text(ini)
    return directory / "scenario.ini"


class TestConfigErrorsBeforeTheRun:
    """A bad value exits 2 with a message while loading, before any output is made."""

    def _simulate(self, tmp_path, scenario, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("base_rate = 100\ncombiner = 100%", "error: [process.a] combiner: "),
            ("base_rate = %(missing)s", "error: [process.a] base_rate: "),
        ],
    )
    def test_interpolation_error(self, tmp_path, capsys, line, expected):
        ini = THRESHOLD_INI.replace("base_rate = 100", line)
        err = self._simulate(tmp_path, _threshold_scenario(tmp_path / "s", ini), capsys)
        assert err.startswith(expected)

    def test_empty_process_id(self, tmp_path, capsys):
        ini = THRESHOLD_INI.replace("[process.a]", "[process. ]")
        scenario = _threshold_scenario(tmp_path / "s", ini)
        err = self._simulate(tmp_path, scenario, capsys)
        assert err == f"error: {scenario}: empty process id in [process. ]\n"

    def test_nan_cutoff(self, tmp_path, capsys):
        ini = THRESHOLD_INI.replace("cutoff = 1.0", "cutoff = nan")
        err = self._simulate(tmp_path, _threshold_scenario(tmp_path / "s", ini), capsys)
        assert err == "error: [detector.d] cutoff must be finite, got nan\n"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_epoch_duration(self, tmp_path, capsys, value):
        ini = THRESHOLD_INI.replace("[scenario]\n", f"[scenario]\nepoch_duration_ms = {value}\n")
        scenario = _threshold_scenario(tmp_path / "s", ini)
        err = self._simulate(tmp_path, scenario, capsys)
        assert err == f"error: {scenario}: epoch duration must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "values, line",
        [
            (("1.0", "inf", "-inf", "1.0", "1.0", "1.0"), 3),
            (("1.0", "1.0", "1.0", "nan", "1.0", "1.0"), 5),
        ],
    )
    def test_non_finite_stream_value(self, tmp_path, capsys, values, line):
        scenario = _threshold_scenario(tmp_path / "s", values=values)
        err = self._simulate(tmp_path, scenario, capsys)
        stream = (tmp_path / "s" / "stream.csv").resolve()
        assert err.startswith(f"error: [detector.d] {stream}:{line}: value must be finite")

    def test_stream_whose_window_sum_overflows(self, tmp_path, capsys):
        # Every value is finite, but two of them overflow math.fsum's partial sums.
        ini = THRESHOLD_INI.replace("epochs = 6", "epochs = 4")
        scenario = _threshold_scenario(tmp_path / "s", ini, values=("1e308",) * 4)
        err = self._simulate(tmp_path, scenario, capsys)
        assert err == (
            "error: [detector.d] the measurement window ending at epoch 1 sums beyond the float range\n"
        )

    def test_non_utf8_scenario_names_its_file(self, tmp_path, capsys):
        scenario = _threshold_scenario(tmp_path / "s")
        scenario.write_bytes(scenario.read_bytes().replace(b"[process.a]", b"; caf\xe9\n[process.a]"))
        err = self._simulate(tmp_path, scenario, capsys)
        assert err == f"error: {scenario}:5: not UTF-8: byte 0xe9 (invalid continuation byte)\n"

    def test_non_utf8_stream_names_its_line(self, tmp_path, capsys):
        scenario = _threshold_scenario(tmp_path / "s")
        stream = (tmp_path / "s" / "stream.csv").resolve()
        stream.write_bytes(stream.read_bytes().replace(b"2,5.0", b"2,5\xff.0"))
        err = self._simulate(tmp_path, scenario, capsys)
        assert err == f"error: [detector.d] {stream}:4: not UTF-8: byte 0xff (invalid start byte)\n"

    def test_non_utf8_curve_names_its_line(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_bytes(DIPPING_CURVE.encode().replace(b"20,0.95", b"20,0.9\xff"))
        code = main(["plan", "--curve", str(curve), "--f1", "0.9"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: {curve}:5: not UTF-8: byte 0xff (invalid start byte)\n"


class TestConsoleScript:
    def test_installed_entry_point(self, configs_dir):
        executable = shutil.which("quell")
        assert executable is not None, "the package install should expose a 'quell' script"
        result = subprocess.run(
            [executable, "plan", "--curve", str(configs_dir / "curve_boosted_trees.csv"), "--f1", "0.9"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "required measurements: 23" in result.stdout
