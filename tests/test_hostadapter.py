"""Host adapters: the scripted fake and the signal-driven Linux one."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quell.actuation import RESOURCES, ResourceShares
from quell.hostadapter import (
    Ack,
    CALLS_CSV_HEADER,
    FakeHostAdapter,
    LinuxSignalAdapter,
    ProcessHandle,
    StaleHandleError,
    format_shares,
)


class TestFormatShares:
    def test_defaults(self):
        assert format_shares(ResourceShares()) == (
            "cpu=1.000000;mem=1.000000;net=1.000000;fs=1.000000"
        )

    def test_fixed_order_and_precision(self):
        shares = ResourceShares(cpu=0.4, memory=0.936, network=1e-6, filesystem=0.25)
        assert format_shares(shares) == (
            "cpu=0.400000;mem=0.936000;net=0.000001;fs=0.250000"
        )

    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=4, max_size=4))
    def test_matches_the_joined_per_resource_form(self, values):
        shares = ResourceShares(*values)
        short = {"cpu": "cpu", "memory": "mem", "network": "net", "filesystem": "fs"}
        joined = ";".join(f"{short[name]}={shares.get(name):.6f}" for name in RESOURCES)
        assert format_shares(shares) == joined


class TestSpawnAndPoll:
    def test_spawn_logs_attach(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        assert adapter.poll(handle) is True
        assert len(adapter.calls) == 1
        record = adapter.calls[0]
        assert (record.seq, record.handle, record.call) == (0, "worker", "attach")
        assert record.args == format_shares(ResourceShares())

    def test_duplicate_ident_rejected(self):
        adapter = FakeHostAdapter()
        adapter.spawn("worker")
        with pytest.raises(ValueError):
            adapter.spawn("worker")

    @pytest.mark.parametrize(
        "call",
        [
            lambda adapter, handle: adapter.poll(handle),
            lambda adapter, handle: adapter.apply_shares(handle, ResourceShares(cpu=0.5)),
            lambda adapter, handle: adapter.terminate(handle),
        ],
        ids=["poll", "apply_shares", "terminate"],
    )
    def test_unknown_handle_is_stale(self, call):
        adapter = FakeHostAdapter()
        adapter.spawn("worker")
        with pytest.raises(StaleHandleError) as raised:
            call(adapter, ProcessHandle(ident="ghost"))
        assert str(raised.value) == "unknown handle 'ghost'"
        assert [c.call for c in adapter.calls] == ["attach"]

    def test_unknown_unsupported_resource_rejected(self):
        with pytest.raises(ValueError):
            FakeHostAdapter(unsupported=("gpu",))


class TestApplyShares:
    def test_apply_records_one_call_and_sets_shares(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        ack = adapter.apply_shares(handle, ResourceShares(cpu=0.5))
        assert ack == Ack(unsupported=())
        assert adapter.applied_shares(handle) == ResourceShares(cpu=0.5)
        applies = [c for c in adapter.calls if c.call == "apply_shares"]
        assert len(applies) == 1
        assert applies[0].args == "cpu=0.500000;mem=1.000000;net=1.000000;fs=1.000000"

    def test_redundant_apply_is_a_flagged_noop(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        adapter.apply_shares(handle, ResourceShares(cpu=0.5))
        ack = adapter.apply_shares(handle, ResourceShares(cpu=0.5))
        assert ack.noop is True
        assert adapter.applied_shares(handle) == ResourceShares(cpu=0.5)

    def test_reapplying_the_defaults_is_redundant(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        ack = adapter.apply_shares(handle, ResourceShares())
        assert ack.noop is True

    def test_identical_repeat_is_a_noop_on_a_host_with_unsupported_resources(self):
        adapter = FakeHostAdapter(unsupported=("filesystem",))
        handle = adapter.spawn("worker")
        assert adapter.apply_shares(handle, ResourceShares(cpu=0.5, filesystem=0.5)).noop is False
        assert adapter.apply_shares(handle, ResourceShares(cpu=0.5, filesystem=0.5)).noop is True

    @pytest.mark.parametrize("resource", ["memory", "filesystem"])
    def test_repeat_differing_only_in_an_unsupported_resource_is_a_noop(self, resource):
        adapter = FakeHostAdapter(unsupported=(resource,))
        handle = adapter.spawn("worker")
        asked = [ResourceShares(cpu=0.5, **{resource: 0.5}), ResourceShares(cpu=0.5, **{resource: 0.25})]
        assert adapter.apply_shares(handle, asked[0]).noop is False
        ack = adapter.apply_shares(handle, asked[1])
        assert ack == Ack(noop=True, unsupported=(resource,))
        # The host holds the requested shares merged with its own.
        assert adapter.applied_shares(handle) == ResourceShares(cpu=0.5)
        # The log still holds what was asked for.
        assert [c.args for c in adapter.calls if c.call == "apply_shares"] == [
            format_shares(shares) for shares in asked
        ]

    @pytest.mark.parametrize("unsupported", [(), ("memory",)])
    def test_returning_to_earlier_shares_applies_each_time(self, unsupported):
        # Equal shares share one log cell; a cell seen before is not a no-op
        # unless it is the one the host holds now.
        adapter = FakeHostAdapter(unsupported=unsupported)
        handle = adapter.spawn("worker")
        first, second = ResourceShares(cpu=0.5), ResourceShares(cpu=0.25, network=0.5)
        for shares in (first, second, ResourceShares(cpu=0.5)):
            assert adapter.apply_shares(handle, shares) == Ack(unsupported=unsupported)
            assert adapter.applied_shares(handle) == shares
        assert adapter.apply_shares(handle, first).noop is True

    def test_unsupported_resources_are_skipped_but_reported(self):
        adapter = FakeHostAdapter(unsupported=("memory",))
        handle = adapter.spawn("worker")
        ack = adapter.apply_shares(handle, ResourceShares(cpu=0.5, memory=0.9))
        assert ack.unsupported == ("memory",)
        assert adapter.applied_shares(handle) == ResourceShares(cpu=0.5, memory=1.0)

    def test_apply_after_exit_raises(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        adapter.terminate(handle)
        with pytest.raises(StaleHandleError, match="^process 'worker' already exited$"):
            adapter.apply_shares(handle, ResourceShares(cpu=0.5))


class TestTerminate:
    def test_terminate_live_process(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        ack = adapter.terminate(handle)
        assert ack == Ack()
        assert adapter.poll(handle) is False
        assert [c.call for c in adapter.calls] == ["attach", "terminate"]

    def test_terminate_twice_is_an_unlogged_noop(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        adapter.terminate(handle)
        before = len(adapter.calls)
        ack = adapter.terminate(handle)
        assert ack.noop is True
        assert len(adapter.calls) == before

    def test_each_outcome_is_one_shared_ack(self):
        adapter = FakeHostAdapter()
        first, second = adapter.spawn("a"), adapter.spawn("b")
        assert adapter.terminate(first) is adapter.terminate(second)
        assert adapter.terminate(first) is adapter.terminate(second)

    def test_natural_exit_behaves_like_termination(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        adapter.script_natural_exit(handle)
        assert adapter.poll(handle) is False
        assert adapter.terminate(handle).noop is True
        assert [c.call for c in adapter.calls] == ["attach"]


class TestCallExport:
    def test_csv_header_and_rows(self, tmp_path):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        adapter.apply_shares(handle, ResourceShares(cpu=0.9))
        adapter.terminate(handle)
        out = tmp_path / "calls.csv"
        adapter.export_calls_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CALLS_CSV_HEADER)
        assert lines[1] == (
            "0,worker,attach,cpu=1.000000;mem=1.000000;net=1.000000;fs=1.000000"
        )
        assert lines[2] == (
            "1,worker,apply_shares,cpu=0.900000;mem=1.000000;net=1.000000;fs=1.000000"
        )
        assert lines[3] == "2,worker,terminate,"


needs_linux = pytest.mark.skipif(
    sys.platform != "linux", reason="drives real processes with Linux signals"
)


def _proc_state(pid: int) -> str | None:
    """State letter from /proc/<pid>/stat, or None when it cannot be read."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return fields.rpartition(")")[2].split()[0]


@needs_linux
class TestLinuxSignalAdapter:
    @pytest.fixture
    def sleeper(self):
        proc = subprocess.Popen(["sleep", "30"])
        yield proc
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def test_full_control_cycle(self, sleeper):
        adapter = LinuxSignalAdapter()
        try:
            handle = adapter.attach(sleeper.pid)
            assert adapter.poll(handle) is True
            ack = adapter.apply_shares(handle, ResourceShares(cpu=0.5))
            assert ack.unsupported == ("memory", "network", "filesystem")
            time.sleep(0.05)
            restore = adapter.apply_shares(handle, ResourceShares())
            assert restore.noop is False
            assert adapter.terminate(handle).noop is False
        finally:
            adapter.close()
        assert sleeper.wait(timeout=5) != 0
        assert adapter.poll(handle) is False

    def test_apply_that_leaves_the_cpu_share_as_it_was_is_a_noop(self, sleeper):
        adapter = LinuxSignalAdapter()
        try:
            handle = adapter.attach(sleeper.pid)
            assert adapter.apply_shares(handle, ResourceShares(memory=0.5)).noop is True
            assert adapter.apply_shares(handle, ResourceShares(cpu=0.5)).noop is False
            assert adapter.apply_shares(handle, ResourceShares(cpu=0.5)).noop is True
            assert adapter.apply_shares(handle, ResourceShares(cpu=0.5, memory=0.9)).noop is True
        finally:
            adapter.close()

    def test_apply_after_close_throttles_again(self, sleeper):
        # close() stops every duty cycler, so the process runs at the full
        # share again and the same throttle must start a new cycler.
        adapter = LinuxSignalAdapter()
        try:
            handle = adapter.attach(sleeper.pid)
            assert adapter.apply_shares(handle, ResourceShares(cpu=0.5)).noop is False
            adapter.close()
            assert adapter.apply_shares(handle, ResourceShares(cpu=0.5)).noop is False
            assert adapter._cyclers[handle.ident].is_alive()
        finally:
            adapter.close()

    def test_full_share_on_a_handle_attach_never_returned_is_a_noop(self, sleeper):
        adapter = LinuxSignalAdapter()
        handle = ProcessHandle(ident=str(sleeper.pid))
        assert adapter.apply_shares(handle, ResourceShares()).noop is True
        assert adapter._cyclers == {}

    @pytest.fixture
    def sent(self, monkeypatch):
        """Signals ``os.kill`` was asked to send; none reaches a process."""
        calls = []

        def recording_kill(pid, signo):
            calls.append((pid, signo))
            raise ProcessLookupError(pid)

        monkeypatch.setattr(os, "kill", recording_kill)
        return calls

    @pytest.mark.parametrize("pid", [0, -1, -2, 2**31, 99999999999])
    def test_pid_naming_no_single_process_is_rejected_unsignalled(self, pid, sent):
        with pytest.raises(ValueError) as excinfo:
            LinuxSignalAdapter().attach(pid)
        assert str(excinfo.value) == f"pid must be between 1 and 2147483647, got {pid}"
        assert sent == []

    def test_pid_1_is_rejected_unsignalled(self, sent):
        with pytest.raises(ValueError) as excinfo:
            LinuxSignalAdapter().attach(1)
        assert str(excinfo.value) == (
            "pid 1 is the init of quell's pid namespace,"
            " which ignores SIGSTOP and SIGKILL sent from inside it"
        )
        assert sent == []

    @pytest.mark.parametrize("pid", [2, 2**31 - 1])
    def test_pids_at_the_range_ends_are_looked_up(self, pid, sent):
        with pytest.raises(StaleHandleError, match=f"^no such process: {pid}$"):
            LinuxSignalAdapter().attach(pid)
        assert {signo for _, signo in sent} == {0}

    def test_own_pid_is_rejected_unsignalled(self, sent):
        with pytest.raises(ValueError) as excinfo:
            LinuxSignalAdapter().attach(os.getpid())
        assert str(excinfo.value) == f"pid {os.getpid()} is quell's own process"
        assert sent == []

    def test_pid_quell_may_not_signal_is_rejected(self, monkeypatch):
        sent = []

        def denied_kill(pid, signo):
            sent.append((pid, signo))
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "kill", denied_kill)
        with pytest.raises(ValueError) as excinfo:
            LinuxSignalAdapter().attach(4242)
        assert str(excinfo.value) == "not permitted to signal process 4242"
        assert sent == [(4242, 0)]

    def test_attach_to_dead_pid_raises(self, sleeper):
        sleeper.kill()
        sleeper.wait()
        adapter = LinuxSignalAdapter()
        with pytest.raises(StaleHandleError):
            adapter.attach(sleeper.pid)

    def test_signalling_a_dead_pid_raises(self, sleeper):
        adapter = LinuxSignalAdapter()
        handle = adapter.attach(sleeper.pid)
        sleeper.kill()
        sleeper.wait()
        with pytest.raises(StaleHandleError):
            adapter.apply_shares(handle, ResourceShares(cpu=0.5))
        assert adapter.terminate(handle).noop is True

    def test_zombie_is_gone(self):
        child = subprocess.Popen(["sleep", "0"])
        try:
            if _proc_state(child.pid) is None:
                pytest.skip("/proc/<pid>/stat is not readable")
            deadline = time.monotonic() + 10.0
            while _proc_state(child.pid) != "Z":
                assert time.monotonic() < deadline, "the child never showed state Z"
                time.sleep(0.01)
            adapter = LinuxSignalAdapter()
            handle = ProcessHandle(ident=str(child.pid))
            threads = threading.active_count()
            assert adapter.poll(handle) is False
            with pytest.raises(StaleHandleError):
                adapter.apply_shares(handle, ResourceShares(cpu=0.5))
            with pytest.raises(StaleHandleError):
                adapter.attach(child.pid)
            assert adapter._cyclers == {}
            assert threading.active_count() == threads
            assert _proc_state(child.pid) == "Z"
        finally:
            child.wait(timeout=5)

    def test_terminating_a_zombie_signals_nothing(self, monkeypatch):
        # The child is duty-cycled, then exits on its own and stays
        # unreaped: terminate stops the cycler and kills nothing.
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE
        )
        adapter = LinuxSignalAdapter()
        try:
            if _proc_state(child.pid) is None:
                pytest.skip("/proc/<pid>/stat is not readable")
            handle = adapter.attach(child.pid)
            threads = threading.active_count()
            adapter.apply_shares(handle, ResourceShares(cpu=0.5))
            assert adapter._cyclers[handle.ident].is_alive()
            child.stdin.close()
            deadline = time.monotonic() + 10.0
            while _proc_state(child.pid) != "Z":
                assert time.monotonic() < deadline, "the child never showed state Z"
                time.sleep(0.01)
            sent = []
            kill = os.kill

            def recording_kill(pid, signo):
                sent.append(signo)
                kill(pid, signo)

            monkeypatch.setattr(os, "kill", recording_kill)
            assert adapter.terminate(handle) == Ack(noop=True)
            monkeypatch.undo()
            assert signal.SIGKILL not in sent
            assert adapter._cyclers == {}
            assert threading.active_count() == threads
            assert _proc_state(child.pid) == "Z"
        finally:
            adapter.close()
            child.wait(timeout=5)

    def test_zombie_leader_with_a_running_thread_is_alive(self):
        # The main thread exits while a second thread sleeps: /proc shows
        # the leader as Z, but the process runs on and must stay under
        # supervision until it is killed.
        code = (
            "import ctypes, threading, time\n"
            "threading.Thread(target=time.sleep, args=(30,)).start()\n"
            "ctypes.CDLL(None).pthread_exit(None)\n"
        )
        child = subprocess.Popen([sys.executable, "-c", code])
        adapter = LinuxSignalAdapter()
        try:
            if _proc_state(child.pid) is None:
                pytest.skip("/proc/<pid>/stat is not readable")
            deadline = time.monotonic() + 10.0
            while _proc_state(child.pid) != "Z":
                assert child.poll() is None, "the child exited as a whole"
                assert time.monotonic() < deadline, "the leader never showed state Z"
                time.sleep(0.01)
            handle = adapter.attach(child.pid)
            assert adapter.poll(handle) is True
            ack = adapter.apply_shares(handle, ResourceShares(cpu=0.5))
            assert adapter._cyclers[handle.ident].is_alive()
            assert adapter.terminate(handle) == Ack()
            assert child.wait(timeout=5) == -signal.SIGKILL
            assert adapter.poll(handle) is False
        finally:
            adapter.close()
            if child.poll() is None:
                child.kill()
            child.wait(timeout=5)
