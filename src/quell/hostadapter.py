"""Host process control behind one small surface.

An adapter exposes the three calls the supervisor makes: ``poll`` (is
the process still there), ``apply_shares`` (set resource limits to
shares of the attach-time defaults), and ``terminate``. Handle validity
is checked before every call; applying shares to a process that is gone
raises ``StaleHandleError``, while ``terminate`` acknowledges it as a
no-op.

``FakeHostAdapter`` is fully scripted and is what every test drives. It
keeps an append-only call log (exportable as CSV) and flags redundant
applies, so idempotence is observable.

``LinuxSignalAdapter`` is a thin real implementation for one platform:
``terminate`` sends SIGKILL, and a CPU share below 1.0 is enforced by a
duty-cycle thread that stops (SIGSTOP) and continues (SIGCONT) the
process over a fixed period. A zombie (exited but not yet reaped) counts
as gone once its whole thread group has exited, so ``terminate``
acknowledges it as a no-op without a signal. Memory, network, and
filesystem limits are reported unsupported per-resource; supported
resources still apply.
"""

from __future__ import annotations

import io
import os
import signal
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

from .actuation import DEFAULT_SHARES, RESOURCES, ResourceShares
from .csvio import write_rows

__all__ = [
    "StaleHandleError",
    "ProcessHandle",
    "Ack",
    "CallRecord",
    "FakeHostAdapter",
    "LinuxSignalAdapter",
    "HostAdapter",
    "CALLS_CSV_HEADER",
    "format_shares",
]

CALLS_CSV_HEADER = ("seq", "handle", "call", "args")


class StaleHandleError(Exception):
    """The handle's process already exited."""


@dataclass(frozen=True)
class ProcessHandle:
    """Opaque reference to one controlled process (its pid, for
    ``LinuxSignalAdapter``). The adapter, not the handle, keeps the
    process's current shares."""

    ident: str


@dataclass(frozen=True)
class Ack:
    """Acknowledgment for one adapter call.

    ``noop`` marks idempotent repeats (terminating an exited process,
    re-applying current shares).
    ``unsupported`` lists resources this host cannot limit; the rest
    were still applied.
    """

    call: str
    noop: bool = False
    applied: tuple[str, ...] = ()
    unsupported: tuple[str, ...] = ()


class HostAdapter(Protocol):
    def poll(self, handle: ProcessHandle) -> bool: ...

    def apply_shares(self, handle: ProcessHandle, shares: ResourceShares) -> Ack: ...

    def terminate(self, handle: ProcessHandle) -> Ack: ...


def format_shares(shares: ResourceShares) -> str:
    """Deterministic single-field rendering used in call logs."""
    return (
        f"cpu={shares.cpu:.6f};mem={shares.memory:.6f};"
        f"net={shares.network:.6f};fs={shares.filesystem:.6f}"
    )


@dataclass
class CallRecord:
    seq: int
    handle: str
    call: str
    args: str
    redundant: bool = False

    def csv_row(self) -> tuple[str, ...]:
        return (str(self.seq), self.handle, self.call, self.args)


@dataclass
class _FakeProcess:
    shares: ResourceShares
    alive: bool = True


class FakeHostAdapter:
    """Scripted in-memory host: every call is recorded, nothing sleeps.

    ``unsupported`` simulates a host that cannot limit some resources;
    those components of an apply are skipped and reported while the rest
    apply.
    """

    def __init__(self, unsupported: tuple[str, ...] = ()) -> None:
        unknown = [r for r in unsupported if r not in RESOURCES]
        if unknown:
            raise ValueError(f"unknown resources: {unknown}")
        self.unsupported = tuple(r for r in RESOURCES if r in set(unsupported))
        self._applied = tuple(r for r in RESOURCES if r not in self.unsupported)
        self.calls: list[CallRecord] = []
        self._processes: dict[str, _FakeProcess] = {}

    # -- scripting surface -------------------------------------------------

    def spawn(self, ident: str) -> ProcessHandle:
        if ident in self._processes:
            raise ValueError(f"process {ident!r} already exists")
        self._processes[ident] = _FakeProcess(shares=DEFAULT_SHARES)
        self._log(ident, "attach", format_shares(DEFAULT_SHARES))
        return ProcessHandle(ident=ident)

    def script_natural_exit(self, handle: ProcessHandle) -> None:
        """Mark the process as having exited on its own."""
        self._lookup(handle).alive = False

    # -- adapter surface ----------------------------------------------------

    def poll(self, handle: ProcessHandle) -> bool:
        return self._lookup(handle).alive

    def apply_shares(self, handle: ProcessHandle, shares: ResourceShares) -> Ack:
        proc = self._live(handle)
        redundant = shares == proc.shares
        self._log(handle.ident, "apply_shares", format_shares(shares), redundant=redundant)
        if redundant:
            return Ack(call="apply_shares", noop=True, applied=(), unsupported=self.unsupported)
        if self.unsupported:
            # Resources this host cannot limit keep their current share.
            shares = replace(shares, **{r: proc.shares.get(r) for r in self.unsupported})
        proc.shares = shares
        return Ack(call="apply_shares", applied=self._applied, unsupported=self.unsupported)

    def terminate(self, handle: ProcessHandle) -> Ack:
        proc = self._lookup(handle)
        if not proc.alive:
            return Ack(call="terminate", noop=True)
        proc.alive = False
        self._log(handle.ident, "terminate", "")
        return Ack(call="terminate")

    # -- inspection and export ----------------------------------------------

    def applied_shares(self, handle: ProcessHandle) -> ResourceShares:
        return self._lookup(handle).shares

    def export_calls_csv(self, destination: str | Path | io.TextIOBase) -> None:
        write_rows(destination, CALLS_CSV_HEADER, (record.csv_row() for record in self.calls))

    # -- internals ------------------------------------------------------------

    def _log(self, ident: str, call: str, args: str, redundant: bool = False) -> None:
        self.calls.append(
            CallRecord(seq=len(self.calls), handle=ident, call=call, args=args, redundant=redundant)
        )

    def _lookup(self, handle: ProcessHandle) -> _FakeProcess:
        proc = self._processes.get(handle.ident)
        if proc is None:
            raise StaleHandleError(f"unknown handle {handle.ident!r}")
        return proc

    def _live(self, handle: ProcessHandle) -> _FakeProcess:
        proc = self._lookup(handle)
        if not proc.alive:
            raise StaleHandleError(f"process {handle.ident!r} already exited")
        return proc


class _DutyCycler(threading.Thread):
    """Stops and continues one pid so it runs a fraction of each period."""

    def __init__(self, pid: int, period_ms: float) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.period_ms = period_ms
        self.fraction = 1.0
        self.stop_event = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing loop
        try:
            while not self.stop_event.is_set():
                fraction = self.fraction
                run_s = self.period_ms * fraction / 1000.0
                stop_s = self.period_ms * (1.0 - fraction) / 1000.0
                os.kill(self.pid, signal.SIGCONT)
                if self.stop_event.wait(run_s):
                    break
                if stop_s > 0:
                    os.kill(self.pid, signal.SIGSTOP)
                    if self.stop_event.wait(stop_s):
                        break
        except ProcessLookupError:
            return
        finally:
            try:
                os.kill(self.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass


class LinuxSignalAdapter:
    """Signal-driven control of real local processes (Linux only).

    CPU is the one resource this adapter can limit, via duty-cycling;
    the other resources are acknowledged as unsupported. Intended for
    supervising a single pid from the command line, not for fleets.
    """

    PERIOD_MS = 100.0
    _UNSUPPORTED = ("memory", "network", "filesystem")

    def __init__(self) -> None:
        self._cyclers: dict[str, _DutyCycler] = {}
        self._shares: dict[str, ResourceShares] = {}

    def attach(self, pid: int) -> ProcessHandle:
        if not self._pid_exists(pid):
            raise StaleHandleError(f"no such process: {pid}")
        handle = ProcessHandle(ident=str(pid))
        self._shares[handle.ident] = DEFAULT_SHARES
        return handle

    def poll(self, handle: ProcessHandle) -> bool:
        return self._pid_exists(int(handle.ident))

    def apply_shares(self, handle: ProcessHandle, shares: ResourceShares) -> Ack:
        pid = self._require_alive(handle)
        if shares == self._shares.get(handle.ident):
            return Ack(call="apply_shares", noop=True, unsupported=self._UNSUPPORTED)
        if shares.cpu >= 1.0:
            self._stop_cycler(handle.ident)
        else:
            cycler = self._cyclers.get(handle.ident)
            if cycler is None or not cycler.is_alive():
                cycler = _DutyCycler(pid, self.PERIOD_MS)
                cycler.fraction = shares.cpu
                self._cyclers[handle.ident] = cycler
                cycler.start()
            else:
                cycler.fraction = shares.cpu
        self._shares[handle.ident] = shares
        return Ack(call="apply_shares", applied=("cpu",), unsupported=self._UNSUPPORTED)

    def terminate(self, handle: ProcessHandle) -> Ack:
        self._stop_cycler(handle.ident)
        pid = int(handle.ident)
        # A zombie has nothing left to kill, so it is acknowledged as
        # already gone, the same as a reaped pid.
        if not self._pid_exists(pid):
            return Ack(call="terminate", noop=True)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return Ack(call="terminate", noop=True)
        return Ack(call="terminate")

    def close(self) -> None:
        for ident in list(self._cyclers):
            self._stop_cycler(ident)

    def _require_alive(self, handle: ProcessHandle) -> int:
        pid = int(handle.ident)
        if not self._pid_exists(pid):
            raise StaleHandleError(f"process {pid} already exited")
        return pid

    def _stop_cycler(self, ident: str) -> None:
        cycler = self._cyclers.pop(ident, None)
        if cycler is not None:
            cycler.stop_event.set()
            cycler.join(timeout=1.0)

    @staticmethod
    def _pid_exists(pid: int) -> bool:
        """Whether ``pid`` is a process that can still run.

        ``kill(pid, 0)`` succeeds for a zombie (exited, not yet reaped),
        so ``/proc/<pid>/stat`` decides: the process is gone when its
        state is ``Z`` (or ``X``, dead) and its thread count is down to
        one. A leader whose main thread exited while other threads run
        also shows ``Z``, but its thread count stays above one, and the
        process keeps running; signals to the pid still reach the whole
        group. Without a readable, complete ``/proc`` entry the ``kill``
        answer stands.
        """
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass
        try:
            with open(f"/proc/{pid}/stat", "rb") as stat:
                fields = stat.read()
        except OSError:
            return True
        # The command name in parentheses may hold spaces and ')', so the
        # state is the first field after the last ')' and num_threads the
        # eighteenth.
        after_name = fields.rpartition(b")")[2].split()
        if len(after_name) < 18 or after_name[0] not in (b"Z", b"X"):
            return True
        return int(after_name[17]) > 1
