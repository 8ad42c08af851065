"""Host process control behind one small surface.

An adapter exposes the three calls the supervisor makes: ``poll`` (is
the process still there), ``apply_shares`` (set resource limits to
shares of the attach-time defaults), and ``terminate``. The last two
answer with an ``Ack``: ``noop`` marks a call that changed nothing the
host controls, and ``unsupported`` names the resources the host cannot
limit (every other resource was applied). Handle validity is checked
before every call; applying shares to a process that is gone raises
``StaleHandleError``, while ``terminate`` acknowledges it as a no-op.

``FakeHostAdapter`` is fully scripted and is what every test drives. It
keeps an append-only call log (exportable as CSV), and its ``Ack`` marks
a redundant apply as a no-op, so idempotence is observable. The log is
compact: one ``(handle, call, args)`` tuple per call, whose ``args`` is
formatted when the call is made, once per distinct shares value, so
equal shares share one string. Each process keeps that string, its
cell, for the shares the host holds, and an apply is a no-op exactly
when the cell of the shares it leaves is that very string; on a host
with unsupported resources, the shares it leaves are the requested
ones merged with the held ones, and the merged shares are formatted
for their cell. ``poll`` and ``apply_shares``, called on every epoch,
look the process up themselves, not through ``_lookup``. ``calls``
builds the ``CallRecord`` list from the log on each read and returns a
fresh list, and the CSV export spells each row straight from the log as
one line. Acks are immutable, so each adapter answers with instances
built once, one per outcome.

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
from pathlib import Path
from typing import Iterator, Protocol

from ._value import Value
from .actuation import DEFAULT_SHARES, RESOURCES, ResourceShares
from .csvio import quote_cell, write_lines

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


class ProcessHandle(Value):
    """Opaque reference to one controlled process (its pid, for
    ``LinuxSignalAdapter``). The adapter, not the handle, keeps the
    process's current shares."""

    __slots__ = ("ident",)
    ident: str

    def __init__(self, ident: str) -> None:
        self._fill(ident)


class Ack(Value):
    """Acknowledgment for one adapter call.

    ``noop`` marks a call that changed nothing the host controls:
    terminating an exited process, or an apply whose every limitable
    share already holds its requested value, whatever it asked of the
    resources the host cannot limit.
    ``unsupported`` lists resources this host cannot limit; the rest
    were still applied.
    """

    __slots__ = ("noop", "unsupported")
    noop: bool
    unsupported: tuple[str, ...]

    def __init__(self, noop: bool = False, unsupported: tuple[str, ...] = ()) -> None:
        self._fill(noop, unsupported)


_DONE = Ack()
_NOOP = Ack(noop=True)


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


class CallRecord(Value):
    """One adapter call as ``calls.csv`` spells it."""

    __slots__ = ("seq", "handle", "call", "args")
    seq: int
    handle: str
    call: str
    args: str

    def __init__(self, seq: int, handle: str, call: str, args: str) -> None:
        self._fill(seq, handle, call, args)

    def csv_row(self) -> tuple[str, ...]:
        return (str(self.seq), self.handle, self.call, self.args)


class _FakeProcess:
    """A scripted process: its applied shares, their call-log cell, and
    whether it still runs."""

    __slots__ = ("shares", "cell", "alive")

    def __init__(self, shares: ResourceShares, cell: str, alive: bool = True) -> None:
        self.shares = shares
        self.cell = cell
        self.alive = alive


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
        self._processes: dict[str, _FakeProcess] = {}
        self._log: list[tuple[str, str, str]] = []
        self._formatted: dict[tuple[float, float, float, float], str] = {}
        self._applied = Ack(unsupported=self.unsupported)
        self._unchanged = Ack(noop=True, unsupported=self.unsupported)

    # -- scripting surface -------------------------------------------------

    def spawn(self, ident: str) -> ProcessHandle:
        if ident in self._processes:
            raise ValueError(f"process {ident!r} already exists")
        cell = self._format(DEFAULT_SHARES)
        self._processes[ident] = _FakeProcess(DEFAULT_SHARES, cell)
        self._log.append((ident, "attach", cell))
        return ProcessHandle(ident=ident)

    def script_natural_exit(self, handle: ProcessHandle) -> None:
        """Mark the process as having exited on its own."""
        self._lookup(handle).alive = False

    # -- adapter surface ----------------------------------------------------

    def poll(self, handle: ProcessHandle) -> bool:
        proc = self._processes.get(handle.ident)
        if proc is None:
            raise StaleHandleError(f"unknown handle {handle.ident!r}")
        return proc.alive

    def apply_shares(self, handle: ProcessHandle, shares: ResourceShares) -> Ack:
        ident = handle.ident
        proc = self._processes.get(ident)
        if proc is None:
            raise StaleHandleError(f"unknown handle {ident!r}")
        if not proc.alive:
            raise StaleHandleError(f"process {ident!r} already exited")
        cell = self._format(shares)
        self._log.append((ident, "apply_shares", cell))
        if self.unsupported:
            # Resources this host cannot limit keep their current share.
            kept, current = self.unsupported, proc.shares
            shares = ResourceShares(*[(current if r in kept else shares).get(r) for r in RESOURCES])
            cell = self._format(shares)
        # Equal shares share one cell, so the cell's identity stands for them.
        if cell is proc.cell:
            return self._unchanged
        proc.shares = shares
        proc.cell = cell
        return self._applied

    def terminate(self, handle: ProcessHandle) -> Ack:
        proc = self._lookup(handle)
        if not proc.alive:
            return _NOOP
        proc.alive = False
        self._log.append((handle.ident, "terminate", ""))
        return _DONE

    # -- inspection and export ----------------------------------------------

    def applied_shares(self, handle: ProcessHandle) -> ResourceShares:
        return self._lookup(handle).shares

    @property
    def calls(self) -> list[CallRecord]:
        """Every call so far, in order; a new list on each read."""
        return [CallRecord(seq, *entry) for seq, entry in enumerate(self._log)]

    def export_calls_csv(self, destination: str | Path | io.TextIOBase) -> None:
        """Write ``calls.csv``: the bytes ``write_rows`` gives over each
        ``csv_row`` of ``calls``.

        A call name and a ``format_shares`` cell hold only letters, digits,
        ``.``, ``=`` and ``;``, none of which the writer would quote, so each
        row is one f-string; each handle is quoted once. The rows stream out
        as they are spelled.
        """
        write_lines(destination, CALLS_CSV_HEADER, self._csv_lines())

    # -- internals ------------------------------------------------------------

    def _csv_lines(self) -> Iterator[str]:
        ids: dict[str, str] = {}
        for seq, (ident, call, args) in enumerate(self._log):
            id_cell = ids.get(ident)
            if id_cell is None:
                id_cell = ids[ident] = quote_cell(ident)
            yield f"{seq},{id_cell},{call},{args}\n"

    def _format(self, shares: ResourceShares) -> str:
        # Shares lie in (0, 1], so no key is a NaN or a signed zero, and
        # equal keys always format alike.
        key = (shares.cpu, shares.memory, shares.network, shares.filesystem)
        args = self._formatted.get(key)
        if args is None:
            args = self._formatted[key] = format_shares(shares)
        return args

    def _lookup(self, handle: ProcessHandle) -> _FakeProcess:
        proc = self._processes.get(handle.ident)
        if proc is None:
            raise StaleHandleError(f"unknown handle {handle.ident!r}")
        return proc


def _proc_stat(pid: int) -> tuple[str, int, int] | None:
    """State letter, thread count and ``utime + stime`` clock ticks of
    ``pid``, from ``/proc/<pid>/stat``; None when the entry is missing,
    unreadable or short.

    The command name in parentheses may hold spaces and ')', so fields
    are counted after the last ')': the state is the first, utime and
    stime the twelfth and thirteenth, and num_threads the eighteenth.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            fields = stat.read().rpartition(b")")[2].split()
    except OSError:
        return None
    if len(fields) < 18:
        return None
    return fields[0].decode(), int(fields[17]), int(fields[11]) + int(fields[12])


class _DutyCycler(threading.Thread):
    """Stops and continues one pid so it runs a fraction of each
    ``LinuxSignalAdapter.PERIOD_MS``."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.fraction = 1.0
        self.stop_event = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing loop
        period_ms = LinuxSignalAdapter.PERIOD_MS
        try:
            while not self.stop_event.is_set():
                fraction = self.fraction
                run_s = period_ms * fraction / 1000.0
                stop_s = period_ms * (1.0 - fraction) / 1000.0
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
    the other resources are acknowledged as unsupported. The CPU share
    the host holds is the fraction of the handle's running duty cycler,
    or 1.0 when none runs (after ``close`` too), and an apply that asks
    for that share is a no-op. Intended for supervising a single pid
    from the command line, not for fleets.
    """

    PERIOD_MS = 100.0
    _PID_MAX = 2**31 - 1  # the largest C ``pid_t``
    _UNSUPPORTED = ("memory", "network", "filesystem")
    _APPLIED = Ack(unsupported=_UNSUPPORTED)
    _UNCHANGED = Ack(noop=True, unsupported=_UNSUPPORTED)

    def __init__(self) -> None:
        self._cyclers: dict[str, _DutyCycler] = {}

    def attach(self, pid: int) -> ProcessHandle:
        """Handle for ``pid``, which must name one process other than quell.

        Pid 0 and negative pids address process groups, a pid past the
        largest ``pid_t`` addresses nothing, quell's own pid would stop
        quell itself, and pid 1 ignores the signals quell would send it;
        each is rejected before any signal is sent. A process quell may
        not signal could be neither throttled nor killed, so it is
        rejected too.
        """
        if not 1 <= pid <= self._PID_MAX:
            raise ValueError(f"pid must be between 1 and {self._PID_MAX}, got {pid}")
        if pid == 1:
            raise ValueError(
                "pid 1 is the init of quell's pid namespace,"
                " which ignores SIGSTOP and SIGKILL sent from inside it"
            )
        if pid == os.getpid():
            raise ValueError(f"pid {pid} is quell's own process")
        try:
            os.kill(pid, 0)
        except PermissionError:
            raise ValueError(f"not permitted to signal process {pid}") from None
        except ProcessLookupError:
            pass
        if not self._pid_exists(pid):
            raise StaleHandleError(f"no such process: {pid}")
        return ProcessHandle(ident=str(pid))

    def poll(self, handle: ProcessHandle) -> bool:
        return self._pid_exists(int(handle.ident))

    def apply_shares(self, handle: ProcessHandle, shares: ResourceShares) -> Ack:
        pid = int(handle.ident)
        if not self._pid_exists(pid):
            raise StaleHandleError(f"process {pid} already exited")
        # The running cycler is the one record of the share the host holds.
        cycler = self._cyclers.get(handle.ident)
        if cycler is not None and not cycler.is_alive():
            cycler = None
        if shares.cpu == (1.0 if cycler is None else cycler.fraction):
            return self._UNCHANGED
        if shares.cpu >= 1.0:
            self._stop_cycler(handle.ident)
        elif cycler is None:
            cycler = self._cyclers[handle.ident] = _DutyCycler(pid)
            cycler.fraction = shares.cpu
            cycler.start()
        else:
            cycler.fraction = shares.cpu
        return self._APPLIED

    def terminate(self, handle: ProcessHandle) -> Ack:
        self._stop_cycler(handle.ident)
        pid = int(handle.ident)
        # A zombie has nothing left to kill, so it is acknowledged as
        # already gone, the same as a reaped pid.
        if not self._pid_exists(pid):
            return _NOOP
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return _NOOP
        return _DONE

    def close(self) -> None:
        for ident in list(self._cyclers):
            self._stop_cycler(ident)

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
        stat = _proc_stat(pid)
        return stat is None or stat[0] not in ("Z", "X") or stat[1] > 1
