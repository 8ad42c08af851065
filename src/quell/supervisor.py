"""Epoch loop that drives a host adapter from detector verdicts.

Each epoch: poll the process, fetch the verdict, and run the simulator's
``respond`` transition on it. A terminated ledger terminates the
process; otherwise the new shares go to the adapter only when they
changed, so the adapter sees exactly one apply call per share-changing
epoch and none otherwise. A process that disappears on its own, before
the poll or between the poll and the apply, is recorded as completed
and left alone.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from .actuation import DEFAULT_SHARES, ResourceShares
from .detectors import next_verdict
from .hostadapter import HostAdapter, ProcessHandle, StaleHandleError
from .simulation import Scenario, respond
from .threat import LifecycleState, ThreatLedger, mark_completed

# Not called here: bench/tracing.py wraps these names in this module as well.
from .actuation import actuate, actuate_reset  # noqa: F401
from .threat import resolve_terminable, step_epoch  # noqa: F401

__all__ = ["SupervisionReport", "supervise", "SUPERVISION_CSV_HEADER"]

SUPERVISION_CSV_HEADER = ("process", "final_state", "epochs_run", "exit_reason", "cpu", "mem", "net", "fs")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SupervisionReport:
    process_id: str
    final_state: str
    epochs_run: int
    exit_reason: str | None
    shares: ResourceShares

    def csv_row(self) -> tuple[str, ...]:
        return (
            self.process_id,
            self.final_state,
            str(self.epochs_run),
            self.exit_reason or "",
            f"{self.shares.cpu:.6f}",
            f"{self.shares.memory:.6f}",
            f"{self.shares.network:.6f}",
            f"{self.shares.filesystem:.6f}",
        )


@dataclass
class _Supervised:
    spec_index: int
    handle: ProcessHandle
    ledger: ThreatLedger
    shares: ResourceShares
    epochs_run: int = 0
    done: bool = False


def supervise(
    scenario: Scenario,
    adapter: HostAdapter,
    *,
    handles: dict[str, ProcessHandle] | None = None,
    pace_seconds: float = 0.0,
    stop: threading.Event | None = None,
) -> tuple[SupervisionReport, ...]:
    """Run the scenario's policies against live processes.

    ``handles`` maps process ids to pre-attached handles; without it the
    adapter must offer ``spawn`` (the fake adapter does). ``pace_seconds``
    sleeps between epochs for real processes; leave it at 0.0 for fakes.
    ``stop`` allows a signal handler to end the loop cleanly.
    """
    supervised: dict[str, _Supervised] = {}
    for index, spec in enumerate(scenario.processes):
        if handles is not None and spec.process_id in handles:
            handle = handles[spec.process_id]
        else:
            handle = adapter.spawn(spec.process_id)  # type: ignore[attr-defined]
        supervised[spec.process_id] = _Supervised(
            spec_index=index, handle=handle, ledger=ThreatLedger(), shares=DEFAULT_SHARES
        )

    for epoch in range(1, scenario.epochs):
        if stop is not None and stop.is_set():
            logger.info("stop requested at epoch %d", epoch)
            break
        live = [(pid, s) for pid, s in supervised.items() if not s.done]
        if not live:
            break
        for process_id, state in live:
            spec = scenario.processes[state.spec_index]
            state.epochs_run = epoch
            if not adapter.poll(state.handle):
                state.ledger = mark_completed(state.ledger)
                state.done = True
                logger.info("%s exited on its own at epoch %d", process_id, epoch)
                continue
            verdict = next_verdict(spec.source, epoch)
            state.ledger, new_shares = respond(state.ledger, state.shares, verdict, scenario)
            if state.ledger.state is LifecycleState.TERMINATED:
                adapter.terminate(state.handle)
                state.done = True
                continue
            try:
                _apply_if_changed(adapter, state, new_shares)
            except StaleHandleError:
                state.ledger = mark_completed(state.ledger)
                state.done = True
                logger.info("%s exited before its shares applied at epoch %d", process_id, epoch)
        if pace_seconds > 0:
            time.sleep(pace_seconds)

    reports = []
    for process_id in sorted(supervised):
        state = supervised[process_id]
        reports.append(
            SupervisionReport(
                process_id=process_id,
                final_state=state.ledger.state.value,
                epochs_run=state.epochs_run,
                exit_reason=state.ledger.exit_reason,
                shares=state.shares,
            )
        )
    return tuple(reports)


def _apply_if_changed(adapter: HostAdapter, state: _Supervised, new_shares: ResourceShares) -> None:
    """Push shares to the adapter only when they changed."""
    if new_shares == state.shares:
        return
    ack = adapter.apply_shares(state.handle, new_shares)
    if ack.unsupported:
        logger.warning(
            "%s: resources not limitable on this host: %s",
            state.handle.ident,
            ", ".join(ack.unsupported),
        )
    state.shares = new_shares
