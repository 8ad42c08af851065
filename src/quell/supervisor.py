"""Epoch loop that drives a host adapter from detector verdicts.

Each epoch: poll the process, fetch the verdict, and run the simulator's
``respond`` transition on it. A terminated ledger terminates the
process; otherwise the shares go to the adapter only when ``respond``
hands back new ones, which it does exactly when a share moved, so the
adapter sees one apply call per share-changing epoch and none
otherwise. A process that disappears on its own, before the poll or
between the poll and the apply, is recorded as completed and left
alone. Processes are attached and stepped in the id order a
``Scenario`` holds them in, as the simulator steps them, so a verdict
source that runs dry raises the simulator's ``ScenarioError`` for the
same process. A process is finished exactly when its ledger is
terminated, and the loop ends once every process is finished. An error
that stops the run carries the report so far.

Resources the host cannot limit are logged once per run, at the first
apply that reports them. Paced runs start epoch ``k + 1`` at
``start + k * pace`` on the monotonic clock, so a slow epoch does not
delay the ones after it, and nothing sleeps after the last epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .actuation import DEFAULT_SHARES, ResourceShares
from .detectors import SourceExhausted, VerdictSource, next_verdict
from .simulation import Scenario, ScenarioError, respond
from .threat import LifecycleState, ThreatLedger, mark_completed

if TYPE_CHECKING:
    import threading

    from .hostadapter import HostAdapter, ProcessHandle

# Not called here: bench/tracing.py wraps these names in this module as well.
from .actuation import actuate, actuate_reset  # noqa: F401
from .threat import resolve_terminable, step_epoch  # noqa: F401

__all__ = ["SupervisionReport", "supervise", "SUPERVISION_CSV_HEADER"]

SUPERVISION_CSV_HEADER = ("process", "final_state", "epochs_run", "exit_reason", "cpu", "mem", "net", "fs")

# A module-level alias reads faster than the enum class attribute in the loop.
_TERMINATED = LifecycleState.TERMINATED


# A dataclass: tests/test_supervisor.py copies one with ``dataclasses.replace``.
@dataclass(frozen=True)
class SupervisionReport:
    """How one supervised process ended: its state, epochs run, exit reason and last shares."""

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


class _Supervised:
    """One process's state while ``supervise`` steps it."""

    __slots__ = ("process_id", "source", "handle", "ledger", "shares", "epochs_run")

    def __init__(
        self,
        process_id: str,
        source: VerdictSource,
        handle: ProcessHandle,
        ledger: ThreatLedger,
        shares: ResourceShares,
        epochs_run: int = 0,
    ) -> None:
        self.process_id = process_id
        self.source = source
        self.handle = handle
        self.ledger = ledger
        self.shares = shares
        self.epochs_run = epochs_run


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
    spaces epoch starts for real processes; leave it at 0.0 for fakes.
    ``stop`` allows a signal handler to end the loop cleanly. An error
    raised on the way carries the states of the processes attached by
    then on its ``reports`` attribute, as the tuple this would return.
    """
    # Bound here, not at the top: only a supervised run needs the host
    # adapters' module or logging, so the other commands start without them.
    import logging

    from .hostadapter import StaleHandleError

    logger = logging.getLogger(__name__)
    supervised = []
    try:
        for spec in scenario.processes:
            if handles is not None and spec.process_id in handles:
                handle = handles[spec.process_id]
            else:
                handle = adapter.spawn(spec.process_id)  # type: ignore[attr-defined]
            supervised.append(
                _Supervised(spec.process_id, spec.source, handle, ThreatLedger(), DEFAULT_SHARES)
            )

        live = supervised
        warned = False
        start = time.monotonic()
        for epoch in range(1, scenario.epochs):
            if pace_seconds > 0:
                delay = start + (epoch - 1) * pace_seconds - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            if stop is not None and stop.is_set():
                logger.info("stop requested at epoch %d", epoch)
                break
            for state in live:
                state.epochs_run = epoch
                if not adapter.poll(state.handle):
                    state.ledger = mark_completed(state.ledger)
                    logger.info("%s exited on its own at epoch %d", state.process_id, epoch)
                    continue
                try:
                    verdict = next_verdict(state.source, epoch)
                except SourceExhausted as exc:
                    raise ScenarioError(f"process {state.process_id!r}: {exc}") from exc
                ledger, shares = respond(state.ledger, state.shares, verdict, scenario)
                state.ledger = ledger
                if ledger.state is _TERMINATED:
                    adapter.terminate(state.handle)
                elif shares is not state.shares:
                    try:
                        ack = adapter.apply_shares(state.handle, shares)
                    except StaleHandleError:
                        state.ledger = mark_completed(state.ledger)
                        logger.info(
                            "%s exited before its shares applied at epoch %d", state.process_id, epoch
                        )
                        continue
                    if ack.unsupported and not warned:
                        warned = True
                        logger.warning(
                            "%s: resources not limitable on this host: %s",
                            state.handle.ident,
                            ", ".join(ack.unsupported),
                        )
                    state.shares = shares
            live = [state for state in live if state.ledger.state is not _TERMINATED]
            if not live:
                break
    except BaseException as exc:
        exc.reports = _reports(supervised)  # type: ignore[attr-defined]
        raise
    return _reports(supervised)


def _reports(supervised: list[_Supervised]) -> tuple[SupervisionReport, ...]:
    return tuple(
        SupervisionReport(
            state.process_id, state.ledger.state.value, state.epochs_run,
            state.ledger.exit_reason, state.shares,
        )
        for state in supervised
    )
