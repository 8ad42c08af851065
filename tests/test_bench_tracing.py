"""The benchmark tracer can still wrap every layer function it names.

``bench/tracing.py`` replaces functions at the module attributes their
callers use. If a refactor drops one of those names, installing the
tracer fails here rather than in the middle of a traced benchmark run.
"""

from pathlib import Path

import quell.cli
import quell.config
import quell.simulation
import quell.supervisor
import quell.threat
from quell.actuation import ActuatorPolicy
from quell.detectors import TraceSource
from quell.hostadapter import FakeHostAdapter
from quell.simulation import ProcessSpec, ProgressModel, Scenario
from quell.supervisor import supervise
from quell.threat import AssessmentPolicy, Verdict

BENCH = Path(__file__).parent.parent / "bench"


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        source = TraceSource((Verdict.MALICIOUS,) * 4, start_epoch=1)
        scenario = Scenario(
            processes=(ProcessSpec("attack", ProgressModel(base_rate=1.0), source),),
            measurement_budget=3,
            penalty_policy=AssessmentPolicy.incremental(),
            compensation_policy=AssessmentPolicy.incremental(),
            actuator=ActuatorPolicy(),
            epochs=5,
        )
        supervise(scenario, FakeHostAdapter())
        tracer.end_operation()
    finally:
        tracer.uninstall()
    calls = tracer.stats.calls
    assert calls["threat.step_epoch"] == 3
    assert calls["threat.resolve_terminable"] == 1
    assert tracer.stats.events["terminated"] == 1
    assert calls["hostadapter.terminate"] == 1
    assert not tracer.installed
    assert quell.simulation.step_epoch is quell.threat.step_epoch
    assert quell.supervisor.supervise is supervise


def test_simulate_calls_every_traced_layer_once(monkeypatch, tmp_path, configs_dir, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        ini = configs_dir / "worked_attack.ini"
        assert quell.cli.main(["simulate", "--scenario", str(ini), "--out", str(tmp_path)]) == 0
        tracer.end_operation()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.stats.calls
    for name in (
        "cli.main.simulate",
        "simulation.run",
        "simulation.slowdown_reports",
        "simulation.write_log",
        "simulation.write_slowdown",
    ):
        assert calls[name] == 1, name
    # The baseline is computed in closed form, not by a second run.
    assert calls["simulation.baseline"] == 0


def traced_calls(monkeypatch, operation):
    """Run ``operation`` once under the tracer; its calls and events."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        operation()
        tracer.end_operation()
    finally:
        tracer.uninstall()
    return tracer.stats.calls, tracer.stats.events


def test_a_supervise_fleet_operation_reaches_every_traced_name(monkeypatch, tmp_path):
    # The loop binds the adapter's methods once and the steps build values
    # without their constructors; neither may hide a call from the tracer.
    monkeypatch.syspath_prepend(str(BENCH))
    import fleet

    scenario = quell.config.load_scenario(fleet.write_supervise_fleet(tmp_path, 1))
    calls, events = traced_calls(
        monkeypatch, lambda: quell.supervisor.supervise(scenario, FakeHostAdapter())
    )
    assert calls["threat.step_epoch"] == 45_000
    assert calls["threat.resolve_terminable"] == 461
    assert calls["hostadapter.poll"] == 45_461
    assert calls["hostadapter.apply_shares"] == 22_127
    assert calls["hostadapter.terminate"] == 100
    assert calls["actuation.actuate"] == 45_000
    assert events["terminated"] == 100
    assert calls["supervisor.supervise"] == 1


def test_a_sim_fleet_simulate_reaches_every_traced_name(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import fleet

    ini = fleet.write_sim_fleet(tmp_path / "input", 1)
    argv = ["simulate", "--scenario", str(ini), "--out", str(tmp_path / "out")]
    calls, events = traced_calls(monkeypatch, lambda: quell.cli.main(argv))
    capsys.readouterr()
    assert calls["threat.step_epoch"] == 3_000
    assert calls["threat.resolve_terminable"] == 1_620
    assert calls["actuation.actuate"] == 3_000
    assert events["records"] == 4_770
    assert calls["simulation.run"] == 1
