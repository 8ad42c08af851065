import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from quell.hostadapter import LinuxSignalAdapter

# Derandomized hypothesis runs keep the suite reproducible end to end.
settings.register_profile("repeatable", derandomize=True, max_examples=100)
settings.load_profile("repeatable")

# Make tests/reference.py importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).parent))

CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture
def configs_dir() -> Path:
    return CONFIGS


needs_linux = pytest.mark.skipif(
    sys.platform != "linux", reason="drives real processes with Linux signals"
)


@pytest.fixture
def spawn():
    """``spawn(args, **popen_kwargs)`` starts a child and returns its ``Popen``.

    A test starts at most three. After it, each child still there is
    continued (it may be stopped), killed and reaped, and its pipes are
    closed.
    """
    children = []

    def start(args, **kwargs):
        assert len(children) < 3, "a test starts at most three children"
        child = subprocess.Popen(args, **kwargs)
        children.append(child)
        return child

    yield start
    for child in children:
        with child:  # closes the pipes, then reaps
            child.send_signal(signal.SIGCONT)
            child.kill()


@pytest.fixture
def sleeper(spawn):
    """A ``sleep 30`` child of ``spawn``."""
    return spawn(["sleep", "30"])


@pytest.fixture
def linux_adapter(spawn):
    """A ``LinuxSignalAdapter``, closed after the test and before ``spawn``
    kills its children, so no duty cycler outlives its target."""
    adapter = LinuxSignalAdapter()
    yield adapter
    adapter.close()


@pytest.fixture
def short_trace_ini(tmp_path) -> Path:
    """A copy of supervised_attack.ini whose trace stops at epoch 7 of 16."""
    directory = tmp_path / "short"
    directory.mkdir()
    ini = directory / "supervised_attack.ini"
    ini.write_text((CONFIGS / "supervised_attack.ini").read_text())
    rows = (CONFIGS / "attack_trace.csv").read_text().splitlines()[:8]
    (directory / "attack_trace.csv").write_text("\n".join(rows) + "\n")
    return ini
