import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Derandomized hypothesis runs keep the suite reproducible end to end.
settings.register_profile("repeatable", derandomize=True, max_examples=100)
settings.load_profile("repeatable")

# Make tests/reference.py importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).parent))

CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture
def configs_dir() -> Path:
    return CONFIGS


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
