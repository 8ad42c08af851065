"""Post-detection response engine.

Once a detector flags a process, termination on the first verdict is
reckless while the detector's quality is still climbing, and doing
nothing hands the attacker the whole detection window. This package
implements the middle path: keep a bounded per-process threat ledger,
throttle the process's resources in proportion to how the ledger moves,
and only terminate (or fully restore) once the detector has spent its
measurement budget. A desk-scale simulator quantifies what the throttled
process still gets done, and a planner converts detection quality
targets into measurement budgets.
"""

from .actuation import *  # noqa: F403
from .config import *  # noqa: F403
from .detectors import *  # noqa: F403
from .efficacy import *  # noqa: F403
from .hostadapter import *  # noqa: F403
from .simulation import *  # noqa: F403
from .supervisor import *  # noqa: F403
from .threat import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += actuation.__all__
__all__ += config.__all__
__all__ += detectors.__all__
__all__ += efficacy.__all__
__all__ += hostadapter.__all__
__all__ += simulation.__all__
__all__ += supervisor.__all__
__all__ += threat.__all__
