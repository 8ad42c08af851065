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

``import quell`` loads no submodule. The public names, each module's
``__all__`` in ``_EXPORTING`` order, and the submodules resolve on first
access (PEP 562), so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTING = (
    "actuation",
    "config",
    "detectors",
    "efficacy",
    "hostadapter",
    "simulation",
    "supervisor",
    "threat",
)
_SUBMODULES = frozenset(_EXPORTING) | {"_value", "cli", "csvio"}


def _export() -> list[str]:
    """Bind every exporting module's public names here, once; the package's ``__all__``."""
    namespace = globals()
    if "__all__" not in namespace:
        names = ["__version__"]
        for module_name in _EXPORTING:
            module = importlib.import_module(f"{__name__}.{module_name}")
            namespace.update((name, getattr(module, name)) for name in module.__all__)
            names += module.__all__
        namespace["__all__"] = names
    return namespace["__all__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    # A dunder other than __all__ is a probe (copy, pickle, inspect): it loads nothing.
    if name == "__all__" or not name.startswith("__"):
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_export(), *_SUBMODULES})
