"""The package's public names: each module's ``__all__``, re-exported once."""

import importlib

import quell

MODULES = [
    "actuation",
    "config",
    "detectors",
    "efficacy",
    "hostadapter",
    "simulation",
    "supervisor",
    "threat",
]


def module(name):
    return importlib.import_module(f"quell.{name}")


def test_no_name_is_listed_twice():
    assert len(quell.__all__) == len(set(quell.__all__))


def test_names_are_the_version_and_every_module_all():
    names = [public for name in MODULES for public in module(name).__all__]
    assert quell.__all__ == ["__version__"] + names


def test_each_name_is_the_module_object():
    for name in MODULES:
        for public in module(name).__all__:
            assert getattr(quell, public) is getattr(module(name), public), public
