"""The base of quell's immutable value types, with no generated code.

``@dataclass`` builds a class's methods from source with ``exec`` when
its module is imported, and every CLI start paid that for each class.
A ``Value`` subclass lists its fields as ``__slots__``, in constructor
order (a slot whose name starts with ``_`` holds something that is not
a field), and its hand-written ``__init__`` validates, then stores them
with ``_fill``. The base gives it what the frozen dataclass gave:
``==`` and ``hash`` over the tuple of fields (``NotImplemented`` for
another class), a ``Name(field=value, ...)`` repr, ``AttributeError``
on assignment or deletion, and pickling and copying, which rebuild the
value through its constructor. The fields are also its
``__match_args__``.
"""

__all__ = ["Value"]


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # A KeyError for a subclass without slots of its own, which would
        # otherwise inherit no fields and compare equal to every instance.
        slots = cls.__dict__["__slots__"]
        cls.__match_args__ = tuple(name for name in slots if not name.startswith("_"))

    def _fill(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()
