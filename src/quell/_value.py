"""The base of quell's immutable value types, with no generated code.

``@dataclass`` builds a class's methods from source with ``exec`` when
its module is imported, and every CLI start paid that for each class.
A ``Value`` subclass lists its fields as ``__slots__``, in constructor
order (a slot whose name starts with ``_`` holds something that is not
a field), and its hand-written ``__init__`` validates, then stores them
with ``_fill``. The base keeps each field's slot descriptor ``__set__``
in ``_setters``, in field order: ``_fill`` stores through them, which
costs less than ``object.__setattr__`` by name. The base gives it what
the frozen dataclass gave: ``==`` and ``hash`` over the tuple of fields
(``NotImplemented`` for another class), a ``Name(field=value, ...)``
repr, ``AttributeError`` on assignment or deletion, and pickling and
copying, which rebuild the value through its constructor. The fields
are also its ``__match_args__``.

A field that holds a mapping holds a read-only ``MappingProxyType``
over the constructor's own copy, so a validated value stays valid. The
repr shows it as the dict it wraps, and pickling and copying pass that
dict to the constructor, because a ``mappingproxy`` does not pickle.

A type built on every epoch is built by a private builder instead, with
no type call and no ``__init__`` frame: it stores each field into
``object.__new__`` of the type's ``draft`` with a plain
``value.field = x``, then freezes the value with one
``value.__class__ = cls``, so no draft instance leaves it. Only those
types have a draft, because each is one more type created at import.
"""

from types import MappingProxyType

__all__ = ["Value", "draft"]


def _plain(field):
    return dict(field) if field.__class__ is MappingProxyType else field


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # A KeyError for a subclass without slots of its own, which would
        # otherwise inherit no fields and compare equal to every instance.
        slots = cls.__dict__["__slots__"]
        cls.__match_args__ = tuple(name for name in slots if not name.startswith("_"))
        cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__match_args__])

    def _fill(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_plain(getattr(self, name))!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([_plain(field) for field in self._astuple()])


def draft(cls: type) -> type:
    """A subclass of ``cls`` whose fields are set by plain slot stores.

    A slot descriptor's ``__set__`` packs its arguments into a tuple on
    every call; the interpreter's own slot store does not, but it takes
    that store only on a type whose ``__setattr__`` and ``__delattr__``
    are both ``object``'s. CPython keeps the two in one type slot, so a
    class that overrides only one takes the slow path for both. The
    draft adds no slots, so one ``__class__`` assignment makes an
    instance a ``cls``, which refuses assignment and deletion.
    """
    namespace = {
        "__slots__": (),
        "__module__": cls.__module__,
        "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__,
    }
    return type(f"_{cls.__name__}Draft", (cls,), namespace)
