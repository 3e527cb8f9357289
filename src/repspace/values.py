"""Value classes on ``__slots__``, without ``dataclasses``.

A class whose fields are its own ``__slots__`` gets from :class:`Record`
the field-wise equality and the ``Name(field=value, ...)`` repr of a
dataclass, and from :class:`Frozen` also hashing, a
``FrozenInstanceError`` on assignment or deletion, and pickling and
copying that store the fields as they are.  A frozen class's
``__init__`` validates its arguments and stores each field with ``_set``.

Importing ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``, and
each decoration ``exec``s generated methods: several milliseconds of
start-up for every command-line call, which these base classes avoid.
"""

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A field of a frozen value was assigned or deleted."""


class Record:
    """Equality over the fields and a dataclass-style repr; unhashable, as
    a class that defines ``__eq__`` alone is."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({inner})"


class Frozen(Record):
    """An immutable :class:`Record`, hashed over its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return (restore, (self.__class__, self._fields()))


def restore(cls, fields):
    """An instance of a :class:`Frozen` class holding ``fields`` as they are,
    neither converted nor validated: how pickling and copying rebuild one."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        _set(obj, name, value)
    return obj
