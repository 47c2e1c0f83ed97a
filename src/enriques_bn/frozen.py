"""The base of the package's immutable value types: slotted classes, not
dataclasses, whose import (``inspect``, ``ast``, ``dis``) and generated
methods cost each process more start-up than most commands compute."""

from operator import attrgetter

set_field = object.__setattr__  # how a Frozen value sets its fields, once


class Frozen:
    """``__init__`` sets each field with ``set_field``, and any later
    assignment raises AttributeError.  Repr, equality, hashing and pickling
    read the fields named in ``_fields``, two or more, else TypeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if len(cls._fields) < 2:  # of one, attrgetter returns the bare value
            raise TypeError(f"{cls.__name__} needs two or more fields")
        cls._getter = attrgetter(*cls._fields)  # the field values, in C

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return self._getter(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values()
