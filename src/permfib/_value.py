"""The base class of the package's value types.

A value type is a plain class that lists its fields as annotations and
writes its own ``__init__``, checks included.  :class:`Value` derives
equality, hashing, ``repr`` and immutability from those fields, as a frozen
dataclass would.  ``dataclasses`` is not used: importing it pulls in
``inspect``, ``ast`` and ``dis``, and each decoration runs ``exec`` on the
methods it generates, which together took two thirds of the package's
import time.
"""

from __future__ import annotations


class Value:
    """Equality, hash, ``repr`` and frozen fields from the annotated fields.

    Two instances are equal when they are of the same class and their fields
    are equal, and the hash is that of the tuple of field values.  Setting or
    deleting an attribute raises :class:`AttributeError`, so ``__init__``
    sets each field with ``object.__setattr__``; writing to ``__dict__``
    instead would be quicker but, on CPython 3.11 and later, makes every
    later read of an attribute of that instance slower.  Instances keep
    their ``__dict__``, so ``functools.cached_property`` works on them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
