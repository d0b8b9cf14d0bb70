"""The base class of the package's value types.

A value type is a plain class that lists its fields as annotations, in
order; a class-level value, as in ``millis: int = 0``, is that field's
default.  A type that checks or normalises its input writes an ``__init__``
that ends with ``super().__init__(...)``; any other type declares its
fields and nothing more.  ``dataclasses`` is not used: importing it pulls in
``inspect``, ``ast`` and ``dis``, and each decoration runs ``exec`` on the
methods it generates, which together took two thirds of the package's
import time.  The shared ``__init__`` costs more per call than a generated
one: ``Permutation`` of eight letters takes about 1.7 µs against 1.0 µs
(Python 3.11).  :func:`permfib.tilings.enumerate_tilings` skips it, and the
tiling counts build no ``Tiling`` at all: they count the row pairs that
``enumerate_tilings`` wraps.
"""

from __future__ import annotations

from typing import Any


class Value:
    """Field binding, equality, hash, ``repr`` and frozen fields, as a frozen
    dataclass would derive them from the annotated fields.

    ``__init__`` takes the fields in order, by position or by keyword, and
    raises :class:`TypeError` naming the class and the field for a value too
    many, an unknown field, a field given twice, or a missing field with no
    default.  It sets each field with ``object.__setattr__``, as setting or
    deleting an attribute raises :class:`AttributeError`; writing to
    ``__dict__`` instead would be quicker but, on CPython 3.11 and later,
    makes every later read of an attribute of that instance slower.
    Instances keep their ``__dict__``, so ``functools.cached_property`` works
    on them.  Two instances are equal when they are of the same class and
    their fields are equal, and the hash is that of the tuple of field values.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields, put = self._fields, object.__setattr__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            put(self, name, value)

    def _bind(self, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """Every field's value in order: ``args``, then keywords or defaults."""
        cls, fields = self.__class__.__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} fields {fields}, got {len(args)} values")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls}() has no field {name!r}")
            if name in fields[: len(args)]:
                raise TypeError(f"{cls}() got field {name!r} by position and by keyword")
        values = {**self._defaults, **kwargs}
        for name in fields[len(args) :]:
            if name not in values:
                raise TypeError(f"{cls}() missing field {name!r}")
        return args + tuple(values[name] for name in fields[len(args) :])

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
