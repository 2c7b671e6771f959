"""The frozen value base of the package's small immutable types.

A subclass declares `__slots__`; `Value.__init__` assigns its fields, given
positionally, through the slot descriptors. A type that checks, normalises or
derives calls it first, then checks or sets the slots that cache values derived
from the fields. Instances compare, hash, print and pickle as a frozen dataclass
would: by the tuple of their fields, the slots or those named by the `fields`
class keyword, after those of its bases, in declaration order. No code is generated.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: tuple[str, ...] | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ()) if fields is None else fields
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} fields, got {len(values)}")
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return self.__class__, self._values(self)
