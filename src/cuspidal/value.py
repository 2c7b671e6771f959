"""The frozen value base of the package's small immutable types.

A subclass declares `__slots__`; `Value.__init__` assigns its fields, given
positionally, through the slot descriptors. A type that checks, normalises or
derives calls it first, then checks or sets the slots that cache values derived
from the fields. Instances compare, hash, print and pickle as a frozen dataclass
would: by the tuple of their fields, the slots or those named by the `fields`
class keyword, after those of its bases, in declaration order. No code is generated.

A type made with the metaclass `Interned` (QuadField and Order, the keys of the
quadratic memos) is built once per field tuple in a session: a later call with
the same fields returns that instance, whose hash was taken when it was built.
Its `cache_clear` empties the table; values built before still compare and hash
by their fields.
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
        if other is self:
            return True
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


def _stored_hash(self) -> int:
    return self._hash


class Interned(type):
    """Metaclass of a Value type whose instances are kept in a table keyed by their
    positional fields, one table per class, a subclass too. The first call with a
    field tuple runs the type's own __init__, then stores the instance with the hash
    of its fields in a slot of its own; a raise stores nothing. cache_clear, bound
    per class, empties the table. The type names its fields with the `fields` class
    keyword, as the hash slot is not one."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        if "__slots__" in namespace:
            namespace["__slots__"] = (*namespace["__slots__"], "_hash")
        namespace.setdefault("__hash__", _stored_hash)
        return super().__new__(mcls, name, bases, namespace, **kwargs)

    def __init__(cls, name, bases, namespace, **kwargs) -> None:
        super().__init__(name, bases, namespace, **kwargs)
        cls._table = {}
        cls.cache_clear = cls._table.clear

    def __call__(cls, *values):
        obj = cls._table.get(values)
        if obj is None:
            obj = super().__call__(*values)
            object.__setattr__(obj, "_hash", hash(cls._values(obj)))
            cls._table[values] = obj
        return obj
