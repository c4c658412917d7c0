"""Base of geobyte's immutable value records.

A record is a ``__slots__`` class whose slots are its fields, in order.
It is equal only to a record of the same class with equal fields,
hashable, shown like a dataclass (``Name(field=value, ...)``), and
pickled and copied back through its own constructor, so unpickling runs
the same checks as construction.  Setting or deleting an attribute
raises :class:`AttributeError`.

Each record spells out its ``__init__`` and stores its fields with
:data:`_set`; a record with an invariant checks it in ``__post_init__``,
which its ``__init__`` calls last.  Plain classes, because
``dataclasses`` and building frozen dataclasses were most of the
package's import time; not ``NamedTuple``, whose records of different
classes compare equal.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._fields())

    def _immutable(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable
