"""Base of geobyte's immutable values.

A record is a ``__slots__`` class whose fields are its slots, its bases'
first (a string ``__slots__`` is one field).  It is equal only to a record
of the same class whose fields are equal one by one, a tuple field item by
item, so a NaN field is unequal even to itself.  It is hashable, shown like
a dataclass (``Name(field=value, ...)``), and pickled and copied back
through its own constructor, so unpickling runs the same checks as
construction.  Setting or deleting an attribute raises
:class:`AttributeError`.

Creating a subclass compiles straight-line functions over its fields:
``self._fields()``, their tuple; ``cls._trusted(field, ...)``, which stores
them unchecked, for values whose invariant the caller has established; and,
when the class declares fields and writes no ``__init__``, an ``__init__``
that stores them and then calls ``self.__post_init__()``, the record's
check, if it has one.  A class that converts its arguments writes its own
``__init__`` and stores with :data:`_set`.  Plain classes, because
``dataclasses`` and building frozen dataclasses were most of the package's
import time; not ``NamedTuple``, whose records of different classes
compare equal.

A subclass that adds fields below such a hand-written ``__init__`` keeps
its conversion and checks: the generated ``__init__`` passes the inherited
fields to that ``__init__``, then stores its own.  Its ``__reduce__`` takes
the leading constructor arguments from the converting class's
``__reduce__`` (which may write them in another form than the fields, or
add options after them) and appends its own fields.

A record's last ``_ARITY`` fields are its children (the expression
nodes').  ``==``, ``hash``, ``repr`` and pickling read it through one
explicit-stack walk, :func:`_walk`, so no depth or chain length recurses;
a value with its own ``repr`` or pickling (a ``Multivector``'s repr)
stands for itself there.  A record with children pickles as the flat list
of its walk, which :func:`_rebuild` folds back through each node's
constructor.
"""

from operator import eq as _eq

_set = object.__setattr__


class Record:
    __slots__ = ()
    _FIELDS: tuple = ()
    #: the number of trailing fields that are children, which :func:`_walk` descends into
    _ARITY = 0
    #: the nearest class that writes its own ``__init__``, and the number
    #: of leading fields that ``__init__`` stores (0: no such class)
    _CONVERTER: tuple = (None, 0)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__slots__", ())
        cls._FIELDS = fields = cls._FIELDS + ((own,) if isinstance(own, str) else tuple(own))
        if "__init__" in vars(cls):
            cls._CONVERTER = (cls, len(fields))
        converter, k = cls._CONVERTER
        params = ", ".join(fields)
        stores = [f"    _set{i}(self, {f})\n" for i, f in enumerate(fields)]
        src = f"def _trusted({params}):\n    self = _new(_cls)\n{''.join(stores)}    return self\n"
        src += f"def _fields(self):\n    return ({''.join(f'self.{f}, ' for f in fields)})\n"
        if own and "__init__" not in vars(cls):
            convert = f"    _converter.__init__(self, {', '.join(fields[:k])})\n" if k else ""
            check = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
            src += f"def __init__(self, {params}):\n{convert}{''.join(stores[k:])}{check}"
            if k and "__reduce__" not in vars(cls):
                added = "".join(f" self.{f}," for f in fields[k:])
                src += (
                    "def __reduce__(self):\n"
                    f"    return type(self), (*_converter.__reduce__(self)[1][:{k}],{added})\n"
                )
        namespace = {
            "__name__": cls.__module__, "_new": object.__new__, "_cls": cls, "_converter": converter
        }
        namespace.update((f"_set{i}", getattr(cls, f).__set__) for i, f in enumerate(fields))
        exec(compile(src, f"<record {cls.__qualname__}>", "exec"), namespace)
        for name in ("_trusted", "_fields", "__init__", "__reduce__"):
            if name in namespace:
                namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, namespace[name])
        cls._trusted = staticmethod(cls._trusted)

    def _shape(self) -> list:
        """Each value of :func:`_walk`: ``self`` and each record whose class
        keeps the generic pickling as (class, fields other than the
        children), any other value as (None, value)."""
        return [
            (type(n), n._fields()[: len(n._FIELDS) - n._ARITY])
            if n is self or type(n).__reduce__ is Record.__reduce__ else (None, n)
            for n in _walk(self)
        ]

    def _key(self) -> list:
        """What ``==`` compares item by item and ``hash`` hashes: each pair of
        :meth:`_shape`, each tuple in it opened into its length, as a 1-tuple,
        and its items, so a NaN item is unequal to itself (``tuple ==`` would
        match it by identity)."""
        key = []
        for cls, values in self._shape():
            key.append(cls)
            for v in values if cls else (values,):
                if type(v) is tuple:
                    key.append((len(v),))
                    key += v
                else:
                    key.append(v)
        return key

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = self._key(), other._key()
        return len(mine) == len(theirs) and all(map(_eq, mine, theirs))

    def __hash__(self):
        return hash(tuple(self._key()))

    def __repr__(self):
        parts, todo = [], [self]  # ``todo``: records, and text already formatted
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            pieces = [f"{type(item).__name__}("]
            for k, name in enumerate(item._FIELDS):
                value = getattr(item, name)
                shown = value if type(value).__repr__ is Record.__repr__ else repr(value)
                pieces += (f"{', ' if k else ''}{name}=", shown)
            pieces.append(")")
            todo += reversed(pieces)
        return "".join(parts)

    def __reduce__(self):
        if self._ARITY:
            return _rebuild, (self._shape(),)
        return type(self), self._fields()

    def _immutable(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable


def _walk(record) -> list:
    """``record`` and its descendants, each node before its children, its
    last child first: the reverse is the post-order, left to right."""
    nodes, todo = [], [record]
    while todo:
        node = todo.pop()
        nodes.append(node)
        if isinstance(node, Record) and node._ARITY:
            todo += node._fields()[-node._ARITY :]
    return nodes


def _rebuild(shape: list):
    """The record of :meth:`Record._shape` ``shape``, folded on one stack:
    each node is its class called on its fields and its children."""
    values = []
    for cls, value in reversed(shape):
        if cls is not None:
            cut = len(values) - cls._ARITY
            value = cls(*value, *values[cut:])
            del values[cut:]
        values.append(value)
    return values[0]
