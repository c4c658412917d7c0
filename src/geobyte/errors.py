"""Exception types shared across the package, and the two checks of
outside input: :func:`lookup`, of a name against a finite domain (a blade,
a structure label, an ideal, a diagonal family, ...: each is a key of a
table), and :func:`read_json`, of a JSON object's keys."""


class GeobyteError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GeobyteError, ValueError):
    """An argument is outside the mathematical domain of the operation
    (non-unit axis, wrong grade, mismatched spinor ideals, ...)."""


class UnknownBladeError(DomainError, KeyError):
    """A basis blade name that is none of the eight.  Also a
    :class:`KeyError`, as a failed name lookup."""

    __str__ = DomainError.__str__  # KeyError's would quote the message


class UnknownLabelError(DomainError, KeyError):
    """A structure label that is none of the eight.  Also a
    :class:`KeyError`, as a failed name lookup."""

    __str__ = DomainError.__str__


class SpanError(DomainError):
    """A multivector was decomposed against a basis family whose span
    does not contain it.  Carries the norm of the out-of-span remainder."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # pickle and copy rebuild through __init__
        return type(self), (self.args[0], self.residual), vars(self)


class ParseError(GeobyteError):
    """Syntax error in the expression language.

    ``offset`` is the byte offset of the failure, ``expected`` the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which appends the offset
        message = self.args[0].removesuffix(f" at offset {self.offset}")
        return type(self), (message, self.offset, self.expected), vars(self)


def lookup(table, key, what: str, error: type = DomainError):
    """``table[key]``; ``error(f"{what} {key!r}")`` for a key that is
    missing or cannot be hashed."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise error(f"{what} {key!r}") from None


def read_json(obj, keys: tuple[str, ...], what: str) -> list:
    """The values of the JSON object ``obj`` in ``keys`` order; :class:`DomainError`
    naming ``obj`` if it is not an object, or else its missing and extra keys."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} JSON must be an object, got {obj!r}")
    if obj.keys() != set(keys):
        missing, extra = [k for k in keys if k not in obj], [k for k in obj if k not in keys]
        raise DomainError(f"{what} JSON keys must be {keys}; missing {missing}, extra {extra}")
    return [obj[k] for k in keys]
