"""Exception types shared across the package, and :func:`lookup`, the one
check of a name against a finite domain: every name the API accepts (a
blade, a structure label, an ideal, a diagonal family, ...) is a key of a
table, and a name outside it is one typed error that quotes it."""


class GeobyteError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GeobyteError):
    """An argument is outside the mathematical domain of the operation
    (non-unit axis, wrong grade, mismatched spinor ideals, ...)."""


class UnknownBladeError(DomainError, KeyError):
    """A basis blade name that is none of the eight.  Also a
    :class:`KeyError`, as a failed name lookup."""

    __str__ = DomainError.__str__  # KeyError's would quote the message


class SpanError(DomainError):
    """A multivector was decomposed against a basis family whose span
    does not contain it.  Carries the norm of the out-of-span remainder."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ParseError(GeobyteError):
    """Syntax error in the expression language.

    ``offset`` is the byte offset of the failure, ``expected`` the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


def lookup(table, key, what: str, error: type = DomainError):
    """``table[key]``; ``error(f"{what} {key!r}")`` for a key that is
    missing or cannot be hashed."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise error(f"{what} {key!r}") from None
