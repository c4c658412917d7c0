"""Exception types shared across the package, and its four checks of
outside input: :func:`lookup`, of a name against a finite domain (each is a
key of a table); :func:`instance`, of an argument's class; :func:`read_json`,
of a JSON object's keys, with :func:`read_numbers` for its numbers; and the
number readers :func:`real` (with :func:`tolerance` on top), :func:`reals`
(with :func:`require_finite` on top) and :func:`complexes`.
A number is what ``float`` (``complex``) can represent: other text and an
int too large for a double are a :class:`DomainError` that names them, a
value of the wrong type a :class:`TypeError`.  What a reader returns is
not converted again."""

import math


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


def _shown(value) -> str:
    """``repr(value)``; its type for an int too long for ``repr``, which
    refuses to print more digits than the interpreter's limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def lookup(table, key, what: str, error: type = DomainError):
    """``table[key]``; ``error(f"{what} {key!r}")`` for a key that is
    missing or cannot be hashed."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise error(f"{what} {_shown(key)}") from None


def instance(x, cls: type | tuple[type, ...], name: str):
    """``x`` if it is a ``cls`` (one of them, for a tuple); :class:`TypeError`
    naming the parameter ``name``, the classes and the type of ``x`` otherwise."""
    if isinstance(x, cls):
        return x
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    raise TypeError(f"{name} must be a {names}, got {type(x).__name__}")


def read_json(obj, keys: tuple[str, ...], what: str) -> list:
    """The values of the JSON object ``obj`` in ``keys`` order; :class:`DomainError`
    naming ``obj`` if it is not an object, or else its missing and extra keys."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} JSON must be an object, got {obj!r}")
    if obj.keys() != set(keys):
        missing, extra = [k for k in keys if k not in obj], [k for k in obj if k not in keys]
        raise DomainError(f"{what} JSON keys must be {keys}; missing {missing}, extra {extra}")
    return [obj[k] for k in keys]


def read_numbers(values, what: str, n: int | None = None) -> tuple[float, ...]:
    """The list ``values`` of a JSON object as :func:`require_finite` reads
    it, after a :class:`DomainError` ``what`` for a str, bytes or bool in
    it, which ``float`` would read as a number."""
    if isinstance(values, (list, tuple)) and not any(
        isinstance(v, (str, bytes, bool)) for v in values
    ):
        return require_finite(values, what, n)
    raise DomainError(f"{what}, got {_shown(values)}")


def real(x, what: str) -> float:
    """``float(x)``, the reader of one real number: :class:`DomainError`
    ``what`` naming ``x`` if ``float`` cannot represent it, and
    :class:`TypeError` for a value of the wrong type.  NaN and inf pass."""
    try:
        return float(x)
    except (ValueError, OverflowError):
        raise DomainError(f"{what}, got {_shown(x)}") from None


def tolerance(tol) -> float:
    """``tol`` read by :func:`real`; :class:`DomainError` naming it if it is NaN or negative."""
    what = "a tolerance must be a nonnegative real number"
    t = real(tol, what)
    if not t >= 0:
        raise DomainError(f"{what}, got {tol!r}")
    return t


def reals(values, what: str, n: int | None = None) -> tuple[float, ...]:
    """``values`` as a tuple of floats, ``n`` of them if given, by the rule
    of :func:`real`; :class:`DomainError` ``what`` naming them, and their
    count if it is wrong."""
    try:  # a string is iterable, but its characters are not numbers
        out = None if isinstance(values, (str, bytes)) else tuple(map(float, values))
    except (ValueError, OverflowError):
        out = None
    if out is None or n is not None and len(out) != n:
        count = f"{len(out)}: " if out else ""
        raise DomainError(f"{what}, got {count}{_shown(values)}")
    return out


def require_finite(values, what: str, n: int | None = None) -> tuple[float, ...]:
    """:func:`reals` of ``values``, each finite: :class:`DomainError`
    ``what`` naming them otherwise, for a value of the wrong type too."""
    try:
        out = reals(values, what, n)
    except TypeError:
        raise DomainError(f"{what}, got {_shown(values)}") from None
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{what}, got {out!r}")
    return out


def complexes(values, what: str) -> tuple[complex, ...]:
    """``values`` as a tuple of complex numbers, by the rule of :func:`real`."""
    try:
        return tuple(map(complex, values))
    except (ValueError, OverflowError):
        raise DomainError(f"{what}, got {_shown(values)}") from None
