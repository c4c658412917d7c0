"""Pickling and copying: the immutable value types, and dataclasses that
hold them, round-trip bit for bit, and unpickling goes back through each
type's checked constructor."""

import copy
import dataclasses
import pickle

import pytest

from geobyte import (
    Multivector,
    Quaternion,
    Spinor,
    StructureCoords,
    basis_element,
    decompose_report,
    parse,
    project,
    to_matrix,
)
from geobyte.errors import DomainError, ParseError, SpanError

M = Multivector([1.5, -0.0, 3.0, -4.25, 0.0, 6.0, -7.0, 1e-300])

COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _bits(x) -> bytes:
    if isinstance(x, Spinor):
        return _bits(x.value) + f" {x.ideal} {x.variance}".encode()
    if isinstance(x, Quaternion):
        x = x.value
    return (x.coeffs if isinstance(x, Multivector) else x.array).tobytes()


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize(
    "value",
    [M, Quaternion(2.0 * Multivector.basis("e0") - M.grade_project(2), require_unit=False),
     to_matrix(M), project(M, "negative", "left")],
    ids=["Multivector", "Quaternion", "ComplexMatrix2", "Spinor"],
)
def test_round_trip_is_bit_identical(value, how):
    back = COPIES[how](value)
    assert type(back) is type(value)
    assert _bits(back) == _bits(value)


def test_unpickling_runs_the_constructor_checks():
    text = pickle.dumps(Quaternion(2.0 * Multivector.basis("e0"), require_unit=False), protocol=0)
    assert text.count(b"(F2.0\nF0.0\n") == 1
    with pytest.raises(DomainError):  # an odd part
        pickle.loads(text.replace(b"(F2.0\nF0.0\n", b"(F2.0\nF1.0\n"))
    with pytest.raises(DomainError):  # a non-finite coefficient
        pickle.loads(text.replace(b"(F2.0\n", b"(Finf\n"))
    with pytest.raises(ValueError):  # a ninth coefficient
        pickle.loads(text.replace(b"(F2.0\n", b"(F2.0\nF0.0\n"))


def test_unpickling_a_spinor_runs_the_ideal_check():
    s = project(basis_element("e1"), "positive", "right")
    text = pickle.dumps(s, protocol=0)
    assert pickle.loads(text) == s
    assert text.count(b"positive") == 1 and text.count(b"contravariant") == 1
    with pytest.raises(DomainError, match="does not lie in the negative"):
        pickle.loads(text.replace(b"positive", b"negative"))
    with pytest.raises(DomainError, match="does not lie in the positive covariant"):
        pickle.loads(text.replace(b"contravariant", b"covariant"))


def test_dataclasses_holding_values_copy():
    s = project(M, "positive", "right")
    assert copy.deepcopy(s) == s
    d = dataclasses.asdict(decompose_report(M))
    assert d["value"] == M and type(d["structure"]) is StructureCoords and (
        d["structure"] == decompose_report(M).structure
    )


@pytest.mark.parametrize("how", sorted(COPIES))
def test_expression_trees_copy(how):
    tree = parse("rev(-1/2*(e1+i)) - A*bar(P3)")
    assert COPIES[how](tree) == tree


@pytest.mark.parametrize("how", sorted(COPIES))
def test_errors_with_fields_round_trip(how):
    # an error raised in a worker process comes back pickled
    span = COPIES[how](SpanError("outside the span (residual 1.5)", 1.5))
    assert type(span) is SpanError and span.residual == 1.5
    assert str(span) == "outside the span (residual 1.5)"
    err = ParseError("unexpected character '?'", 3, {"token"})
    err.source = "argv"  # an attribute set after construction travels too
    back = COPIES[how](err)
    assert type(back) is ParseError and str(back) == str(err) == "unexpected character '?' at offset 3"
    assert (back.offset, back.expected, back.source) == (3, frozenset({"token"}), "argv")
