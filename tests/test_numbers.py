"""Numbers the API takes are read once, by the readers of
:mod:`geobyte.errors`.  A value that ``float`` (or ``complex``) cannot
represent is a :class:`DomainError` that names it, a value of the wrong type
stays a :class:`TypeError`, and a JSON number must not be a str, bytes or
bool.  What was accepted before builds the same value, bit for bit."""

import math
import pickle
import random
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geobyte import (
    AxisAngle,
    ComplexMatrix2,
    ComplexScalar,
    EulerRodrigues,
    Multivector,
    Spinor,
    StructureCoords,
    basis_element,
    complex_multiply,
    grade_project,
    linear_combine,
    project,
    quaternion_from_axis_angle,
    quaternion_from_euler_rodrigues,
    spinor_from_components,
    spinor_pair,
    to_matrix,
    to_structure_coords,
)
from geobyte.errors import DomainError
from geobyte.transforms import (
    REFLECTIONS, reflect_line, reflect_plane, reflect_point, rodrigues_matrix, rotate,
)

E1 = basis_element("e1")
E12 = basis_element("e12")

# entry point -> a call that passes it the number under test
ENTRY_POINTS = {
    "Multivector": lambda x: Multivector([x, 0, 0, 0, 0, 0, 0, 0]),
    "StructureCoords": lambda x: StructureCoords([0, 0, 0, x, 0, 0, 0, 0]),
    "ComplexMatrix2": lambda x: ComplexMatrix2([[1, 0], [x, 1]]),
    "Multivector.scalar": Multivector.scalar,
    "m * x": lambda x: E1 * x,
    "x * m": lambda x: x * E1,
    "m / x": lambda x: E1 / x,
    "linear_combine": lambda x: linear_combine([(1.0, E1), (x, E1)]),
    "ComplexScalar": lambda x: ComplexScalar(x).embed(),
    "ComplexScalar im": lambda x: ComplexScalar(0.5, x).embed(),
    "quaternion_from_axis_angle axis": lambda x: quaternion_from_axis_angle(
        AxisAngle(0, x, 1, 0.5)
    ),
    "quaternion_from_axis_angle theta": lambda x: quaternion_from_axis_angle(AxisAngle(0, 0, 1, x)),
    "rodrigues_matrix axis": lambda x: rodrigues_matrix(AxisAngle(x, 0, 1, 0.5)),
    "rodrigues_matrix theta": lambda x: rodrigues_matrix(AxisAngle(0, 0, 1, x)),
    "quaternion_from_euler_rodrigues": lambda x: quaternion_from_euler_rodrigues(
        EulerRodrigues(x, 0, 0, 0)
    ),
    "spinor_from_components": lambda x: spinor_from_components(1, x),
    "complex_multiply": lambda x: complex_multiply(x, E1),
    "ComplexScalar.from_complex": lambda x: ComplexScalar.from_complex(x).embed(),
}
# a text operand of an operator is a foreign type, as for any number type
TEXT_IS_A_TYPE_ERROR = {"m * x", "x * m", "m / x"}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_int_too_large_for_a_double_is_a_domain_error_that_names_it(entry):
    with pytest.raises(DomainError) as info:
        ENTRY_POINTS[entry](10**400)
    assert repr(10**400) in str(info.value)
    assert info.value.__context__ is None or info.value.__suppress_context__


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_int_too_long_to_print_is_still_a_domain_error(entry):
    # repr of an int past the interpreter's digit limit raises ValueError
    with pytest.raises(DomainError, match="too long to print"):
        ENTRY_POINTS[entry](10**5000)


def test_a_name_too_long_to_print_is_still_a_domain_error():
    with pytest.raises(DomainError, match="too long to print"):
        grade_project(E1, 10**5000)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_text_that_is_no_number(entry):
    if entry in TEXT_IS_A_TYPE_ERROR:
        with pytest.raises(TypeError):
            ENTRY_POINTS[entry]("x")
        return
    with pytest.raises(DomainError) as info:
        ENTRY_POINTS[entry]("x")
    assert repr("x") in str(info.value)


# entry points whose reader is ``complex``; the others read by ``float``
COMPLEX_ENTRIES = {"ComplexMatrix2", "spinor_from_components"}
COMPLEX_ENTRIES |= {"complex_multiply", "ComplexScalar.from_complex"}


@pytest.mark.parametrize("text", ["0", "-0.0", "0.5", " 1e-3 ", "1_0", "1+2j"])
@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - TEXT_IS_A_TYPE_ERROR))
def test_numeric_text_reads_as_the_number_it_spells(entry, text):
    # the rule is float's (complex's), text included: AxisAngle("1", ...)
    # and spinor_from_components("1+2j", 0) read as the numbers they spell
    call = ENTRY_POINTS[entry]
    try:
        number = (complex if entry in COMPLEX_ENTRIES else float)(text)
    except ValueError:
        with pytest.raises(DomainError):
            call(text)
        return

    def outcome(x):
        try:
            return pickle.dumps(call(x))  # bit for bit, signed zeros included
        except DomainError:
            return DomainError

    assert outcome(text) == outcome(number)


def test_a_wrong_type_stays_a_type_error():
    for call in (lambda: Multivector([None] * 8), lambda: Multivector.scalar(None),
                 lambda: ComplexScalar(1j), lambda: linear_combine([(None, E1)]),
                 lambda: quaternion_from_axis_angle(AxisAngle(None, 0, 1, 0)),
                 lambda: spinor_from_components(None, 0), lambda: StructureCoords(8)):
        with pytest.raises(TypeError):
            call()


_SPINOR = project(E1, "positive", "right")
# place -> (class, a function building its JSON with a value where a number belongs)
JSON = {
    "Multivector": (Multivector, lambda x: {**E1.to_json(), "e0": x}),
    "StructureCoords": (
        StructureCoords, lambda x: {**to_structure_coords(E1).to_json(), "C": x}
    ),
    "AxisAngle axis": (AxisAngle, lambda x: {"axis": [0.0, x, 1.0], "theta": 0.5}),
    "AxisAngle theta": (AxisAngle, lambda x: {"axis": [0.0, 0.0, 1.0], "theta": x}),
    "ComplexMatrix2": (
        ComplexMatrix2, lambda x: {**to_matrix(E1).to_json(), "m21": [1.0, x]}
    ),
    # e1*P3 is 0.5*(e1 + e13), so equal e1 and e13 stay in the ideal
    "Spinor": (
        Spinor,
        lambda x: {**_SPINOR.to_json(), "value": {**_SPINOR.value.to_json(), "e1": x, "e13": x}},
    ),
}


@pytest.mark.parametrize("bad", ["1.5", True, b"1", 10**400], ids=["str", "bool", "bytes", "huge"])
@pytest.mark.parametrize("where", JSON)
def test_a_json_number_must_be_a_number(where, bad):
    cls, payload = JSON[where]
    assert cls.from_json(payload(1.0)) is not None  # the same object with 1.0 reads
    with pytest.raises(DomainError) as info:
        cls.from_json(payload(bad))
    assert type(info.value) is DomainError
    assert repr(bad) in str(info.value)


numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**1000), max_value=10**1000),
    st.floats(),
    st.text(),
)


@given(x=numbers)
def test_every_entry_point_ends_in_a_result_a_domain_error_or_a_type_error(x):
    for entry, call in ENTRY_POINTS.items():
        try:
            call(x)
        except (DomainError, TypeError):
            pass  # an OverflowError, plain ValueError or AttributeError fails here


_Q = quaternion_from_axis_angle(AxisAngle(0, 0, 1, 0.5))
# the Euclidean and Hilbert actions, each with ``x`` where a Multivector or
# a Quaternion belongs.  They are kept out of ENTRY_POINTS, whose other
# tests want a number read as a number: an action reads no number, so any
# value of another class is a TypeError that names the parameter.
ACTIONS = {
    "rotate m": lambda x: rotate(x, _Q),
    "rotate q": lambda x: rotate(E1, x),
    "reflect_point": reflect_point,
    "reflect_line m": lambda x: reflect_line(x, E1),
    "reflect_line axis": lambda x: reflect_line(E1, x),
    "reflect_plane m": lambda x: reflect_plane(x, E12),
    "reflect_plane plane": lambda x: reflect_plane(E1, x),
    **{f"REFLECTIONS[{op!r}]": REFLECTIONS[op] for op in REFLECTIONS},
    "project": lambda x: project(x, "positive", "right"),
    "spinor_pair": spinor_pair,
}


@given(x=st.one_of(numbers, st.none(), st.just(_Q)))
def test_every_action_ends_in_a_result_a_domain_error_or_a_type_error(x):
    for call in ACTIONS.values():
        try:
            call(x)
        except (DomainError, TypeError):
            pass  # an AttributeError fails here


@pytest.mark.parametrize("entry", ACTIONS)
def test_an_action_given_a_value_of_another_class_names_the_parameter_and_the_type(entry):
    with pytest.raises(TypeError, match=r"^(m|q|axis|plane) must be a \w+, got str$"):
        ACTIONS[entry]("x")


@given(x=st.one_of(numbers, st.booleans(), st.binary(), st.none()))
def test_every_from_json_ends_in_a_result_or_a_domain_error(x):
    for cls, payload in JSON.values():
        try:
            cls.from_json(payload(x))
        except DomainError:
            assert not (type(x) in (int, float) and abs(x) < 1e308)  # False for NaN


# -- what was accepted before builds the same value --------------------------


def _raw_field_quaternion(aa):
    """Reference: the closed form of ``quaternion_from_axis_angle`` on the
    raw fields, each axis field converted where it is used, as that
    function computed it before it read each field once."""
    half = 0.5 * aa.theta
    k, s = math.cos(half), math.sin(half)
    z, sz = 0.0 * k, 0.0 * s
    return (
        k - sz, z - sz, z - sz, z - sz,
        z - (0.0 + float(aa.c3)) * s,
        z - (0.0 + float(aa.c1)) * s,
        z - (0.0 - float(aa.c2)) * s,
        z - sz,
    )


def _axes():
    rng = random.Random(20260)
    for _ in range(100_000):
        v = [rng.gauss(0, 1) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        yield AxisAngle(v[0] / n, v[1] / n, v[2] / n, rng.uniform(-10, 10))
    zeros = (0, 0.0, -0.0)
    for k in range(3):
        for one in (1, -1, 1.0, -1.0):
            for a in zeros:
                for b in zeros:
                    c = [a, b]
                    c.insert(k, one)
                    for theta in (0, 0.0, -0.0, 1, -2, 0.5, math.pi):
                        yield AxisAngle(*c, theta)


def test_quaternion_from_axis_angle_is_bit_identical_to_its_formula_on_raw_fields():
    count = 0
    for aa in _axes():
        got = struct.pack("8d", *quaternion_from_axis_angle(aa).value._c)
        assert got == struct.pack("8d", *_raw_field_quaternion(aa)), aa
        count += 1
    assert count >= 100_000


def _packed(values):
    return struct.pack(f"{len(values)}d", *values)


def test_ints_floats_numpy_scalars_and_non_finite_values_build_as_before():
    raw = [3, -0.0, np.float64(0.1), np.int64(-7), math.nan, math.inf, -math.inf, True]
    want = _packed([float(x) for x in raw])
    assert _packed(Multivector(raw)._c) == want
    assert _packed(StructureCoords(raw).values) == want
    assert _packed(Multivector(np.array(raw, dtype=float))._c) == want
    for x in raw:
        assert _packed(Multivector.scalar(x)._c) == _packed((float(x),) + (0.0,) * 7)
        assert _packed(ComplexScalar(x, x).embed()._c) == _packed(
            (float(x),) + (0.0,) * 6 + (float(x),)
        )
        if isinstance(x, (int, float)):
            scaled = [c * float(x) for c in E1._c]
            assert _packed((E1 * x)._c) == _packed((x * E1)._c) == _packed(scaled)
            assert _packed(linear_combine([(x, E1)])._c) == _packed([0.0 + c for c in scaled])
    z = [1, 2.5, np.complex128(1 - 2j), complex(math.nan, -0.0)]
    assert _packed([p for w in ComplexMatrix2([z[:2], z[2:]])._z for p in (w.real, w.imag)]) == (
        _packed([p for w in map(complex, z) for p in (w.real, w.imag)])
    )
    aa = AxisAngle(np.float64(0.0), np.int64(0), np.float64(1.0), np.float64(0.75))
    assert _packed(quaternion_from_axis_angle(aa).value._c) == _packed(_raw_field_quaternion(aa))
