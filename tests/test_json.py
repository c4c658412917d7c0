"""JSON serialization: only finite numbers go out or come in, and every
round trip through json text gives back an equal value."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geobyte import (
    LABELS,
    AxisAngle,
    ComplexMatrix2,
    Multivector,
    StructureCoords,
    project,
    to_structure_coords,
)
from geobyte.errors import DomainError, GeobyteError
from geobyte.hilbert import Spinor


def _values(c):
    """One value of each serializable type, built from 8 floats."""
    z = [complex(c[k], c[k + 1]) for k in range(0, 8, 2)]
    values = [
        Multivector(c),
        StructureCoords(tuple(c)),
        AxisAngle(*c[:4]),
        ComplexMatrix2([z[:2], z[2:]]),
    ]
    try:
        values.append(project(Multivector(c), "positive", "right"))
    except DomainError:  # a non-finite value does not lie in the ideal
        pass
    return values


def _round_trip(value):
    text = json.dumps(value.to_json(), allow_nan=False)
    return type(value).from_json(json.loads(text))


@given(st.lists(st.floats(), min_size=8, max_size=8))
def test_round_trip_is_equal_or_a_geobyte_error(c):
    for value in _values(c):
        try:
            back = _round_trip(value)
        except GeobyteError:
            assert not all(map(math.isfinite, c))
            continue
        assert back == value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_is_rejected_both_ways(bad):
    c = [bad] + [0.0] * 7
    for value in _values(c):
        with pytest.raises(DomainError):
            value.to_json()
    finite = _values([0.5] * 8)
    for value in finite:
        payload = json.loads(json.dumps(value.to_json()))
        if isinstance(value, Spinor):
            payload["value"]["e0"] = bad
        elif isinstance(value, AxisAngle):
            payload["theta"] = bad
        elif isinstance(value, ComplexMatrix2):
            payload["m21"] = [0.0, bad]
        else:
            payload[next(iter(payload))] = bad
        with pytest.raises(DomainError):
            type(value).from_json(payload)


E1 = Multivector([0, 1, 0, 0, 0, 0, 0, 0])
E1_JSON, SPINOR_JSON = E1.to_json(), project(E1, "positive", "right").to_json()
ZERO = [0.0, 0.0]


def test_wrong_keys_are_value_errors():
    # class, payload, a key or value the message must quote
    for cls, payload, named in (
        (Multivector, {"e0": 1.0}, "e123"),
        (StructureCoords, {"A": 1.0}, "Abar"),
        (AxisAngle, {"axis": [0.0, 0.0, 1.0]}, "theta"),
        (AxisAngle, {"axis": [0.0, 1.0], "theta": 0.5}, [0.0, 1.0]),
        (ComplexMatrix2, {"m11": [1.0, 0.0]}, "m22"),
        (ComplexMatrix2, {"m11": [1.0], "m12": [0, 0], "m21": [0, 0], "m22": [1, 0]}, [1.0]),
        (Spinor, {"value": E1_JSON}, "ideal"),
        (Spinor, {**SPINOR_JSON, "extra": 1}, "extra"),
        (Spinor, {**SPINOR_JSON, "value": [0.0] * 8}, [0.0] * 8),
        (Spinor, {**SPINOR_JSON, "ideal": "neutral"}, "neutral"),
        (Multivector, None, None),
        (StructureCoords, [1.0] * 8, [1.0] * 8),
        (Multivector, {**E1_JSON, "e4": 0.0}, "e4"),
        (Multivector, {**E1_JSON, "e0": "x"}, "x"),
        (Multivector, {**E1_JSON, "e0": None}, None),
        (Multivector, {**E1_JSON, "e0": 10**400}, 10**400),
        (StructureCoords, {**dict.fromkeys(LABELS, 0.0), "B": [1]}, [1]),
        (AxisAngle, {"axis": 5, "theta": 1}, 5),
        (AxisAngle, {"axis": [0.0, 0.0, 1.0], "theta": "x"}, "x"),
        (ComplexMatrix2, {"m11": 5, "m12": ZERO, "m21": ZERO, "m22": ZERO}, 5),
        (ComplexMatrix2, {"m11": ZERO, "m12": [0, 0, 0], "m21": ZERO, "m22": ZERO}, [0, 0, 0]),
        (ComplexMatrix2, {"m11": ZERO, "m12": ZERO, "m21": ZERO, "m22": [None, 0]}, None),
    ):
        with pytest.raises(ValueError) as info:
            cls.from_json(payload)
        assert type(info.value) is DomainError, (cls, payload)
        assert repr(named) in str(info.value), str(info.value)


def test_structure_coords_of_overflowing_value_are_not_serialized():
    coords = to_structure_coords(Multivector([1e308, 1e308] + [0.0] * 6))
    assert math.isinf(coords["A"])
    with pytest.raises(DomainError):
        coords.to_json()
