"""JSON serialization: only finite numbers go out or come in, and every
round trip through json text gives back an equal value."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geobyte import (
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


def test_wrong_keys_are_value_errors():
    for cls, payload in (
        (Multivector, {"e0": 1.0}),
        (StructureCoords, {"A": 1.0}),
        (AxisAngle, {"axis": [0.0, 0.0, 1.0]}),
        (AxisAngle, {"axis": [0.0, 1.0], "theta": 0.5}),
        (ComplexMatrix2, {"m11": [1.0, 0.0]}),
        (ComplexMatrix2, {"m11": [1.0], "m12": [0, 0], "m21": [0, 0], "m22": [1, 0]}),
    ):
        with pytest.raises(ValueError):
            cls.from_json(payload)


def test_structure_coords_of_overflowing_value_are_not_serialized():
    coords = to_structure_coords(Multivector([1e308, 1e308] + [0.0] * 6))
    assert math.isinf(coords["A"])
    with pytest.raises(DomainError):
        coords.to_json()
