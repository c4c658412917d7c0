"""Unit-cube renderers: golden files, determinism, and the sign
patterns of the blade structure coordinates."""

import pathlib

import pytest

from geobyte import (
    Multivector,
    basis_element,
    render_cube,
    to_structure_coords,
)
from geobyte._kernels import BLADE_NAMES
from geobyte.clusters import LABELS
from geobyte.cube import VERTEX_OCTANTS, _EDGES
from geobyte.errors import DomainError

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", BLADE_NAMES)
def test_ascii_golden(name):
    got = render_cube(basis_element(name), "ascii")
    assert got == (GOLDEN / f"cube_{name}.txt").read_text()


@pytest.mark.parametrize("name", ("e0", "e12"))
def test_svg_golden(name):
    got = render_cube(basis_element(name), "svg")
    assert got == (GOLDEN / f"cube_{name}.svg").read_text()


@pytest.mark.parametrize("name", BLADE_NAMES)
def test_ascii_legend_signs_match_structure_coords(name):
    coords = to_structure_coords(basis_element(name))
    legend = render_cube(basis_element(name), "ascii").splitlines()[-8:]
    for line, label in zip(legend, LABELS):
        parts = line.split()
        assert parts[0] == label
        assert parts[1] == ("+" if coords[label] > 0 else "-")


def test_zero_multivector_renders_hollow():
    out = render_cube(Multivector.zero(), "ascii")
    for line in out.splitlines()[-8:]:
        assert line.split()[1] == "0"
    svg = render_cube(Multivector.zero(), "svg")
    assert 'fill="none"' in svg and "#2e8b57" not in svg


@pytest.mark.parametrize("format", ["ascii", "svg"])
def test_structure_coords_render_as_their_multivector(rng, format):
    m = Multivector(rng.standard_normal(8))
    assert render_cube(to_structure_coords(m), format) == render_cube(m, format)


def test_svg_color_and_determinism(rng):
    m = Multivector(rng.standard_normal(8))
    first = render_cube(m, "svg")
    assert first == render_cube(m, "svg")
    coords = to_structure_coords(m)
    greens = sum(1 for label in LABELS if coords[label] > 0)
    assert first.count('fill="#2e8b57"') == greens


def test_cube_geometry():
    # octants are the 8 distinct corners; 12 edges; bars antipodal
    assert len(set(VERTEX_OCTANTS.values())) == 8
    assert len(_EDGES) == 12
    for label in ("A", "B", "C", "D"):
        bar = VERTEX_OCTANTS[label + "bar"]
        assert tuple(-x for x in VERTEX_OCTANTS[label]) == bar


def test_unknown_format():
    with pytest.raises(DomainError):
        render_cube(basis_element("e0"), "png")
