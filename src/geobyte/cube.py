"""Unit-cube renderings of a multivector's structure coordinates.

Canonical geometry: each label sits at the octant of its polarity
triple (clusters.POLARITIES), so A is at (+,+,+) and overlined labels
are antipodal.  Axis 1 points right, axis 2 into the page, axis 3 up;
both renderers use a fixed oblique projection so output is
byte-deterministic.
"""

from __future__ import annotations

from .clusters import LABELS, POLARITIES, StructureCoords, to_structure_coords
from .errors import instance, lookup
from .multivector import Multivector

#: label -> octant signs along (axis1, axis2, axis3)
VERTEX_OCTANTS: dict[str, tuple[int, int, int]] = POLARITIES

_EDGES: tuple[tuple[str, str], ...] = tuple(
    sorted(
        (a, b)
        for i, a in enumerate(LABELS)
        for b in LABELS[i + 1 :]
        if sum(x != y for x, y in zip(VERTEX_OCTANTS[a], VERTEX_OCTANTS[b])) == 1
    )
)


def _glyph(v: float) -> str:
    if v > 0:
        return "+"
    if v < 0:
        return "-"
    return "0"


_ASCII_TEMPLATE = """\
      {B}................{A}
     /:               /:
    / :              / :
   {Dbar}................{C}  :
   :  :             :  :
   :  {Cbar}.............:..{D}
   : /              : /
   :/               :/
   {Abar}................{Bbar}
"""


def render_ascii(coords: StructureCoords) -> str:
    """Oblique cube with +/-/0 glyphs at the vertices and a value legend."""
    glyphs = [_glyph(v) for v in coords.values]
    out = _ASCII_TEMPLATE.format(**dict(zip(LABELS, glyphs)))
    out += "\n"
    for label, glyph, v in zip(LABELS, glyphs, coords.values):
        out += f"{label:<5} {glyph} {abs(v):g}\n"
    return out


def _project(octant: tuple[int, int, int]) -> tuple[int, int]:
    x, y, z = octant
    return 190 + 70 * x + 36 * y, 190 - 70 * z - 36 * y


#: label -> its vertex in the drawing, in label order
_POSITIONS = {label: _project(VERTEX_OCTANTS[label]) for label in LABELS}
#: the SVG's opening lines, the same on every call: its header and the edges
_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="380" height="380" '
    'viewBox="0 0 380 380">',
    '<rect width="380" height="380" fill="white"/>',
    *(
        f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}" stroke="#999999" stroke-width="1"/>'
        for (xa, ya), (xb, yb) in ((_POSITIONS[a], _POSITIONS[b]) for a, b in _EDGES)
    ),
)


def render_svg(coords: StructureCoords) -> str:
    """Deterministic SVG: positive vertices green, negative blue, zero
    hollow; circle radius scales with magnitude."""
    vmax = max(map(abs, coords.values))
    lines = list(_SVG_HEAD)
    for label, v, (x, y) in zip(LABELS, coords.values, _POSITIONS.values()):
        if v > 0:
            fill, stroke = "#2e8b57", "#2e8b57"
        elif v < 0:
            fill, stroke = "#1e5bc6", "#1e5bc6"
        else:
            fill, stroke = "none", "#666666"
        r = 4.0 + (12.0 * abs(v) / vmax if vmax > 0 else 0.0)
        lines.append(
            f'<circle cx="{x}" cy="{y}" r="{r:.3f}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{x + 18}" y="{y + 4}" font-family="monospace" '
            f'font-size="12">{label} {v:g}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


#: format name -> its renderer
_RENDERERS = {"ascii": render_ascii, "svg": render_svg}


def render_cube(m: Multivector | StructureCoords, format: str = "ascii") -> str:
    """Draw the structure coordinates of ``m``, or ``m`` if it is
    structure coordinates, on the unit cube."""
    m = instance(m, (Multivector, StructureCoords), "m")
    coords = m if isinstance(m, StructureCoords) else to_structure_coords(m)
    return lookup(_RENDERERS, format, "unsupported cube format")(coords)
