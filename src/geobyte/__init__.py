"""geobyte: a computational engine for the geometric algebra G(3,0).

Multivectors, idempotent paravectors and their eight structure elements,
rotations and reflections, Hilbert spinor projections with qubit-style
gate analogs, and a 2x2 complex-matrix representation usable as an
independent cross-check.
"""

from ._kernels import BLADE_NAMES
from .clusters import (
    LABELS,
    ByteSignature,
    Paravector,
    StructureCoords,
    blade_to_byte_signature,
    byte_signature_to_blade,
    decompose_diag,
    diag_basis,
    diag_projection,
    face_paravector,
    from_structure_coords,
    paravector,
    structure_element,
    to_structure_coords,
)
from .cube import render_cube
from .errors import DomainError, GeobyteError, ParseError, SpanError, UnknownBladeError
from .expressions import evaluate, evaluate_text, format_expression, parse
from .hilbert import (
    GeometricQubit,
    HadamardTerms,
    ParavectorState,
    Spinor,
    covariant,
    degeneracy_partner,
    hadamard_basis_vectors,
    hadamard_regroup,
    inner,
    not_gate,
    outer,
    project,
    reconstruct_vector,
    spinor_components,
    spinor_from_components,
    spinor_pair,
)
from .matrix2 import ComplexMatrix2, adjoint, from_matrix, to_matrix
from .multivector import (
    ComplexScalar,
    Multivector,
    approx_eq,
    basis_element,
    blade_grade,
    complex_multiply,
    geometric_product,
    grade_project,
    involution,
    linear_combine,
)
from .report import DecompositionReport, decompose_report
from .transforms import (
    AxisAngle,
    CayleyKlein,
    EulerRodrigues,
    Quaternion,
    cayley_klein,
    compose,
    euler_rodrigues,
    quaternion_from_axis_angle,
    quaternion_from_euler_rodrigues,
    reflect_line,
    reflect_plane,
    reflect_point,
    rodrigues_matrix,
    rotate,
    structure_permutation,
)

__version__ = "0.1.0"
