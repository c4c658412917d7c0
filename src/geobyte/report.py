"""Multi-basis decomposition report: the same value seen through the
blade basis, the structure elements, and the two diagonal 4D families."""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import BLADE_NAMES
from .clusters import StructureCoords, diag_projection, to_structure_coords
from .multivector import Multivector


@dataclass(frozen=True)
class DecompositionReport:
    value: Multivector
    blade: tuple[float, ...]
    structure: StructureCoords
    vector_diag: tuple[float, ...]
    vector_diag_residual: float
    quaternion_diag: tuple[float, ...]
    quaternion_diag_residual: float

    def to_json(self) -> dict:
        return {
            "blade": dict(zip(BLADE_NAMES, self.blade)),
            "structure": self.structure.to_json(),
            "vector_diag": {
                "coefficients": list(self.vector_diag),
                "residual": self.vector_diag_residual,
            },
            "quaternion_diag": {
                "coefficients": list(self.quaternion_diag),
                "residual": self.quaternion_diag_residual,
            },
        }


def decompose_report(m: Multivector) -> DecompositionReport:
    """All four coefficient lists plus out-of-span residual norms."""
    v_coeffs, v_res = diag_projection(m, "vector_diag")
    q_coeffs, q_res = diag_projection(m, "quaternion_diag")
    return DecompositionReport(
        value=m,
        blade=m._c,
        structure=to_structure_coords(m),
        vector_diag=v_coeffs,
        vector_diag_residual=v_res,
        quaternion_diag=q_coeffs,
        quaternion_diag_residual=q_res,
    )
