"""The timed operations: each turns one generated spec into calls on
geobyte's public API (names exported from ``geobyte`` plus
``geobyte.cli.main``) and returns what those calls returned.

Names are looked up on the module at call time, so the wrappers a traced
run installs by name are the ones called."""

from __future__ import annotations

import contextlib
import io

import geobyte as gb
import geobyte.cli

MV = gb.Multivector


def _quat(aa):
    return gb.quaternion_from_axis_angle(gb.AxisAngle(*aa))


def _inner_outer(aa, ideal):
    pair = gb.spinor_pair(_quat(aa))
    s = pair.positive if ideal == "positive" else pair.negative
    sc = gb.covariant(s)
    return gb.inner(sc, s), gb.outer(s, sc)


def _involutions(c):
    m = MV(c)
    return tuple(gb.involution(kind, m)
                 for kind in ("reversion", "grade_involution", "clifford_conjugation"))


def _structure_coords(c):
    sc = gb.to_structure_coords(MV(c))
    return sc, gb.from_structure_coords(sc)


ALGEBRA = {
    "rotate": lambda c, aa: gb.rotate(MV(c), _quat(aa)),
    "compose": lambda aa1, aa2: gb.compose(_quat(aa1), _quat(aa2)),
    "quaternion": _quat,
    "spinor_pair": lambda aa: gb.spinor_pair(_quat(aa)),
    "project": lambda c, ideal, side: gb.project(MV(c), ideal, side),
    "inner_outer": _inner_outer,
    "reconstruct": lambda aa: gb.reconstruct_vector(_quat(aa)),
    "reflect_line": lambda c, a: gb.reflect_line(MV(c), MV(a)),
    "reflect_plane": lambda c, b: gb.reflect_plane(MV(c), MV(b)),
    "involutions": _involutions,
    "structure_coords": _structure_coords,
    "decompose_report": lambda c: gb.decompose_report(MV(c)),
}


def _byte_signature(signs, blade):
    return (gb.byte_signature_to_blade(gb.ByteSignature(*signs)),
            gb.blade_to_byte_signature(blade))


def _decompose_diag(kind, ds):
    m = gb.linear_combine(zip(ds, gb.diag_basis(kind)))
    return gb.decompose_diag(m, kind)


def _matrix_roundtrip(c):
    x = gb.to_matrix(MV(c))
    return x, gb.from_matrix(x)


def _gate(alpha, beta, name):
    s = gb.spinor_from_components(alpha, beta)
    return s, (gb.not_gate(s) if name == "not" else gb.hadamard_regroup(s))


STRUCTURE = {
    "structure_product": lambda a, b: gb.structure_element(a) * gb.structure_element(b),
    "structure_permutation": lambda d: gb.structure_permutation(d),
    "degeneracy_partner": lambda blade, ideal: gb.degeneracy_partner(blade, ideal),
    "byte_signature": _byte_signature,
    "face": lambda axis, pol: gb.face_paravector(axis, pol),
    "decompose_diag": _decompose_diag,
    "matrix_roundtrip": _matrix_roundtrip,
    "gate": _gate,
}


def run_cli(spec: dict) -> tuple[int, str, str]:
    """``geobyte.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = geobyte.cli.main(spec["argv"])
    return code, out.getvalue(), err.getvalue()


def runner(workload: str):
    """The callable that runs one generated spec of ``workload``."""
    if workload == "algebra_dense":
        return lambda op: ALGEBRA[op[0]](*op[1:])
    if workload == "structure_exact":
        return lambda op: STRUCTURE[op[0]](*op[1:])
    return run_cli


def valid(specs: list) -> list:
    """The specs generated as valid input (CLI specs carry a defect tag
    when invalid; library specs are all valid)."""
    return [s for s in specs if not (isinstance(s, dict) and "defect" in s)]


def warm_up(run, specs: list) -> None:
    for spec in specs:
        try:
            run(spec)
        except Exception:  # failures are counted in the measured loop, not here
            pass
