"""Independent checks for every output, run outside the timed region.

The routes here share nothing with geobyte's product: a multivector is
mapped to a 2x2 complex matrix through the benchmark's own Pauli table,
constants (paravectors, structure elements) are built as matrix products,
rotations are also checked against the Rodrigues 3x3 formula, and CLI
output is parsed back from text or JSON.  Each check returns
``(category, residual)`` pairs; residuals are scaled by
``max(1, max|expected|)``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from gen import BLADES, LABELS, POLARITY

TOL = 1e-12  # the acceptance gate's tolerance
LOSSY_TOL = 1e-5  # outputs printed with %g (six significant digits)
RESIDUAL_FLOOR = 1e-17  # caps the margin of an exact result at 5 digits

_I2 = np.eye(2, dtype=complex)
_S = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
BLADE_MATS = np.stack([
    _I2, _S[1], _S[2], _S[3], _S[1] @ _S[2], _S[2] @ _S[3], _S[1] @ _S[3],
    _S[1] @ _S[2] @ _S[3],
])
BLADE_MAT = dict(zip(BLADES, BLADE_MATS))
PARA = {f"{pn}{k}": (_I2 + s * _S[k]) / 2 for k in (1, 2, 3) for pn, s in (("P", 1), ("N", -1))}
STRUCT = {
    label: PARA["P1" if p[0] > 0 else "N1"] @ PARA["P2" if p[1] > 0 else "N2"]
    @ PARA["P3" if p[2] > 0 else "N3"]
    for label, p in POLARITY.items()
}
CONST = {**BLADE_MAT, **PARA, **STRUCT}


class Mismatch(Exception):
    """An output disagrees with the independent route."""


class NonFinite(Exception):
    """An output holds NaN or infinity."""


def mat(c) -> np.ndarray:
    return np.tensordot(np.asarray(c, dtype=float), BLADE_MATS, axes=(0, 0))


def coeffs_of(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`mat`: the blade matrices are orthonormal under
    Re tr(X^H Y) / 2."""
    return np.einsum("kji,ji->k", BLADE_MATS.conj(), m).real / 2


STRUCT_COEFFS = np.stack([coeffs_of(STRUCT[label]) for label in LABELS])
_DIAG_PAIRS = (("A", "Abar"), ("B", "Bbar"), ("C", "Cbar"), ("D", "Dbar"))
DIAG_COEFFS = {
    "vector_diag": np.stack([coeffs_of(STRUCT[a] - STRUCT[b]) for a, b in _DIAG_PAIRS]),
    "quaternion_diag": np.stack([coeffs_of(STRUCT[a] + STRUCT[b]) for a, b in _DIAG_PAIRS]),
}


def dag(m):
    return m.conj().T


def adjugate(m):
    """Clifford conjugation in the matrix picture."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def bar(m):
    """Grade involution: reversion of the Clifford conjugate."""
    return dag(adjugate(m))


def quat_mat(aa) -> np.ndarray:
    c1, c2, c3, theta = aa
    h = 0.5 * theta
    return math.cos(h) * _I2 - 1j * math.sin(h) * (c1 * _S[1] + c2 * _S[2] + c3 * _S[3])


def rodrigues(aa) -> np.ndarray:
    c1, c2, c3, theta = aa
    k = np.array([[0.0, -c3, c2], [c3, 0.0, -c1], [-c2, c1, 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def finite(c) -> np.ndarray:
    a = np.array(c, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NonFinite("non-finite coefficient")
    return a


def _res(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def mv_res(mv_coeffs, want_mat) -> float:
    return _res(mat(finite(mv_coeffs)), want_mat)


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def structure_res(values, want_mat) -> float:
    """Structure coordinates against the expected value: sum c_l X_l."""
    got = np.tensordot(finite(values), np.stack([STRUCT[label] for label in LABELS]), axes=(0, 0))
    return _res(got, want_mat)


def diag_expected(want_mat, kind):
    c = coeffs_of(want_mat)
    d = 4.0 * DIAG_COEFFS[kind] @ c
    rest = c - d @ DIAG_COEFFS[kind]
    return d, float(np.sqrt(np.dot(rest, rest)))


def unitarity_res(u) -> float:
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    return max(float(np.max(np.abs(u @ dag(u) - _I2))), abs(det - 1.0))


# -- algebra_dense ---------------------------------------------------------


def check_algebra(op, out) -> list[tuple[str, float]]:
    kind = op[0]
    if kind == "rotate":
        _, c, aa = op
        q = quat_mat(aa)
        got = finite(out.coeffs)
        return [("homomorphism", mv_res(got, q @ mat(c) @ dag(q))),
                ("rotation", _res(got[1:4], rodrigues(aa) @ np.asarray(c[1:4])))]
    if kind == "compose":
        want = quat_mat(op[1]) @ quat_mat(op[2])
        got = mat(finite(out.value.coeffs))
        return [("homomorphism", _res(got, want)), ("unitarity", unitarity_res(got))]
    if kind == "quaternion":
        got = mat(finite(out.value.coeffs))
        return [("homomorphism", _res(got, quat_mat(op[1]))), ("unitarity", unitarity_res(got))]
    if kind == "spinor_pair":
        q = quat_mat(op[1])
        pos, neg = finite(out.positive.value.coeffs), finite(out.negative.value.coeffs)
        require((out.positive.ideal, out.negative.ideal) == ("positive", "negative"), "pair ideals")
        return [("homomorphism", max(mv_res(pos, q @ PARA["P3"]), mv_res(neg, q @ PARA["N3"]))),
                ("spinor", mv_res(pos + neg, q))]
    if kind == "project":
        _, c, ideal, side = op
        p = PARA["P3" if ideal == "positive" else "N3"]
        want = mat(c) @ p if side == "right" else p @ mat(c)
        variance = "contravariant" if side == "right" else "covariant"
        require((out.ideal, out.variance) == (ideal, variance), "spinor tags")
        return [("homomorphism", mv_res(out.value.coeffs, want))]
    if kind == "inner_outer":
        _, aa, ideal = op
        q = quat_mat(aa)
        p = PARA["P3" if ideal == "positive" else "N3"]
        inner, outer = out
        return [("spinor", mv_res(inner.coeffs, p)),
                ("homomorphism", mv_res(outer.value.coeffs, q @ p @ dag(q)))]
    if kind == "reconstruct":
        want = rodrigues(op[1])[:, 2]
        got = finite(out.coeffs)
        return [("spinor", _res(got, np.concatenate(([0.0], want, [0.0] * 4))))]
    if kind == "reflect_line":
        _, c, a = op
        return [("homomorphism", mv_res(out.coeffs, mat(a) @ mat(c) @ mat(a)))]
    if kind == "reflect_plane":
        _, c, b = op
        return [("homomorphism", mv_res(out.coeffs, mat(b) @ bar(mat(c)) @ dag(mat(b))))]
    if kind == "involutions":
        m = mat(op[1])
        return [("homomorphism", max(mv_res(o.coeffs, w) for o, w in
                                     zip(out, (dag(m), bar(m), adjugate(m)))))]
    if kind == "structure_coords":
        sc, back = out
        m = mat(op[1])
        return [("homomorphism", max(structure_res(sc.values, m), mv_res(back.coeffs, m)))]
    if kind == "decompose_report":
        return _report_res(out, mat(op[1]))
    raise ValueError(f"unknown algebra op {kind!r}")


def _report_res(report, m) -> list[tuple[str, float]]:
    worst = max(mv_res(report.blade, m), mv_res(report.value.coeffs, m),
                structure_res(report.structure.values, m))
    for kind, coeffs, residual in (
        ("vector_diag", report.vector_diag, report.vector_diag_residual),
        ("quaternion_diag", report.quaternion_diag, report.quaternion_diag_residual),
    ):
        d, r = diag_expected(m, kind)
        worst = max(worst, _res(finite(coeffs), d), _res(finite([residual]), [r]))
    return [("homomorphism", worst)]


# -- structure_exact -------------------------------------------------------


def _signature_mat(signs) -> np.ndarray:
    """(P1 +- N1)(P2 +- N2)(P3 +- N3): P + N = I and P - N = sigma_k."""
    m = _I2
    for k, s in zip((1, 2, 3), signs):
        m = m @ (_I2 if s > 0 else _S[k])
    return m


def _reflect_mat(desc: str, x: np.ndarray) -> np.ndarray:
    if desc == "point":
        return bar(x)
    b = BLADE_MAT[desc]
    if len(desc) == 2:  # a line e1..e3
        return b @ x @ b
    return b @ bar(x) @ dag(b)


def check_structure(op, out) -> list[tuple[str, float]]:
    kind = op[0]
    if kind == "structure_product":
        return [("homomorphism", mv_res(out.coeffs, STRUCT[op[1]] @ STRUCT[op[2]]))]
    if kind == "structure_permutation":
        require(sorted(out) == sorted(LABELS), "permutation domain")
        require(sorted(t for t, _ in out.values()) == sorted(LABELS), "permutation image")
        worst = 0.0
        for label, (target, sign) in out.items():
            require(sign in (1, -1), "permutation sign")
            worst = max(worst, _res(sign * STRUCT[target], _reflect_mat(op[1], STRUCT[label])))
        return [("homomorphism", worst)]
    if kind == "degeneracy_partner":
        _, blade, ideal = op
        other, sign = out
        require(other != blade and other in BLADES and sign in (1, -1), "partner")
        p = PARA["P3" if ideal == "positive" else "N3"]
        return [("homomorphism", _res(sign * BLADE_MAT[other] @ p, BLADE_MAT[blade] @ p))]
    if kind == "byte_signature":
        _, signs, blade = op
        got_blade, sig = out
        require(_signature_mat((sig.s1, sig.s2, sig.s3)).tolist() == BLADE_MAT[blade].tolist(),
                "blade signature")
        return [("homomorphism", mv_res(got_blade.coeffs, _signature_mat(signs)))]
    if kind == "face":
        _, axis, pol = op
        require(all(v in (0.0, 1.0) for v in out.values), "face coordinates are 0/1")
        return [("homomorphism", structure_res(out.values, PARA[f"{'P' if pol == 'positive' else 'N'}{axis}"]))]
    if kind == "decompose_diag":
        return [("homomorphism", _res(finite(out), op[2]))]
    if kind == "matrix_roundtrip":
        x, back = out
        m = mat(op[1])
        got = np.asarray(x.array)
        if not np.all(np.isfinite(got)):
            raise NonFinite("non-finite matrix entry")
        return [("homomorphism", max(_res(got, m), mv_res(back.coeffs, m)))]
    if kind == "gate":
        _, alpha, beta, name = op
        s, result = out
        v = alpha * PARA["P3"] + beta * (_S[1] @ PARA["P3"])
        res = mv_res(s.value.coeffs, v)
        if name == "not":
            res = max(res, mv_res(result.value.coeffs, _S[1] @ v))
        else:
            res = max(res, _res(finite([result.coeff_plus.real, result.coeff_plus.imag,
                                        result.coeff_minus.real, result.coeff_minus.imag]),
                                [(alpha + beta).real, (alpha + beta).imag,
                                 (alpha - beta).real, (alpha - beta).imag]),
                      mv_res(result.plus_basis.coeffs, PARA["P1"] @ PARA["P3"]),
                      mv_res(result.minus_basis.coeffs, PARA["N1"] @ PARA["P3"]))
        return [("spinor", res)]
    raise ValueError(f"unknown structure op {kind!r}")


# -- CLI -----------------------------------------------------------------

_NONFINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")


def has_nonfinite(text: str) -> bool:
    return bool(_NONFINITE.search(text))


def eval_ast(node) -> np.ndarray:
    tag = node[0]
    if tag == "num":
        num, _, den = node[1].partition("/")
        return (float(num) / float(den) if den else float(num)) * _I2
    if tag == "i":
        return 1j * _I2
    if tag == "const":
        return CONST[node[1]]
    if tag == "paren":
        return eval_ast(node[1])
    if tag == "neg":
        return -eval_ast(node[1])
    if tag == "func":
        inner = eval_ast(node[2])
        return {"rev": dag, "bar": bar, "conj": adjugate}[node[1]](inner)
    op, left, right = node[1], eval_ast(node[2]), eval_ast(node[3])
    return left + right if op == "+" else left - right if op == "-" else left @ right


def parse_expression_output(text: str) -> list[float]:
    """Blade coefficients from ``format_expression`` output."""
    c = [0.0] * 8
    text = text.strip()
    sign = 1.0
    if text.startswith("-"):
        sign, text = -1.0, text[1:]
    parts = re.split(r" ([+-]) ", text)
    for i in range(0, len(parts), 2):
        if i:
            sign = 1.0 if parts[i - 1] == "+" else -1.0
        num, _, name = parts[i].rpartition("*")
        c[BLADES.index(name)] += sign * float(num)
    return c


def _mv_output(stdout: str, fmt: str) -> list[float]:
    if fmt == "json":
        d = json.loads(stdout)
        require(set(d) == set(BLADES), "multivector JSON keys")
        return [d[b] for b in BLADES]
    return parse_expression_output(stdout)


def _lossy(values, want) -> tuple[str, float]:
    return ("lossy", _res(finite(values), want))


def check_cli(spec, stdout: str) -> list[tuple[str, float]]:
    cmd, fmt = spec["cmd"], spec.get("format")
    lines = stdout.splitlines()
    if cmd == "signature":
        require(stdout.strip() == _signature_of(spec["blade"]), "signature text")
        return []
    if cmd == "gate":
        return _check_gate(spec, stdout, lines)
    want = eval_ast(spec["ast"])
    if cmd == "eval":
        basis = spec["basis"]
        if basis == "blade":
            return [("homomorphism", mv_res(_mv_output(stdout, fmt), want))]
        sc_want = 8.0 * STRUCT_COEFFS @ coeffs_of(want)
        if basis == "structure":
            if fmt == "json":
                d = json.loads(stdout)
                return [("homomorphism", structure_res([d[label] for label in LABELS], want))]
            require([ln.split()[0] for ln in lines] == list(LABELS), "structure labels")
            return [_lossy([float(ln.split()[1]) for ln in lines], sc_want)]
        d_want, r_want = diag_expected(want, "vector_diag" if basis == "vdiag" else "quaternion_diag")
        expected = list(d_want) + [r_want]
        if fmt == "json":
            d = json.loads(stdout)
            return [("homomorphism", _res(finite(list(d["coefficients"]) + [d["residual"]]), expected))]
        require([ln.split()[0] for ln in lines] == ["d1", "d2", "d3", "d4", "residual"], "diag lines")
        return [_lossy([float(ln.split()[1]) for ln in lines], expected)]
    if cmd == "rotate":
        q = quat_mat(list(spec["axis"]) + [spec["theta"]])
        return [("rotation", mv_res(_mv_output(stdout, fmt), q @ want @ dag(q)))]
    if cmd == "reflect":
        return [("homomorphism", mv_res(_mv_output(stdout, fmt), _reflect_mat(spec["mirror"], want)))]
    if cmd == "project":
        p = PARA["P3" if spec["ideal"] == "pos" else "N3"]
        right = spec["side"] == "right"
        ideal = "positive" if spec["ideal"] == "pos" else "negative"
        variance = "contravariant" if right else "covariant"
        if fmt == "json":
            d = json.loads(stdout)
            require((d["ideal"], d["variance"]) == (ideal, variance), "spinor tags")
            got = [d["value"][b] for b in BLADES]
        else:
            require(lines[0].split() == ["ideal", ideal] and lines[1].split() == ["variance", variance],
                    "spinor tags")
            got = parse_expression_output(lines[2].split(None, 1)[1])
        return [("homomorphism", mv_res(got, want @ p if right else p @ want))]
    if cmd == "cube":
        return [_check_cube(stdout, fmt, 8.0 * STRUCT_COEFFS @ coeffs_of(want))]
    raise ValueError(f"unknown CLI command {cmd!r}")


def _signature_of(blade: str) -> str:
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                if np.array_equal(_signature_mat((s1, s2, s3)), BLADE_MAT[blade]):
                    return "".join("+" if s > 0 else "-" for s in (s1, s2, s3))
    raise ValueError(blade)


def _check_gate(spec, stdout, lines):
    alpha, beta = spec["alpha"], spec["beta"]
    v = alpha * PARA["P3"] + beta * (_S[1] @ PARA["P3"])
    if spec["name"] == "not":
        if spec["format"] == "json":
            d = json.loads(stdout)
            require((d["ideal"], d["variance"]) == ("positive", "contravariant"), "spinor tags")
            got = [d["value"][b] for b in BLADES]
        else:
            got = parse_expression_output(stdout)
        return [("spinor", mv_res(got, _S[1] @ v))]
    plus, minus = alpha + beta, alpha - beta
    want = [plus.real, plus.imag, minus.real, minus.imag]
    bases = (PARA["P1"] @ PARA["P3"], PARA["N1"] @ PARA["P3"])
    if spec["format"] == "json":
        d = json.loads(stdout)
        got = list(d["coeff_plus"]) + list(d["coeff_minus"])
        return [("spinor", max(_res(finite(got), want),
                               mv_res([d["plus_basis"][b] for b in BLADES], bases[0]),
                               mv_res([d["minus_basis"][b] for b in BLADES], bases[1])))]
    got = [float(x) for ln in lines[:2] for x in ln.split()[1].split(",")]
    return [_lossy(got, want),
            ("spinor", max(mv_res(parse_expression_output(lines[2].split(None, 1)[1]), bases[0]),
                           mv_res(parse_expression_output(lines[3].split(None, 1)[1]), bases[1])))]


def _check_cube(stdout: str, fmt: str, sc_want) -> tuple[str, float]:
    if fmt == "svg":
        found = dict(re.findall(r'font-size="12">(\w+) ([^<]+)</text>', stdout))
        require(sorted(found) == sorted(LABELS), "svg labels")
        return _lossy([float(found[label]) for label in LABELS], sc_want)
    legend = stdout.splitlines()[-8:]
    got = []
    for ln, label, w in zip(legend, LABELS, sc_want):
        name, glyph, mag = ln.split()
        require(name == label, "legend label")
        require(glyph == ("+" if w > 0 else "-" if w < 0 else "0"), "vertex glyph")
        got.append((-1.0 if glyph == "-" else 1.0) * float(mag))
    return _lossy(got, sc_want)
