"""Seeded input generator for every workload.

Stdlib only, so a cold probe can build its inputs without importing
numpy or geobyte first.  Each generator returns a list of operation specs
(plain tuples, dicts, floats and strings); the library only ever receives
these generated values.  Kinds are scheduled in fixed-composition blocks
shuffled by the seed, so every seed runs the same operation mix.
"""

from __future__ import annotations

import math
import random

BLADES = ("e0", "e1", "e2", "e3", "e12", "e23", "e13", "e123")
LABELS = ("A", "B", "C", "D", "Dbar", "Cbar", "Bbar", "Abar")
# paravector polarity per axis in each ordered triple product: A = P1 P2 P3,
# B = N1 P2 P3, ..., Abar = N1 N2 N3
POLARITY = dict(zip(LABELS, ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
                             (-1, -1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1))))
PARAVECTORS = ("P1", "P2", "P3", "N1", "N2", "N3")
DESCRIPTORS = ("point", "e1", "e2", "e3", "e12", "e23", "e13")
FUNCS = ("rev", "bar", "conj")
# Dyadic literals keep expression values exact, so the oracle can hold
# them to the acceptance tolerance however long the expression is.
LITERALS = ("1", "2", "3", "0.5", "0.25", "1.5", "3/4", "1/2", "5/8", "7/4")

ALGEBRA_KINDS = (
    "rotate", "compose", "quaternion", "spinor_pair", "project", "inner_outer",
    "reconstruct", "reflect_line", "reflect_plane", "involutions",
    "structure_coords", "decompose_report",
)

# Per block: eight of the 64 structure products, one reflection descriptor,
# two of the 16 blade x ideal partners, and the cheaper exact operations.
STRUCTURE_BLOCK = (
    ("structure_product", 8), ("structure_permutation", 1),
    ("degeneracy_partner", 2), ("byte_signature", 2), ("face", 1),
    ("decompose_diag", 1), ("matrix_roundtrip", 2), ("gate", 1),
)

# Per block of 40 CLI calls: 34 valid across all 7 subcommands (15%
# invalid), and 6 invalid drawn in turn from the defect classes below.
CLI_BLOCK = (
    ("eval", 12), ("rotate", 5), ("reflect", 5), ("project", 5),
    ("gate", 3), ("cube", 2), ("signature", 2),
)
CLI_INVALID_PER_BLOCK = 6
DEFECT_CLASSES = (
    "div_zero", "inf_theta", "nan_theta", "nan_axis", "long_literal",
    "deep_nesting", "unbalanced", "unknown_name", "non_unit_axis", "nan_gate",
)


def _unit3(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-6:
            return [x / n for x in v]


def _dense(rng: random.Random) -> list[float]:
    return [rng.uniform(-1.0, 1.0) for _ in range(8)]


def _axis_angle(rng: random.Random) -> list[float]:
    return _unit3(rng) + [rng.uniform(-2 * math.pi, 2 * math.pi)]


def _blocks(rng: random.Random, n: int, block: list[str]) -> list[str]:
    kinds: list[str] = []
    while len(kinds) < n:
        b = list(block)
        rng.shuffle(b)
        kinds.extend(b)
    return kinds[:n]


# -- algebra_dense -------------------------------------------------------


def algebra_ops(seed: int, n: int) -> list[tuple]:
    rng = random.Random(f"algebra_dense:{seed}")
    ops = []
    for kind in _blocks(rng, n, list(ALGEBRA_KINDS)):
        if kind == "rotate":
            ops.append((kind, _dense(rng), _axis_angle(rng)))
        elif kind == "compose":
            ops.append((kind, _axis_angle(rng), _axis_angle(rng)))
        elif kind in ("quaternion", "spinor_pair", "reconstruct"):
            ops.append((kind, _axis_angle(rng)))
        elif kind == "project":
            ops.append((kind, _dense(rng), rng.choice(("positive", "negative")),
                        rng.choice(("right", "left"))))
        elif kind == "inner_outer":
            ops.append((kind, _axis_angle(rng), rng.choice(("positive", "negative"))))
        elif kind == "reflect_line":
            ops.append((kind, _dense(rng), [0.0] + _unit3(rng) + [0.0] * 4))
        elif kind == "reflect_plane":
            b = _unit3(rng)
            ops.append((kind, _dense(rng), [0.0] * 4 + b + [0.0]))
        else:  # involutions, structure_coords, decompose_report
            ops.append((kind, _dense(rng)))
    return ops


# -- structure_exact -----------------------------------------------------


def _sparse(rng: random.Random) -> list[float]:
    """A dyadic sum of one to three blades, paravectors or structure
    elements, as blade coefficients."""
    c = [0.0] * 8
    for _ in range(rng.randint(1, 3)):
        w = rng.choice((1.0, -1.0, 0.5, -0.5, 2.0, 0.25))
        what = rng.randrange(3)
        if what == 0:
            c[rng.randrange(8)] += w
        elif what == 1:
            axis, sign = rng.randint(1, 3), rng.choice((1.0, -1.0))
            c[0] += w / 2
            c[axis] += sign * w / 2
        else:
            signs = _structure_signs(rng.choice(LABELS))
            for i, s in enumerate(signs):
                c[i] += s * w / 8
    return c


def _structure_signs(label: str) -> list[int]:
    """Blade signs of a structure element, from its polarities
    (P_k = (e0 + e_k)/2 carries +1, N_k = (e0 - e_k)/2 carries -1)."""
    s1, s2, s3 = POLARITY[label]
    return [1, s1, s2, s3, s1 * s2, s2 * s3, s1 * s3, s1 * s2 * s3]


def structure_ops(seed: int, n: int) -> list[tuple]:
    rng = random.Random(f"structure_exact:{seed}")
    block = [k for k, count in STRUCTURE_BLOCK for _ in range(count)]
    pairs = [(a, b) for a in LABELS for b in LABELS]
    partners = [(b, i) for b in BLADES for i in ("positive", "negative")]
    rng.shuffle(pairs)
    rng.shuffle(partners)
    turn = {"structure_product": 0, "structure_permutation": rng.randrange(7),
            "degeneracy_partner": 0}
    ops = []
    for kind in _blocks(rng, n, block):
        if kind == "structure_product":
            ops.append((kind, *pairs[turn[kind] % 64]))
        elif kind == "structure_permutation":
            ops.append((kind, DESCRIPTORS[turn[kind] % 7]))
        elif kind == "degeneracy_partner":
            ops.append((kind, *partners[turn[kind] % 16]))
        elif kind == "byte_signature":
            ops.append((kind, [rng.choice((1, -1)) for _ in range(3)], rng.choice(BLADES)))
        elif kind == "face":
            ops.append((kind, rng.randint(1, 3), rng.choice(("positive", "negative"))))
        elif kind == "decompose_diag":
            ops.append((kind, rng.choice(("vector_diag", "quaternion_diag")),
                        [rng.choice((0.0, 1.0, -1.0, 0.5, -0.25, 2.0)) for _ in range(4)]))
        elif kind == "matrix_roundtrip":
            ops.append((kind, _sparse(rng)))
        else:  # gate
            d = (0.0, 1.0, -1.0, 0.5, -0.5, 0.25)
            ops.append((kind, complex(rng.choice(d), rng.choice(d)),
                        complex(rng.choice(d), rng.choice(d)), rng.choice(("not", "hadamard"))))
        if kind in turn:
            turn[kind] += 1
    return ops


# -- expressions and CLI argv -------------------------------------------
#
# An expression is generated as an AST of nested tuples together with its
# text; the oracle evaluates the AST, the program parses the text.


def _expr(rng: random.Random, budget: int, depth: int = 0) -> tuple:
    """AST using about ``budget`` tokens."""
    if budget <= 1 or depth > 12:
        r = rng.random()
        if r < 0.3:
            return ("num", rng.choice(LITERALS))
        if r < 0.35:
            return ("i",)
        return ("const", rng.choice(BLADES + PARAVECTORS + LABELS))
    r = rng.random()
    if r < 0.1:
        return ("neg", _expr(rng, budget - 1, depth + 1))
    if r < 0.22 and budget >= 4:
        return ("func", rng.choice(FUNCS), _expr(rng, budget - 3, depth + 1))
    if r < 0.32 and budget >= 3:
        return ("paren", _expr(rng, budget - 2, depth + 1))
    left = rng.randint(1, max(1, budget - 2))
    op = rng.choice("+-**")
    return ("bin", op, _expr(rng, left, depth + 1),
            _expr(rng, max(1, budget - 1 - left), depth + 1))


def _text(node: tuple) -> str:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "i":
        return "i"
    if tag == "const":
        return node[1]
    if tag == "paren":
        return "(" + _text(node[1]) + ")"
    if tag == "func":
        return f"{node[1]}({_text(node[2])})"
    if tag == "neg":
        child = node[1]
        inner = _text(child)
        return "-" + (f"({inner})" if child[0] == "bin" else inner)
    op, left, right = node[1], node[2], node[3]
    lt, rt = _text(left), _text(right)
    if op == "*":
        if left[0] == "bin" and left[1] in "+-":
            lt = f"({lt})"
        if right[0] == "bin" and right[1] in "+-":
            rt = f"({rt})"
        return f"{lt}*{rt}"
    if right[0] == "bin" and right[1] in "+-":
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


def expression(rng: random.Random, max_tokens: int = 64) -> tuple[str, tuple]:
    ast = _expr(rng, rng.randint(1, max_tokens))
    return _text(ast), ast


def _fmt(x: float) -> str:
    return repr(float(x))


def _valid_cli(rng: random.Random, cmd: str) -> dict:
    if cmd == "eval":
        text, ast = expression(rng)
        basis = rng.choice(("blade", "structure", "vdiag", "qdiag"))
        fmt = rng.choice(("text", "json"))
        return {"argv": ["eval", "--basis", basis, "--format", fmt, "--", text],
                "cmd": cmd, "ast": ast, "basis": basis, "format": fmt}
    if cmd == "rotate":
        axis = _unit3(rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        text, ast = expression(rng, 16)
        fmt = rng.choice(("text", "json"))
        return {"argv": ["rotate", "--axis=" + ",".join(map(_fmt, axis)),
                         "--theta=" + _fmt(theta), "--target=" + text, "--format", fmt],
                "cmd": cmd, "ast": ast, "axis": axis, "theta": theta, "format": fmt}
    if cmd == "reflect":
        mirror = rng.choice(DESCRIPTORS)
        text, ast = expression(rng, 32)
        fmt = rng.choice(("text", "json"))
        return {"argv": ["reflect", "--in", mirror, "--target=" + text, "--format", fmt],
                "cmd": cmd, "ast": ast, "mirror": mirror, "format": fmt}
    if cmd == "project":
        ideal, side = rng.choice(("pos", "neg")), rng.choice(("left", "right"))
        text, ast = expression(rng, 32)
        fmt = rng.choice(("text", "json"))
        return {"argv": ["project", "--ideal", ideal, "--side", side, "--target=" + text,
                         "--format", fmt],
                "cmd": cmd, "ast": ast, "ideal": ideal, "side": side, "format": fmt}
    if cmd == "gate":
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        name = rng.choice(("not", "hadamard"))
        fmt = rng.choice(("text", "json"))
        return {"argv": ["gate", "--name", name, f"--alpha={_fmt(alpha.real)},{_fmt(alpha.imag)}",
                         f"--beta={_fmt(beta.real)},{_fmt(beta.imag)}", "--format", fmt],
                "cmd": cmd, "name": name, "alpha": alpha, "beta": beta, "format": fmt}
    if cmd == "cube":
        text, ast = expression(rng, 24)
        fmt = rng.choice(("ascii", "svg"))
        return {"argv": ["cube", "--target=" + text, "--format", fmt],
                "cmd": cmd, "ast": ast, "format": fmt}
    blade = rng.choice(BLADES)
    return {"argv": ["signature", "--blade", blade], "cmd": "signature", "blade": blade}


def _invalid_cli(rng: random.Random, defect: str) -> dict:
    """An input the program should reject with exit code 1 or 2."""
    text, _ = expression(rng, 12)
    unit = _unit3(rng)
    axis = "--axis=" + ",".join(map(_fmt, unit))
    target = "--target=" + text
    if defect == "div_zero":
        argv = ["eval", "--", f"{text} + {rng.randint(1, 9)}/0"]
    elif defect == "inf_theta":
        argv = ["rotate", axis, "--theta=" + rng.choice(("inf", "-inf")), target]
    elif defect == "nan_theta":
        argv = ["rotate", axis, "--theta=nan", target]
    elif defect == "nan_axis":
        argv = ["rotate", "--axis=nan,0,1", "--theta=" + _fmt(rng.uniform(-3, 3)), target]
    elif defect == "long_literal":
        digits = str(rng.randint(1, 9)) + "".join(str(rng.randrange(10)) for _ in range(399))
        argv = ["eval", "--", f"{digits}*({text})"]
    elif defect == "deep_nesting":
        depth = 5000 + rng.randrange(1000)
        argv = ["eval", "--", "(" * depth + text + ")" * depth]
    elif defect == "unbalanced":
        argv = ["eval", "--", "(" * rng.randint(1, 4) + text]
    elif defect == "unknown_name":
        name = rng.choice(("foo", "e4", "Q1", "sqrt", "Ebar"))
        argv = ["eval", "--", f"{text} * {name}"]
    elif defect == "non_unit_axis":
        k = rng.uniform(1.5, 4.0)
        argv = ["rotate", "--axis=" + ",".join(_fmt(k * x) for x in unit), "--theta=1.0", target]
    else:  # nan_gate
        argv = ["gate", "--name", rng.choice(("not", "hadamard")), "--alpha=nan,0", "--beta=0,0"]
    return {"argv": argv, "cmd": argv[0], "defect": defect}


def cli_ops(seed: int, n: int) -> list[dict]:
    """argv specs for frontend_inproc, in-process and in its cold probes."""
    rng = random.Random(f"cli:{seed}")
    block = [c for c, count in CLI_BLOCK for _ in range(count)]
    block += ["invalid"] * CLI_INVALID_PER_BLOCK
    turn = rng.randrange(len(DEFECT_CLASSES))
    ops = []
    for cmd in _blocks(rng, n, block):
        if cmd == "invalid":
            ops.append(_invalid_cli(rng, DEFECT_CLASSES[turn % len(DEFECT_CLASSES)]))
            turn += 1
        else:
            ops.append(_valid_cli(rng, cmd))
    return ops


GENERATORS = {
    "algebra_dense": algebra_ops,
    "structure_exact": structure_ops,
    "frontend_inproc": cli_ops,
}
