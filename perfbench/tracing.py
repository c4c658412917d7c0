"""Traced runs: wrappers installed by name around geobyte's public entry
points, recording spans and counts at each layer boundary.

Only the traced run installs them.  A wrapper records while the tracer is
active (inside a timed operation), so the oracle's checks are never
counted.  A name that no longer exists is reported absent instead of
failing, so refactors of module internals keep the benchmark running.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# layer -> (module, {class: methods}, functions)
ENTRY_POINTS = {
    "multivector": ("geobyte.multivector", {
        "Multivector": ("__init__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
                        "__truediv__", "__eq__", "__getitem__", "approx_eq", "norm",
                        "grade_project", "reversion", "grade_involution",
                        "clifford_conjugation", "to_json"),
        "ComplexScalar": ("embed",),
    }, ("involution", "basis_element", "geometric_product", "linear_combine",
        "approx_eq", "complex_multiply")),
    "clusters": ("geobyte.clusters", {"ByteSignature": ("__post_init__",)}, (
        "paravector", "structure_element", "to_structure_coords", "from_structure_coords",
        "byte_signature_to_blade", "blade_to_byte_signature", "face_paravector",
        "diag_basis", "diag_projection", "decompose_diag")),
    "transforms": ("geobyte.transforms", {"Quaternion": ("__init__", "reversion")}, (
        "quaternion_from_axis_angle", "cayley_klein", "euler_rodrigues",
        "quaternion_from_euler_rodrigues", "rotate", "compose", "reflect_point",
        "reflect_line", "reflect_plane", "structure_permutation", "rodrigues_matrix")),
    "hilbert": ("geobyte.hilbert", {"Spinor": ("__post_init__",)}, (
        "project", "degeneracy_partner", "spinor_pair", "covariant", "inner", "outer",
        "reconstruct_vector", "spinor_components", "spinor_from_components",
        "hadamard_regroup", "hadamard_basis_vectors", "not_gate")),
    "matrix2": ("geobyte.matrix2", {"ComplexMatrix2": ("__init__",)},
                ("to_matrix", "from_matrix", "adjoint")),
    "expressions": ("geobyte.expressions", {},
                    ("parse", "evaluate", "evaluate_text", "format_expression")),
    "report": ("geobyte.report", {}, ("decompose_report",)),
    "cube": ("geobyte.cube", {}, ("render_cube",)),
    "cli": ("geobyte.cli", {}, ("main", "build_parser")),
}

SELF_LAYERS = ("multivector", "clusters", "transforms", "hilbert", "matrix2", "report",
               "cube", "cli")
# exact counts: metric -> wrapped name whose calls it counts
COUNTED = {
    "multivector.constructions_per_op": "Multivector.__init__",
    "multivector.approx_eq_per_op": "Multivector.approx_eq",
    "hilbert.spinor_checks_per_op": "Spinor.__post_init__",
}
PRODUCT = "Multivector.__mul__"  # counted only when both operands are multivectors
# inclusive time of the outermost call, per operation or per call
PER_OP = {
    "expressions.parse_us_per_op": "parse",
    "expressions.evaluate_us_per_op": "evaluate",
    "cli.build_parser_us_per_op": "build_parser",
}
PER_CALL = {
    "transforms.structure_permutation_us": "structure_permutation",
    "hilbert.degeneracy_partner_us": "degeneracy_partner",
}
KEEP_SPAN_OPS = 50  # operations whose spans are written out


class Tracer:
    def __init__(self):
        self.active = False
        self.keep = False
        self.keep_until = 0  # spans of operations with a lower id are kept
        self.stack: list[list] = []
        self.open: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.outer_ns: defaultdict = defaultdict(int)
        self.calls: Counter = Counter()
        self.products = 0
        self.spans: list[tuple] = []
        self.op_id = 0
        self.next_span = 0
        self.installed: list[tuple] = []
        self.absent: list[str] = []

    # -- installation by name -------------------------------------------

    def install(self) -> None:
        gb_modules = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "geobyte" or name.startswith("geobyte."))]
        for layer, (modname, classes, funcs) in ENTRY_POINTS.items():
            mod = sys.modules.get(modname)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    name = f"{cls_name}.{meth}"
                    if cls is None or meth not in vars(cls):
                        self.absent.append(name)
                        continue
                    orig = vars(cls)[meth]
                    self._set(cls, meth, orig, self._wrap(name, layer, orig))
            for fn in funcs:
                orig = getattr(mod, fn, None)
                if not callable(orig):
                    self.absent.append(fn)
                    continue
                wrapper = self._wrap(fn, layer, orig)
                for m in gb_modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, orig, wrapper)

    def _set(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.installed):
            setattr(owner, attr, orig)
        self.installed.clear()

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        is_product = name == PRODUCT
        mv_cls = sys.modules["geobyte.multivector"].Multivector

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if is_product and isinstance(args[1], mv_cls):
                tracer.products += 1
            stack = tracer.stack
            parent = stack[-1][1]
            sid = tracer.next_span
            tracer.next_span += 1
            frame = [0, sid]  # ns covered by child spans, span id
            stack.append(frame)
            tracer.open[name] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.open[name] -= 1
                dur = end - start
                tracer.self_ns[layer] += dur - frame[0]
                if not tracer.open[name]:
                    tracer.outer_ns[name] += dur
                stack[-1][0] += dur
                if tracer.keep:
                    tracer.spans.append((tracer.op_id, sid, parent, name, start, end))

        return wrapper

    # -- per-operation root span and results ------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.keep = op_id < self.keep_until
        self.stack = [[0, -1]]  # the operation's root span
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.stack = []

    def reset(self) -> None:
        self.self_ns.clear()
        self.outer_ns.clear()
        self.calls.clear()
        self.products = 0

    def counts(self, ops: int) -> dict[str, float]:
        out = {"multivector.products_per_op": self.products / ops}
        for metric, name in COUNTED.items():
            out[metric] = self.calls[name] / ops
        return out

    def timings(self, ops: int) -> dict[str, float]:
        out = {f"{layer}.self_us_per_op": self.self_ns[layer] / ops / 1e3 for layer in SELF_LAYERS}
        for metric, name in PER_OP.items():
            out[metric] = self.outer_ns[name] / ops / 1e3
        for metric, name in PER_CALL.items():
            out[metric] = self.outer_ns[name] / self.calls[name] / 1e3 if self.calls[name] else 0.0
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for op_id, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"op": op_id, "span": sid, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")
