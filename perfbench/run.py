"""geobyte benchmark: seeded, self-checking, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each was chosen):
  algebra_dense    dense random multivectors through the library's hot path
  structure_exact  exact dyadic structure-element calculus
  frontend_inproc  geobyte.cli.main(argv) in-process, 15% invalid input
  all              every workload in turn

One process and one thread call the library as a closed loop: the next
operation starts when the previous one returns, cycling through a seeded
pool of operations.  Throughput and latency percentiles are taken over the
pool, each operation at its best time of its repeats in the run (the
all-samples figures are printed too).  Every output is checked against an
independent route outside the timed region.  Fresh-interpreter probes,
spread over the run, give the cold-start and set-up medians.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics, from wrappers installed around public entry points.  Lines
starting with '#' are the readable report; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from time import perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

import gen  # noqa: E402  (stdlib only, so safe before geobyte)

WORKLOADS = {  # pool size: operations generated per seed, cycled through
    "algebra_dense": 2400,
    "structure_exact": 1800,
    "frontend_inproc": 1000,
}
WARMUP_OPS = 36  # valid operations run before timing, in every process
PROBES = 15  # cold probes per run, interleaved with the timed loop
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, BENCH, env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return time.perf_counter() - start, proc


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


# -- outcomes --------------------------------------------------------------


class Tally:
    """Failure accounting and accuracy telemetry.

    A failure is an uncaught exception, a wrong exit code, a non-finite
    number in an exit-0 output, or an oracle mismatch.  A GeobyteError
    exit (1 or 2) on input generated as invalid is an expected rejection.
    The first run of each pooled operation is checked against the oracle;
    a repeat must be bit-identical to that checked output, or it is
    checked again in full.
    """

    def __init__(self, workload: str, pool: int):
        import oracle

        self.oracle = oracle
        self.cli = workload == "frontend_inproc"
        self.check = {"algebra_dense": oracle.check_algebra,
                      "structure_exact": oracle.check_structure}.get(workload)
        self.pool = pool
        self.verified: dict[int, bytes] = {}
        self.attempted = 0
        self.rejections = 0
        self.failures: Counter = Counter()  # class -> count
        self.valid_failures = 0
        self.by_detail: Counter = Counter()  # (class, input) -> count
        self.worst: dict[str, float] = {}

    def __call__(self, i: int, spec, out, exc) -> None:
        self.attempted += 1
        if self.cli:
            self._cli(spec, out, exc)
            return
        if exc is not None:
            self._fail("uncaught_exception", f"{spec[0]}: {type(exc).__name__}", True)
            return
        digest = pickle.dumps(out, 5)
        if self.verified.get(i % self.pool) == digest:
            return
        if self._checked(lambda: self.check(spec, out), spec[0]):
            self.verified[i % self.pool] = digest

    def _fail(self, cls: str, detail: str, valid: bool) -> None:
        self.failures[cls] += 1
        self.by_detail[(cls, detail)] += 1
        self.valid_failures += valid

    def _checked(self, check, detail: str) -> bool:
        o = self.oracle
        try:
            pairs = check()
        except o.NonFinite:
            self._fail("nonfinite_output", detail, True)
            return False
        except (o.Mismatch, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            self._fail("oracle_mismatch", f"{detail}: {type(exc).__name__}", True)
            return False
        ok = True
        for cat, r in pairs:
            ok = ok and r <= (o.LOSSY_TOL if cat == "lossy" else o.TOL)
            self.worst[cat] = max(r, self.worst.get(cat, 0.0))
        if not ok:
            self._fail("oracle_mismatch", detail, True)
        return ok

    def _cli(self, spec, out, exc) -> None:
        defect = spec.get("defect")
        valid = defect is None
        detail = spec["cmd"] if valid else defect
        if exc is not None:
            self._fail("uncaught_exception", f"{detail}: {type(exc).__name__}", valid)
            return
        code, stdout, _ = out
        nonfinite = code == 0 and self.oracle.has_nonfinite(stdout)
        if not valid:
            if code in (1, 2):
                self.rejections += 1
            elif nonfinite:
                self._fail("nonfinite_output", detail, False)
            else:
                self._fail("wrong_exit_code", f"{detail}: {code}", False)
        elif code != 0:
            self._fail("wrong_exit_code", f"{detail}: {code}", True)
        elif nonfinite:
            self._fail("nonfinite_output", detail, True)
        else:
            self._checked(lambda: self.oracle.check_cli(spec, stdout), detail)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def margin_digits(self) -> float:
        """log10(tolerance / worst residual) over the lossless checks; an
        exact result is capped at the residual floor."""
        o = self.oracle
        worst = max([r for c, r in self.worst.items() if c != "lossy"], default=0.0)
        return math.log10(o.TOL / max(worst, o.RESIDUAL_FLOOR))

    def report(self) -> list[str]:
        lines = [f"# outcomes attempted={self.attempted} failed={self.failed} "
                 f"(on valid input {self.valid_failures}) expected_rejections={self.rejections} "
                 f"error_rate={self.failed / max(1, self.attempted):.6f}"]
        for (cls, detail), n in sorted(self.by_detail.items()):
            lines.append(f"# failure class={cls} input={detail} count={n}")
        for cat, r in sorted(self.worst.items()):
            tol = self.oracle.LOSSY_TOL if cat == "lossy" else self.oracle.TOL
            lines.append(f"# accuracy check={cat} worst_residual={r:.3e} tolerance={tol:g} "
                         f"margin_digits={math.log10(tol / max(r, self.oracle.RESIDUAL_FLOOR)):.3f}")
        return lines


# -- measurement -------------------------------------------------------------


def timed_loop(run, specs, on_result, seconds=math.inf, count=None, start=0,
               tracer=None) -> array:
    """Closed loop over ``specs`` from index ``start`` until ``seconds`` of
    operation time are spent or ``count`` operations are done; returns
    per-operation latencies in ns (a compact array, so that the samples
    barely move peak memory)."""
    lat = array("q")
    budget = seconds * 1e9
    busy = 0
    i = start
    n = len(specs)
    end = math.inf if count is None else start + count
    while busy < budget and i < end:
        spec = specs[i % n]
        if tracer is not None:
            tracer.begin_op(i)
        t0 = perf_counter_ns()
        try:
            out, exc = run(spec), None
        except Exception as e:  # a failure of the program under test; counted
            out, exc = None, e
        dt = perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_op()
        lat.append(dt)
        busy += dt
        on_result(i, spec, out, exc)
        i += 1
    return lat


def best_of_repeats(lat: array, pool: int) -> array:
    """Each pooled operation's fastest run.  The loop cycles through the
    pool, so every operation repeats many times in a run; its best time is
    what it costs when the shared host is not slowing it down, which moves
    far less from run to run than any statistic of all samples."""
    best = array("q", lat[:pool])
    for k in range(pool, len(lat)):
        j = k % pool
        if lat[k] < best[j]:
            best[j] = lat[k]
    return best


def cold_probe(workload: str, seed: int) -> tuple[float, float]:
    """(cold start ms, set-up s) of one fresh interpreter."""
    args = [sys.executable, os.path.join(BENCH, "probe.py"), workload, str(seed), str(WARMUP_OPS)]
    start = time.perf_counter()
    with subprocess.Popen(args, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        cold = time.perf_counter() - start
        # read on through the same buffered pipe: communicate() would skip
        # what readline() has already buffered
        rest = proc.stdout.read()
        err = proc.stderr.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"cold probe failed:\n{err}")
    return cold * 1e3, json.loads(rest.strip().splitlines()[-1])["setup_s"]


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy cumulative ms, self ms summed over geobyte's own modules)."""
    numpy_us = geobyte_us = 0
    for self_us, cum_us, name in _IMPORT_LINE.findall(stderr):
        if name == "numpy":
            numpy_us = int(cum_us)
        if name == "geobyte" or name.startswith("geobyte."):
            geobyte_us += int(self_us)
    return numpy_us / 1e3, geobyte_us / 1e3


def bare_interpreter_ms() -> float:
    return statistics.median(run_child(["-c", "pass"])[0] * 1e3 for _ in range(IMPORT_PROBES))


def import_metrics() -> dict[str, float]:
    numpy_ms, own_ms = [], []
    for _ in range(IMPORT_PROBES):
        _, proc = run_child(["-X", "importtime", "-c", "import geobyte, geobyte.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr}")
        a, b = parse_importtime(proc.stderr)
        numpy_ms.append(a)
        own_ms.append(b)
    return {"import.interp_bare_ms": bare_interpreter_ms(),
            "import.numpy_ms": statistics.median(numpy_ms),
            "import.geobyte_self_ms": statistics.median(own_ms)}


def load_geobyte():
    if not os.path.isfile(os.path.join(SRC, "geobyte", "__init__.py")):
        raise BenchError(f"no geobyte source tree under {SRC}")
    sys.path.insert(0, SRC)
    import geobyte
    import ops

    if not os.path.abspath(geobyte.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported geobyte from {geobyte.__file__}, not from {SRC}")
    return geobyte, ops


def environment(gb, bare_ms: float) -> str:
    import numpy

    have_numba = bool(getattr(gb, "HAVE_NUMBA", False))
    return (f"# env python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} kernel={'numba' if have_numba else 'numpy-einsum'} "
            f"bare_interpreter_ms={bare_ms:.2f} (machine-speed reference, not gated)")


def prepare(workload: str, seed: int):
    specs = gen.GENERATORS[workload](seed, WORKLOADS[workload])
    gb, ops = load_geobyte()
    run = ops.runner(workload)
    ops.warm_up(run, ops.valid(specs)[:WARMUP_OPS])
    return specs, gb, run


def end_to_end(workload: str, seed: int, seconds: float):
    specs, gb, run = prepare(workload, seed)
    notes = [environment(gb, bare_interpreter_ms())]
    tally = Tally(workload, len(specs))
    lat = array("q")
    cold, setup = [], []
    for _ in range(PROBES):
        lat += timed_loop(run, specs, tally, seconds / PROBES, start=len(lat))
        c, s = cold_probe(workload, seed)
        cold.append(c)
        setup.append(s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = best_of_repeats(lat, len(specs))
    notes += [f"# samples operations={len(lat)} pooled_operations={len(best)} "
              f"cold_probes={len(cold)}",
              f"# all samples: throughput={len(lat) / (sum(lat) / 1e9):.6g} 1/s "
              f"latency_p50={statistics.median(lat) / 1e3:.6g} us "
              f"latency_p99={percentile(lat, 0.99) / 1e3:.6g} us"]
    metrics = {
        "throughput_ops_s": len(best) / (sum(best) / 1e9),
        "latency_p50_us": statistics.median(best) / 1e3,
        "latency_p99_us": percentile(best, 0.99) / 1e3,
        "cold_start_ms_p50": statistics.median(cold),
        "cold_start_ms_p90": percentile(cold, 0.90),
        "oracle_margin_digits": tally.margin_digits(),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    return metrics, tally, notes


def per_layer(workload: str, seed: int, seconds: float):
    from tracing import KEEP_SPAN_OPS, Tracer

    specs, gb, run = prepare(workload, seed)
    n = len(specs)
    start = time.perf_counter()
    # one pass over the pool untraced, then the same pass traced: their
    # ratio is the tracing overhead, and the traced pass gives exact counts
    plain = timed_loop(run, specs, Tally(workload, n), count=n)
    tracer = Tracer()
    tracer.install()
    counted = Tally(workload, n)
    tracer.keep_until = KEEP_SPAN_OPS
    traced = timed_loop(run, specs, counted, count=n, tracer=tracer)
    tracer.keep_until = 0
    metrics = tracer.counts(n)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    tracer.write_spans(os.path.join(ROOT, ".bench_trace", f"{workload}-seed{seed}.jsonl"))
    # the rest of the run, traced, gives the per-layer times
    tracer.reset()
    rest = seconds - (time.perf_counter() - start)
    traced = timed_loop(run, specs, lambda *a: None, max(rest, 0.1 * seconds), tracer=tracer)
    tracer.uninstall()
    metrics.update(tracer.timings(len(traced)))
    metrics["trace.absent_entry_points"] = len(tracer.absent)
    metrics.update(import_metrics())
    notes = [environment(gb, metrics["import.interp_bare_ms"])]
    f = counted.failures
    cli = counted.cli
    metrics.update({
        "cli.uncaught_exceptions": f["uncaught_exception"] if cli else 0,
        "cli.nonfinite_outputs": f["nonfinite_output"] if cli else 0,
        "cli.wrong_exit_codes": f["wrong_exit_code"] if cli else 0,
        "library.failures": 0 if cli else counted.failed,
        "oracle.mismatches": f["oracle_mismatch"],
        "error_rate": counted.failed / counted.attempted,
        "expected_rejection_rate": counted.rejections / counted.attempted,
    })
    if tracer.absent:
        notes.append("# absent entry points: " + " ".join(tracer.absent))
    notes.append(f"# counting pass over {counted.attempted} pooled operations; spans of the "
                 f"first {KEEP_SPAN_OPS} in .bench_trace/")
    return metrics, counted, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    metrics, tally, notes = (per_layer if trace else end_to_end)(workload, seed, seconds)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    metrics = {name: (metrics[name], units[name]) for name in units}
    for line in notes + tally.report():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {unit}")
    # ``failed`` counts operations on valid input that did not give the
    # checked result.  Failures on input generated as invalid (the known
    # robustness defects) are in error_rate and the failure classes above.
    return {"correct": tally.valid_failures == 0, "attempted": tally.attempted,
            "failed": tally.valid_failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (BenchError, subprocess.SubprocessError, ImportError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": m for w, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
