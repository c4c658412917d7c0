"""Cold-process probe: a fresh interpreter imports geobyte, runs a
workload's first operation, then warms up on the next ones.

    python perfbench/probe.py <workload> <seed> <warmup_ops>

Prints "ready" once the first operation has returned (the parent times
the cold start up to that line), then the set-up time as JSON: import
plus warm-up, measured in here.  Inputs are generated before the clock
starts.
"""

import json
import sys
import time

from gen import GENERATORS


def main() -> None:
    workload, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    specs = GENERATORS[workload](seed, 2 * n)
    start = time.perf_counter()
    import ops

    run = ops.runner(workload)
    first, *rest = ops.valid(specs)[:n]
    ops.warm_up(run, [first])
    print("ready", flush=True)
    ops.warm_up(run, rest)
    print(json.dumps({"setup_s": time.perf_counter() - start}), flush=True)


if __name__ == "__main__":
    main()
