#!/usr/bin/env python3
"""Repository benchmark: host throughput of the serving simulator and the W4A8 numeric path.

Run from the repository root::

    python3 perfbench/run.py --workload sharegpt-decode --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare RESULTS_DIR_A RESULTS_DIR_B

A run measures one workload of ``BENCHMARK.json`` in this single-threaded process (BLAS
pools capped at one thread).  It prints its metrics by name and unit, the simulated-results
digest, the output checks and provenance; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced pass with ``--trace 1``).  The full
record goes to ``<results>/<workload>-seed<seed>-trace<t>.json`` and, when traced, the
spans to ``<results>/<workload>-seed<seed>.spans.npz``.

``--compare A B`` reads the records of two result directories (for instance the parent
commit and a change, run with the same seeds) and prints, per workload and end-to-end
metric, each side's median and quartiles, pair wins and a verdict under the benchmark's
bounds, then per-layer deltas and whether the simulated-results digests match.
"""

import argparse
import os
import sys

# One thread per workload process: cap the BLAS pools before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long the timed passes run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(ROOT, "perfbench", "results"),
                        help="directory for run records (default: perfbench/results)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare the run records of two result directories")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Import the benchmark as a package, never its files as top-level modules.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    if args.compare:
        from perfbench.compare import compare

        for line in compare(*args.compare):
            print(line)
        return 0
    from perfbench import harness

    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = harness.run(args.workload, args.seed, seconds, bool(args.trace),
                         results_dir=args.results, spec=spec)
    for line in harness.describe(result):
        print(line)
    print(harness.final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
