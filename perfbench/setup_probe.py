"""Set-up time of one workload in a fresh interpreter; the benchmark runs it as a child.

Usage: ``PYTHONPATH=src:. python3 perfbench/setup_probe.py <workload>``.  Prints one JSON
line: ``setup_s``, from this script's first statement until the workload's first engine or
kernel is built (importing ``repro`` included, input generation excluded), and
``construct_s``, the first ``ServingEngine`` construction alone (0 without one).
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    from perfbench.workloads import WORKLOADS

    construct_s = WORKLOADS[sys.argv[1]].construct()
    setup_s = time.perf_counter() - _START
    print(json.dumps({"setup_s": setup_s, "construct_s": construct_s}))


if __name__ == "__main__":
    main()
