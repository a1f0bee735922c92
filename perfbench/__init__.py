"""Repository benchmark: host throughput of the serving simulator and the W4A8 numeric path.

Run ``python3 perfbench/run.py --help`` from the repository root.  ``BENCHMARK.json`` at the
root lists the workloads, the end-to-end metrics with their regression bounds, and the
per-layer metrics of the traced pass.
"""
