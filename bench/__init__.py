"""The repository's benchmark: workloads, tracing and the regression gate.

Everything here observes ``repro`` from outside (``BENCHMARK.json`` at the
repo root is the machine-readable contract; ``bench/README.md`` the prose).
"""
