"""End-to-end benchmark: four workloads, named metrics, per-layer attribution.

See ``benchmarks/e2e/README.md`` and ``BENCHMARK.json`` at the repository
root. Importing this package imports nothing from the program.
"""
