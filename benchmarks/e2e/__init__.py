"""The repo's one end-to-end benchmark (see ``README.md`` beside this file).

``run.py`` is the entry point ``BENCHMARK.json`` names: one workload,
one seed, one measured phase, one JSON line.  ``python -m
benchmarks.e2e`` runs all four workloads, compares two result files and
checks that a repeat agrees with itself.
"""
