"""The repo's one layered benchmark (see bench/README.md).

``python3 bench/run.py`` (or ``python -m bench.run``) runs five named
workloads, prints four end-to-end metrics from untraced runs and a
per-layer ledger from a separate traced pass, and checks outputs.
``BENCHMARK.json`` at the repo root declares the same names; nothing
under ``src/`` knows this package exists.
"""
