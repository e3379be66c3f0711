"""End-to-end + per-layer benchmark of the trainer hot path, trace
replay and the serve daemon (see ``README.md`` in this directory).

Everything here times ``src/repro`` from outside, through public entry
points only; ``BENCHMARK.json`` at the repo root names the metrics.
"""
