"""Seeded end-to-end and per-layer benchmark of the broker-routing stack.

``perfbench/run.py`` is the entry point; each workload is a function
``(seed, seconds, trace) -> Outcome``.  Everything here drives the
program only through its public APIs and owns its inputs and its
correctness oracles.
"""
