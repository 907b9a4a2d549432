"""Benchmark of the fleetcarbon CLI; run it with ``python3 perfbench/run.py``."""
