"""Benchmark of the spatial engine: run ``python3 perfbench/run.py --help``."""
