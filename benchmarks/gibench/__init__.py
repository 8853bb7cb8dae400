"""Benchmark code for gifield; run it through ``benchmarks/run.py``."""
