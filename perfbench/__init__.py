"""Layered benchmark for skeincalc; run it with ``python3 perfbench/run.py``."""
