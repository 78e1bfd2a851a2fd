"""Hybrid coherent/randomized LCU simulator and estimation harness."""

__version__ = "0.1.0"
