"""Hybrid coherent/randomized LCU simulator and estimation harness."""

__version__ = "0.1.0"

from . import estimate, gsp, hybrid, lchs, lcu, partition, prng, qcore, qed, qlss  # noqa: F401
