"""Benchmark of the curvcert CLI: workloads, output oracle, per-layer tracing, compare mode.

This module imports nothing heavy, so the entry point can pin the BLAS
thread counts before numpy loads.
"""

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
