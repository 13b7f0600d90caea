"""Test-session setup: one BLAS thread per process.

The runtime budgets in test_acceptance.py are measured with one BLAS
thread; OpenBLAS's default of one thread per core contends with any other
BLAS-heavy process on the host.  The variables are read when numpy loads
its BLAS, so they are set here, before any test module imports numpy; a
value already in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
