"""longattn: attention variants and a toy CTC pipeline for studying
train/test sequence-length mismatch."""

import os

__version__ = "0.1.0"

# Pool workers (``attention.multihead.row_block_pool``) that each call a threaded
# GEMM contend for the same cores, so BLAS runs on one thread unless the user set
# a count. BLAS reads these once, when numpy loads; no submodule has loaded it yet.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
