"""Sparse data-structure substrate.

The paper's workloads all reduce to traversals of compressed sparse
structures (Sec. II-A); this package provides the structures themselves:

* :mod:`repro.sparse.csr` — the CSR format the paper's SpMM listing uses.
* :mod:`repro.sparse.generate` — seeded sparsity-pattern generators with
  the statistical knobs that drive cache behaviour.
* :mod:`repro.sparse.spmm` — reference one-side / two-side SpMM kernels
  (functional ground truth for the simulator's access streams).
"""

from .csr import CSRMatrix
from .generate import block_csr, powerlaw_csr, uniform_csr
from .spmm import spmm_one_side, spmm_two_side

__all__ = [
    "CSRMatrix",
    "block_csr",
    "powerlaw_csr",
    "spmm_one_side",
    "spmm_two_side",
    "uniform_csr",
]
