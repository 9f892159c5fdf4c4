"""NVR — NPU Vector Runahead: the paper's contribution.

The purple blocks of Fig. 3, one module each:

* :mod:`repro.core.snooper` — the read-only probe over the sparse
  unit's registers.
* :mod:`repro.core.stride_detector` — SD: reference-prediction-table
  stride detector that gates runahead on the W-values stream.
* :mod:`repro.core.loop_bound_detector` — LBD: sparse-mode boundary
  prediction from the sparse-unit row window, with fuzzy rounding.
* :mod:`repro.core.sparse_chain_detector` — SCD: Indirect Pattern Table,
  ``IA = ss_start + (W_LPI << stride)`` with delta-confidence
  extrapolation for approximate (pre-data) prediction.
* :mod:`repro.core.vmig` — VMIG: IRU/PIE/VIGU pipeline rebundling element
  prefetches into native vector-width load micro-ops.
* :mod:`repro.core.nsb` — Non-blocking Speculative Buffer configuration.
* :mod:`repro.core.controller` — runahead entry/exit and sparse-unit idle
  arbitration.
* :mod:`repro.core.nvr` — :class:`NVRPrefetcher`, the composed mechanism
  (implements the same interface as every baseline).
* :mod:`repro.core.overhead` — Table I storage-bit accounting.

The model keeps only the detector state a runahead decision reads. The
LBD learns bounds only from the sparse-unit window: the paper's static
mode, trained on CPU branch events, feeds no prediction here, so no
mechanism consumes CPU branch events. The SD trains only the W-values
stream. Table I still budgets the paper's full SD, LBD and SCD tables.
"""

from .controller import NVRConfig, RunaheadController
from .loop_bound_detector import LoopBoundDetector
from .nsb import nsb_config
from .nvr import NVRPrefetcher
from .overhead import OverheadReport, nvr_overhead
from .sparse_chain_detector import SparseChainDetector
from .stride_detector import StrideDetector
from .vmig import VMIG

__all__ = [
    "LoopBoundDetector",
    "NVRConfig",
    "NVRPrefetcher",
    "OverheadReport",
    "RunaheadController",
    "SparseChainDetector",
    "StrideDetector",
    "VMIG",
    "nsb_config",
    "nvr_overhead",
]
