"""Roofline throughput model calibrated by the micro-simulator (Fig. 8).

The bridge between the cycle-level simulator and system-level LLM curves
is :class:`MemoryCalibration`, measured per mechanism on the
Double-Sparsity trace:

* ``gather_efficiency`` — effective fraction of bus bandwidth the
  mechanism sustains on sparse KV *gathers* (ideal memory cycles over
  ideal plus exposed stall cycles). In-order Gemmini's per-vector
  round-trips leave this in the few-percent range; NVR's runahead brings
  it near 1.
* ``traffic_ratio`` — off-chip bytes relative to the no-prefetch run
  (redundant prefetches raise it; the NSB's reuse capture lowers it).

Streaming traffic (weights, activations, KV writes) moves as DMA bursts
at full bandwidth for every mechanism; only gather traffic is divided by
``gather_efficiency``::

    t = max(t_compute, traffic_ratio * (t_stream + t_gather / eff))

This reproduces both Fig. 8 observations: prefill (compute-bound, small
gather share) reaches peak throughput at lower bandwidth under NVR, and
decode (IO-bound, gather share grows with context) gains throughput on
the order of the paper's ~50%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import make_system
from ..errors import ConfigError
from ..resultset import ResultSet
from ..runner import RunSpec
from ..session import Grid, Session, default_session
from ..sim.memory.hierarchy import MemoryConfig
from ..sim.npu.program import ProgramConfig, SparseProgram, build_one_side_program
from ..sim.soc import RunResult
from ..sparse.csr import CSRMatrix
from .hardware import NPUHardware
from .model import TransformerSpec


@dataclass(frozen=True)
class MemoryCalibration:
    """Simulator-derived memory behaviour of one mechanism."""

    mechanism: str
    gather_efficiency: float
    traffic_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gather_efficiency <= 1.0:
            raise ConfigError("gather_efficiency must be in (0, 1]")
        if self.traffic_ratio <= 0:
            raise ConfigError("traffic_ratio must be positive")

    @classmethod
    def measure(
        cls, mechanism: str, reference: RunResult, run: RunResult
    ) -> MemoryCalibration:
        """The calibration of a ``with_base`` DS run of ``mechanism``.

        ``gather_efficiency = ideal / (ideal + stall)`` memory cycles of
        ``run``; ``traffic_ratio`` = its off-chip bytes over those of the
        no-prefetch ``reference``.
        """
        bytes_per_cycle = MemoryConfig().dram.bytes_per_cycle
        offchip = run.stats.traffic.off_chip_total_bytes
        mem_ideal = max(1.0, offchip / bytes_per_cycle)
        efficiency = mem_ideal / (mem_ideal + run.stall_cycles)
        ref_bytes = max(1, reference.stats.traffic.off_chip_total_bytes)
        return cls(
            mechanism=mechanism,
            gather_efficiency=float(min(1.0, efficiency)),
            traffic_ratio=float(offchip / ref_bytes),
        )


def calibration_plan(
    mechanism: str = "nvr",
    nsb: bool = False,
    scale: float = 0.3,
    seed: int = 0,
) -> list[RunSpec]:
    """The Fig. 8 calibration pair (in-order reference + mechanism)."""
    reference = Grid(
        workload="ds", mechanism="inorder", scale=scale, seed=seed, with_base=True
    )
    measured = Grid(
        workload="ds",
        mechanism=mechanism,
        nsb=nsb,
        scale=scale,
        seed=seed,
        with_base=True,
    )
    return reference.specs() + measured.specs()


def calibrate_memory_efficiency(
    mechanism: str = "nvr",
    nsb: bool = False,
    scale: float = 0.3,
    seed: int = 0,
    session: Session | None = None,
) -> MemoryCalibration:
    """Measure gather efficiency and traffic ratio on the DS trace.

    Runs the Double-Sparsity micro-benchmark under ``mechanism`` (plus an
    in-order reference for the traffic baseline) and derives the two
    roofline inputs with :meth:`MemoryCalibration.measure`. The in-order
    reference is a plain plan spec, so the two Fig. 8 calibrations share
    one reference simulation whenever ``session`` carries a cache (the
    specs are identical across both calls).
    """
    session = session or default_session()
    reference, run = session.sweep(
        calibration_plan(mechanism, nsb=nsb, scale=scale, seed=seed)
    ).results
    return MemoryCalibration.measure(mechanism, reference, run)


def _stage_time(
    flops: float,
    stream_bytes: float,
    gather_bytes: float,
    hw: NPUHardware,
    bandwidth_gbs: float,
    calib: MemoryCalibration,
) -> float:
    t_compute = hw.compute_time(flops)
    t_stream = hw.memory_time(stream_bytes, bandwidth_gbs)
    t_gather = hw.memory_time(gather_bytes, bandwidth_gbs) / calib.gather_efficiency
    return max(t_compute, calib.traffic_ratio * (t_stream + t_gather))


def prefill_throughput(
    spec: TransformerSpec,
    hw: NPUHardware,
    seq_len: int,
    bandwidth_gbs: float,
    calib: MemoryCalibration,
) -> float:
    """Prefill tokens/second for a prompt of ``seq_len``."""
    t = _stage_time(
        spec.prefill_flops(seq_len),
        spec.prefill_stream_bytes(seq_len),
        spec.prefill_gather_bytes(seq_len),
        hw,
        bandwidth_gbs,
        calib,
    )
    return seq_len / t


def decode_throughput(
    spec: TransformerSpec,
    hw: NPUHardware,
    context_len: int,
    bandwidth_gbs: float,
    calib: MemoryCalibration,
) -> float:
    """Decode tokens/second (per sequence) at a given context length."""
    t = _stage_time(
        spec.decode_flops_per_token(context_len),
        spec.decode_stream_bytes_per_token(),
        spec.decode_gather_bytes_per_token(context_len),
        hw,
        bandwidth_gbs,
        calib,
    )
    return 1.0 / t


# -- Fig. 8a: per-layer miss rates ------------------------------------------------


def _qkv_program(scale: float) -> SparseProgram:
    """The QKV projection layer: dense, streaming fp16 weight reads.

    Modelled as a fully dense 'sparse' operand whose gather indices are
    sequential — the regular end of the spectrum.
    """
    n_rows = max(8, int(48 * scale))
    d = 256
    rowptr = np.arange(0, (n_rows + 1) * d, d, dtype=np.int64)
    cols = np.tile(np.arange(d, dtype=np.int64), n_rows)
    weights = CSRMatrix(n_rows, d, rowptr, cols, np.ones(len(cols), dtype=np.float32))
    return build_one_side_program(
        "qkv", weights, ProgramConfig(elem_bytes=2, ia_seg_elems=64)
    )


def layer_miss_plan(
    mechanisms: tuple[str, ...] = ("inorder", "nvr"),
    scale: float = 0.3,
    seed: int = 0,
) -> list[RunSpec]:
    """The runner-spec part of the Fig. 8a pass: the fp16 DS gathers of
    QK^T (at ``seed``) and AV (at ``seed + 101``) per mechanism."""
    return Grid(
        workload="ds",
        mechanism=mechanisms,
        dtype="fp16",
        scale=scale,
        seed=[seed, seed + 101],
    ).specs()


def gather_layer_rates(gathers: ResultSet) -> dict[str, dict[str, tuple[float, float]]]:
    """Batch and element miss rates per attention layer (Fig. 8a).

    ``gathers`` holds :func:`layer_miss_plan` results. Returns
    ``{layer: {mechanism: (batch_miss_rate, element_miss_rate)}}`` for
    the QKV projection (streaming), QK^T (K-cache gather) and AV
    (V-cache gather) layers. The dense QKV program is not a workload, so
    it runs here in-process at the gathers' scale.
    """
    first = gathers.specs[0]
    qkv_program = _qkv_program(first.scale)
    out: dict[str, dict[str, tuple[float, float]]] = {"qkv": {}, "qkt": {}, "av": {}}
    for mech in dict.fromkeys(spec.mechanism for spec in gathers.specs):
        layers = (
            make_system(qkv_program, mechanism=mech).run(),
            gathers.one(mechanism=mech, seed=first.seed),
            gathers.one(mechanism=mech, seed=first.seed + 101),
        )
        for layer, result in zip(out, layers):
            out[layer][mech] = (
                result.stats.batch.batch_miss_rate,
                result.stats.batch.element_miss_rate,
            )
    return out


def layer_miss_rates(
    mechanisms: tuple[str, ...] = ("inorder", "nvr"),
    scale: float = 0.3,
    seed: int = 0,
    session: Session | None = None,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Fig. 8a's :func:`gather_layer_rates`, one gather sweep per mechanism."""
    session = session or default_session()
    gathers = [
        entry
        for mech in mechanisms
        for entry in session.sweep(layer_miss_plan((mech,), scale=scale, seed=seed))
    ]
    return gather_layer_rates(ResultSet(gathers))
