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
from ..runner import RunSpec
from ..session import Grid, Session, default_session
from ..sim.memory.hierarchy import MemoryConfig
from ..sim.npu.program import ProgramConfig, SparseProgram, build_one_side_program
from ..sparse.csr import CSRMatrix
from ..workloads import build_workload
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
    roofline inputs: ``gather_efficiency = ideal / (ideal + stall)``
    memory cycles, ``traffic_ratio`` = off-chip bytes vs no-prefetch.
    The in-order reference is a plain plan spec, so the two Fig. 8
    calibrations share one reference simulation whenever ``session``
    carries a cache (the specs are identical across both calls).
    """
    session = session or default_session()
    ref, res = session.sweep(
        calibration_plan(mechanism, nsb=nsb, scale=scale, seed=seed)
    ).results
    bytes_per_cycle = MemoryConfig().dram.bytes_per_cycle
    mem_ideal = max(1.0, res.stats.traffic.off_chip_total_bytes / bytes_per_cycle)
    efficiency = mem_ideal / (mem_ideal + res.stall_cycles)
    ref_bytes = max(1, ref.stats.traffic.off_chip_total_bytes)
    traffic_ratio = res.stats.traffic.off_chip_total_bytes / ref_bytes
    return MemoryCalibration(
        mechanism=mechanism,
        gather_efficiency=float(min(1.0, efficiency)),
        traffic_ratio=float(traffic_ratio),
    )


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


def _qkv_program(scale: float, elem_bytes: int) -> SparseProgram:
    """The QKV projection layer: dense, streaming weight reads.

    Modelled as a fully dense 'sparse' operand whose gather indices are
    sequential — the regular end of the spectrum.
    """
    n_rows = max(8, int(48 * scale))
    d = 256
    rowptr = np.arange(0, (n_rows + 1) * d, d, dtype=np.int64)
    cols = np.tile(np.arange(d, dtype=np.int64), n_rows)
    weights = CSRMatrix(n_rows, d, rowptr, cols, np.ones(len(cols), dtype=np.float32))
    return build_one_side_program(
        "qkv", weights, ProgramConfig(elem_bytes=elem_bytes, ia_seg_elems=64)
    )


_ELEM_DTYPE = {1: "int8", 2: "fp16", 4: "int32"}


def layer_miss_plan(
    mechanisms: tuple[str, ...] = ("inorder", "nvr"),
    scale: float = 0.3,
    seed: int = 0,
    elem_bytes: int = 2,
) -> list[RunSpec]:
    """The runner-spec part of the Fig. 8a pass (QK^T and AV gathers).

    Empty for exotic element widths: those, like the dense QKV program,
    execute in-process and never reach the plan/cache layer.
    """
    dtype = _ELEM_DTYPE.get(elem_bytes)
    if dtype is None:
        return []
    return Grid(
        workload="ds",
        mechanism=mechanisms,
        dtype=dtype,
        scale=scale,
        seed=[seed, seed + 101],
    ).specs()


def layer_miss_rates(
    mechanisms: tuple[str, ...] = ("inorder", "nvr"),
    scale: float = 0.3,
    seed: int = 0,
    elem_bytes: int = 2,
    session: Session | None = None,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Batch and element miss rates per attention layer (Fig. 8a).

    Returns ``{layer: {mechanism: (batch_miss_rate, element_miss_rate)}}``
    for the QKV projection (streaming), QK^T (K-cache gather) and AV
    (V-cache gather) layers. For the named element widths (1/2/4 bytes)
    the gather layers are plain plan specs; exotic widths — and the
    custom dense QKV program always — execute in-process.
    """
    session = session or default_session()
    dtype = _ELEM_DTYPE.get(elem_bytes)
    qkv_program = _qkv_program(scale, elem_bytes)
    gather_seeds = {"qkt": seed, "av": seed + 101}
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for mech in mechanisms:
        qkv = make_system(qkv_program, mechanism=mech).run()
        if dtype is not None:
            rs = session.sweep(
                layer_miss_plan((mech,), scale=scale, seed=seed, elem_bytes=elem_bytes)
            )
            gathers = [rs.one(seed=s) for s in gather_seeds.values()]
        else:
            gathers = [
                make_system(
                    build_workload("ds", scale=scale, seed=s, elem_bytes=elem_bytes),
                    mechanism=mech,
                ).run()
                for s in gather_seeds.values()
            ]
        for layer, result in zip(("qkv", *gather_seeds), (qkv, *gathers)):
            out.setdefault(layer, {})[mech] = (
                result.stats.batch.batch_miss_rate,
                result.stats.batch.element_miss_rate,
            )
    # Figure order: qkv, qkt, av (insertion above is per-mechanism).
    return {layer: out[layer] for layer in ("qkv", *gather_seeds)}
