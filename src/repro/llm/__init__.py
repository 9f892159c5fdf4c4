"""LLMCompass-lite: system-level LLM inference model (Fig. 8).

The paper evaluates NVR's end-to-end impact with LLMCompass; this package
rebuilds the relevant slice: a transformer cost model
(:mod:`repro.llm.model`), NPU hardware spec (:mod:`repro.llm.hardware`)
and a roofline throughput model (:mod:`repro.llm.inference`) whose
memory-efficiency inputs are *measured* from the micro-simulator on the
Double-Sparsity trace — so the Fig. 8 curves inherit the simulated cache
behaviour rather than assumed constants.
"""

from .hardware import NPUHardware
from .inference import (
    MemoryCalibration,
    calibrate_memory_efficiency,
    calibration_plan,
    decode_throughput,
    gather_layer_rates,
    layer_miss_plan,
    layer_miss_rates,
    prefill_throughput,
)
from .model import TransformerSpec

__all__ = [
    "MemoryCalibration",
    "NPUHardware",
    "TransformerSpec",
    "calibrate_memory_efficiency",
    "calibration_plan",
    "decode_throughput",
    "gather_layer_rates",
    "layer_miss_plan",
    "layer_miss_rates",
    "prefill_throughput",
]
