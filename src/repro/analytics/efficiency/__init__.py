"""Resource efficiency: quantization, continual calibration (QCore),
dataset condensation (TimeDC), and knowledge distillation."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "condensation": ("TimeSeriesCondenser",),
    "distillation": ("DistilledForecaster",),
    "quantization": (
        "QuantizedLinear", "dequantize_array", "model_size_bytes",
        "quantize_array",
    ),
})
