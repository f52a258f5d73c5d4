"""Anomaly detection: autoencoders, robust training, ensembles, and the
spectral-residual baseline."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "autoencoder": ("AutoencoderDetector",),
    "ensembles": (
        "DiversityDrivenEnsembleDetector", "RandomizedEnsembleDetector",
    ),
    "robust": ("RobustAutoencoderDetector",),
    "spatial": ("GraphDeviationDetector",),
    "spectral": ("SpectralResidualDetector",),
})
