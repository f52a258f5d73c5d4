"""Data governance (paper Sec. II-B): improve raw data quality before
analytics -- missing-value imputation, uncertainty quantification, and
multi-modal fusion."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "fusion": ("fusion",),
    "imputation": ("imputation",),
    "uncertainty": ("uncertainty",),
})
