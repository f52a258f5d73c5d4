"""Generality: pretrained representations (contrastive + masked) with
linear probing."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "contrastive": ("ContrastiveEncoder",),
    "masked": ("LinearProbe", "MaskedAutoencoderPretrainer"),
    "path2vec": ("PathEncoder",),
})
