"""Cross-modal embedding alignment (MM-Path-style fusion [23]).

The paper's example of representation-level fusion is MM-Path, which
*aligns* embeddings of the same path computed from two modalities (road
network vs. satellite imagery).  This module provides the two classical
alignment mechanisms the NumPy reproduction uses:

* :func:`procrustes_align` — the best orthogonal map from one embedding
  space onto another (closed form via SVD);
* :class:`CcaAligner` — canonical correlation analysis: projects both
  modalities into a shared space maximizing cross-modal correlation.

:func:`retrieval_accuracy` measures alignment quality the way the
cross-modal literature does: does the nearest neighbour of an item's
modality-A embedding, among modality-B embeddings, belong to the same
item?
"""

from __future__ import annotations

import numpy as np

from ..._validation import as_float_array, check_positive

__all__ = ["procrustes_align", "CcaAligner", "retrieval_accuracy"]


def procrustes_align(source, target):
    """Orthogonal matrix ``W`` minimizing ``||source @ W - target||_F``.

    Both inputs must have shape ``(n, d)`` with rows in correspondence.
    """
    source = as_float_array(source, "source", ndim=2)
    target = as_float_array(target, "target", ndim=2)
    if source.shape != target.shape:
        raise ValueError(
            f"shape mismatch: {source.shape} vs {target.shape}"
        )
    u, _, vt = np.linalg.svd(source.T @ target)
    return u @ vt


class CcaAligner:
    """Canonical correlation analysis via the SVD of whitened covariances.

    ``fit(x, y)`` learns projections ``Wx`` (``dx x k``) and ``Wy``
    (``dy x k``) such that corresponding columns of ``x @ Wx`` and
    ``y @ Wy`` are maximally correlated.  Regularization keeps the
    whitening stable when features are collinear.
    """

    def __init__(self, n_components=2, regularization=1e-6):
        self.n_components = int(check_positive(n_components, "n_components"))
        self.regularization = float(regularization)
        self.x_mean = None
        self.y_mean = None
        self.x_projection = None
        self.y_projection = None
        self.correlations = None

    def fit(self, x, y):
        """Learn the paired projections from rows in correspondence."""
        x = as_float_array(x, "x", ndim=2)
        y = as_float_array(y, "y", ndim=2)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        if x.shape[0] < 3:
            raise ValueError("need at least 3 paired samples")
        k = min(self.n_components, x.shape[1], y.shape[1])

        self.x_mean = x.mean(axis=0)
        self.y_mean = y.mean(axis=0)
        xc = x - self.x_mean
        yc = y - self.y_mean
        n = x.shape[0]

        cxx = xc.T @ xc / n + self.regularization * np.eye(x.shape[1])
        cyy = yc.T @ yc / n + self.regularization * np.eye(y.shape[1])
        cxy = xc.T @ yc / n

        # Whiten, then SVD of the cross-covariance.
        from scipy import linalg

        cxx_inv_half = linalg.fractional_matrix_power(cxx, -0.5).real
        cyy_inv_half = linalg.fractional_matrix_power(cyy, -0.5).real
        core = cxx_inv_half @ cxy @ cyy_inv_half
        u, singular_values, vt = np.linalg.svd(core)
        self.x_projection = cxx_inv_half @ u[:, :k]
        self.y_projection = cyy_inv_half @ vt[:k].T
        self.correlations = np.clip(singular_values[:k], 0.0, 1.0)
        return self

    def _check_fitted(self):
        if self.x_projection is None:
            raise RuntimeError("call fit before transform")

    def transform_x(self, x):
        """Project modality-A embeddings into the shared space."""
        self._check_fitted()
        x = as_float_array(x, "x", ndim=2)
        return (x - self.x_mean) @ self.x_projection

    def transform_y(self, y):
        """Project modality-B embeddings into the shared space."""
        self._check_fitted()
        y = as_float_array(y, "y", ndim=2)
        return (y - self.y_mean) @ self.y_projection


def retrieval_accuracy(queries, gallery):
    """Top-1 cross-modal retrieval accuracy.

    Row ``i`` of ``queries`` is the modality-A embedding of item ``i``
    and row ``i`` of ``gallery`` its modality-B embedding; accuracy is
    the fraction of items whose nearest gallery row (cosine similarity)
    is their own.
    """
    queries = as_float_array(queries, "queries", ndim=2)
    gallery = as_float_array(gallery, "gallery", ndim=2)
    if queries.shape != gallery.shape:
        raise ValueError("queries and gallery must have matching shapes")

    def normalize(matrix):
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return matrix / norms

    similarity = normalize(queries) @ normalize(gallery).T
    predicted = similarity.argmax(axis=1)
    return float(np.mean(predicted == np.arange(len(queries))))
