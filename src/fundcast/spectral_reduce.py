"""PCA dimension reduction.

Centers the sample matrix, eigendecomposes its covariance with LAPACK's
symmetric eigensolver (np.linalg.eigh), and selects components by
cumulative explained variance. Loadings follow a deterministic sign
convention, so a refit on the same input gives the same bytes for a fixed
numpy/BLAS build and BLAS thread count; across those, the covariance
product and the eigensolver may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError

_RATIO_EPS = 1e-12
STD_BLOCK_ROWS = 256


def column_std(x: np.ndarray) -> np.ndarray:
    """x.std(axis=0), byte for byte, without a temporary the size of x.

    numpy sums a C-contiguous float64 matrix of two or more columns down its
    rows one row at a time, so the squared deviations are formed
    STD_BLOCK_ROWS rows at a time in a small buffer and summed with the
    running sum as the buffer's row 0: the same additions in the same order.
    One column (which numpy sums pairwise), no rows and other layouts or
    dtypes go to np.std.
    """
    n, d = x.shape
    if d < 2 or n == 0 or x.dtype != np.float64 or not x.flags.c_contiguous:
        return x.std(axis=0)
    mean = np.add.reduce(x, axis=0)
    mean /= n
    buf = np.empty((min(n, STD_BLOCK_ROWS) + 1, d))
    total = None
    for start in range(0, n, STD_BLOCK_ROWS):
        stop = min(start + STD_BLOCK_ROWS, n)
        sq = buf[1:stop - start + 1]
        np.subtract(x[start:stop], mean, out=sq)
        np.square(sq, out=sq)
        if total is None:
            total = np.add.reduce(sq, axis=0)
        else:
            buf[0] = total
            total = np.add.reduce(buf[:stop - start + 1], axis=0)
    total /= n
    return np.sqrt(total, out=total)


def eigh_descending(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix by np.linalg.eigh.

    Returns (eigenvalues, eigenvectors) of (a + a.T) / 2, eigenvectors in
    columns, sorted by descending eigenvalue (stable on ties) and clamped at
    zero; each column's largest-magnitude entry is made positive. Raises
    DegenerateInputError for a non-square matrix, a non-finite entry or
    norm, and when LAPACK fails.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DegenerateInputError(f"expected a square matrix, got {a.shape}")
    a = (a + a.T) / 2.0
    if not np.isfinite(np.linalg.norm(a)):
        raise DegenerateInputError(
            "matrix has non-finite entries or a norm that overflows")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInputError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = np.maximum(w[order], 0.0)
    v = v[:, order]

    # deterministic sign: the largest-magnitude entry of each column positive
    peaks = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[peaks, np.arange(len(w))])
    signs[signs == 0] = 1.0
    return w, v * signs


@dataclass
class PcaModel:
    """Fitted centering vector, loadings, spectrum, and kept-component count."""

    mean: np.ndarray
    loadings: np.ndarray
    eigenvalues: np.ndarray
    explained_ratio: np.ndarray
    kept: int
    scale: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        return len(self.mean)


def fit_pca(x: np.ndarray, threshold: float,
            standardize: bool = False) -> tuple[PcaModel, np.ndarray]:
    """Fit PCA on a dense sample matrix and project it; returns (model,
    components).

    x is owned by the call: it is centred in place and, with standardize,
    scaled in place by its column_std. The covariance is x'x / n_rows;
    constant columns are permitted and contribute zero eigenvalues.
    eigh_descending decomposes it, choose_components sets kept for
    threshold, and components is x @ loadings[:, :kept], the bytes
    transform gives for the original rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DegenerateInputError(f"expected a 2-D matrix, got ndim={x.ndim}")
    n, d = x.shape
    if n < 2:
        raise DegenerateInputError(f"need at least 2 rows, got {n}")
    # min and max are NaN or infinite when any entry is, with no temporary
    if d and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise DegenerateInputError("input contains missing or non-finite entries")

    mean = x.mean(axis=0)
    x -= mean
    scale = None
    if standardize:
        scale = column_std(x)
        scale = np.where(scale > 0, scale, 1.0)
        x /= scale
    eigenvalues, loadings = eigh_descending(x.T @ x / n)
    total = eigenvalues.sum()
    ratio = eigenvalues / total if total > 0 else np.zeros(d)
    model = PcaModel(mean, loadings, eigenvalues, ratio, kept=d, scale=scale)
    model.kept = choose_components(model, threshold)
    return model, x @ loadings[:, :model.kept]


def choose_components(model: PcaModel, threshold: float) -> int:
    """Smallest component count whose cumulative explained ratio meets threshold."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    cum = np.cumsum(model.explained_ratio)
    hits = np.flatnonzero(cum >= threshold - _RATIO_EPS)
    if len(hits) == 0:
        return len(cum)
    return int(hits[0]) + 1


def transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows onto the kept components of a fitted model."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"expected {model.n_features} columns, got {x.shape}")
    xc = x - model.mean
    if model.scale is not None:
        xc /= model.scale
    return xc @ model.loadings[:, :model.kept]


def _vector_line(name: str, values) -> str:
    return name + "=" + ",".join(repr(float(v)) for v in values)


def to_text(model: PcaModel) -> str:
    """Versioned text artifact: mean, scale, spectrum, kept loadings."""
    lines = ["pca-model v1",
             f"n_features={model.n_features}",
             f"kept={model.kept}",
             _vector_line("mean", model.mean),
             "scale=" if model.scale is None else _vector_line("scale", model.scale),
             _vector_line("eigenvalues", model.eigenvalues)]
    for j in range(model.kept):
        lines.append(_vector_line(f"loading{j}", model.loadings[:, j]))
    lines.append("end")
    return "\n".join(lines) + "\n"
