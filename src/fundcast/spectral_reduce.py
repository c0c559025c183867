"""PCA dimension reduction.

Centers the sample matrix, eigendecomposes its covariance with an in-repo
cyclic Jacobi solver, and selects components by cumulative explained
variance. Loadings follow a deterministic sign convention so fitted models
serialize reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError

_RATIO_EPS = 1e-12


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue,
    eigenvectors in columns. Deterministic: fixed (p, q) sweep order and a
    stable sort.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DegenerateInputError(f"expected a square matrix, got {a.shape}")
    n = a.shape[0]
    a = (a + a.T) / 2.0
    v = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), v

    norm = np.linalg.norm(a)
    if norm == 0:
        return np.zeros(n), v
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * norm / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = a[p, :].copy()
                rot_q = a[q, :].copy()
                a[p, :] = c * rot_p - s * rot_q
                a[q, :] = s * rot_p + c * rot_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


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


def fit_pca(x: np.ndarray, standardize: bool = False) -> PcaModel:
    """Fit a full PCA model on a dense sample matrix.

    The covariance is centered-columns'T centered-columns / n_rows; constant
    columns are permitted and contribute zero eigenvalues. Each loading
    column's largest-magnitude entry is made positive. kept starts at the
    full dimension; choose_components narrows it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DegenerateInputError(f"expected a 2-D matrix, got ndim={x.ndim}")
    n, d = x.shape
    if n < 2:
        raise DegenerateInputError(f"need at least 2 rows, got {n}")
    if not np.isfinite(x).all():
        raise DegenerateInputError("input contains missing or non-finite entries")

    mean = x.mean(axis=0)
    xc = x - mean
    scale = None
    if standardize:
        scale = xc.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        xc = xc / scale
    cov = xc.T @ xc / n
    eigenvalues, loadings = jacobi_eigh(cov)
    eigenvalues = np.maximum(eigenvalues, 0.0)

    # deterministic sign: the largest-magnitude entry of each column positive
    peaks = np.argmax(np.abs(loadings), axis=0)
    signs = np.sign(loadings[peaks, np.arange(d)])
    signs[signs == 0] = 1.0
    loadings = loadings * signs

    total = eigenvalues.sum()
    ratio = eigenvalues / total if total > 0 else np.zeros(d)
    return PcaModel(mean, loadings, eigenvalues, ratio, kept=d, scale=scale)


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
        xc = xc / model.scale
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


def from_text(text: str) -> PcaModel:
    lines = text.strip().split("\n")
    if lines[0] != "pca-model v1":
        raise ValueError(f"unknown model format {lines[0]!r}")

    def vector(line, name):
        key, _, payload = line.partition("=")
        if key != name:
            raise ValueError(f"expected {name}, got {key!r}")
        if payload == "":
            return None
        return np.array([float(v) for v in payload.split(",")])

    d = int(lines[1].partition("=")[2])
    kept = int(lines[2].partition("=")[2])
    mean = vector(lines[3], "mean")
    scale = vector(lines[4], "scale")
    eigenvalues = vector(lines[5], "eigenvalues")
    loadings = np.zeros((d, kept))
    for j in range(kept):
        loadings[:, j] = vector(lines[6 + j], f"loading{j}")
    total = eigenvalues.sum()
    ratio = eigenvalues / total if total > 0 else np.zeros(len(eigenvalues))
    return PcaModel(mean, loadings, eigenvalues, ratio, kept=kept, scale=scale)
