"""Golden eigendecompositions: the SHA-256 of eigh_descending's output bytes
on a small grid of matrices.

The cases were chosen for the cyclic Jacobi solver that eigh_descending
replaced: near-null spaces, a tied diagonal, repeated eigenvalues and
off-diagonals below a rounding-level threshold; test_jacobi_golden asserts
the property that makes each worth pinning. LAPACK's bytes hold for a fixed
numpy/BLAS build and BLAS thread count (cov_d127 moves between 1 and 2
threads), so the digests are computed in a child process with BLAS on 1
thread, as perfbench runs it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fundcast
from fundcast.spectral_reduce import eigh_descending

TOL = 1e-12


def seeded_covariance(d, seed):
    """Covariance of correlated columns, a quarter of them duplicated, the
    way lagged copies of one variable repeat a column."""
    rng = np.random.default_rng(seed)
    base = d - d // 4
    x = rng.normal(size=(3 * d, base)) @ rng.normal(size=(base, base))
    x = np.hstack([x, x[:, rng.choice(base, d - base, replace=False)]])
    xc = x - x.mean(axis=0)
    return xc.T @ xc / len(x)


def repeated_block():
    """Q diag(5, 5, 5, 2, 2, 1) Q^T for a seeded orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)))
    return q @ np.diag([5.0, 5.0, 5.0, 2.0, 2.0, 1.0]) @ q.T


def below_skip():
    """One rotation's worth of coupling plus rounding-level off-diagonals
    that the Jacobi solver skipped."""
    a = np.diag([4.0, 3.0, 2.0, 1.0])
    a[0, 1] = a[1, 0] = 0.5
    a[2, 3] = a[3, 2] = 1e-17
    a[0, 3] = a[3, 0] = -3e-16
    return a


def has_null_space(a):
    """A duplicated column leaves one eigenvalue at rounding level."""
    w = np.linalg.eigvalsh(a)
    return np.sum(w < 1e-10 * w[-1]) >= len(a) // 4


def has_tied_diagonal(a):
    return a[0, 0] == a[1, 1] and a[0, 1] != 0


def has_repeated_eigenvalues(a):
    w = np.linalg.eigvalsh(a)
    return np.sum(np.diff(w) < 1e-9) >= 3


def has_skipped_entries(a):
    n = len(a)
    norm = np.linalg.norm(a)
    off = np.abs(a[~np.eye(n, dtype=bool)])
    return (np.any((off > 0) & (off <= TOL * norm / (n * n)))
            and np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0) > TOL * norm)


CASES = {
    "cov_d40": (lambda: seeded_covariance(40, 40), has_null_space),
    "cov_d127": (lambda: seeded_covariance(127, 127), has_null_space),
    "theta_zero_2x2": (lambda: np.array([[2.0, 1.0], [1.0, 2.0]]),
                       has_tied_diagonal),
    "repeated_eigenvalues": (repeated_block, has_repeated_eigenvalues),
    "below_skip_threshold": (below_skip, has_skipped_entries),
    "eye4": (lambda: np.eye(4), lambda a: (a == np.eye(4)).all()),
    "zeros3": (lambda: np.zeros((3, 3)), lambda a: not a.any()),
    "one_by_one": (lambda: np.array([[3.5]]), lambda a: a.shape == (1, 1)),
}

GOLDEN_SHA256 = {
    "below_skip_threshold": "16a4bcee634d51f43cb2b79a5d6220f1270002ee7cb2bd22fcea156cdd2383a9",
    "cov_d127": "984d45f1fd7239fc37f56d5405331fa12dbdcdbd13c04d3a026add2280ef3b7f",
    "cov_d40": "aa4c72b4cb2babb16721d59c676b26ff16808d870c741ba8ea8b1f7ad7a69949",
    "eye4": "52c1c336fca87dee117d4d7407a7cbc86769397da01a951398d9142d200631a4",
    "one_by_one": "52ed143a027f18ebe0bdbb90aeae01292ab5f1951851be1c29dcc8dbb419d74d",
    "repeated_eigenvalues": "c4ddf6b7ad417fdc7f460313c3d2f507e0fe012a5b504af8f9451231c00dde04",
    "theta_zero_2x2": "b99806d9a9d1a71ed9ecff7fe8de81bc0d2e69cf598aa66996c5c341aa109d3f",
    "zeros3": "4165a5be53209fff5ace98d58c3de63f2de6ef10a25df234d95a52b06bca362f",
}


def digests():
    """SHA-256 of eigh_descending's eigenvalue and eigenvector bytes per case."""
    out = {}
    for name in sorted(CASES):
        w, v = eigh_descending(CASES[name][0]())
        out[name] = hashlib.sha256(w.tobytes() + v.tobytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def single_thread_digests():
    paths = [str(Path(fundcast.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run(
        [sys.executable, "-c",
         "import test_eigh_golden as g\n"
         "for k, v in g.digests().items(): print(k, v)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return dict(line.split() for line in run.stdout.splitlines())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, single_thread_digests):
    assert single_thread_digests[name] == GOLDEN_SHA256[name]
