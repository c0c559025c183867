"""Golden eigendecompositions: the SHA-256 of jacobi_eigh's output bytes on a
small grid of matrices.

Any speedup of the rotation loop must leave these bytes unchanged. Each
case also asserts the property that makes it worth pinning, so a case
cannot silently stop exercising its code path.
"""

import hashlib

import numpy as np
import pytest

from fundcast.spectral_reduce import jacobi_eigh

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
    """One rotation's worth of coupling plus off-diagonals the solver skips."""
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
    "below_skip_threshold": "abc5ed61a00d417f805e029df5764953000400c694e215e2383acfe5d96279e1",
    "cov_d127": "80ed4bb029b147f436094d6302138e0fd1262e072fb334f7f98c6afb0566eb8b",
    "cov_d40": "096b9c11223a2476d2bdb3836c47e7b776f5a7e320472fa51c49834f078c615f",
    "eye4": "52c1c336fca87dee117d4d7407a7cbc86769397da01a951398d9142d200631a4",
    "one_by_one": "52ed143a027f18ebe0bdbb90aeae01292ab5f1951851be1c29dcc8dbb419d74d",
    "repeated_eigenvalues": "709df4d585f1a72086a1fe4b8f9eb0070dc65a70bad0859c33cc2fc50b74d4fd",
    "theta_zero_2x2": "25108d0870be45c7e5400f2747570a9e6f26a7016fc098518cb340e57ce0efa1",
    "zeros3": "4165a5be53209fff5ace98d58c3de63f2de6ef10a25df234d95a52b06bca362f",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_exercises_its_path(name):
    make, check = CASES[name]
    assert check(make())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name):
    w, v = jacobi_eigh(CASES[name][0]())
    digest = hashlib.sha256(w.tobytes() + v.tobytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
