import numpy as np
import pytest
from conftest import reference_jacobi_eigh
from hypothesis import given, settings
from hypothesis import strategies as st

from fundcast.errors import DegenerateInputError, DimensionMismatchError
from fundcast.spectral_reduce import (
    PcaModel,
    choose_components,
    fit_pca,
    from_text,
    jacobi_eigh,
    to_text,
    transform,
)


def oracle_eigh(cov):
    """Independent LAPACK eigendecomposition, sorted descending."""
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w)
    return w[order], v[:, order]


def oracle_svd(x):
    """Independent decomposition: the SVD of the centred matrix gives the
    covariance eigenpairs (s^2 / n_rows, right singular vectors), already in
    descending order. Needs at least as many rows as columns."""
    xc = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    return s ** 2 / len(x), vt.T


def align_signs(a, b):
    """Flip b's columns to match a's signs for comparison."""
    flip = np.sign(np.sum(a * b, axis=0))
    flip[flip == 0] = 1.0
    return b * flip


def reconstruct(model, z):
    """Rows rebuilt from kept-component scores."""
    xc = z @ model.loadings[:, :model.kept].T
    if model.scale is not None:
        xc = xc * model.scale
    return xc + model.mean


@st.composite
def awkward_matrices(draw):
    """Random matrices with constant, duplicated and rank-deficient columns."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(0, d))
    x = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    for j in range(d):
        kind = draw(st.sampled_from(("keep", "constant", "duplicate")))
        if kind == "constant":
            x[:, j] = draw(st.sampled_from((0.0, 1.0, -3.5)))
        elif kind == "duplicate" and j > 0:
            x[:, j] = x[:, draw(st.integers(0, j - 1))]
    return x * draw(st.sampled_from((1.0, 1e-3, 1e3)))


@st.composite
def symmetric_matrices(draw):
    """Covariances with duplicated columns, or plain symmetric matrices with
    negative eigenvalues, at scales 1, 1e-3 and 1e3."""
    d = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.normal(size=(draw(st.integers(2, 40)), d))
        duplicated = rng.random(d) < draw(st.sampled_from((0.0, 0.25, 0.5)))
        for j in np.flatnonzero(duplicated[1:]) + 1:
            x[:, j] = x[:, rng.integers(j)]
        xc = x - x.mean(axis=0)
        a = xc.T @ xc / len(x)
    else:
        a = rng.normal(size=(d, d))
        a = a + a.T
    return a * draw(st.sampled_from((1.0, 1e-3, 1e3)))


class TestFitPcaProperties:
    @settings(max_examples=150, deadline=None)
    @given(x=awkward_matrices(), standardize=st.booleans())
    def test_fit_invariants_on_awkward_matrices(self, x, standardize):
        model = fit_pca(x, standardize=standardize)
        d = x.shape[1]
        w = model.eigenvalues
        assert (w >= 0).all()
        assert (np.diff(w) <= 0).all()
        np.testing.assert_allclose(model.loadings.T @ model.loadings,
                                   np.eye(d), atol=1e-10)
        for j in range(d):
            col = model.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0
        text = to_text(model)
        back = from_text(text)
        assert to_text(back) == text
        np.testing.assert_array_equal(back.loadings, model.loadings)
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        assert to_text(fit_pca(x, standardize=standardize)) == text


class TestJacobi:
    def test_matches_oracle_on_seeded_matrices(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 30))
            x = rng.normal(size=(d + 10, d))
            cov = x.T @ x / len(x)
            w, v = jacobi_eigh(cov)
            wo, vo = oracle_eigh(cov)
            np.testing.assert_allclose(w, wo, atol=1e-9)
            np.testing.assert_allclose(v, align_signs(v, vo), atol=1e-8)

    def test_identity(self):
        w, v = jacobi_eigh(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4))
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)

    def test_zero_matrix(self):
        w, v = jacobi_eigh(np.zeros((3, 3)))
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_rejects_non_square(self):
        with pytest.raises(DegenerateInputError):
            jacobi_eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 20])
    def test_rejects_non_finite_before_any_sweep(self, rng, n, bad):
        x = rng.normal(size=(n + 5, n))
        cov = x.T @ x
        cov[n // 2, 0] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            jacobi_eigh(cov)

    def test_rejects_overflowing_norm(self):
        with np.errstate(over="ignore"), \
                pytest.raises(DegenerateInputError, match="overflow"):
            jacobi_eigh(np.full((3, 3), 1e300))

    def test_unconverged_decomposition_raises(self, rng):
        x = rng.normal(size=(30, 12))
        cov = x.T @ x / len(x)
        with pytest.raises(DegenerateInputError,
                           match=r"1 sweeps.*off-diagonal norm \d"):
            jacobi_eigh(cov, max_sweeps=1)
        w, _ = jacobi_eigh(cov)
        np.testing.assert_allclose(w, oracle_eigh(cov)[0], atol=1e-9)

    @settings(max_examples=400, deadline=None)
    @given(a=symmetric_matrices())
    def test_bytes_equal_reference_loop(self, a):
        w, v = jacobi_eigh(a)
        w_ref, v_ref = reference_jacobi_eigh(a)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert (w.strides, v.strides) == (w_ref.strides, v_ref.strides)


class TestFitPca:
    def test_rank_one_data_first_component_carries_everything(self, rng):
        x = rng.normal(size=100)
        data = np.column_stack([x, 2.0 * x])
        model = fit_pca(data)
        assert model.explained_ratio[0] == pytest.approx(1.0)
        assert model.explained_ratio[1] == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_gaussian_splits_evenly(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(4000, 2))
        model = fit_pca(data)
        assert model.explained_ratio[0] == pytest.approx(0.5, abs=0.1)
        assert model.explained_ratio[1] == pytest.approx(0.5, abs=0.1)

    def test_loadings_match_eigensolver_oracle(self, rng):
        for _ in range(5):
            x = rng.normal(size=(60, 8)) @ rng.normal(size=(8, 8))
            model = fit_pca(x)
            wo, vo = oracle_svd(x)
            np.testing.assert_allclose(model.eigenvalues, wo, atol=1e-8)
            np.testing.assert_allclose(
                model.loadings, align_signs(model.loadings, vo), atol=1e-8)

    def test_orthonormal_loadings(self, rng):
        x = rng.normal(size=(50, 10))
        model = fit_pca(x)
        np.testing.assert_allclose(model.loadings.T @ model.loadings,
                                   np.eye(10), atol=1e-10)

    def test_eigenvalues_nonincreasing_nonnegative(self, rng):
        x = rng.normal(size=(40, 6))
        model = fit_pca(x)
        assert (model.eigenvalues >= 0).all()
        assert (np.diff(model.eigenvalues) <= 1e-12).all()

    def test_total_variance_conserved(self, rng):
        x = rng.normal(size=(80, 12)) * rng.uniform(0.1, 5.0, size=12)
        model = fit_pca(x)
        cov = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / len(x)
        assert model.eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-8)

    def test_row_permutation_invariance(self, rng):
        x = rng.normal(size=(60, 5))
        perm = rng.permutation(60)
        a = fit_pca(x)
        b = fit_pca(x[perm])
        np.testing.assert_allclose(a.loadings, b.loadings, atol=1e-8)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)

    def test_first_component_beats_random_directions(self, rng):
        x = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6))
        model = fit_pca(x)
        xc = x - x.mean(axis=0)
        first_var = np.var(xc @ model.loadings[:, 0])
        for _ in range(100):
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            assert np.var(xc @ u) <= first_var + 1e-10

    def test_constant_column_allowed_zero_eigenvalue(self, rng):
        x = np.column_stack([rng.normal(size=30), np.full(30, 7.0)])
        model = fit_pca(x)
        assert model.eigenvalues[-1] == pytest.approx(0.0, abs=1e-12)

    def test_missing_entries_rejected(self):
        x = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(DegenerateInputError):
            fit_pca(x)

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_pca(np.ones((1, 3)))

    def test_sign_convention_largest_entry_positive(self, rng):
        x = rng.normal(size=(50, 7))
        model = fit_pca(x)
        for j in range(7):
            col = model.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_standardize_scales_columns(self, rng):
        x = rng.normal(size=(300, 3)) * np.array([1.0, 100.0, 0.01])
        model = fit_pca(x, standardize=True)
        # unit-variance columns spread variance roughly evenly
        assert model.explained_ratio[0] < 0.7


class TestChooseComponents:
    def _model(self, ratios):
        ratios = np.asarray(ratios, dtype=np.float64)
        d = len(ratios)
        return PcaModel(np.zeros(d), np.eye(d), ratios.copy(), ratios, kept=d)

    def test_example_two_components(self):
        assert choose_components(self._model([0.5, 0.3, 0.2]), 0.66) == 2

    def test_threshold_one_full_rank(self):
        assert choose_components(self._model([0.5, 0.3, 0.2]), 1.0) == 3

    def test_single_ratio(self):
        assert choose_components(self._model([1.0]), 0.5) == 1

    def test_cumulative_oracle_seeded(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 20))
            raw = rng.uniform(0.01, 1.0, size=d)
            raw = np.sort(raw)[::-1]
            ratios = raw / raw.sum()
            threshold = float(rng.uniform(0.05, 1.0))
            model = self._model(ratios)
            got = choose_components(model, threshold)
            cum = 0.0
            expect = d
            for i, r in enumerate(ratios):
                cum += r
                if cum >= threshold - 1e-12:
                    expect = i + 1
                    break
            assert got == expect

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            choose_components(self._model([1.0]), 0.0)


class TestTransform:
    def test_mean_row_maps_to_zero(self, rng):
        x = rng.normal(size=(30, 4))
        model = fit_pca(x)
        z = transform(model, x.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(z, np.zeros((1, 4)), atol=1e-10)

    def test_full_rank_reconstruction(self, rng):
        x = rng.normal(size=(40, 6))
        model = fit_pca(x)
        z = transform(model, x)
        back = reconstruct(model, z)
        np.testing.assert_allclose(back, x, atol=1e-8)

    def test_rank_one_data_single_component_reconstruction(self, rng):
        base = rng.normal(size=50)
        x = np.column_stack([base, 2.0 * base, -base])
        model = fit_pca(x)
        model.kept = 1
        back = reconstruct(model, transform(model, x))
        np.testing.assert_allclose(back, x, atol=1e-8)

    def test_dimension_mismatch(self, rng):
        model = fit_pca(rng.normal(size=(10, 3)))
        with pytest.raises(DimensionMismatchError):
            transform(model, np.zeros((2, 4)))

    def test_standardized_roundtrip(self, rng):
        x = rng.normal(size=(40, 5)) * np.array([1, 10, 100, 0.1, 3.0])
        model = fit_pca(x, standardize=True)
        back = reconstruct(model, transform(model, x))
        np.testing.assert_allclose(back, x, atol=1e-8)

    def test_cumulative_ratio_nondecreasing_and_concave(self, rng):
        x = rng.normal(size=(60, 9))
        model = fit_pca(x)
        cum = np.cumsum(model.explained_ratio)
        assert (np.diff(cum) >= -1e-12).all()
        assert cum[-1] == pytest.approx(1.0)
        # sorted eigenvalues make the cumulative curve concave
        assert (np.diff(np.diff(cum)) <= 1e-12).all()


class TestSerialization:
    def test_text_roundtrip_preserves_transform(self, rng):
        x = rng.normal(size=(40, 6))
        model = fit_pca(x)
        model.kept = choose_components(model, 0.75)
        back = from_text(to_text(model))
        assert back.kept == model.kept
        np.testing.assert_array_equal(transform(back, x), transform(model, x))
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)

    def test_standardized_model_roundtrip(self, rng):
        x = rng.normal(size=(30, 4)) * np.array([1, 10, 0.1, 5.0])
        model = fit_pca(x, standardize=True)
        back = from_text(to_text(model))
        np.testing.assert_array_equal(transform(back, x), transform(model, x))
