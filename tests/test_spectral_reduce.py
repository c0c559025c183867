import tracemalloc

import numpy as np
import pytest
from conftest import pca_from_text
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fundcast.errors import DegenerateInputError, DimensionMismatchError
from fundcast.spectral_reduce import (
    STD_BLOCK_ROWS,
    PcaModel,
    choose_components,
    column_std,
    eigh_descending,
    fit_pca,
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
def planted_spectra(draw):
    """Centred rows U diag(s) Q^T of known covariance spectrum s^2 / n_rows,
    d from 1 to 40, with repeated singular values, zeros (rank-deficient)
    and fewer rows than columns, at scales 1, 1e-3 and 1e3."""
    d = draw(st.integers(1, 40))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = min(d, n - 1)
    # r orthonormal columns orthogonal to the ones vector: centred scores
    u, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, r))]))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    values = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
                           min_size=r, max_size=r))
    x = (u[:, 1:] * values) @ q[:, :r].T
    return x * draw(st.sampled_from((1.0, 1e-3, 1e3)))


@st.composite
def std_matrices(draw):
    """Row counts on and around the block edges, one to a few hundred
    columns, scales 1e-6 to 1e6 around offset means, constant columns
    (some of values whose repeats leave rounding), -0.0 entries, and C,
    Fortran and strided layouts."""
    b = STD_BLOCK_ROWS
    n = draw(st.sampled_from((1, 2, b - 1, b, b + 1, 3 * b + 5))
             | st.integers(1, 2 * b + 3))
    d = draw(st.sampled_from((1, 2, 3, 7, 301)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-6, 6))
    x = scale * (rng.normal(size=(n, d))
                 + draw(st.sampled_from((0.0, 1.0, 1e3))) * rng.normal(size=d))
    for j in draw(st.sets(st.integers(0, d - 1), max_size=3)):
        x[:, j] = draw(st.sampled_from((0.0, -0.0, 0.1, 1 / 3, -2.6)))
    x[rng.random(x.shape) < draw(st.sampled_from((0.0, 0.05, 0.5)))] = -0.0
    layout = draw(st.sampled_from(("C", "F", "strided")))
    if layout == "F":
        return np.asfortranarray(x)
    return x[:, ::2] if layout == "strided" and d > 1 else x


class TestColumnStd:
    @settings(max_examples=300, deadline=None)
    @given(x=std_matrices())
    def test_equals_numpy_std_byte_for_byte(self, x):
        before = x.copy()
        assert column_std(x).tobytes() == x.std(axis=0).tobytes()
        assert x.tobytes() == before.tobytes()

    def test_one_column_goes_to_numpy_std(self, rng):
        # numpy sums one column pairwise, not row by row
        calls = []

        class Recorded(np.ndarray):
            def std(self, *args, **kwargs):
                calls.append(kwargs)
                return super().std(*args, **kwargs)

        column_std(rng.normal(size=(5 * STD_BLOCK_ROWS, 1)).view(Recorded))
        column_std(rng.normal(size=(5 * STD_BLOCK_ROWS, 2)).view(Recorded))
        assert calls == [{"axis": 0}]

    def test_no_temporary_of_the_input_size(self, rng):
        x = rng.normal(size=(20000, 50))
        tracemalloc.start()
        try:
            column_std(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * x.nbytes

    @settings(max_examples=100, deadline=None)
    @given(x=std_matrices())
    def test_fit_pca_scale_and_input_unchanged(self, x):
        assume(len(x) >= 2)
        before = x.copy()
        model = fit_pca(x, standardize=True)
        assert x.tobytes() == before.tobytes()
        sd = (x - x.mean(axis=0)).std(axis=0)
        assert model.scale.tobytes() == np.where(sd > 0, sd, 1.0).tobytes()


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
        back = pca_from_text(text)
        assert to_text(back) == text
        np.testing.assert_array_equal(back.loadings, model.loadings)
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        assert to_text(fit_pca(x, standardize=standardize)) == text


class TestFitPcaEigensolver:
    @settings(max_examples=200, deadline=None)
    @given(x=planted_spectra())
    def test_matches_svd_of_centred_matrix(self, x):
        n, d = x.shape
        model = fit_pca(x)
        w_ref = np.zeros(d)
        _, s, _ = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        w_ref[:len(s)] = s ** 2 / n
        scale = max(w_ref[0], np.finfo(float).tiny)
        w, v = model.eigenvalues, model.loadings
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-9 * scale)
        assert (w >= 0).all()
        assert (np.diff(w) <= 0).all()
        np.testing.assert_allclose(v.T @ v, np.eye(d), atol=1e-10)
        xc = x - model.mean
        np.testing.assert_allclose(xc.T @ (xc @ v) / n, v * w, rtol=0,
                                   atol=1e-9 * scale)
        peaks = np.argmax(np.abs(v), axis=0)
        assert (v[peaks, np.arange(d)] > 0).all()

    def test_identity_covariance(self):
        # Sylvester-Hadamard columns: centred, orthogonal, covariance I_4
        h = np.array([[1.0]])
        for _ in range(3):
            h = np.block([[h, h], [h, -h]])
        model = fit_pca(h[:, 1:5])
        np.testing.assert_allclose(model.eigenvalues, np.ones(4))
        np.testing.assert_allclose(model.explained_ratio, np.full(4, 0.25))
        np.testing.assert_allclose(model.loadings.T @ model.loadings,
                                   np.eye(4), atol=1e-12)

    def test_zero_covariance_identity_loadings(self):
        model = fit_pca(np.tile([1.0, -2.0, 0.0], (5, 1)))
        np.testing.assert_array_equal(model.eigenvalues, np.zeros(3))
        np.testing.assert_array_equal(model.explained_ratio, np.zeros(3))
        np.testing.assert_array_equal(model.loadings, np.eye(3))

    def test_single_column(self, rng):
        x = rng.normal(size=(20, 1))
        model = fit_pca(x)
        np.testing.assert_array_equal(model.loadings, np.ones((1, 1)))
        assert model.eigenvalues[0] == pytest.approx(np.var(x))
        np.testing.assert_array_equal(model.explained_ratio, [1.0])

    def test_constant_columns_span_the_null_space(self, rng):
        x = rng.normal(size=(40, 4))
        x[:, 1] = 7.0
        x[:, 3] = -1.5
        model = fit_pca(x)
        np.testing.assert_array_equal(model.eigenvalues[2:], [0.0, 0.0])
        # the constant columns span the null space and no other component
        np.testing.assert_allclose(model.loadings[[1, 3], :2], 0.0, atol=1e-12)
        np.testing.assert_allclose(model.loadings[[0, 2], 2:], 0.0, atol=1e-12)

    def test_rejects_non_2d_input(self):
        with pytest.raises(DegenerateInputError, match="2-D"):
            fit_pca(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 20])
    def test_rejects_non_finite_entries(self, rng, n, bad):
        x = rng.normal(size=(n + 5, n))
        x[n // 2, 0] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            fit_pca(x)

    def test_rejects_overflowing_covariance(self):
        x = np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateInputError, match="overflow"):
            fit_pca(x)

    def test_lapack_failure_is_degenerate_input(self, rng, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(DegenerateInputError,
                           match="did not converge") as caught:
            fit_pca(rng.normal(size=(10, 3)))
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)

    def test_refit_gives_same_bytes(self, rng):
        x = rng.normal(size=(300, 125)) @ rng.normal(size=(125, 125))
        a, b = fit_pca(x, standardize=True), fit_pca(x, standardize=True)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.loadings.tobytes() == b.loadings.tobytes()
        assert to_text(a) == to_text(b)


class TestJacobi:
    """eigh_descending, the covariance-level step of fit_pca. The cases were
    written for the cyclic Jacobi solver it replaced and keep their names."""

    def test_matches_oracle_on_seeded_matrices(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 30))
            x = rng.normal(size=(d + 10, d))
            cov = x.T @ x / len(x)
            w, v = eigh_descending(cov)
            wo, vo = oracle_eigh(cov)
            np.testing.assert_allclose(w, wo, atol=1e-9)
            np.testing.assert_allclose(v, align_signs(v, vo), atol=1e-8)

    def test_identity(self):
        w, v = eigh_descending(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4))
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)

    def test_zero_matrix(self):
        w, v = eigh_descending(np.zeros((3, 3)))
        np.testing.assert_array_equal(w, np.zeros(3))
        np.testing.assert_array_equal(v, np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(DegenerateInputError, match="square"):
            eigh_descending(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 20])
    def test_rejects_non_finite_before_any_sweep(self, rng, n, bad,
                                                 monkeypatch):
        def unreachable_eigh(a):
            raise AssertionError("eigh called on a non-finite matrix")

        x = rng.normal(size=(n + 5, n))
        cov = x.T @ x
        cov[n // 2, 0] = bad
        monkeypatch.setattr(np.linalg, "eigh", unreachable_eigh)
        with pytest.raises(DegenerateInputError, match="non-finite"):
            eigh_descending(cov)

    def test_rejects_overflowing_norm(self):
        with np.errstate(over="ignore"), \
                pytest.raises(DegenerateInputError, match="overflow"):
            eigh_descending(np.full((3, 3), 1e300))

    def test_unconverged_decomposition_raises(self, rng, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        x = rng.normal(size=(30, 12))
        cov = x.T @ x / len(x)
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(DegenerateInputError,
                           match="did not converge") as caught:
            eigh_descending(cov)
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)
        monkeypatch.undo()
        w, _ = eigh_descending(cov)
        np.testing.assert_allclose(w, oracle_eigh(cov)[0], atol=1e-9)


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
        back = pca_from_text(to_text(model))
        assert back.kept == model.kept
        np.testing.assert_array_equal(transform(back, x), transform(model, x))
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)

    def test_standardized_model_roundtrip(self, rng):
        x = rng.normal(size=(30, 4)) * np.array([1, 10, 0.1, 5.0])
        model = fit_pca(x, standardize=True)
        back = pca_from_text(to_text(model))
        np.testing.assert_array_equal(transform(back, x), transform(model, x))
