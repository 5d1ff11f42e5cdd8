"""fBm simulation, covariance kernels and R/S estimation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmle.errors import ConfigError, DegenerateSeriesError
from fracmle.fbm import (
    HurstParam,
    TimeGrid,
    _fgn_autocovariance,
    estimate_hurst_rs,
    fbm_covariance,
    fgn_adjoint,
    fgn_from_normals,
    indicator_cells,
    rs_window_sizes,
    simulate_fbm,
    singular_cell_weights,
    weighted_inner,
)


class TestHurstParam:
    def test_rejects_outside_interval(self):
        for bad in (0.5, 1.0, 0.3, 1.2):
            with pytest.raises(ConfigError):
                HurstParam(bad)

    def test_kernel_constant(self):
        hp = HurstParam(0.75)
        assert hp.c == pytest.approx(0.75 * 0.5)
        assert HurstParam(0.6).c > 0


class TestCovariance:
    def test_diagonal_at_one(self):
        assert fbm_covariance(1, 1, 0.6) == pytest.approx(1.0)

    def test_diagonal_power(self):
        assert fbm_covariance(2, 2, 0.6) == pytest.approx(2**1.2)

    def test_off_diagonal(self):
        assert fbm_covariance(1, 2, 0.75) == pytest.approx(2**0.5)

    def test_symmetry_and_diagonal_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s, t = rng.uniform(0, 5, 2)
            h = rng.uniform(0.51, 0.99)
            assert fbm_covariance(s, t, h) == pytest.approx(fbm_covariance(t, s, h))
            assert fbm_covariance(t, t, h) == pytest.approx(t ** (2 * h))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            fbm_covariance(-1.0, 1.0, 0.6)


class TestSimulation:
    def test_starts_at_zero(self):
        path = simulate_fbm(TimeGrid(2.0, 32), d=3, h=0.7, seed=1)
        assert np.all(path.values[:, 0] == 0.0)

    def test_reproducible_bit_identical(self):
        grid = TimeGrid(1.0, 64)
        a = simulate_fbm(grid, 2, 0.65, seed=42)
        b = simulate_fbm(grid, 2, 0.65, seed=42)
        assert np.array_equal(a.values, b.values)
        c = simulate_fbm(grid, 2, 0.65, seed=43)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
    def test_synthesis_is_exact_in_law(self, h):
        # The sampler is a linear map of iid normals; its Gram matrix must
        # equal the fGn covariance exactly.
        m, dt = 8, 0.25
        basis = np.eye(2 * m)
        amat = np.array([fgn_from_normals(h, m, dt, e) for e in basis]).T
        got = amat @ amat.T
        rho = _fgn_autocovariance(h, m, dt)
        want = np.array([[rho[abs(i - j)] for j in range(m)] for i in range(m)])
        assert np.abs(got - want).max() < 1e-14

    @given(h=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True), m=st.integers(2, 300),
           dt=st.floats(1e-3, 10.0))
    def test_gram_matrix_is_fgn_covariance(self, h, m, dt):
        amat = fgn_from_normals(h, m, dt, np.eye(2 * m)).T  # (M, 2M): the linear map
        rho = _fgn_autocovariance(h, m, dt)
        lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        assert np.abs(amat @ amat.T - rho[lag]).max() <= 1e-12 * rho[0]

    @given(h=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True), m=st.integers(2, 300),
           dt=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, h, m, dt, seed):
        rng = np.random.default_rng(seed)
        v, z = rng.standard_normal(m), rng.standard_normal(2 * m)
        x = fgn_from_normals(h, m, dt, z)
        gap = abs(v @ x - fgn_adjoint(h, m, dt, v) @ z)
        assert gap <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(x)

    def test_adjoint_is_batched_over_rows(self):
        v = np.random.default_rng(3).standard_normal((2, 3, 50))
        got = fgn_adjoint(0.7, 50, 0.1, v)
        assert got.shape == (2, 3, 100)
        want = np.array([[fgn_adjoint(0.7, 50, 0.1, row) for row in block] for block in v])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_brownian_limit_increment_variance(self):
        # h -> 1/2: increments behave like Brownian ones, var = T/M
        grid = TimeGrid(1.0, 8)
        rng = np.random.default_rng(7)
        z = rng.standard_normal((100_000, 16))
        incr = fgn_from_normals(0.500001, 8, grid.dt, z)
        var = incr.var()
        n = incr.size
        mc_sigma = var * np.sqrt(2.0 / n)
        assert abs(var - grid.dt) < 3 * mc_sigma + 1e-5

    def test_sample_covariance_matches_closed_form(self):
        h, grid = 0.6, TimeGrid(1.0, 8)
        rng = np.random.default_rng(11)
        z = rng.standard_normal((100_000, 16))
        levels = np.cumsum(fgn_from_normals(h, 8, grid.dt, z), axis=1)
        b_half, b_one = levels[:, 3], levels[:, 7]
        got = np.mean(b_half * b_one)
        want = fbm_covariance(0.5, 1.0, h)
        pair_sd = np.std(b_half * b_one) / np.sqrt(levels.shape[0])
        assert abs(got - want) < 3 * pair_sd

    def test_increment_variance_stationarity(self):
        h, grid = 0.7, TimeGrid(1.0, 8)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((100_000, 16))
        levels = np.cumsum(fgn_from_normals(h, 8, grid.dt, z), axis=1)
        diff = levels[:, 6] - levels[:, 2]  # t - s = 0.5
        got = np.mean(diff**2)
        sd = np.std(diff**2) / np.sqrt(diff.size)
        assert abs(got - 0.5 ** (2 * h)) < 3 * sd

    def test_coordinates_uncorrelated(self):
        grid = TimeGrid(1.0, 16)
        vals = np.array(
            [simulate_fbm(grid, 2, 0.6, seed=s).values[:, -1] for s in range(4000)]
        )
        cross = np.mean(vals[:, 0] * vals[:, 1])
        sd = np.std(vals[:, 0] * vals[:, 1]) / np.sqrt(vals.shape[0])
        assert abs(cross) < 3 * sd

    def test_rejects_tiny_grid_and_bad_dim(self):
        with pytest.raises(ConfigError):
            simulate_fbm(TimeGrid(1.0, 1), 1, 0.6, seed=0)
        with pytest.raises(ConfigError):
            simulate_fbm(TimeGrid(1.0, 8), 0, 0.6, seed=0)


class TestWeightedInner:
    def test_unit_indicator_reproduces_unit_variance(self):
        grid = TimeGrid(1.0, 512)
        one = indicator_cells(grid, 1.0)
        assert weighted_inner(one, one, grid, 0.6) == pytest.approx(1.0, abs=1e-10)

    def test_indicator_pair_reproduces_covariance(self):
        grid = TimeGrid(1.0, 512)
        phi = indicator_cells(grid, 0.5)
        psi = indicator_cells(grid, 1.0)
        want = fbm_covariance(0.5, 1.0, 0.6)
        assert weighted_inner(phi, psi, grid, 0.6) == pytest.approx(want, abs=1e-10)

    def test_indicator_power(self):
        grid = TimeGrid(1.0, 100)
        phi = indicator_cells(grid, 0.7)
        assert weighted_inner(phi, phi, grid, 0.75) == pytest.approx(0.7**1.5, abs=1e-10)

    def test_symmetric_bilinear_positive(self):
        grid = TimeGrid(2.0, 64)
        rng = np.random.default_rng(5)
        phi, psi, chi = rng.normal(size=(3, 64))
        h = 0.65
        assert weighted_inner(phi, psi, grid, h) == pytest.approx(
            weighted_inner(psi, phi, grid, h)
        )
        lhs = weighted_inner(phi + 2.0 * chi, psi, grid, h)
        rhs = weighted_inner(phi, psi, grid, h) + 2.0 * weighted_inner(chi, psi, grid, h)
        assert lhs == pytest.approx(rhs)
        ind = indicator_cells(grid, 1.0)
        assert weighted_inner(ind, ind, grid, h) > 0

    def test_cell_weights_are_increment_covariance(self):
        grid = TimeGrid(1.0, 16)
        w = singular_cell_weights(grid, 0.7)
        rho = _fgn_autocovariance(0.7, 15, grid.dt)
        assert w[3, 3] == pytest.approx(grid.dt**1.4)
        assert w[2, 9] == pytest.approx(rho[7])

    def test_mismatched_grid_rejected(self):
        grid = TimeGrid(1.0, 32)
        with pytest.raises(ConfigError):
            weighted_inner(np.ones(16), np.ones(32), grid, 0.6)


class TestHurstRS:
    def test_white_noise_half(self):
        rng = np.random.default_rng(12)
        est = np.mean([estimate_hurst_rs(rng.standard_normal(4096)) for _ in range(10)])
        assert 0.45 <= est <= 0.55

    def test_fbm_increments_recover_memory(self):
        grid = TimeGrid(1.0, 4096)
        ests = [
            estimate_hurst_rs(simulate_fbm(grid, 1, 0.7, seed=s).increments[0])
            for s in range(5)
        ]
        assert 0.6 <= np.mean(ests) <= 0.8

    def test_degenerate_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            estimate_hurst_rs(np.zeros(4096))

    def test_short_series_rejected(self):
        with pytest.raises(ConfigError):
            estimate_hurst_rs(np.arange(16))

    def test_window_fallback_for_short_groups(self):
        sizes = rs_window_sizes(50)
        assert len(sizes) >= 2 and max(sizes) <= 25
        assert rs_window_sizes(4096) == [32, 64, 128, 256, 512, 1024]
