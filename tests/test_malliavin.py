"""Derivative arrays, the Malliavin matrix, and the iterated weights."""

import warnings

import numpy as np
import pytest

from fracmle.errors import CapabilityError, ConfigError, DivergenceError, NearSingularityError
from fracmle.fbm import FbmPath, TimeGrid, simulate_fbm
from fracmle.malliavin import (
    AdditiveKernels,
    KernelLevel,
    PathBundle,
    derivative_first,
    derivative_second,
    grad_h_weight,
    h_weight,
    invert_gamma,
    malliavin_matrix,
    q_process,
    skorohod_U,
    theta_gradient,
)
from fracmle.models import ModelSpec, get_model, ou_oracle
from fracmle.pathwise import euler_solve


def _zero(shape):
    return lambda y, th: np.zeros(shape)


def noise_model() -> ModelSpec:
    """dY = dB: the trivial additive model."""
    return ModelSpec(
        name="noise", m=1, d=1, q=1,
        mu=lambda y, th: np.zeros_like(y),
        sigma=lambda y, th: np.ones((1, 1)),
        dmu=_zero((1, 1)), dsigma=_zero((1, 1, 1)),
        d2mu=_zero((1, 1, 1)), d2sigma=_zero((1, 1, 1, 1)),
        grad_mu=_zero((1, 1)), grad_sigma=_zero((1, 1, 1)),
        grad_dmu=_zero((1, 1, 1)), grad_dsigma=_zero((1, 1, 1, 1)),
        linear_drift=True, additive_noise=True,
    )


def sin_model() -> ModelSpec:
    """dY = sin(Y) dt + dB: scalar nonlinear drift."""
    return ModelSpec(
        name="sindrift", m=1, d=1, q=1,
        mu=lambda y, th: np.sin(y),
        sigma=lambda y, th: np.ones((1, 1)),
        dmu=lambda y, th: np.cos(y)[..., None],
        dsigma=_zero((1, 1, 1)),
        d2mu=lambda y, th: -np.sin(y)[..., None, None],
        d2sigma=_zero((1, 1, 1, 1)),
        grad_mu=_zero((1, 1)), grad_sigma=_zero((1, 1, 1)),
        grad_dmu=_zero((1, 1, 1)), grad_dsigma=_zero((1, 1, 1, 1)),
        linear_drift=False, additive_noise=True,
    )


def rank_one_model() -> ModelSpec:
    """sigma = (1, 0)^T, A = [[0, 0], [theta, 0]]: Y_1 is (B_1, 0), a singular law."""
    return ModelSpec(
        name="rankone", m=2, d=1, q=1,
        mu=lambda y, th: np.stack([np.zeros_like(y[..., 0]), th[0] * y[..., 0]], axis=-1),
        sigma=lambda y, th: np.array([[1.0], [0.0]]),
        dmu=lambda y, th: np.array([[0.0, 0.0], [th[0], 0.0]]),
        dsigma=_zero((2, 1, 2)), d2mu=_zero((2, 2, 2)), d2sigma=_zero((2, 1, 2, 2)),
        grad_mu=lambda y, th: np.stack([np.zeros_like(y[..., 0]), y[..., 0]], axis=-1)[..., None, :],
        grad_sigma=_zero((1, 2, 1)),
        grad_dmu=lambda y, th: np.array([[[0.0, 0.0], [1.0, 0.0]]]),
        grad_dsigma=_zero((1, 2, 1, 2)),
        linear_drift=True, additive_noise=True, initial_state=(0.0, 0.0),
    )


@pytest.fixture(scope="module")
def ou_setup():
    lam, h = 0.5, 0.6
    model = get_model("fou")
    grid = TimeGrid(1.0, 256)
    fbm = simulate_fbm(grid, 1, h, seed=11)
    y = euler_solve(model, [lam], fbm, np.array([0.0]))
    bundle = PathBundle(model, [lam], fbm, y, h)
    oracle = ou_oracle(lam, h, fbm)
    return model, lam, h, grid, fbm, y, bundle, oracle


class TestDerivativeFirst:
    def test_initial_value_is_sigma_column(self, ou_setup):
        model, lam, h, grid, fbm, y, bundle, _ = ou_setup
        d1 = bundle.d1
        for r in (0, 64, 200):
            assert d1.values[0, r, 0, r] == pytest.approx(1.0)

    def test_triangle_support_exact_zeros(self, ou_setup):
        _, _, _, grid, _, _, bundle, _ = ou_setup
        vals = bundle.d1.values[0, :, 0, :]
        # strictly below the diagonal: t < r
        for r in (10, 100, 256):
            assert np.all(vals[r, :r] == 0.0)

    def test_ou_matches_exponential(self, ou_setup):
        _, lam, _, grid, _, _, bundle, _ = ou_setup
        vals = bundle.d1.values[0, :, 0, :]
        tau = grid.nodes
        for r, t in [(0, 256), (64, 256), (128, 200)]:
            want = np.exp(-lam * (tau[t] - tau[r]))
            assert abs(vals[r, t] - want) < 3e-3

    def test_multidim_initial_columns(self):
        model = get_model("linear2d")
        grid = TimeGrid(0.5, 32)
        fbm = simulate_fbm(grid, 2, 0.6, seed=3)
        y = euler_solve(model, [2.0, 4.0], fbm, np.zeros(2))
        d1 = derivative_first(model, [2.0, 4.0], fbm, y)
        sig = 4.0 * np.eye(2)
        for r in (0, 16):
            for i1 in range(2):
                assert np.allclose(d1.values[i1, r, :, r], sig[:, i1])


class TestDerivativeSecond:
    def test_linear_additive_zero(self, ou_setup):
        model, lam, _, _, fbm, y, bundle, _ = ou_setup
        d2 = derivative_second(model, [lam], fbm, y, bundle.d1)
        assert np.all(d2.values == 0.0)

    def test_symmetry_exact(self):
        model = sin_model()
        grid = TimeGrid(1.0, 64)
        fbm = simulate_fbm(grid, 1, 0.7, seed=5)
        y = euler_solve(model, [0.0], fbm, np.array([0.0]))
        d1 = derivative_first(model, [0.0], fbm, y)
        d2 = derivative_second(model, [0.0], fbm, y, d1, 64)
        assert np.array_equal(d2.values, d2.values.T)

    def test_self_convergence_against_fine_grid(self):
        model = sin_model()
        h = 0.7
        fine = simulate_fbm(TimeGrid(1.0, 512), 1, h, seed=5)

        def d2_at(m):
            stride = 512 // m
            fb = FbmPath(
                grid=TimeGrid(1.0, m), hurst=fine.hurst, seed=5,
                values=fine.values[:, ::stride],
            )
            y = euler_solve(model, [0.0], fb, np.array([0.0]))
            d1 = derivative_first(model, [0.0], fb, y)
            return derivative_second(model, [0.0], fb, y, d1, m).values

        ref = d2_at(512)
        errs = {}
        for m in (32, 64):
            stride = 512 // m
            errs[m] = np.abs(d2_at(m) - ref[::stride, ::stride]).max()
        scale = np.abs(ref).max()
        assert errs[64] < errs[32]
        assert errs[64] < 0.1 * scale

    def test_multidim_nonlinear_rejected(self):
        model = get_model("linear2d")
        spec = ModelSpec(**{**model.__dict__, "linear_drift": False})
        grid = TimeGrid(0.5, 16)
        fbm = simulate_fbm(grid, 2, 0.6, seed=3)
        y = euler_solve(model, [2.0, 4.0], fbm, np.zeros(2))
        d1 = derivative_first(model, [2.0, 4.0], fbm, y)
        with pytest.raises(CapabilityError):
            derivative_second(spec, [2.0, 4.0], fbm, y, d1)


class TestThetaGradient:
    def test_zero_for_theta_independent_model(self):
        model = sin_model()  # no theta dependence anywhere
        grid = TimeGrid(1.0, 64)
        fbm = simulate_fbm(grid, 1, 0.7, seed=4)
        y = euler_solve(model, [0.0], fbm, np.array([0.0]))
        assert np.all(theta_gradient(model, [0.0], fbm, y) == 0.0)

    def test_matches_crn_finite_difference(self, ou_setup):
        model, lam, _, _, fbm, y, bundle, _ = ou_setup
        grad = bundle.grad_y
        eps = 1e-4
        up = euler_solve(model, [lam + eps], fbm, np.array([0.0]))
        dn = euler_solve(model, [lam - eps], fbm, np.array([0.0]))
        fd = (up.terminal[0] - dn.terminal[0]) / (2 * eps)
        assert grad[0, 0, -1] == pytest.approx(fd, rel=1e-4)

    def test_matches_closed_form_with_negative_sign(self, ou_setup):
        # the closed form is minus the ramp integral; sign fixed by the
        # finite-difference oracle
        model, lam, h, grid, fbm, y, bundle, oracle = ou_setup
        grad_t = bundle.grad_y[0, 0, -1]
        assert grad_t * oracle.dy_dlam[-1] > 0
        assert abs(grad_t - oracle.dy_dlam[-1]) < 5e-3


class TestMatrixPath:
    def test_additive_gamma_is_power_law(self):
        model = noise_model()
        grid = TimeGrid(1.0, 128)
        fbm = simulate_fbm(grid, 1, 0.7, seed=2)
        y = euler_solve(model, [0.0], fbm, np.array([0.0]))
        d1 = derivative_first(model, [0.0], fbm, y)
        nodes = np.array([32, 64, 128])
        gamma = malliavin_matrix(d1, 0.7, nodes)
        want = (grid.nodes[nodes]) ** 1.4
        assert np.allclose(gamma[:, 0, 0], want, rtol=1e-10)

    def test_gamma_symmetric_psd(self):
        model = get_model("linear2d")
        grid = TimeGrid(0.5, 64)
        fbm = simulate_fbm(grid, 2, 0.6, seed=9)
        y = euler_solve(model, [2.0, 4.0], fbm, np.zeros(2))
        d1 = derivative_first(model, [2.0, 4.0], fbm, y)
        gamma = malliavin_matrix(d1, 0.6, [16, 64])
        for g in gamma:
            assert np.array_equal(g, g.T)
            assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_ou_gamma_against_fine_quadrature(self, ou_setup):
        model, lam, h, grid, fbm, y, bundle, _ = ou_setup
        gamma = bundle.matrix_at(256)[0][0, 0]
        fine = simulate_fbm(TimeGrid(1.0, 4096), 1, h, seed=1)
        ref = ou_oracle(lam, h, fine).gamma(4096)
        assert abs(gamma - ref) / ref < 1e-2

    def test_inverse_identity_and_eta(self, ou_setup):
        model, lam, h, grid, fbm, y, bundle, _ = ou_setup
        nodes = np.array([64, 128, 256])
        gamma = malliavin_matrix(bundle.d1, h, nodes)
        eta = invert_gamma(gamma, nodes)
        for g, e in zip(gamma, eta):
            assert np.abs(g @ e - np.eye(1)).max() < 1e-6

    def test_singular_gamma_names_node(self):
        with pytest.raises(NearSingularityError, match="node 7"):
            invert_gamma(np.array([[[1.0, 1.0], [1.0, 1.0]]]), np.array([7]))


class TestAdditiveKernelErrors:
    @pytest.mark.parametrize("node", [0, -3, 12, 20])
    def test_node_outside_grid_is_config_error(self, node):
        with pytest.raises(ConfigError, match=f"node {node} "):
            AdditiveKernels(get_model("fou"), [0.5], TimeGrid(1.0, 10), 0.6, [node])

    @pytest.mark.parametrize("nodes", [[2.7], [], [3, np.nan], [np.inf]],
                             ids=["fraction", "empty", "nan", "inf"])
    def test_malformed_node_list_is_config_error(self, nodes):
        # int() would truncate 2.7 to node 2, and an empty list has no last node
        with pytest.raises(ConfigError, match=r"nodes must be one or more integers, got \["):
            AdditiveKernels(get_model("fou"), [0.5], TimeGrid(1.0, 10), 0.6, nodes)

    def test_integral_nodes_of_any_number_type(self):
        kern = AdditiveKernels(get_model("fou"), [0.5], TimeGrid(1.0, 10), 0.6,
                               [np.int64(7), 3.0, np.float32(5)])
        assert kern.nodes == [3, 5, 7]
        assert all(type(t) is int for t in kern.nodes)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_singular_law_names_first_node(self, with_grad):
        model, grid = rank_one_model(), TimeGrid(1.0, 20)
        with pytest.raises(NearSingularityError) as err:
            AdditiveKernels(model, [1.0], grid, 0.7, [1, 5, 20], with_grad=with_grad)
        assert err.value.node == 1
        kern = AdditiveKernels(model, [1.0], grid, 0.7, [5, 20], with_grad=with_grad)
        assert np.linalg.cond(kern.at(5)["gamma"]) < 1e12

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_unstable_euler_factor_is_divergence(self, with_grad):
        with pytest.raises(DivergenceError):
            AdditiveKernels(get_model("fou"), [-1000.0], TimeGrid(1.0, 100), 0.6, [100],
                            with_grad=with_grad)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_overflowing_powers_raise_without_warning(self, with_grad):
        # P = 2001: P^500 overflows to inf inside the doubling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                AdditiveKernels(get_model("fou"), [-1e6], TimeGrid(1.0, 500), 0.6, [500],
                                with_grad=with_grad)


class TestWeights:
    def test_brownian_weights_exact(self):
        model = noise_model()
        grid = TimeGrid(1.0, 64)
        fbm = simulate_fbm(grid, 1, 0.7, seed=13)
        y = euler_solve(model, [0.0], fbm, np.array([0.0]))
        bundle = PathBundle(model, [0.0], fbm, y, 0.7)
        b1 = fbm.values[0, -1]
        w1 = h_weight((1,), bundle, 64)
        assert w1.value == pytest.approx(b1, abs=1e-12)
        w11 = h_weight((1, 1), bundle, 64)
        assert w11.value == pytest.approx(b1 * b1 - 1.0, abs=1e-10)

    def test_skorohod_one_level_trivial(self):
        # deterministic kernel G = 1: no correction, U = Young integral of Q
        model = noise_model()
        grid = TimeGrid(1.0, 64)
        fbm = simulate_fbm(grid, 1, 0.7, seed=14)
        y = euler_solve(model, [0.0], fbm, np.array([0.0]))
        bundle = PathBundle(model, [0.0], fbm, y, 0.7)
        lvl = KernelLevel(value=1.0, dfield=np.zeros((64, 1)))
        out = skorohod_U(1, lvl, bundle, 64)
        assert out.value == pytest.approx(fbm.values[0, -1], abs=1e-12)

    def test_skorohod_with_kernel_b1(self):
        # G = B_1 realizes delta(B_1 1_[0,1]) = B_1^2 - 1
        model = noise_model()
        grid = TimeGrid(1.0, 64)
        fbm = simulate_fbm(grid, 1, 0.7, seed=15)
        y = euler_solve(model, [0.0], fbm, np.array([0.0]))
        bundle = PathBundle(model, [0.0], fbm, y, 0.7)
        b1 = fbm.values[0, -1]
        lvl = KernelLevel(value=b1, dfield=np.ones((64, 1)))
        out = skorohod_U(1, lvl, bundle, 64)
        assert out.value == pytest.approx(b1 * b1 - 1.0, abs=1e-10)

    def test_q_process_triangle(self, ou_setup):
        _, _, _, _, _, _, bundle, _ = ou_setup
        q = q_process(bundle, 100)
        assert np.all(q[:, :, :, 100:] == 0.0)

    def test_ou_weights_match_oracle(self, ou_setup):
        model, lam, h, grid, fbm, y, bundle, oracle = ou_setup
        t = 256
        w1 = h_weight((1,), bundle, t)
        w11 = h_weight((1, 1), bundle, t)
        # same grid, exact kernels versus Euler kernels: small gap only
        assert w1.value == pytest.approx(oracle.h1(t), abs=2e-2)
        assert w11.value == pytest.approx(oracle.h11(t), abs=5e-2)

    def test_weight_levels_allow_one_more_application(self, ou_setup):
        _, _, _, _, _, _, bundle, _ = ou_setup
        w1 = h_weight((1,), bundle, 256)
        lvl = w1.levels[-1]
        assert lvl.dfield is not None and lvl.dfield.shape[1] == 1
        # the generic operator uses node-indexed kernels, the polynomial
        # engine increment derivatives: one Euler factor apart
        again = skorohod_U(1, KernelLevel(w1.value, lvl.dfield), bundle, 256)
        w11 = h_weight((1, 1), bundle, 256)
        assert again.value == pytest.approx(w11.value, rel=1e-2)

    def test_depth_capability_errors(self, ou_setup):
        model, lam, h, grid, fbm, y, bundle, _ = ou_setup
        with pytest.raises(CapabilityError):
            h_weight((1, 1, 1), bundle, 64)  # depth > 2m
        smodel = sin_model()
        sy = euler_solve(smodel, [0.0], fbm, np.array([0.0]))
        sb = PathBundle(smodel, [0.0], fbm, sy, h)
        with pytest.raises(CapabilityError):
            h_weight((1, 1), sb, 64)  # nonlinear depth-2 needs D^3

    def test_scalar_nonlinear_depth_one_zero_mean(self):
        model = sin_model()
        grid = TimeGrid(1.0, 48)
        vals = []
        for s in range(300):
            fbm = simulate_fbm(grid, 1, 0.7, seed=5000 + s)
            y = euler_solve(model, [0.0], fbm, np.array([0.0]))
            b = PathBundle(model, [0.0], fbm, y, 0.7)
            vals.append(h_weight((1,), b, 48).value)
        vals = np.array(vals)
        assert abs(vals.mean()) < 4 * vals.std() / np.sqrt(vals.size)

    def test_grad_weight_matches_crn_fd(self, ou_setup):
        model, lam, h, grid, fbm, y, bundle, _ = ou_setup
        t = 256
        got = grad_h_weight((1, 1), 0, bundle, t)
        eps = 1e-5
        vals = {}
        for s in (+1, -1):
            yy = euler_solve(model, [lam + s * eps], fbm, np.array([0.0]))
            bb = PathBundle(model, [lam + s * eps], fbm, yy, h)
            vals[s] = h_weight((1, 1), bb, t).value
        fd = (vals[1] - vals[-1]) / (2 * eps)
        assert got.value == pytest.approx(fd, rel=1e-3)

    def test_grad_weight_matches_corrected_closed_form(self, ou_setup):
        model, lam, h, grid, fbm, y, bundle, oracle = ou_setup
        t = 256
        got = grad_h_weight((1, 1), 0, bundle, t)
        assert got.value == pytest.approx(oracle.dlam_h11(t), abs=6e-2)
        assert got.value * oracle.dlam_h11(t) > 0

    def test_grad_weight_zero_for_theta_independent(self):
        model = noise_model()
        grid = TimeGrid(1.0, 32)
        fbm = simulate_fbm(grid, 1, 0.6, seed=2)
        y = euler_solve(model, [0.0], fbm, np.array([0.0]))
        bundle = PathBundle(model, [0.0], fbm, y, 0.6)
        assert grad_h_weight((1, 1), 0, bundle, 32).value == 0.0


class TestZeroMeanAndDensity:
    def test_weights_zero_mean_exactly_in_law(self):
        # the quadrature weights equal the exact increment covariance, so
        # every weight is a centered polynomial of a correctly-scaled
        # Gaussian: sample means vanish at Monte-Carlo accuracy
        from fracmle.fbm import fgn_from_normals

        h = 0.6
        grid = TimeGrid(1.0, 128)
        model = get_model("fou")
        kern = AdditiveKernels(model, [0.5], grid, h, [128])
        rng = np.random.default_rng(100)
        z = rng.standard_normal((40_000, 1, 256))
        incr = fgn_from_normals(h, 128, grid.dt, z)
        for idx in ((1,), (1, 1)):
            vals = kern.weight_values(idx, incr, 128)
            assert abs(vals.mean()) < 3 * vals.std() / np.sqrt(vals.size)

    def test_2d_weights_zero_mean(self):
        from fracmle.fbm import fgn_from_normals

        h = 0.6
        grid = TimeGrid(1.0, 100)
        model = get_model("linear2d")
        kern = AdditiveKernels(model, [2.0, 4.0], grid, h, [100])
        rng = np.random.default_rng(101)
        z = rng.standard_normal((40_000, 2, 200))
        incr = fgn_from_normals(h, 100, grid.dt, z)
        for idx in ((1, 2), (1, 2, 1, 2)):
            vals = kern.weight_values(idx, incr, 100)
            assert abs(vals.mean()) < 3 * vals.std() / np.sqrt(vals.size)

    def test_chain_consistency_generic_vs_oracle(self):
        # generic recursion against the independent closed-form kernels,
        # per path, shrinking with the grid
        lam, h = 0.5, 0.6
        model = get_model("fou")
        fine = simulate_fbm(TimeGrid(1.0, 1024), 1, h, seed=55)
        gaps = {}
        for m in (256, 1024):
            stride = 1024 // m
            fb = FbmPath(grid=TimeGrid(1.0, m), hurst=fine.hurst, seed=55,
                         values=fine.values[:, ::stride])
            y = euler_solve(model, [lam], fb, np.array([0.0]))
            bundle = PathBundle(model, [lam], fb, y, h)
            oracle = ou_oracle(lam, h, fb)
            gaps[m] = abs(h_weight((1, 1), bundle, m).value - oracle.h11(m))
        assert gaps[1024] < gaps[256]

    def test_density_identity_against_gaussian(self):
        # mean of 1_(Y>x) H1 over paths matches the centered Gaussian density
        # with the quadrature variance at x in {0, +-0.5 sqrt(gamma)}
        from fracmle.fbm import fgn_from_normals
        from fracmle.pathwise import euler_solve_batch

        lam, h = 0.5, 0.6
        model = get_model("fou")
        grid = TimeGrid(1.0, 128)
        kern = AdditiveKernels(model, [lam], grid, h, [128])
        gamma = kern.at(128)["gamma"][0, 0]
        rng = np.random.default_rng(321)
        z = rng.standard_normal((100_000, 1, 256))
        incr = fgn_from_normals(h, 128, grid.dt, z)
        paths = euler_solve_batch(model, [lam], incr, np.zeros(1), grid.dt)
        y_t = paths[:, 128, 0]
        h1 = kern.weight_values((1,), incr, 128)
        for c in (0.0, 0.5, -0.5):
            x = c * np.sqrt(gamma)
            got = np.mean((y_t > x) * h1)
            want = np.exp(-x * x / (2 * gamma)) / np.sqrt(2 * np.pi * gamma)
            assert abs(got - want) / want < 0.05
