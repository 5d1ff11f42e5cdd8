"""Monte-Carlo density, kernel and score estimation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmle.errors import CapabilityError, ConfigError, DivergenceError, UnreliableScoreError
from fracmle.fbm import TimeGrid, simulate_fbm
from fracmle.likelihood import (
    Budget,
    Observations,
    allocate_budget,
    estimate_V,
    estimate_W,
    estimate_density,
    score,
)
from fracmle.likelihood import _tail_sides, _v_term, _w_factors
from fracmle.malliavin import AdditiveKernels
from fracmle.models import ModelSpec, get_model, ou_oracle
from fracmle.pathwise import euler_solve


def _zero(shape):
    return lambda y, th: np.zeros(shape)


def noise_model() -> ModelSpec:
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


def make_obs(model, theta, grid, h, n_obs, seed, a=None):
    a = np.zeros(model.m) if a is None else a
    fbm = simulate_fbm(grid, model.d, h, seed=seed)
    y = euler_solve(model, theta, fbm, a)
    step = grid.steps // n_obs
    idx = np.arange(step, grid.steps + 1, step)
    return Observations(grid=grid, times=grid.nodes[idx], values=y.values[:, idx].T)


class TestBudget:
    def test_allocation_examples(self):
        # gamma_tilde = T m (d+1); exponent gt/(2 gamma - 1) - 3
        assert allocate_budget(100, 0.75, horizon=1.0, m=1, d=1) == 100
        assert allocate_budget(100, 0.75, horizon=0.5, m=1, d=1) == 1
        with pytest.warns(UserWarning, match="capping"):
            n = allocate_budget(10, 0.6, horizon=1.5, m=1, d=1)
        assert n == 10**6
        # exponent 197: the power overflows a float, the cap still applies
        with pytest.warns(UserWarning, match="capping"):
            assert allocate_budget(50, 0.55, horizon=10, m=1, d=1) == 10**6

    @pytest.mark.parametrize("scale", [0, 0.0, -1.0, -np.inf, np.inf, np.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ConfigError, match="scale"):
            allocate_budget(50, 0.55, horizon=10, m=1, d=1, scale=scale)

    def test_gamma_guard(self):
        with pytest.raises(ConfigError):
            allocate_budget(100, 0.5, horizon=1.0, m=1, d=1)

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            Budget(euler_steps=1, mc_paths=10)
        with pytest.raises(ConfigError):
            Budget(euler_steps=10, mc_paths=0)
        with pytest.raises(ConfigError):
            Budget(euler_steps=10, mc_paths=10, gamma=0.7, hurst=0.6)

    def test_observation_validation(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ConfigError):
            Observations(grid=grid, times=[0.2, 0.2], values=[[1.0], [2.0]])
        with pytest.raises(ConfigError):
            Observations(grid=grid, times=[0.15], values=[[1.0]])  # off-grid


class TestDensity:
    def test_standard_normal_value(self):
        model = noise_model()
        bud = Budget(64, 40_000, 0.55)
        val, se = estimate_density(model, [0.0], 1.0, [0.0], bud, seed=42, h=0.6)
        assert abs(val - 1.0 / np.sqrt(2 * np.pi)) < 3 * se

    def test_far_tail_vanishes(self):
        model = noise_model()
        bud = Budget(64, 5_000, 0.55)
        val, se = estimate_density(model, [0.0], 1.0, [10.0], bud, seed=43, h=0.6)
        assert val == 0.0

    def test_representations_agree(self):
        model = get_model("fou")
        bud = Budget(128, 40_000, 0.55)
        v1, se1 = estimate_density(model, [0.5], 1.0, [0.3], bud, seed=3, h=0.6)
        v2, se2 = estimate_density(
            model, [0.5], 1.0, [0.3], bud, seed=4, h=0.6, representation="positive-part"
        )
        assert abs(v1 - v2) < 3 * np.hypot(se1, se2)

    def test_se_scales_as_inverse_sqrt_n(self):
        model = get_model("fou")
        ses = []
        for n_paths in (2_000, 4_000, 8_000, 16_000, 32_000):
            bud = Budget(64, n_paths, 0.55)
            _, se = estimate_density(model, [0.5], 1.0, [0.2], bud, seed=9, h=0.6)
            ses.append(se)
        for a, b in zip(ses, ses[1:]):
            assert abs(b / a - 2 ** -0.5) < 0.2 * 2 ** -0.5

    def test_deterministic(self):
        model = get_model("fou")
        bud = Budget(64, 2_000, 0.55)
        out1 = estimate_density(model, [0.5], 1.0, [0.0], bud, seed=11, h=0.6)
        out2 = estimate_density(model, [0.5], 1.0, [0.0], bud, seed=11, h=0.6)
        assert out1 == out2

    @pytest.mark.parametrize("name, theta, a, x", [
        ("fou", [0.5], [0.0], [0.3]),
        ("linear2d", [2.0, 4.0], [0.0, 0.0], [0.1, -0.2]),
        ("findrift", [0.015, 0.352], [100.0], [101.6]),
    ])
    def test_block_rebuilt_from_the_node_law(self, name, theta, a, x):
        # One block rebuilt by hand: the block's m normals per path through the
        # factor diag(sqrt(lam)) r^T of gamma_t, then the weight read off the
        # centered state.
        model, steps, n_paths, seed, h = get_model(name), 48, 3000, 21, 0.65
        grid = TimeGrid(1.0, steps)
        kernels = AdditiveKernels(model, theta, grid, h, [steps])
        e = kernels.at(steps)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
        y_c = rng.standard_normal((n_paths, model.m)) @ (np.sqrt(e["lam"])[:, None] * e["r"].T)
        mean, _ = kernels.mean(a, steps)
        y_t = mean + y_c
        g = y_c @ np.linalg.inv(e["gamma"])
        idx = tuple(range(1, model.m + 1))
        h_m, h_2m = kernels.levels(idx, steps)[-1](g), kernels.levels(idx * 2, steps)[-1](g)
        _, s = _tail_sides(np.array(x), mean, np.diag(e["gamma"]))
        want = {
            "indicator": np.prod(y_t > x, axis=1) * h_m,
            "positive-part": np.prod(np.maximum(y_t - x, 0.0), axis=1) * h_2m,
            "auto": s**model.m * np.prod(s * y_t > s * np.array(x), axis=1) * h_m,
        }
        for rep, vals in want.items():
            got, _ = estimate_density(model, theta, 1.0, x, Budget(steps, n_paths, 0.55), seed,
                                      h, a=a, representation=rep)
            assert abs(got - vals.mean()) <= 1e-12 * abs(vals.mean()), rep

    def test_v_block_rebuilt_from_the_node_law(self):
        # estimate_V's block by hand on linear2d, where C_t = Cov(dY_t, Y_t) is 28%
        # asymmetric: the state from the node law, its gradient the conditional
        # expectation C_t eta_t y_c with C_t from the brute-force cell quadrature
        from tests.test_readoff import cell_quadrature_law

        model, theta, a, x = get_model("linear2d"), np.array([2.0, 4.0]), np.zeros(2), [0.1, -0.2]
        steps, n_paths, seed, h = 48, 3000, 22, 0.65
        grid = TimeGrid(1.0, steps)
        obs = Observations(grid=grid, times=[1.0], values=[x])
        kernels = AdditiveKernels(model, theta, grid, h, [steps], with_grad=True)
        e = kernels.at(steps)
        _, _, law = cell_quadrature_law(model, theta, grid, h, [steps])
        gamma, c = law[steps]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
        y_c = rng.standard_normal((n_paths, 2)) @ (np.sqrt(e["lam"])[:, None] * e["r"].T)
        dy_c = np.stack([y_c @ (c[l] @ np.linalg.inv(gamma)).T for l in range(2)], axis=1)
        mean, dmean = kernels.mean(a, steps)
        g, dg = kernels.read_off(y_c, steps, dy_c)
        idx = (1, 2, 1, 2)
        vals = _v_term(mean + y_c, np.array(x), dmean + dy_c, kernels.levels(idx, steps)[-1](g),
                       kernels.grad_weight(idx, g, dg, steps), 1.0)
        for l in range(2):
            got, _ = estimate_V(model, theta, l, obs, 0, Budget(steps, n_paths, 0.55), seed, h)
            assert abs(got - vals[:, l].mean()) <= 1e-12 * abs(vals[:, l].mean()), l

    def test_divergent_state_raises(self):
        # I + A dt = 1.625 per step: the state passes the divergence limit by t = 1
        bud = Budget(64, 500, 0.55)
        with pytest.raises(DivergenceError):
            estimate_density(get_model("fou"), [-40.0], 1.0, [0.3], bud, seed=1, h=0.6)

    def test_nonlinear_scalar_supported(self):
        from tests.test_malliavin import sin_model

        bud = Budget(32, 200, 0.55)
        val, se = estimate_density(sin_model(), [0.0], 1.0, [0.0], bud, seed=5, h=0.7)
        assert np.isfinite(val) and 0.05 < val < 1.0


class TestWAndV:
    def setup_method(self):
        self.model = get_model("fou")
        self.h = 0.6
        self.grid = TimeGrid(4.0, 128)
        self.obs = Observations(
            grid=self.grid, times=[2.0, 4.0], values=[[0.4], [0.8]]
        )
        self.bud = Budget(128, 30_000, 0.55)

    def test_w_is_density_at_observation(self):
        # last observation sits at the horizon: identical stream, identical value
        w, wse = estimate_W(self.model, [0.5], self.obs, 1, self.bud, seed=7, h=self.h)
        f, fse = estimate_density(
            self.model, [0.5], 4.0, [0.8], self.bud, seed=7, h=self.h, stream_key=(1,)
        )
        assert w == f and wse == fse

    def test_w_matches_gaussian_mode_value(self):
        # at y = E[Y_t] = 0 the density is (2 pi gamma)^(-1/2)
        obs = Observations(grid=self.grid, times=[4.0], values=[[0.0]])
        w, wse = estimate_W(self.model, [0.5], obs, 0, self.bud, seed=8, h=self.h)
        fine = simulate_fbm(TimeGrid(4.0, 2048), 1, self.h, seed=1)
        gamma = ou_oracle(0.5, self.h, fine).gamma(2048)
        want = 1.0 / np.sqrt(2 * np.pi * gamma)
        assert abs(w - want) / want < 0.05

    def test_single_path_budget(self):
        bud = Budget(128, 1, 0.55)
        w, wse = estimate_W(self.model, [0.5], self.obs, 0, bud, seed=1, h=self.h)
        assert np.isfinite(w)
        assert np.isnan(wse)

    def test_v_zero_for_theta_independent_model(self):
        model = noise_model()
        obs = Observations(grid=self.grid, times=[4.0], values=[[0.2]])
        bud = Budget(128, 500, 0.55)
        v, vse = estimate_V(model, [0.0], 0, obs, 0, bud, seed=3, h=self.h)
        assert v == 0.0

    def test_v_matches_fd_of_positive_part_density(self):
        # V is the exact pathwise derivative of the positive-part estimator
        bud = Budget(128, 2_000, 0.55)
        v, vse = estimate_V(self.model, [0.5], 0, self.obs, 1, bud, seed=5, h=self.h)
        eps = 1e-4
        vals = {}
        for s in (+1, -1):
            vals[s], _ = estimate_density(
                self.model, [0.5 + s * eps], 4.0, [0.8], bud, seed=5, h=self.h,
                representation="positive-part", stream_key=(1,),
            )
        fd = (vals[1] - vals[-1]) / (2 * eps)
        assert v == pytest.approx(fd, rel=1e-3)

    def test_v_consistent_with_indicator_density_fd(self):
        bud = Budget(128, 30_000, 0.55)
        v, vse = estimate_V(self.model, [0.5], 0, self.obs, 0, bud, seed=6, h=self.h)
        eps = 0.05
        vals, ses = {}, {}
        for s in (+1, -1):
            vals[s], ses[s] = estimate_density(
                self.model, [0.5 + s * eps], 2.0, [0.4], bud, seed=6, h=self.h,
                stream_key=(0,),
            )
        fd = (vals[1] - vals[-1]) / (2 * eps)
        fd_se = np.hypot(ses[1], ses[-1]) / (2 * eps)
        assert abs(v - fd) < 3 * np.hypot(vse, fd_se)

    def test_v_far_tail_vanishes(self):
        obs = Observations(grid=self.grid, times=[4.0], values=[[50.0]])
        bud = Budget(128, 2_000, 0.55)
        v, _ = estimate_V(self.model, [0.5], 0, obs, 0, bud, seed=2, h=self.h)
        assert v == 0.0

    @pytest.mark.parametrize("kernel", ["W", "V"])
    @pytest.mark.parametrize("i", [-1, 2], ids=["minus_one", "obs_n"])
    def test_observation_index_outside_range(self, kernel, i):
        bud = Budget(128, 10, 0.55)
        with pytest.raises(ConfigError, match="observation index"):
            if kernel == "W":
                estimate_W(self.model, [0.5], self.obs, i, bud, seed=1, h=self.h)
            else:
                estimate_V(self.model, [0.5], 0, self.obs, i, bud, seed=1, h=self.h)

    def test_v_requires_linear_additive(self):
        from tests.test_malliavin import sin_model

        with pytest.raises(CapabilityError):
            estimate_V(sin_model(), [0.0], 0, self.obs, 0, self.bud, seed=1, h=0.7)


class TestScore:
    def test_theta_independent_model_scores_zero(self):
        model = noise_model()
        grid = TimeGrid(4.0, 64)
        obs = make_obs(model, [0.0], grid, 0.6, 4, seed=31)
        bud = Budget(64, 400, 0.55)
        sv = score(model, [0.0], obs, bud, seed=1, h=0.6)
        assert np.all(sv.score == 0.0)

    def test_bit_identical_reruns(self):
        model = get_model("fou")
        grid = TimeGrid(20.0, 100)
        obs = make_obs(model, [0.5], grid, 0.6, 10, seed=32)
        bud = Budget(100, 300, 0.55)
        a = score(model, [0.5], obs, bud, seed=5, h=0.6, on_unreliable="clamp")
        b = score(model, [0.5], obs, bud, seed=5, h=0.6, on_unreliable="clamp")
        assert np.array_equal(a.score, b.score)
        assert np.array_equal(a.w, b.w)

    def test_raises_on_unreliable_observation(self):
        model = get_model("fou")
        grid = TimeGrid(4.0, 64)
        obs = Observations(grid=grid, times=[2.0, 4.0], values=[[0.1], [40.0]])
        bud = Budget(64, 500, 0.55)
        with pytest.raises(UnreliableScoreError) as err:
            score(model, [0.5], obs, bud, seed=2, h=0.6)
        assert err.value.observation == 1

    def test_clamp_mode_reports_flags(self):
        model = get_model("fou")
        grid = TimeGrid(4.0, 64)
        obs = Observations(grid=grid, times=[2.0, 4.0], values=[[0.1], [3.5]])
        bud = Budget(64, 500, 0.55)
        sv = score(model, [0.5], obs, bud, seed=2, h=0.6, on_unreliable="clamp")
        assert 1 in sv.flagged
        assert not sv.used[1] and sv.used[0]

    def test_mean_zero_at_dataset_root(self):
        # at the root of the analytic marginal score the Monte-Carlo score
        # averages to zero over independent path streams
        from fracmle.malliavin import AdditiveKernels

        model = get_model("fou")
        h = 0.6
        grid = TimeGrid(60.0, 120)
        obs = make_obs(model, [0.5], grid, h, 20, seed=77)
        idx = [int(k) for k in obs.node_indices]

        def analytic(lam):
            kern = AdditiveKernels(model, [lam], grid, h, idx, with_grad=True)
            tot = 0.0
            for k, t in enumerate(idx):
                e = kern.at(t)
                g, dg = e["gamma"][0, 0], e["dgamma"][0, 0, 0]
                yv = obs.values[k, 0]
                tot += dg * (yv * yv - g) / (2 * g * g)
            return tot

        lo, hi = 0.05, 3.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if analytic(mid) > 0 else (lo, mid)
        root = 0.5 * (lo + hi)
        bud = Budget(120, 1000, 0.55)
        vals = [
            score(model, [root], obs, bud, seed=900 + s, h=h, on_unreliable="clamp").score[0]
            for s in range(12)
        ]
        vals = np.array(vals)
        assert abs(vals.mean()) < 3 * vals.std(ddof=1) / np.sqrt(vals.size)

    def test_sign_drives_iterate_toward_truth(self):
        # below the root the negated score is negative: theta - a g increases
        model = get_model("fou")
        h = 0.6
        grid = TimeGrid(60.0, 120)
        bud = Budget(120, 500, 0.55)
        signs = []
        for r in range(10):
            obs = make_obs(model, [0.5], grid, h, 20, seed=500 + r)
            sv = score(model, [0.25], obs, bud, seed=600 + r, h=h, on_unreliable="clamp")
            signs.append(np.sign(sv.score[0]))
        assert np.sum(np.array(signs) > 0) >= 8

    def test_flagged_majority_raises(self):
        model = get_model("fou")
        grid = TimeGrid(4.0, 64)
        values = np.full((4, 1), 30.0)
        obs = Observations(grid=grid, times=[1.0, 2.0, 3.0, 4.0], values=values)
        bud = Budget(64, 300, 0.55)
        with pytest.raises(UnreliableScoreError):
            score(model, [0.5], obs, bud, seed=3, h=0.6, on_unreliable="clamp")

    def test_clamp_survives_with_one_in_ten_unflagged(self):
        # clamp mode raises only below max(1, n // 10) unflagged observations
        model = get_model("fou")
        grid = TimeGrid(10.0, 100)
        values = np.full((10, 1), 30.0)
        values[0] = 0.1
        obs = Observations(grid=grid, times=np.arange(1.0, 11.0), values=values)
        bud = Budget(100, 300, 0.55)
        sv = score(model, [0.5], obs, bud, seed=3, h=0.6, on_unreliable="clamp")
        assert sv.flagged == tuple(range(1, 10))
        assert sv.used.sum() == 1 and np.all(np.isfinite(sv.score))


@st.composite
def signed_case(draw):
    """Linear paths y = y0 + theta dy, H = h0 + theta dh and per-coordinate
    weights g, m <= 3 and q <= 2, with every coordinate of y0 at least 0.05
    from x (away from the kinks)."""
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, 2))

    def vec(n, lo=-3.0, hi=3.0):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    x = vec(m)
    gap = vec(m, 0.05, 3.0) * np.where(draw(st.lists(st.booleans(), min_size=m, max_size=m)), 1, -1)
    return x + gap, x, vec(q * m).reshape(q, m), vec(1)[0], vec(q), vec(m)


def _central(f, eps=1e-5):
    return (f(eps) - f(-eps)) / (2 * eps)


class TestSignedTerms:
    """On side s = -1 the V term is the theta-derivative of prod(x - y)_+ H and
    on s = +1 that of prod(y - x)_+ H; the W factor s_c 1(s_c y_c > s_c x_c) G_c
    is the derivative of (s_c (y_c - x_c))_+ G_c along dy_c."""

    @given(case=signed_case(), s=st.sampled_from([-1.0, 1.0]))
    def test_v_term_is_theta_derivative(self, case, s):
        y0, x, dy, h0, dh, _ = case
        v = _v_term(y0[None], x, dy[None], np.array([h0]), dh[None], s)[0]
        for l in range(dy.shape[0]):
            def f(t):
                return np.prod(np.maximum(s * (y0 + t * dy[l] - x), 0.0)) * (h0 + t * dh[l])

            assert v[l] == pytest.approx(_central(f), rel=1e-6, abs=1e-6)

    @given(case=signed_case(), sides=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
    def test_w_factor_is_signed_derivative(self, case, sides):
        y0, x, dy, _, _, g = case
        s = np.array(sides[: x.size])
        w = _w_factors(y0[None], x, g[None], s)[0]
        for c in range(x.size):
            def f(t):
                return max(s[c] * (y0[c] + t * dy[0, c] - x[c]), 0.0) * g[c]

            assert w[c] * dy[0, c] == pytest.approx(_central(f), rel=1e-6, abs=1e-6)


class TestDiscretizationRates:
    """Fixed-N refinement of the kernels: the remaining error is the Euler
    bias, isolated by driving every grid size with the same fine paths."""

    def _shared_path_curves(self):
        from fracmle.fbm import fgn_from_normals
        from fracmle.malliavin import AdditiveKernels
        from fracmle.malliavin import theta_gradient_batch
        from fracmle.pathwise import euler_solve_batch

        lam, h = 0.5, 0.75
        model = get_model("fou")
        m_ref = 4096
        m_list = [2**k for k in range(5, 10)]
        grid_ref = TimeGrid(1.0, m_ref)
        rng = np.random.default_rng(246)
        z = rng.standard_normal((2000, 1, 2 * m_ref))
        incr_ref = fgn_from_normals(h, m_ref, grid_ref.dt, z)
        ys = [0.3, -0.4, 0.1]

        def stats(m):
            stride = m_ref // m
            grid = TimeGrid(1.0, m)
            incr = incr_ref.reshape(2000, 1, m, stride).sum(axis=3)
            paths = euler_solve_batch(model, [lam], incr, np.zeros(1), grid.dt)
            grads = theta_gradient_batch(model, [lam], incr, paths, grid.dt)
            kern = AdditiveKernels(model, [lam], grid, h, [m], with_grad=True)
            y_t = paths[:, m, 0]
            g_t = grads[:, m, 0, 0]
            mean, dmean = kern.mean(np.zeros(1), m)
            y_c = paths[:, m] - mean
            g, dg = kern.read_off(y_c, m, grads[:, m] - dmean)
            h1 = kern.levels((1,), m)[-1](g)
            h11 = kern.levels((1, 1), m)[-1](g)
            dh11 = kern.grad_weight((1, 1), g, dg, m)[:, 0]
            w, s = [], 0.0
            for yv in ys:
                wi = np.mean((y_t > yv) * h1)
                vi = np.mean(
                    g_t * (y_t > yv) * h11 + np.maximum(y_t - yv, 0.0) * dh11
                )
                w.append(wi)
                s += vi / wi
            return np.array(w), s

        ref_w, ref_s = stats(m_ref)
        w_err, s_err = [], []
        for m in m_list:
            wm, sm = stats(m)
            w_err.append(np.abs(wm - ref_w).max())
            s_err.append(abs(sm - ref_s))
        return m_list, np.array(w_err), np.array(s_err)

    def test_kernel_and_score_rates(self):
        m_list, w_err, s_err = self._shared_path_curves()
        # gamma = 0.7 < H = 0.75: acceptance band is -(2 gamma - 1) + 0.2
        w_slope = np.polyfit(np.log(m_list), np.log(w_err), 1)[0]
        s_slope = np.polyfit(np.log(m_list), np.log(s_err), 1)[0]
        assert w_slope <= -(2 * 0.7 - 1) + 0.2
        assert s_slope <= -(2 * 0.7 - 1) + 0.2
