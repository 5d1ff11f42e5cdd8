"""Young integration and the Euler solvers."""

import numpy as np
import pytest

from fracmle.errors import ConfigError, DivergenceError
from fracmle.fbm import FbmPath, TimeGrid, simulate_fbm
from fracmle.models import get_model, ou_oracle
from fracmle.pathwise import (
    ControlledCoeffs,
    euler_solve,
    euler_solve_batch,
    linear_solve,
    young_integral,
)


def restrict(fbm: FbmPath, m_coarse: int) -> FbmPath:
    """The same path on a coarser dyadic grid."""
    stride = fbm.grid.steps // m_coarse
    return FbmPath(
        grid=TimeGrid(fbm.grid.horizon, m_coarse),
        hurst=fbm.hurst,
        seed=fbm.seed,
        values=fbm.values[:, ::stride],
    )


class TestYoungIntegral:
    def test_constant_integrand_telescopes(self):
        fbm = simulate_fbm(TimeGrid(1.0, 128), 1, 0.7, seed=2)
        b = fbm.values[0]
        assert young_integral(np.ones(129), b) == pytest.approx(b[-1], abs=1e-14)

    def test_deterministic_integral(self):
        u = np.linspace(0, 1, 1001)
        assert young_integral(u, u) == pytest.approx(0.5, abs=1e-3)

    def test_b_db_converges_to_half_square(self):
        # pathwise chain rule: int B dB = B_1^2 / 2, no Ito correction
        fine = simulate_fbm(TimeGrid(1.0, 1024), 1, 0.7, seed=9)
        target = fine.values[0, -1] ** 2 / 2
        errs = []
        for m in (64, 128, 256, 512, 1024):
            b = restrict(fine, m).values[0]
            errs.append(abs(young_integral(b, b) - target))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ConfigError):
            young_integral(np.ones(10), np.ones(11))


class TestEulerSolve:
    def test_pure_noise_telescopes_exactly(self):
        model = get_model("fou")
        grid = TimeGrid(1.0, 64)
        fbm = simulate_fbm(grid, 1, 0.6, seed=5)
        sol = euler_solve(model, [0.0], fbm, np.array([0.7]))
        # bit-for-bit against the telescoped recursion in the same fold order
        ref, refs = 0.7, [0.7]
        for db in fbm.increments[0]:
            ref = ref + db
            refs.append(ref)
        assert np.array_equal(sol.values[0], np.array(refs))

    def test_ou_terminal_matches_fine_quadrature(self):
        # reference: the explicit solution evaluated on a 16x finer grid
        lam, h = 0.5, 0.6
        model = get_model("fou")
        fine = simulate_fbm(TimeGrid(1.0, 4096), 1, h, seed=21)
        ref = ou_oracle(lam, h, fine).y[-1]
        errs = {}
        for m in (256, 1024):
            sub = restrict(fine, m)
            sol = euler_solve(model, [lam], sub, np.array([0.0]))
            errs[m] = abs(sol.terminal[0] - ref)
        assert errs[1024] < 5e-3
        assert errs[1024] < errs[256]

    def test_strong_rate_slope(self):
        # sup-error against an M=2^12 reference over dyadic refinements
        from fracmle.cli import strong_rate_curve

        m_list, rms = strong_rate_curve(
            get_model("fou"), [0.5], hurst=0.75, horizon=1.0,
            m_list=[2**k for k in range(4, 10)], m_ref=4096, n_paths=20, seed=3,
        )
        slope = np.polyfit(np.log(m_list), np.log(rms), 1)[0]
        assert slope <= -0.25

    def test_divergence_reports_step(self):
        model = get_model("fou")
        grid = TimeGrid(10.0, 10)
        fbm = simulate_fbm(grid, 1, 0.6, seed=1)
        # lambda * dt = -60: the Euler factor 61 blows past the guard
        with pytest.raises(DivergenceError) as err:
            euler_solve(model, [-60.0], fbm, np.array([1.0]))
        assert err.value.step > 0

    def test_batch_matches_single(self):
        model = get_model("linear2d")
        grid = TimeGrid(1.0, 32)
        fbm = simulate_fbm(grid, 2, 0.6, seed=8)
        single = euler_solve(model, [2.0, 4.0], fbm, np.zeros(2))
        batch = euler_solve_batch(
            model, [2.0, 4.0], fbm.increments[None], np.zeros(2), grid.dt
        )
        assert np.array_equal(batch[0].T, single.values)


class TestLinearSolve:
    def test_zero_dynamics_constant(self):
        grid = TimeGrid(1.0, 32)
        fbm = simulate_fbm(grid, 1, 0.7, seed=3)
        coeffs = ControlledCoeffs(
            xi2=np.zeros((33, 1, 1)), xi1=np.zeros((1, 33, 1, 1)), alpha=np.array([2.5])
        )
        sol = linear_solve(coeffs, fbm)
        assert np.array_equal(sol.values[0], np.full(33, 2.5))

    def test_pathwise_exponential(self):
        # dZ = sigma Z dB has pathwise solution exp(sigma B_t): Young calculus,
        # no volatility correction term
        sbar, h = 0.3, 0.7
        grid = TimeGrid(1.0, 1024)
        fbm = simulate_fbm(grid, 1, h, seed=17)
        coeffs = ControlledCoeffs(
            xi2=np.zeros((1025, 1, 1)),
            xi1=np.full((1, 1025, 1, 1), sbar),
            alpha=np.array([1.0]),
        )
        sol = linear_solve(coeffs, fbm)
        want = np.exp(sbar * fbm.values[0, -1])
        assert abs(sol.terminal[0] - want) / want < 1e-2

    def test_exponential_decay_from_start_node(self):
        lam, start = 0.5, 16
        grid = TimeGrid(1.0, 512)
        fbm = simulate_fbm(grid, 1, 0.6, seed=4)
        coeffs = ControlledCoeffs(
            xi2=np.full((513, 1, 1), -lam),
            xi1=np.zeros((1, 513, 1, 1)),
            alpha=np.array([1.0]),
        )
        sol = linear_solve(coeffs, fbm, start=start)
        assert np.all(sol.values[0, :start] == 0.0)
        tau = grid.nodes
        want = np.exp(-lam * (tau[start:] - tau[start]))
        assert np.abs(sol.values[0, start:] - want).max() < 1e-3

    def test_forcing_terms(self):
        # dZ = (Z + 1) dt from 0: Z_t = e^t - 1 up to Euler error
        grid = TimeGrid(1.0, 1024)
        fbm = simulate_fbm(grid, 1, 0.6, seed=4)
        coeffs = ControlledCoeffs(
            xi2=np.ones((1025, 1, 1)),
            xi1=np.zeros((1, 1025, 1, 1)),
            alpha=np.array([0.0]),
            drift_forcing=np.ones((1025, 1)),
        )
        sol = linear_solve(coeffs, fbm)
        assert sol.terminal[0] == pytest.approx(np.e - 1.0, rel=2e-3)

    def test_product_rule_consistency(self):
        # grid product z^2 versus the Euler evaluation of its decomposition
        # 2 int z dz; the gap is the squared-increment sum, vanishing in M
        lam, sbar, h = 0.5, 0.4, 0.7
        fine = simulate_fbm(TimeGrid(1.0, 1024), 1, h, seed=30)
        gaps = {}
        for m in (256, 1024):
            fbm = restrict(fine, m)
            m1 = m + 1
            coeffs = ControlledCoeffs(
                xi2=np.full((m1, 1, 1), -lam),
                xi1=np.full((1, m1, 1, 1), sbar),
                alpha=np.array([1.0]),
            )
            z = linear_solve(coeffs, fbm).values[0]
            db = fbm.increments[0]
            dt = fbm.grid.dt
            w = 1.0
            for k in range(m):
                w += 2.0 * z[k] * (-lam * z[k] * dt + sbar * z[k] * db[k])
            gaps[m] = abs(z[-1] ** 2 - w)
        assert gaps[1024] < 0.75 * gaps[256]
        assert gaps[1024] < 2e-2
