"""Exact identities of the linear-additive read-off, as hypothesis properties.

For a linear drift and additive noise the Euler state is its mean plus a
linear functional of the increments, so the Gaussians G = eta_t (Y_t - E[Y_t])
and their theta-gradients can be read off the state. The properties pin the
mean, G, dG and the weights' theta-gradients against independent
computations, without Monte Carlo.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fracmle.errors import DivergenceError, NearSingularityError
from fracmle.fbm import TimeGrid, fgn_from_normals, singular_cell_weights
from fracmle.malliavin import (
    AdditiveKernels, _wick_levels, eigenframe_weight_2m, theta_gradient_batch,
)
from fracmle.models import ModelSpec, get_model
from fracmle.pathwise import euler_solve_batch


def _zero(shape):
    return lambda y, th: np.zeros(shape)


def affine_model() -> ModelSpec:
    """mu = -theta0 (y - theta1): a linear drift with intercept mu(0) = theta0 theta1."""
    return ModelSpec(
        name="affine", m=1, d=1, q=2,
        mu=lambda y, th: -th[0] * (y - th[1]),
        sigma=lambda y, th: np.ones((1, 1)),
        dmu=lambda y, th: np.broadcast_to(-th[0], (1, 1)),
        dsigma=_zero((1, 1, 1)), d2mu=_zero((1, 1, 1)), d2sigma=_zero((1, 1, 1, 1)),
        grad_mu=lambda y, th: np.stack([th[1] - y, np.broadcast_to(th[0], np.shape(y))], axis=-2),
        grad_sigma=_zero((2, 1, 1)),
        grad_dmu=lambda y, th: np.array([[[-1.0]], [[0.0]]]),
        grad_dsigma=_zero((2, 1, 1, 1)),
        linear_drift=True, additive_noise=True,
        initial_state=(0.0,), box_default=((0.1, 10.0), (-2.0, 2.0)),
    )


MODELS = [get_model("fou"), get_model("linear2d"), get_model("findrift"), affine_model()]


@st.composite
def cases(draw):
    """(model, theta, grid, a, h, seed): theta from the model's box, horizon 1.

    Draws whose Euler factor is unstable for a stable drift mode (an
    eigenvalue mu of A with Re mu < 0 but |1 + mu dt| > 1) are skipped. The
    saddle drift of linear2d grows in continuous time as well, so its
    expanding factor is kept.
    """
    model = draw(st.sampled_from(MODELS))
    theta = np.array([draw(st.floats(lo, hi)) for lo, hi in model.box_default])
    grid = TimeGrid(1.0, draw(st.integers(2, 60)))
    a_mat = np.broadcast_to(np.asarray(model.dmu(np.zeros(model.m), theta), float),
                            (model.m, model.m))
    mu = np.linalg.eigvals(a_mat)
    assume(not np.any((mu.real < 0) & (np.abs(1 + mu * grid.dt) > 1)))
    shift = np.array([draw(st.integers(-100, 100)) / 100 for _ in range(model.m)])
    a = np.asarray(model.initial_state, float) + shift
    h = draw(st.sampled_from([0.55, 0.6, 0.75, 0.9]))
    return model, theta, grid, a, h, draw(st.integers(0, 2**32 - 1))


def _increments(model, grid, h, seed, n=16):
    z = np.random.default_rng(seed).standard_normal((n, model.d, 2 * grid.steps))
    return fgn_from_normals(h, grid.steps, grid.dt, z)


def _close(got, want, rel, scale=0.0):
    """Max-norm relative agreement, relative to max(|want|, scale)."""
    err = np.abs(np.asarray(got) - np.asarray(want)).max()
    assert err <= rel * max(np.abs(want).max(), scale), (err, np.abs(want).max())


@given(case=cases())
def test_mean_is_noise_free_euler_path(case):
    model, theta, grid, a, h, _ = case
    nodes = range(1, grid.steps + 1)
    kern = AdditiveKernels(model, theta, grid, h, nodes, with_grad=True)
    zero = np.zeros((1, model.d, grid.steps))
    path = euler_solve_batch(model, theta, zero, a, grid.dt)
    grad = theta_gradient_batch(model, theta, zero, path, grid.dt)
    for t in nodes:
        mean, dmean = kern.mean(a, t)
        # relative to the largest value the recursion passed through, which
        # sets its rounding when a decaying mode cancels
        _close(mean, path[0, t], 1e-12, scale=np.abs(path[0, : t + 1]).max())
        _close(dmean, grad[0, t], 1e-12, scale=np.abs(grad[0, : t + 1]).max())


@given(case=cases())
def test_read_off_g_equals_projection(case):
    model, theta, grid, a, h, seed = case
    nodes = range(1, grid.steps + 1)
    kern = AdditiveKernels(model, theta, grid, h, nodes)
    incr = _increments(model, grid, h, seed)
    paths = euler_solve_batch(model, theta, incr, a, grid.dt)
    for t in nodes:
        y_c = paths[:, t] - kern.mean(a, t)[0]
        g, _ = kern.read_off(y_c, t)
        proj = np.stack([kern.weight_values((p + 1,), incr, t) for p in range(model.m)], -1)
        _close(g, proj, 1e-10)
        # in the eigenframe of gamma_t, eta is diag(1/lam)
        e = kern.at(t)
        _close(g @ e["r"], (y_c @ e["r"]) / e["lam"], 1e-10)


@given(case=cases())
def test_read_off_dg_equals_central_difference(case):
    model, theta, grid, a, h, seed = case
    nodes = sorted({max(1, grid.steps // 2), grid.steps})
    kern = AdditiveKernels(model, theta, grid, h, nodes, with_grad=True)
    incr = _increments(model, grid, h, seed)
    paths = euler_solve_batch(model, theta, incr, a, grid.dt)
    grads = theta_gradient_batch(model, theta, incr, paths, grid.dt)

    def read_g(th, t):
        k = AdditiveKernels(model, th, grid, h, [t])
        y = euler_solve_batch(model, th, incr, a, grid.dt)[:, t]
        return k.read_off(y - k.mean(a, t)[0], t)[0]

    for t in nodes:
        mean, dmean = kern.mean(a, t)
        y_c, dy_c = paths[:, t] - mean, grads[:, t] - dmean
        g, dg = kern.read_off(y_c, t, dy_c)
        g_scale = np.abs(g).max()
        # eta y_c cancels digits in proportion to the condition number of
        # gamma (linear2d near the top of its box reaches 1e7, where the
        # projection of the increments loses the same digits), so above 1e4
        # the bound grows with it
        rel = 1e-6 * max(1.0, np.linalg.cond(kern.at(t)["gamma"]) / 1e4)
        # fourth-order central difference: the step stays large against the
        # rounding of Y - E[Y] when the mean dwarfs the noise
        eps = 1e-4
        for l in range(model.q):
            g_at = {}
            for k in (-2, -1, 1, 2):
                th = theta.copy()
                th[l] += k * eps
                g_at[k] = read_g(th, t)
            fd = (8 * (g_at[1] - g_at[-1]) - (g_at[2] - g_at[-2])) / (12 * eps)
            # G itself sets the scale where it does not depend on theta_l
            _close(dg[:, l], fd, rel, scale=g_scale)
        e = kern.at(t)
        z_c = y_c @ e["r"]
        dg_r = np.einsum("lpj,...j->...lp", e["deta_r"], z_c) + (dy_c @ e["r"]) / e["lam"]
        _close(dg @ e["r"], dg_r, 1e-10)


def test_read_off_dg_exact_at_condition_3e7():
    # linear2d near the top of its box: cond(gamma_t) = 2.8e7. The reference
    # is exact rational arithmetic on the same float64 gamma, dgamma, y_c and
    # dy_c, so it measures only the rounding of the read-off.
    model, theta, h, t = get_model("linear2d"), np.array([9.57, 9.26]), 0.9, 48
    grid = TimeGrid(1.0, t)
    kern = AdditiveKernels(model, theta, grid, h, [t], with_grad=True)
    e = kern.at(t)
    assert np.linalg.cond(e["gamma"]) > 2e7
    incr = _increments(model, grid, h, seed=3, n=8)
    paths = euler_solve_batch(model, theta, incr, np.zeros(2), grid.dt)
    grads = theta_gradient_batch(model, theta, incr, paths, grid.dt)
    mean, dmean = kern.mean(np.zeros(2), t)
    y_c, dy_c = paths[:, t] - mean, grads[:, t] - dmean
    _, dg = kern.read_off(y_c, t, dy_c)

    def frac(a):
        return np.vectorize(Fraction, otypes=[object])(np.asarray(a, dtype=float))

    gam = frac(e["gamma"])
    eta = np.array([[gam[1, 1], -gam[0, 1]], [-gam[1, 0], gam[0, 0]]]) / (
        gam[0, 0] * gam[1, 1] - gam[0, 1] * gam[1, 0]
    )
    deta = np.stack([-eta @ frac(e["dgamma"][l]) @ eta for l in range(model.q)])
    exact = np.einsum("lpj,nj->nlp", deta, frac(y_c)) + frac(dy_c) @ eta.T
    for got, want in ((dg, exact), (dg @ e["r"], exact @ frac(e["r"]))):
        want = want.astype(float)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@given(case=cases())
def test_grad_weight_explicit_term_equals_central_difference(case):
    # with dG = 0, grad_weight is the heat-equation term -1/2 deta_jk d_j d_k H,
    # which must equal the theta-derivative of the Wick polynomial at fixed G
    model, theta, grid, a, h, seed = case
    t = grid.steps
    kern = AdditiveKernels(model, theta, grid, h, [t], with_grad=True)
    incr = _increments(model, grid, h, seed, n=4)
    paths = euler_solve_batch(model, theta, incr, a, grid.dt)
    g, _ = kern.read_off(paths[:, t] - kern.mean(a, t)[0], t)
    rel = 1e-6 * max(1.0, np.linalg.cond(kern.at(t)["gamma"]) / 1e4)
    eps = 1e-4
    shifted = {}
    for l, k in itertools.product(range(model.q), (-2, -1, 1, 2)):
        th = theta.copy()
        th[l] += k * eps
        shifted[l, k] = AdditiveKernels(model, th, grid, h, [t])
    for depth in range(1, 2 * model.m + 1):
        got, fd = [], []
        for idx in itertools.product(range(1, model.m + 1), repeat=depth):
            got.append(kern.grad_weight(idx, g, np.zeros((len(g), model.q, model.m)), t))
            at = {lk: kr.levels(idx, t)[-1](g) for lk, kr in shifted.items()}
            fd.append(np.stack([
                (8 * (at[l, 1] - at[l, -1]) - (at[l, 2] - at[l, -2])) / (12 * eps)
                for l in range(model.q)
            ], axis=-1))
        _close(np.array(got), np.array(fd), rel)


@given(m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_eigenframe_weight_2m_equals_wick_recursion(m, seed):
    # the closed form against the generic recursion with covariance diag(1/lam)
    # and the heat-equation gradient with deta_r
    rng = np.random.default_rng(seed)
    q = 2
    lam = rng.uniform(0.1, 10.0, m)
    deta_r = rng.uniform(-1.0, 1.0, (q, m, m))
    deta_r = deta_r + np.swapaxes(deta_r, 1, 2)
    g = rng.uniform(-3.0, 3.0, (8, m))
    dg = rng.uniform(-1.0, 1.0, (8, q, m))
    poly = _wick_levels(tuple(range(m)) * 2, np.diag(1.0 / lam))[-1]
    dh_want = np.zeros((8, q))
    for j in range(m):
        dh_want += poly.deriv(j)(g)[:, None] * dg[..., j]
        for k in range(m):
            dh_want -= 0.5 * deta_r[:, j, k] * poly.deriv(j).deriv(k)(g)[:, None]
    h, dh = eigenframe_weight_2m(g, dg, lam, deta_r)
    _close(h, poly(g), 1e-12, scale=1.0)
    _close(dh, dh_want, 1e-12, scale=1.0)


@st.composite
def law_cases(draw):
    """(model, theta, grid, h, nodes): any built-in or the affine spec, H in (1/2, 1),
    M in [2, 200], a random node set; unstable Euler factors as in cases()."""
    model = draw(st.sampled_from(MODELS))
    theta = np.array([draw(st.floats(lo, hi)) for lo, hi in model.box_default])
    grid = TimeGrid(draw(st.sampled_from([1.0, 10.0])), draw(st.integers(2, 200)))
    a_mat = np.broadcast_to(np.asarray(model.dmu(np.zeros(model.m), theta), float),
                            (model.m, model.m))
    mu = np.linalg.eigvals(a_mat)
    assume(not np.any((mu.real < 0) & (np.abs(1 + mu * grid.dt) > 1)))
    h = draw(st.floats(0.51, 0.99))
    nodes = draw(st.lists(st.integers(1, grid.steps), min_size=1, max_size=6, unique=True))
    return model, theta, grid, h, nodes


def _sequential_powers(p, dp, n):
    """P^0..P^n and their theta-gradients, one step at a time."""
    pw, dpw = [np.eye(len(p))], [np.zeros_like(dp)]
    for _ in range(n):
        dpw.append(dpw[-1] @ p + pw[-1] @ dp)
        pw.append(pw[-1] @ p)
    return np.array(pw), np.array(dpw)


@given(case=law_cases())
# the expanding mode of linear2d grows 1e4-fold by t = 10: the convolution's rounding
# must stay relative to each node's own gamma, not to the last node's
@example(case=(get_model("linear2d"), np.array([1.57, 1.04]), TimeGrid(10.0, 184), 0.98, [5, 168]))
def test_law_equals_cell_quadrature(case):
    # gamma_t = sum_{k,l<t} D_tk W_kl D_tl^T over the cell-exact weights W, with
    # D_tk = P^(t-1-k) sigma, and dgamma_t the same sum over the theta-gradient
    # columns on either side; the powers of P against sequential products
    model, theta, grid, h, nodes = case
    try:
        kern = AdditiveKernels(model, theta, grid, h, nodes, with_grad=True)
    except (DivergenceError, NearSingularityError):
        assume(False)
    y0 = np.zeros(model.m)
    coeff = {name: np.asarray(getattr(model, name)(y0, theta), float)
             for name in ("dmu", "sigma", "grad_dmu", "grad_sigma")}
    a_mat = np.broadcast_to(coeff["dmu"], (model.m, model.m))
    sig = np.broadcast_to(coeff["sigma"], (model.m, model.d))
    da = np.broadcast_to(coeff["grad_dmu"], (model.q, model.m, model.m))
    dsig = np.broadcast_to(coeff["grad_sigma"], (model.q, model.m, model.d))
    nmax = max(nodes)
    pw, dpw = _sequential_powers(np.eye(model.m) + a_mat * grid.dt, da * grid.dt, nmax)
    dpw = np.moveaxis(dpw, 1, 0)  # (q, n+1, m, m)
    for u in range(nmax + 1):
        _close(kern._ppow[u], pw[u], 1e-12, scale=np.abs(pw[: u + 1]).max())
        _close(kern._dppow[:, u], dpw[:, u], 1e-12, scale=np.abs(dpw[:, : u + 1]).max())
    w = singular_cell_weights(grid, h)
    for t in nodes:
        cells = pw[t - 1 :: -1][:t] @ sig  # (t, m, d)
        dcells = dpw[:, t - 1 :: -1][:, :t] @ sig + pw[None, t - 1 :: -1][:, :t] @ dsig[:, None]
        wb = np.einsum("kl,lij->kij", w[:t, :t], cells)
        gamma = np.einsum("kij,kpj->ip", cells, wb)
        c = np.einsum("qkij,kpj->qip", dcells, wb)
        _close(kern.at(t)["gamma"], gamma, 1e-12)
        _close(kern.at(t)["dgamma"], c + np.swapaxes(c, 1, 2), 1e-12)
