"""Exact law of the Euler state for the built-in linear-drift, additive-noise models.

For dY = A(theta) Y dt + S(theta) dB the Euler scheme gives
Y_t = P^t y0 + sum_{k<t} P^(t-1-k) S dB_k with P = I + A dt, so Y_t is exactly
Gaussian with mean P^t y0 and covariance

    Gamma_t = sum_{a,b<t} P^a S Cov(dB, dB)(|a-b|) S^T (P^b)^T,

where the driving components are independent fGn with the closed-form
autocovariance r(k) = dt^2H (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2. The density
W(y) of Y_t and its parameter gradient V(y) are therefore known in closed form
(dGamma/dtheta and dmean/dtheta by central differences); the Monte-Carlo
estimates of fracmle must hit them within their own standard errors.

This module deliberately uses nothing from fracmle: it is the reference the
benchmark checks the program against.
"""

from __future__ import annotations

import math

import numpy as np


def fou_coefficients(theta):
    """dY = -lambda Y dt + dB."""
    lam = float(theta[0])
    return np.array([[-lam]]), np.eye(1)


def linear2d_coefficients(theta):
    """dY1 = -alpha Y2 dt + beta dB1, dY2 = -beta Y1 dt + beta dB2."""
    alpha, beta = float(theta[0]), float(theta[1])
    return np.array([[0.0, -alpha], [-beta, 0.0]]), beta * np.eye(2)


COEFFICIENTS = {"fou": fou_coefficients, "linear2d": linear2d_coefficients}


def fgn_autocovariance(hurst: float, steps: int, dt: float) -> np.ndarray:
    """Covariance of two fGn increments at lags 0..steps-1."""
    k = np.arange(steps, dtype=float)
    e = 2.0 * hurst
    return 0.5 * dt**e * ((k + 1) ** e - 2.0 * k**e + np.abs(k - 1) ** e)


class EulerGaussian:
    """Mean and covariance of the Euler state at every node of one grid."""

    def __init__(self, model: str, hurst: float, horizon: float, steps: int, y0):
        self.coefficients = COEFFICIENTS[model]
        self.dt = horizon / steps
        self.steps = steps
        self.y0 = np.asarray(y0, dtype=float)
        r = fgn_autocovariance(hurst, steps, self.dt)
        lag = np.arange(steps)[:, None] - np.arange(steps)[None, :]
        # strictly lower Toeplitz part: Q_a = sum_{b<a} r(a-b) P_b
        self._r0 = r[0]
        self._lower = np.where(lag > 0, r[np.abs(lag)], 0.0)

    def moments(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """(means (steps+1, m), covariances (steps+1, m, m)) at parameter theta."""
        a, s = self.coefficients(theta)
        m, d = s.shape
        p = np.eye(m) + a * self.dt
        powers = np.empty((self.steps + 1, m, m))
        powers[0] = np.eye(m)
        for u in range(self.steps):
            powers[u + 1] = powers[u] @ p
        kern = powers[:-1] @ s  # P_a = P^a S, (steps, m, d)
        q = (self._lower @ kern.reshape(self.steps, -1)).reshape(kern.shape)
        cross = np.einsum("aij,akj->aik", kern, q)
        terms = self._r0 * np.einsum("aij,akj->aik", kern, kern) + cross + np.swapaxes(cross, 1, 2)
        cov = np.zeros((self.steps + 1, m, m))
        np.cumsum(terms, axis=0, out=cov[1:])
        return powers @ self.y0, cov

    def density_and_gradient(self, theta, nodes, values) -> tuple[np.ndarray, np.ndarray]:
        """Exact W_i = f(y_i) and V_i = d f(y_i) / d theta at observation nodes.

        nodes: (n,) grid indices; values: (n, m). Returns (n,), (n, q).
        """
        theta = np.asarray(theta, dtype=float)
        nodes = np.asarray(nodes, dtype=int)
        mean, cov = (x[nodes] for x in self.moments(theta))
        dmean, dcov = [], []
        for l in range(theta.size):
            step = 1e-5 * max(1.0, abs(theta[l]))
            up, down = theta.copy(), theta.copy()
            up[l] += step
            down[l] -= step
            (mu_up, c_up), (mu_down, c_down) = self.moments(up), self.moments(down)
            dmean.append((mu_up[nodes] - mu_down[nodes]) / (2 * step))
            dcov.append((c_up[nodes] - c_down[nodes]) / (2 * step))
        dens, prec, pu = _gaussian(np.asarray(values, dtype=float) - mean, cov)
        grad = np.empty((dens.size, theta.size))
        for l in range(theta.size):
            quad = np.einsum("ni,nij,nj->n", pu, dcov[l], pu)
            trace = np.einsum("nij,nji->n", prec, dcov[l])
            lin = np.einsum("ni,ni->n", pu, dmean[l])
            grad[:, l] = dens * (lin + 0.5 * quad - 0.5 * trace)
        return dens, grad

    def density(self, theta, node: int, x) -> float:
        """Exact density of the Euler state at one node and point."""
        mean, cov = self.moments(theta)
        dens, _, _ = _gaussian(np.atleast_2d(x) - mean[node], cov[node][None])
        return float(dens[0])


def tail_indicator_sd(x: float, mean: float, var: float) -> float:
    """Per-path SD of the scalar density estimator with the indicator on the tail side.

    For a Gaussian state Y ~ N(mean, var) the depth-1 weight is
    (Y - mean) / var, and E[1_(Y>x) (Y - mean)] / var = f(x). With the
    indicator on the side of x away from the mean, as the "auto"
    representation places it, the second moment per path is
    (|u| phi(u) + Phi(-|u|)) / var with u = (x - mean) / sd. The SE of N such
    paths is this SD over sqrt(N); an estimator that reports a larger SE uses
    fewer paths or a noisier representation.
    """
    sd = math.sqrt(var)
    u = abs((x - mean) / sd)
    phi = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    second = (u * phi + 0.5 * math.erfc(u / math.sqrt(2.0))) / var
    return math.sqrt(second - (phi / sd) ** 2)


def _gaussian(u: np.ndarray, cov: np.ndarray):
    """N(0, cov) densities at rows u, with the precisions and precision @ u."""
    prec = np.linalg.inv(cov)
    pu = np.einsum("nij,nj->ni", prec, u)
    dens = np.exp(-0.5 * np.einsum("ni,ni->n", u, pu)) / np.sqrt(
        (2 * np.pi) ** u.shape[1] * np.linalg.det(cov)
    )
    return dens, prec, pu


def z_scores(estimate, exact, se) -> tuple[np.ndarray, int]:
    """z = (estimate - exact) / se over the entries with se > 0.

    Returns the z values and the number of entries left untested (se = 0 or
    not finite: the estimator saw no path on the relevant side).
    """
    estimate, exact, se = (np.ravel(np.asarray(v, dtype=float)) for v in (estimate, exact, se))
    ok = np.isfinite(se) & (se > 0)
    return (estimate[ok] - exact[ok]) / se[ok], int(np.count_nonzero(~ok))
