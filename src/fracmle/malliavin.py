"""Malliavin derivative arrays, the Malliavin matrix, and iterated-divergence weights.

Per driving path this module computes the triangular first/second derivative
arrays (each solves a linear equation started on the diagonal), the parameter
gradients, the matrix gamma_t of kernel inner products and its inverse eta_t,
and the weights H_(j1..jn) obtained by nesting the Skorohod-corrected operator

    U_p(G) = sum_{j,i} [ G int_0^t Q^pji_st dB^i_s
                         - c_H int int D^i_s(G Q^pji_rt) |r-s|^(2H-2) dr ds ],

with Q^pji_st = eta_t^pj D^i_s Y^j_t and H_(j1..jn) = U_jn o ... o U_j1 (1).

Two model classes are supported exactly:

* linear drift + additive noise (constant drift Jacobian A, constant sigma):
  D_s Y_t is the deterministic kernel P^(t-s) sigma with P = I + A dt, every
  higher Malliavin derivative vanishes, and the U-recursion closes over
  polynomials in the m Gaussians G = eta_t int D_s Y_t dB_s, which equal
  eta_t (Y_t - E[Y_t]) and are read off the Euler state. The law of Y_t (gamma_t,
  its eigenframe and theta-gradient) comes at every node from one Toeplitz pass:
  a causal convolution of the kernel columns with the fGn autocovariance and a
  cumulative sum, then one batched eigh. The recursion then
  *is* the Hermite (Wick) recursion P -> P*X_p - sum_j C[j,p] dP/dX_j with
  C = eta, and expectations of every weight vanish exactly on the grid because
  the quadrature weights equal the exact increment covariance.

* scalar models with nonlinear coefficients: depth-1 weights, built from the
  realized triangular arrays (the correction needs D^2 Y and the derivative of
  eta through gamma). Deeper weights would require third derivatives and raise
  CapabilityError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ConfigError, DivergenceError, NearSingularityError
from .fbm import FbmPath, HurstParam, TimeGrid, fgn_autocovariance, singular_cell_weights
from .models import ModelSpec
from .pathwise import SolutionPath

__all__ = [
    "TriangularArray",
    "WeightValue",
    "KernelLevel",
    "derivative_first",
    "derivative_second",
    "theta_gradient",
    "theta_gradient_batch",
    "malliavin_matrix",
    "invert_gamma",
    "q_process",
    "skorohod_U",
    "h_weight",
    "grad_h_weight",
    "PathBundle",
    "AdditiveKernels",
    "eigenframe_weight_2m",
]

_COND_LIMIT = 1e12


@dataclass
class TriangularArray:
    """Realized derivative array on the grid triangle.

    order 1: values[i1, r, i, t] = D^{i1}_r Y^i_t, shape (d, M+1, m, M+1);
    zero for t < r. order 2 (scalar models, fixed target node): values[r1, r2]
    = D^2_{r1,r2} Y_target, shape (M+1, M+1); zero outside r1, r2 <= target.
    """

    order: int
    grid: TimeGrid
    values: np.ndarray
    target: int | None = None


@dataclass
class KernelLevel:
    """One U-level: realized kernel value and its first-derivative field."""

    value: float
    dfield: np.ndarray | None  # (cells, d) realized D^i_s of the kernel


@dataclass
class WeightValue:
    indices: tuple
    value: float
    levels: list = field(default_factory=list)


# --------------------------------------------------------------------------
# Derivative arrays
# --------------------------------------------------------------------------


def _sigma_at(model: ModelSpec, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(model.sigma(y, theta), float), (model.m, model.d))


def derivative_first(
    model: ModelSpec, theta: np.ndarray, fbm: FbmPath, y: SolutionPath
) -> TriangularArray:
    """First derivative triangle: each row r solves the linearized equation
    with initial value sigma^{., i1}(Y_r) placed at node r."""
    theta = model.check_theta(theta)
    grid = fbm.grid
    m1 = grid.steps + 1
    db = fbm.increments
    dt = grid.dt
    vals = np.zeros((model.d, m1, model.m, m1))
    cur = np.zeros((model.d, m1, model.m))  # slice at current time
    for k in range(grid.steps):
        yk = y.values[:, k]
        cur[:, k, :] = _sigma_at(model, yk, theta).T
        dmu = np.broadcast_to(np.asarray(model.dmu(yk, theta), float), (model.m, model.m))
        step = dmu * dt
        if not model.additive_noise:
            dsig = np.broadcast_to(
                np.asarray(model.dsigma(yk, theta), float), (model.m, model.d, model.m)
            )
            step = step + np.einsum("ilk,l->ik", dsig, db[:, k])
        vals[:, :, :, k] = cur
        cur = cur + np.einsum("ik,ark->ari", step, cur)
    cur[:, grid.steps, :] = _sigma_at(model, y.values[:, grid.steps], theta).T
    vals[:, :, :, grid.steps] = cur
    return TriangularArray(order=1, grid=grid, values=vals)


def derivative_second(
    model: ModelSpec,
    theta: np.ndarray,
    fbm: FbmPath,
    y: SolutionPath,
    d1: TriangularArray,
    target: int | None = None,
) -> TriangularArray:
    """Second derivative slice D^2_{r1,r2} Y at the target node.

    Exactly zero for linear drift + additive noise. For scalar models the
    source terms are products of first derivatives against the second
    spatial derivatives of the coefficients.
    """
    theta = model.check_theta(theta)
    grid = fbm.grid
    m1 = grid.steps + 1
    target = grid.steps if target is None else int(target)
    if model.linear_additive:
        return TriangularArray(order=2, grid=grid, values=np.zeros((m1, m1)), target=target)
    if model.m != 1 or model.d != 1:
        raise CapabilityError(
            "second derivatives implemented for scalar models and for "
            "linear-drift additive-noise models only"
        )
    db = fbm.increments[0]
    dt = grid.dt
    dd1 = d1.values[0, :, 0, :]  # (r, t)
    cur = np.zeros((m1, m1))
    for k in range(target):
        yk = y.values[0, k]
        # frontier r1 = k (and symmetric r2 = k): derivative of the initial term
        front = float(model.dsigma(y.values[:, k], theta).reshape(-1)[0]) * dd1[: k + 1, k]
        cur[k, : k + 1] = front
        cur[: k + 1, k] = front
        cur[k, k] = 2.0 * front[k]
        d2m = float(np.asarray(model.d2mu(y.values[:, k], theta)).reshape(-1)[0])
        d1m = float(np.asarray(model.dmu(y.values[:, k], theta)).reshape(-1)[0])
        d2s = float(np.asarray(model.d2sigma(y.values[:, k], theta)).reshape(-1)[0])
        d1s = float(np.asarray(model.dsigma(y.values[:, k], theta)).reshape(-1)[0])
        outer = np.outer(dd1[: k + 1, k], dd1[: k + 1, k])
        block = cur[: k + 1, : k + 1]
        block += (d2m * outer + d1m * block) * dt + (d2s * outer + d1s * block) * db[k]
    # entries born exactly at the target node
    k = target
    dsig_t = float(np.asarray(model.dsigma(y.values[:, k], theta)).reshape(-1)[0])
    front = dsig_t * dd1[: k + 1, k]
    cur[k, : k + 1] = front
    cur[: k + 1, k] = front
    cur[k, k] = 2.0 * front[k]
    return TriangularArray(order=2, grid=grid, values=cur, target=target)


def theta_gradient(
    model: ModelSpec, theta: np.ndarray, fbm: FbmPath, y: SolutionPath
) -> np.ndarray:
    """Parameter gradients of the state, shape (q, m, M+1), zero at t = 0."""
    paths = theta_gradient_batch(
        model, theta, fbm.increments[None, ...], y.values.T[None, ...], fbm.grid.dt
    )
    return np.moveaxis(paths[0], 0, -1)  # (q, m, M+1)


def theta_gradient_batch(
    model: ModelSpec,
    theta: np.ndarray,
    increments: np.ndarray,
    paths: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Batched gradient recursion; increments (N, d, M), paths (N, M+1, m).

    Returns (N, M+1, q, m).
    """
    theta = model.check_theta(theta)
    n, d, msteps = increments.shape
    out = np.zeros((n, msteps + 1, model.q, model.m))
    state = np.zeros((n, model.q, model.m))
    for k in range(msteps):
        yk = paths[:, k]
        dmu = np.asarray(model.dmu(yk, theta), float)
        gmu = np.broadcast_to(np.asarray(model.grad_mu(yk, theta), float), (n, model.q, model.m))
        drift = np.einsum("...ik,...lk->...li", dmu, state) + gmu
        incr = drift * dt
        gsig = np.broadcast_to(
            np.asarray(model.grad_sigma(yk, theta), float), (n, model.q, model.m, model.d)
        )
        incr = incr + np.einsum("...lij,...j->...li", gsig, increments[:, :, k])
        if not model.additive_noise:
            dsig = np.asarray(model.dsigma(yk, theta), float)
            incr = incr + np.einsum(
                "...ijk,...lk,...j->...li", dsig, state, increments[:, :, k]
            )
        state = state + incr
        out[:, k + 1] = state
    return out


# --------------------------------------------------------------------------
# Malliavin matrix
# --------------------------------------------------------------------------


def malliavin_matrix(
    d1: TriangularArray, h: HurstParam | float, nodes: np.ndarray | list[int]
) -> np.ndarray:
    """gamma_t at the requested nodes from the first-derivative triangle.

    gamma^{ii'}_t = sum_j <D^j Y^i_t, D^j Y^{i'}_t> with the cell-exact
    singular quadrature; O(M^2) per node.
    """
    if d1.order != 1:
        raise ConfigError("malliavin_matrix needs an order-1 array")
    w = singular_cell_weights(d1.grid, h)
    nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
    d, _, m, _ = d1.values.shape
    out = np.zeros((nodes.size, m, m))
    for a, t in enumerate(nodes):
        ker = d1.values[:, :t, :, t]  # (d, cells, m)
        g = np.einsum("jri,rp,jpk->ik", ker, w[:t, :t], ker)
        out[a] = 0.5 * (g + g.T)  # the double integral is exactly symmetric
    return out


def invert_gamma(gamma: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Per-node inverse with a condition-number guard."""
    out = np.empty_like(gamma)
    for a in range(gamma.shape[0]):
        cond = np.linalg.cond(gamma[a])
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NearSingularityError(node=int(nodes[a]), condition=float(cond))
        out[a] = np.linalg.inv(gamma[a])
    return out


# --------------------------------------------------------------------------
# Deterministic weight kernels for linear-drift additive-noise models
# --------------------------------------------------------------------------


class _Poly:
    """Sparse polynomial in m commuting variables: {exponent tuple: coef}."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict | None = None):
        self.m = m
        self.terms = dict(terms or {})

    @classmethod
    def one(cls, m: int) -> "_Poly":
        return cls(m, {(0,) * m: 1.0})

    def times_var(self, p: int) -> "_Poly":
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[p] += 1
            out[tuple(e2)] = out.get(tuple(e2), 0.0) + c
        return _Poly(self.m, out)

    def deriv(self, j: int) -> "_Poly":
        out = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            e2 = list(e)
            e2[j] -= 1
            out[tuple(e2)] = out.get(tuple(e2), 0.0) + c * e[j]
        return _Poly(self.m, out)

    def axpy(self, a: float, other: "_Poly") -> "_Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + a * c
            if out[e] == 0.0:
                del out[e]
        return _Poly(self.m, out)

    def __call__(self, g: np.ndarray) -> np.ndarray:
        """Evaluate at g of shape (..., m)."""
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape[:-1])
        for e, c in self.terms.items():
            term = np.full(g.shape[:-1], c)
            for p, k in enumerate(e):
                if k:
                    term = term * g[..., p] ** k
            out = out + term
        return out


def _wick_levels(indices: tuple, cmat: np.ndarray) -> list:
    """U-recursion over polynomials: returns [P_0, P_1, ...], the Wick
    polynomials P_{r+1} = P_r X_p - sum_j C[j,p] dP_r/dX_j with covariance C."""
    m = cmat.shape[0]
    poly = _Poly.one(m)
    levels = [poly]
    for p in indices:
        if not 0 <= p < m:
            raise ConfigError(f"weight index {p + 1} outside 1..{m}")
        new = poly.times_var(p)
        for j in range(m):
            new = new.axpy(-cmat[j, p], poly.deriv(j))
        poly = new
        levels.append(poly)
    return levels


def eigenframe_weight_2m(
    g: np.ndarray, dg: np.ndarray, lam: np.ndarray, deta_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """H_(1..m,1..m) and its theta-gradient in the eigenframe of gamma_t.

    There eta = diag(1/lam), so with f_c = G_c^2 - 1/lam_c the weight is
    prod_c f_c, and the heat equation dH/deta_jk = -1/2 d_j d_k H gives
        dH = sum_c (2 G_c dG_c - deta_cc) prod_{c' != c} f_c'
             - 2 sum_{j != k} deta_jk G_j G_k prod_{c not in {j, k}} f_c.
    g (..., m), dg (..., q, m), lam (m,), deta_r (q, m, m); returns (...,), (..., q).
    """
    f = g**2 - 1.0 / lam
    m = f.shape[-1]

    def rest(*cs):
        return np.prod(np.delete(f, cs, axis=-1), axis=-1)[..., None]

    dh = np.zeros(dg.shape[:-1])
    for c in range(m):
        dh += (2.0 * g[..., c, None] * dg[..., c] - deta_r[:, c, c]) * rest(c)
        for k in range(m):
            if k != c:
                dh -= 2.0 * deta_r[:, c, k] * (g[..., c] * g[..., k])[..., None] * rest(c, k)
    return f.prod(axis=-1), dh


def _powers(p: np.ndarray, dp: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P^0..P^n (n+1, m, m) and their theta-gradients (q, n+1, m, m) from dp = dP/dtheta
    (q, m, m), by doubling: P^(u+k) = P^u P^k and d(P^u P^k) = dP^u P^k + P^u dP^k.
    Overflow is left to the caller's finiteness check."""
    pw, dpw = np.empty((n + 1,) + p.shape), np.zeros((len(dp), n + 1) + p.shape)
    pw[0], pw[1], dpw[:, 1] = np.eye(len(p)), p, dp
    k = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            j = min(k, n - k)
            pw[k + 1 : k + 1 + j] = pw[1 : 1 + j] @ pw[k]
            dpw[:, k + 1 : k + 1 + j] = dpw[:, 1 : 1 + j] @ pw[k] + pw[1 : 1 + j] @ dpw[:, k, None]
            k += j
    return pw, dpw


def _causal_toeplitz(r: np.ndarray, x: np.ndarray, rho: float) -> np.ndarray:
    """Q_a = r[0]/2 x_a + sum_{b<a} r[a-b] x_b over the leading axis of x (n, ...): one
    FFT convolution. x_b growing like rho^b is convolved as
    rho^a sum_b (r[a-b] rho^(b-a)) (x_b rho^-b), so the FFT's rounding, which is
    relative to the largest input, stays relative to each Q_a instead of to the last.
    """
    n = x.shape[0]
    col = (-1,) + (1,) * (x.ndim - 1)
    tilt = rho ** -np.arange(n, dtype=float)
    lag = np.fft.rfft(np.concatenate([[0.5 * r[0]], r[1:n] * tilt[1:]]), 2 * n).reshape(col)
    q = np.fft.irfft(lag * np.fft.rfft(x * tilt.reshape(col), 2 * n, axis=0), 2 * n, axis=0)[:n]
    q[0] = 0.5 * r[0] * x[0]  # exact, not FFT rounding: node 1 sees only this cell
    return q / tilt.reshape(col)


class AdditiveKernels:
    """Gaussian law of the Euler state Y_t of a linear-additive model at target nodes.

    With P = I + A dt and b = mu(0; theta), Y_n = P^n a + sum_{u<n} P^u b dt
    + sum_k D_nk dB_k with kernel D_nk = P^(n-1-k) sigma, whose weighted Gram
    matrix gamma_n is the exact covariance of Y_n. The law at every node comes
    from one Toeplitz pass (a causal FFT convolution of the columns P^a sigma
    with the fGn autocovariance, then a cumulative sum), and one batched eigh
    gives gamma = r diag(lam) r^T per node, which is the weights' own frame: there
    eta = diag(1/lam) and, with gradients, deta_r = -(r^T dgamma r) / (lam_j lam_k).
    at(t) holds r, lam, the factor f = diag(sqrt(lam)) r^T (f^T f = gamma, so z @ f
    with standard normals z (..., m) has the law of Y_t - E[Y_t]) and the base-frame
    views gamma and eta = r diag(1/lam) r^T; with gradients also deta_r, c with
    c[l, i, k] = Cov(dY^i_t/dtheta_l, Y^k_t), dgamma = c + c^T and deta = r deta_r r^T.
    The weights read G = eta (Y - E[Y]) and its theta-gradient off the centered state.
    """

    def __init__(
        self,
        model: ModelSpec,
        theta: np.ndarray,
        grid: TimeGrid,
        h: HurstParam | float,
        nodes,
        with_grad: bool = False,
    ):
        if not model.linear_additive:
            raise CapabilityError(
                f"model {model.name} is not in the linear-drift additive-noise class"
            )
        self.model = model
        self.theta = model.check_theta(theta)
        self.grid = grid
        self.h = HurstParam.coerce(h)
        raw = np.asarray(nodes, dtype=float).ravel()
        if raw.size == 0 or not np.all(np.isfinite(raw) & (raw == np.floor(raw))):
            raise ConfigError(f"nodes must be one or more integers, got {nodes!r}")
        self.nodes = sorted(int(t) for t in raw)
        bad = [t for t in self.nodes if not 1 <= t <= grid.steps]
        if bad:
            raise ConfigError(f"node {bad[0]} outside 1..{grid.steps}")
        self.with_grad = with_grad
        m, d, q = model.m, model.d, model.q
        y0 = np.zeros(m)
        a = np.broadcast_to(np.asarray(model.dmu(y0, self.theta), float), (m, m))
        b = np.asarray(model.mu(y0, self.theta), float)
        sig = _sigma_at(model, y0, self.theta)
        if with_grad:
            da = np.broadcast_to(np.asarray(model.grad_dmu(y0, self.theta), float), (q, m, m))
            db = np.broadcast_to(np.asarray(model.grad_mu(y0, self.theta), float), (q, m))
            dsig = np.broadcast_to(np.asarray(model.grad_sigma(y0, self.theta), float), (q, m, d))
        else:  # an empty parameter axis: one code path serves both
            da, db, dsig = np.zeros((0, m, m)), np.zeros((0, m)), np.zeros((0, m, d))
        dt = grid.dt
        nmax = self.nodes[-1]
        ppow, dppow = _powers(np.eye(m) + a * dt, da * dt, nmax)
        finite = np.all(np.isfinite(ppow)) and np.all(np.isfinite(dppow))
        if not finite or np.abs(ppow[-1]).max() > 1e100:
            raise DivergenceError(
                nmax, f"Euler factor I + A dt unstable for theta={self.theta} at dt={dt:g}"
            )
        self._ppow, self._dppow = ppow, dppow
        # [n] = sum_{u<n} P^u b dt, and its theta-gradient
        self._drift_sum = np.cumsum(np.concatenate([np.zeros((1, m)), ppow[:-1] @ b]), 0) * dt
        dterms = np.einsum("luij,j->uli", dppow, b) + np.einsum("uij,lj->uli", ppow, db)
        self._ddrift_sum = np.cumsum(np.concatenate([np.zeros((1,) + db.shape), dterms[:-1]]), 0) * dt
        self._dcell_full = ppow @ sig  # K_a = P^a sigma; cell k of node n uses a = n-1-k
        # gamma_t = sum_{a,b<t} K_a r(|a-b|) K_b^T over the fGn autocovariance r. With
        # Q_a = r(0)/2 K_a + sum_{b<a} r(a-b) K_b it is the cumulative sum of
        # K_a Q_a^T + Q_a K_a^T, and C_t = Cov(dY_t, Y_t) that of dK_a Q_a^T + dQ_a K_a^T,
        # at every node up to nmax in one pass; dgamma_t = C_t + C_t^T
        dkern = dppow[:, :nmax] @ sig + ppow[None, :nmax] @ dsig[:, None]
        kern = np.concatenate([self._dcell_full[:nmax, None], dkern.swapaxes(0, 1)], axis=1)
        rho = max(1.0, np.abs(np.linalg.eigvals(ppow[1])).max())  # growth rate of K_a
        qk = _causal_toeplitz(fgn_autocovariance(self.h.h, nmax, dt), kern, rho)
        # kern and qk are (nmax, 1+q, m, d): K_a, Q_a, then dK_a, dQ_a per parameter
        terms = np.einsum("alij,akj->alik", kern, qk[:, 0])
        terms += np.einsum("alij,akj->alik", qk, kern[:, 0])
        law = np.cumsum(terms, axis=0)[np.array(self.nodes) - 1]  # (nodes, 1+q, m, m)
        gamma, c = law[:, 0], law[:, 1:]
        # one eigh over the node stack: gamma = r diag(lam) r^T
        lam, rot = np.linalg.eigh(gamma)
        cond = np.divide(lam[:, -1], lam[:, 0], out=np.full(len(lam), np.inf), where=lam[:, 0] > 0)
        if not np.all(cond <= _COND_LIMIT):
            i = int(np.argmin(cond <= _COND_LIMIT))  # the first failing node
            raise NearSingularityError(node=self.nodes[i], condition=cond[i])
        # deterministic column signs: the largest entry of each eigenvector is positive
        rot = rot * np.sign(np.take_along_axis(rot, np.abs(rot).argmax(1)[:, None], axis=1))
        rot_t = rot.swapaxes(1, 2)
        stack = {"gamma": gamma, "eta": (rot / lam[:, None]) @ rot_t, "r": rot, "lam": lam,
                 "f": np.sqrt(lam)[:, :, None] * rot_t}
        if with_grad:
            dgamma = c + c.swapaxes(2, 3)
            lam2 = lam[:, None, :, None] * lam[:, None, None]
            deta_r = -(rot_t[:, None] @ dgamma @ rot[:, None]) / lam2
            stack.update(c=c, dgamma=dgamma, deta_r=deta_r,
                         deta=rot[:, None] @ deta_r @ rot_t[:, None])
        self._per_node = {t: {k: v[i] for k, v in stack.items()} for i, t in enumerate(self.nodes)}
        self._poly_cache: dict = {}

    def _cells(self, t: int) -> np.ndarray:
        """Kernel columns D_tk = P^(t-1-k) sigma over cells k < t, shape (t, m, d)."""
        return self._dcell_full[t - 1 :: -1][:t]

    def mean(self, a, t: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(E[Y_t], dE[Y_t]/dtheta) from Y_0 = a, shapes (m,) and (q, m) (None without
        gradients): the noise-free Euler path P^t a + sum_{u<t} P^u b dt."""
        self.at(t)  # requested nodes only, as everywhere else
        a = np.asarray(a, dtype=float)
        mean = self._ppow[t] @ a + self._drift_sum[t]
        if not self.with_grad:
            return mean, None
        return mean, self._dppow[:, t] @ a + self._ddrift_sum[t]

    def at(self, t: int) -> dict:
        if t not in self._per_node:
            raise ConfigError(f"node {t} was not requested at kernel construction")
        return self._per_node[t]

    def levels(self, indices: tuple, t: int) -> list:
        """Wick polynomial levels [P_0, ..., P_n] in G for a 1-based weight index tuple."""
        key = (tuple(int(j) for j in indices), t)
        if key not in self._poly_cache:
            if not all(1 <= j <= self.model.m for j in key[0]):
                raise ConfigError(f"weight indices must lie in 1..{self.model.m}: {indices}")
            zero_based = tuple(j - 1 for j in key[0])
            self._poly_cache[key] = _wick_levels(zero_based, self.at(t)["eta"])
        return self._poly_cache[key]

    def read_off(
        self, y_c: np.ndarray, t: int, dy_c: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(G, dG/dtheta) = (eta_t y_c, deta_t y_c + eta_t dy_c) off the centered state.

        y_c = Y_t - E[Y_t] (..., m) and dy_c = dY_t/dtheta - dE[Y_t]/dtheta
        (..., q, m); G is (..., m), dG is (..., q, m), or None without dy_c.
        """
        e = self.at(t)
        g = y_c @ e["eta"].T
        if dy_c is None:
            return g, None
        return g, np.einsum("lpj,...j->...lp", e["deta"], y_c) + dy_c @ e["eta"].T

    def grad_weight(self, indices: tuple, g: np.ndarray, dg: np.ndarray, t: int) -> np.ndarray:
        """Theta-gradient of H_(indices) from G (..., m) and dG (..., q, m): (..., q).

        sum_p dH/dG_p dG_p - 1/2 sum_jk deta_jk d_j d_k H: H is a Wick polynomial
        with covariance eta, so its explicit theta-dependence follows from the
        heat equation dH/deta_jk = -1/2 d_j d_k H.
        """
        poly = self.levels(indices, t)[-1]
        deta = self.at(t)["deta"]
        out = np.zeros(g.shape[:-1] + (self.model.q,))
        for j in range(self.model.m):
            dpoly = poly.deriv(j)
            out = out + dpoly(g)[..., None] * dg[..., j]
            for k in range(self.model.m):
                out = out - 0.5 * deta[:, j, k] * dpoly.deriv(k)(g)[..., None]
        return out

    def weight_values(self, indices: tuple, increments: np.ndarray, t: int) -> np.ndarray:
        """H_(indices) per path (N,) from the increments (N, d, M>=t), projected
        onto the kernel columns: G = eta sum_k D_tk dB_k, the read-off's reference."""
        poly = self.levels(indices, t)[-1]
        noise = np.einsum("aji,nia->nj", self._cells(t), increments[:, :, :t])
        return poly(np.einsum("pj,nj->np", self.at(t)["eta"], noise))

    def kernel_dfield(self, indices: tuple, g_one: np.ndarray, t: int) -> np.ndarray:
        """Realized D^i_s of the final kernel for one path, shape (cells, d)."""
        poly = self.levels(indices, t)[-1]
        coeffs = np.array([poly.deriv(p)(g_one) for p in range(self.model.m)])
        return np.einsum("j,aji->ai", coeffs @ self.at(t)["eta"], self._cells(t))


# --------------------------------------------------------------------------
# Per-path bundle and the weight operators
# --------------------------------------------------------------------------


class PathBundle:
    """Per-path lazy container tying together the arrays one weight needs."""

    def __init__(
        self,
        model: ModelSpec,
        theta: np.ndarray,
        fbm: FbmPath,
        y: SolutionPath,
        h: HurstParam | float | None = None,
    ):
        self.model = model
        self.theta = model.check_theta(theta)
        self.fbm = fbm
        self.y = y
        self.h = HurstParam.coerce(h if h is not None else fbm.hurst)
        self._d1 = None
        self._grad_y = None
        self._kernels: dict = {}
        self._d2: dict = {}
        self._matrix: dict = {}

    @property
    def grid(self) -> TimeGrid:
        return self.fbm.grid

    @property
    def d1(self) -> TriangularArray:
        if self._d1 is None:
            self._d1 = derivative_first(self.model, self.theta, self.fbm, self.y)
        return self._d1

    @property
    def grad_y(self) -> np.ndarray:
        if self._grad_y is None:
            self._grad_y = theta_gradient(self.model, self.theta, self.fbm, self.y)
        return self._grad_y

    def d2_at(self, t: int) -> TriangularArray:
        if t not in self._d2:
            self._d2[t] = derivative_second(self.model, self.theta, self.fbm, self.y, self.d1, t)
        return self._d2[t]

    def matrix_at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(gamma_t, eta_t) at one node, from the generic quadrature."""
        if t not in self._matrix:
            gamma = malliavin_matrix(self.d1, self.h, [t])[0]
            eta = invert_gamma(gamma[None, ...], np.array([t]))[0]
            self._matrix[t] = (gamma, eta)
        return self._matrix[t]

    def additive_kernels(self, nodes, with_grad: bool = False) -> AdditiveKernels:
        key = (tuple(sorted(int(n) for n in np.atleast_1d(nodes))), with_grad)
        if key not in self._kernels:
            self._kernels[key] = AdditiveKernels(
                self.model, self.theta, self.grid, self.h, key[0], with_grad=with_grad
            )
        return self._kernels[key]


def q_process(bundle: PathBundle, t: int) -> np.ndarray:
    """Realized Q^{pji}_s at target node t, shape (m, m, d, M+1); zero for s >= t."""
    _, eta = bundle.matrix_at(t)
    d1 = bundle.d1.values  # (i1, r, j, t)
    m1 = bundle.grid.steps + 1
    out = np.zeros((bundle.model.m, bundle.model.m, bundle.model.d, m1))
    out[:, :, :, :t] = np.einsum("pj,irj->pjir", eta, d1[:, :t, :, t])
    return out


def _young_sum(field_cells: np.ndarray, increments: np.ndarray, t: int) -> float:
    """sum_i sum_k field[k, i] dB^i_k over cells below t."""
    return float(np.einsum("ai,ia->", field_cells[:t], increments[:, :t]))


def _scalar_dq_field(bundle: PathBundle, t: int) -> np.ndarray:
    """D^1_s Q_{r,t} for scalar models: (-eta^2 D_s gamma_t) D_r Y_t + eta D2_{s,r}.

    Returns (cells, cells) indexed [s, r].
    """
    w = singular_cell_weights(bundle.grid, bundle.h)[:t, :t]
    ker = bundle.d1.values[0, :t, 0, t]
    _, eta = bundle.matrix_at(t)
    e = float(eta[0, 0])
    d2 = bundle.d2_at(t).values[:t, :t]
    dgamma_s = 2.0 * d2 @ (w @ ker)  # D_s gamma_t over s cells
    return (-e * e * dgamma_s)[:, None] * ker[None, :] + e * d2


def skorohod_U(
    p: int,
    kernel: KernelLevel,
    bundle: PathBundle,
    t: int,
) -> WeightValue:
    """One application of the corrected operator U_p to a supplied kernel.

    kernel.dfield must hold the realized first derivative of the kernel on the
    cells (zero array for deterministic kernels); a missing field when the
    model class would need it raises CapabilityError. Kernels here are the
    node-indexed derivative arrays (left-point values of the continuous
    objects); the polynomial engine differentiates with respect to the grid
    increments instead, so the two agree to one Euler factor, O(dt).
    """
    model = bundle.model
    if not 1 <= p <= model.m:
        raise ConfigError(f"coordinate p must lie in 1..{model.m}")
    qproc = q_process(bundle, t)
    qsum = np.einsum("pjis->psi", qproc)[p - 1]  # (M+1, d) summed over j
    young = kernel.value * _young_sum(qsum, bundle.fbm.increments, t)
    w = singular_cell_weights(bundle.grid, bundle.h)[:t, :t]
    if kernel.dfield is None:
        raise CapabilityError("kernel derivative field missing for the correction term")
    corr = float(np.einsum("si,sr,ri->", kernel.dfield[:t], w, qsum[:t]))
    if not model.linear_additive:
        if model.m != 1 or model.d != 1:
            raise CapabilityError("corrections with random Q are scalar-only")
        dq = _scalar_dq_field(bundle, t)
        corr += kernel.value * float(np.einsum("sr,sr->", dq, w))
    value = young - corr
    return WeightValue(indices=(p,), value=value, levels=[kernel, KernelLevel(value, None)])


def h_weight(indices: tuple, bundle: PathBundle, t: int | None = None) -> WeightValue:
    """Iterated weight H_(j1..jn)(Y_t) for one path.

    Linear-additive models read G = eta_t (Y_t - E[Y_t]) off the bundle's
    Euler path and run the closed polynomial recursion at any depth up to 2m;
    scalar nonlinear models support depth 1.
    """
    model = bundle.model
    t = bundle.grid.steps if t is None else int(t)
    indices = tuple(int(j) for j in indices)
    if not all(1 <= j <= model.m for j in indices):
        raise ConfigError(f"weight indices must lie in 1..{model.m}: {indices}")
    if len(indices) > 2 * model.m:
        raise CapabilityError(f"depth {len(indices)} exceeds 2m = {2 * model.m}")
    if model.linear_additive:
        kernels = bundle.additive_kernels([t])
        y = bundle.y.values
        g, _ = kernels.read_off(y[:, t] - kernels.mean(y[:, 0], t)[0], t)
        levels = kernels.levels(indices, t)
        out = WeightValue(indices=indices, value=float(levels[-1](g)))
        for r, poly in enumerate(levels):
            dfield = kernels.kernel_dfield(indices[:r], g, t)
            out.levels.append(KernelLevel(value=float(poly(g)), dfield=dfield))
        return out
    if len(indices) > 1:
        raise CapabilityError(
            "weights deeper than 1 for nonlinear models need third Malliavin "
            "derivatives, outside the supported class"
        )
    start = KernelLevel(value=1.0, dfield=np.zeros((bundle.grid.steps, model.d)))
    out = skorohod_U(indices[0], start, bundle, t)
    out.indices = indices
    return out


def grad_h_weight(
    indices: tuple, l: int, bundle: PathBundle, t: int | None = None
) -> WeightValue:
    """Theta-derivative of the iterated weight, parameter coordinate l (0-based)."""
    model = bundle.model
    t = bundle.grid.steps if t is None else int(t)
    indices = tuple(int(j) for j in indices)
    if not model.linear_additive:
        raise CapabilityError("weight gradients are supported for linear-additive models")
    if not 0 <= l < model.q:
        raise ConfigError(f"parameter index {l} outside 0..{model.q - 1}")
    kernels = bundle.additive_kernels([t], with_grad=True)
    y = bundle.y.values
    mean, dmean = kernels.mean(y[:, 0], t)
    g, dg = kernels.read_off(y[:, t] - mean, t, bundle.grad_y[:, :, t] - dmean)
    return WeightValue(indices=indices, value=float(kernels.grad_weight(indices, g, dg, t)[l]))
