"""Reference values and statistical tests computed apart from the package.

Nothing here imports ``interbank``: the benchmark checks the package's
outputs against these functions, which use only the standard library and
numpy.

- Barrier crossing: the reflection formula for a driftless Brownian
  average with the exact variance of the three-layer noise, shifted by
  the Broadie-Glasserman-Kou constant for grid monitoring.
- Euler moments: the exact mean and covariance of the Euler scheme for
  the group means under an affine feedback rule, from a d x d recursion.
- Coefficient paths: the mpmath values frozen in ``tests/_frozen.py``,
  the shift-invariance identities, the zero row sums of the mean-field
  coupling matrix, the Prop-1 positivity and exponential bounds, and the
  fourth-order step-halving ratio of RK4.

Every statistical test is held to a per-test false-failure probability
of ``ALPHA``; a run makes at most a few thousand tests, so a false
failure over all runs of a comparison stays below 1e-6.
"""

from __future__ import annotations

import importlib.util
import math
import os

import numpy as np

# -zeta(1/2) / sqrt(2 pi): the barrier shift, in units of vol * sqrt(dt),
# between grid and continuous monitoring (Broadie, Glasserman, Kou 1997).
BGK_BETA = 0.582597157939011

ALPHA = 1e-11

# Shift invariance: adding one constant to every state leaves each value
# function unchanged, so these coefficient pairs sum to zero.
SHIFT_PAIRS = {
    "closed": (("eta4", "eta5"), ("eta2", "eta6"), ("eta3", "eta6"),
               ("eta8", "eta9"), ("phi4", "phi5"), ("phi2", "phi6"),
               ("phi3", "phi6"), ("phi8", "phi9")),
    "open": (("etao2", "etao3"), ("phio2", "phio3")),
    "limiting": (("etahat4", "etahat5"), ("etahat2", "etahat6"),
                 ("etahat3", "etahat6"), ("phihat4", "phihat5"),
                 ("phihat2", "phihat6"), ("phihat3", "phihat6")),
}

# Rounding alone breaks an exact identity; relative to the coefficients'
# size it stays many orders below this.
IDENTITY_TOL = 1e-12


def load_frozen(root: str):
    """The frozen mpmath reference module ``tests/_frozen.py`` of a checkout."""
    path = os.path.join(root, "tests", "_frozen.py")
    spec = importlib.util.spec_from_file_location("perfbench_frozen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Barrier crossing of the global average.


def average_variance_rate(rho: float, beta, sigma, rho_k, sizes) -> float:
    """Variance per unit time of the bank-weighted global average of the
    uncontrolled diffusions: one common driver, one driver per group and
    one per bank, with loadings rho, sqrt(1-rho^2) rho_k and
    sqrt((1-rho^2)(1-rho_k^2)).

    With equal sigma this is sigma^2 (rho^2 + (1-rho^2) sum_k beta_k^2
    (rho_k^2 + (1-rho_k^2)/N_k)).
    """
    common = (sum(b * s for b, s in zip(beta, sigma)) * rho) ** 2
    rest = (1.0 - rho * rho) * sum(
        (b * s) ** 2 * (r * r + (1.0 - r * r) / n)
        for b, s, r, n in zip(beta, sigma, rho_k, sizes))
    return common + rest


def reflection_probability(level: float, vol: float, horizon: float,
                           dt: float = 0.0) -> float:
    """P(min_{t<=T} vol*W_t <= level) for level <= 0, by reflection:
    2 Phi(level / (vol sqrt(T))).  With dt > 0 the barrier moves away by
    BGK_BETA * vol * sqrt(dt), which approximates monitoring on a grid of
    step dt."""
    if level > 0.0 or vol <= 0.0 or horizon <= 0.0:
        raise ValueError("need level <= 0, vol > 0 and horizon > 0")
    shifted = level - BGK_BETA * vol * math.sqrt(dt)
    return math.erfc(-shifted / (vol * math.sqrt(2.0 * horizon)))


def _log_pmf(j: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p))


def binom_upper(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed term by term."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    total = 0.0
    for j in range(k, n + 1):
        term = math.exp(_log_pmf(j, n, p))
        total += term
        if j > n * p and term < 1e-20 * total:
            break
    return min(total, 1.0)


def binom_lower(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return binom_upper(n - k, n, 1.0 - p)


def hits_consistent(hits: int, n: int, p_lo: float, p_hi: float,
                    alpha: float = ALPHA) -> bool:
    """Whether ``hits`` of ``n`` is a plausible draw for some success
    probability in [p_lo, p_hi], by exact binomial tails at level alpha."""
    return (binom_upper(hits, n, p_hi) >= 0.5 * alpha
            and binom_lower(hits, n, p_lo) >= 0.5 * alpha)


def hitting_band(level: float, vol: float, horizon: float,
                 dt: float) -> tuple[float, float]:
    """Interval holding the grid-monitored crossing probability.

    Sampling a Brownian path on a grid can only miss crossings, so the
    continuous probability bounds it above; the BGK-shifted value is its
    first-order approximation, and half the shift again bounds the
    higher-order remainder from below.
    """
    upper = reflection_probability(level, vol, horizon)
    shifted = reflection_probability(level, vol, horizon, dt)
    return shifted - 0.5 * (upper - shifted), upper


# ----------------------------------------------------------------------
# Gaussian tests.


def two_sided_z(alpha: float = ALPHA) -> float:
    """z with P(|Z| > z) = alpha for a standard normal Z (bisection)."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def dkw_epsilon(n: int, alpha: float = ALPHA) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: the empirical distribution of n draws
    stays within epsilon of the true one everywhere, except with
    probability alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def chi2_consistent(statistic: float, dof: int, z: float) -> bool:
    """Whether a chi-square(dof) draw could be ``statistic``, at the
    two-sided level of ``z``; Wilson-Hilferty maps it to a standard
    normal."""
    scale = 2.0 / (9.0 * dof)
    score = ((statistic / dof) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(
        scale)
    return abs(score) <= z


# ----------------------------------------------------------------------
# Euler moments of the group means.


def group_noise_covariance(rho: float, sigma, rho_k, sizes,
                           dt: float) -> np.ndarray:
    """Covariance of one Euler step's noise in the d group means.

    Bank i of group k takes sigma_k (rho dW0 + sqrt(1-rho^2) rho_k dWk
    + sqrt((1-rho^2)(1-rho_k^2)) dB_i); averaging N_k banks divides the
    idiosyncratic variance by N_k.
    """
    sigma = np.asarray(sigma, dtype=float)
    rho_k = np.asarray(rho_k, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    own = (1.0 - rho * rho) * (rho_k ** 2 + (1.0 - rho_k ** 2) / sizes)
    cov = rho * rho * np.outer(sigma, sigma) + np.diag(sigma ** 2 * own)
    return dt * cov


def euler_group_moments(weights, drift, step_cov, mean0, cov0,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of m_{n+1} = m_n + (W_n m_n + b_n) dt + e_n.

    Under an affine rule the gap terms cancel within a group, so the
    group means follow this d-dimensional scheme with e_n ~ N(0, step_cov)
    independent of the past.  ``weights`` is [M, d, d], ``drift`` [M, d]
    (intercept plus growth rate at each step's left node).  Returns means
    [M + 1, d] and covariances [M + 1, d, d].
    """
    weights = np.asarray(weights, dtype=float)
    steps, d, _ = weights.shape
    means = np.empty((steps + 1, d))
    covs = np.empty((steps + 1, d, d))
    means[0] = mean0
    covs[0] = cov0
    eye = np.eye(d)
    for n in range(steps):
        a = eye + dt * weights[n]
        means[n + 1] = a @ means[n] + dt * np.asarray(drift[n])
        covs[n + 1] = a @ covs[n] @ a.T + step_cov
    return means, covs


# ----------------------------------------------------------------------
# Coefficient paths, given as {label: column array}.


def shift_identity_gap(columns, system: str) -> float:
    """Worst |a + b| over the system's shift-invariance pairs, relative to
    1 + the larger magnitude involved."""
    worst = 0.0
    for a, b in SHIFT_PAIRS[system]:
        x, y = np.asarray(columns[a]), np.asarray(columns[b])
        scale = 1.0 + max(np.abs(x).max(), np.abs(y).max())
        worst = max(worst, float(np.abs(x + y).max()) / scale)
    return worst


def mfg_row_sum_gap(columns, d: int) -> float:
    """Worst |sum_h psim_k_h| relative to 1 + the row's largest entry."""
    worst = 0.0
    for k in range(1, d + 1):
        row = np.array([columns[f"psim_{k}_{h}"] for h in range(1, d + 1)])
        scale = 1.0 + float(np.abs(row).max())
        worst = max(worst, float(np.abs(row.sum(axis=0)).max()) / scale)
    return worst


def prop1_slack(times, etahat5, phihat4, groups, beta) -> float:
    """Minimum slack of 0 <= y(s) <= y(0) exp(-R s) + slack / R on the
    time-reversed cross coefficients (s = T - t), with R_1 = q1 +
    q2 lam2 beta1 + q1 lam1 beta2 and symmetrically R_2.

    ``groups`` holds (q, eps, c, lam) per group.  Negative means a
    violation of that size.
    """
    (q1, e1, c1, l1), (q2, e2, c2, l2) = groups
    b1, b2 = beta
    s = np.asarray(times)
    worst = math.inf
    for column, q, e, c, lam, other, rate in (
            (etahat5, q1, e1, c1, l1, b2, q1 + q2 * l2 * b1 + q1 * l1 * b2),
            (phihat4, q2, e2, c2, l2, b1, q2 + q1 * l1 * b2 + q2 * l2 * b1)):
        y = np.asarray(column)[::-1]
        bound = (c * lam * other * np.exp(-rate * s)
                 + (e - q * q) * lam * other / rate)
        worst = min(worst, float(y.min()), float((bound - y).min()))
    return worst


def liquidity_rate0(eta1: float, eta4: float, n1: int) -> float:
    """Gap coefficient of a group-1 bank's own control once its weight in
    its own group average is folded in: (1 - 1/N1) eta1 - eta4 / N1."""
    return (1.0 - 1.0 / n1) * eta1 - eta4 / n1


def rk4_order_ok(err_coarse: float, err_fine: float) -> bool:
    """Halving the step of a fourth-order scheme divides the error by
    about 16; [12, 20] allows for higher-order terms."""
    return err_fine > 0.0 and 12.0 <= err_coarse / err_fine <= 20.0


def frozen_tolerance(value: float, dt: float) -> float:
    """Allowed gap to an mpmath value after RK4 with step dt: 1e-10 (1 +
    |value|) at dt = 5e-4 (2000 steps on a unit horizon), scaled as dt^4."""
    return 1e-10 * (1.0 + abs(value)) * max(1.0, (dt / 5e-4) ** 4)
