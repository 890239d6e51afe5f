"""Numerical verification checks and the liquidity/convergence experiments.

Everything here is pure and deterministic: identity and bound checks
return worst-case magnitudes or slacks over the grid, the sweeps return
sampled liquidity-rate curves plus their t=0 summary, and hjb_residual
evaluates the dynamic-programming equation that the closed-loop
coefficients are meant to satisfy at random states, which is the
numerical stand-in for a verification argument.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import feedback_closed, feedback_mfg, feedback_open, liquidity_rate
from .model import (
    MarketParams,
    Mode,
    TimeGrid,
    ValidatedMarket,
    validate,
)
from .riccati import (
    CLOSED_LABELS,
    CoefficientPath,
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
)

# Mean shift, in units of vol * sqrt(dt), between a discretely and a
# continuously monitored flat barrier (Broadie-Glasserman-Kou constant
# zeta(1/2)/sqrt(2*pi)).
BGK_BETA = 0.5826

# A horizon sweep passes when each rate curve stays within _PLATEAU_TOL
# of |rate(0)| on the first _PLATEAU_FRACTION of its horizon.
_PLATEAU_TOL = 0.01
_PLATEAU_FRACTION = 0.5
_DT_FD = 1e-5  # half-width of hjb_residual's central time difference


class DomainError(ValueError):
    """An analytic formula was evaluated outside its region of validity."""


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary error
    function; relative accuracy well below 1e-12 over the tested range."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def analytic_systemic_probability(D: float, sigma: float, N: int,
                                  T: float) -> float:
    """Probability that an N-bank average of unit-loading diffusions with
    volatility sigma, started at 0 with no drift, reaches the level D <= 0
    by time T: 2 * Phi(D * sqrt(N) / (sigma * sqrt(T))).
    """
    if D > 0.0:
        raise DomainError("the reflection formula needs a barrier D <= 0")
    if sigma <= 0.0 or T <= 0.0 or N < 1:
        raise ValueError("need sigma > 0, T > 0, N >= 1")
    return 2.0 * normal_cdf(D * math.sqrt(N) / (sigma * math.sqrt(T)))


def monitoring_deficit(D: float, sigma: float, N: int, T: float,
                       dt: float) -> float:
    """How much a grid-monitored hitting estimate undershoots the analytic
    probability: the barrier effectively moves away by BGK_BETA * vol *
    sqrt(dt), where vol = sigma / sqrt(N) is the monitored average's
    volatility."""
    shifted = D - BGK_BETA * (sigma / math.sqrt(N)) * math.sqrt(dt)
    return analytic_systemic_probability(D, sigma, N, T) - \
        analytic_systemic_probability(shifted, sigma, N, T)


def check_sum_identity(limiting_path: CoefficientPath) -> tuple[float, float]:
    """Worst-case magnitudes of etahat4 + etahat5 and phihat4 + phihat5.

    Both sums solve a linear homogeneous equation with zero terminal
    condition, so they vanish identically; the returned values measure
    integration error only.
    """
    eta = limiting_path.column("etahat4") + limiting_path.column("etahat5")
    phi = limiting_path.column("phihat4") + limiting_path.column("phihat5")
    return float(np.abs(eta).max()), float(np.abs(phi).max())


def check_prop1_bounds(limiting_path: CoefficientPath,
                       market: MarketParams | ValidatedMarket) -> float:
    """Minimum slack of the positivity and exponential bounds on the
    time-reversed cross coefficients etahat5 and phihat4.

    Reversing time (s = T - t) turns the terminal-value problem into an
    initial-value one started at c_k * lam_k * beta_other, for which
    0 <= value(s) <= start * exp(-R s) + slack_term / R holds with
    R_1 = q1 + q2 lam2 beta1 + q1 lam1 beta2 and symmetrically R_2.
    Returns min(value - 0, bound - value) over both groups and all nodes;
    a negative result means a violation of that magnitude.
    """
    vm = validate(market, Mode.LIMITING)
    (g1, g2) = vm.groups
    beta1, beta2 = vm.beta
    s = limiting_path.times
    rate1 = g1.q + g2.q * g2.lam * beta1 + g1.q * g1.lam * beta2
    rate2 = g2.q + g1.q * g1.lam * beta2 + g2.q * g2.lam * beta1
    checked = limiting_path.column("etahat5")[::-1]
    bound = (g1.c * g1.lam * beta2 * np.exp(-rate1 * s)
             + g1.eps_slack * g1.lam * beta2 / rate1)
    slack = min(checked.min(), (bound - checked).min())
    checked = limiting_path.column("phihat4")[::-1]
    bound = (g2.c * g2.lam * beta1 * np.exp(-rate2 * s)
             + g2.eps_slack * g2.lam * beta1 / rate2)
    return float(min(slack, checked.min(), (bound - checked).min()))


def check_mfg_row_sums(mfg_path: CoefficientPath) -> float:
    """Worst-case magnitude over k and t of sum_h psim_k_h(t)."""
    d = sum(1 for name in mfg_path.labels if name.startswith("etam_"))
    worst = 0.0
    for k in range(1, d + 1):
        total = sum(mfg_path.column(f"psim_{k}_{h}") for h in range(1, d + 1))
        worst = max(worst, float(np.abs(total).max()))
    return worst


def _strategy_gap(a, b) -> float:
    return float(np.abs(a.path.values - b.path.values).max())


def _with_sizes(market: MarketParams, sizes: tuple[int, ...]) -> MarketParams:
    groups = tuple(
        dataclasses.replace(g, n_banks=n) for g, n in zip(market.groups, sizes)
    )
    return dataclasses.replace(market, groups=groups)


def _sizes_for(beta: tuple[float, ...], n_total: float) -> tuple[int, ...]:
    """Group sizes round(beta_k * N) of an integer total N they add up to."""
    if not float(n_total).is_integer():
        raise ValueError(f"bank total {n_total} is not an integer")
    n_total = int(n_total)
    sizes = tuple(int(round(b * n_total)) for b in beta)
    if sum(sizes) != n_total:
        raise ValueError(f"total {n_total} does not split integrally at "
                         f"weights beta = {beta}: n_banks would be {sizes}")
    if any(n < 1 for n in sizes):
        raise ValueError(f"total {n_total} leaves an empty group at weights "
                         f"beta = {beta}: n_banks would be {sizes}")
    return sizes


def _check_increasing(n_values) -> None:
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("N values must be strictly increasing")


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm feedback gaps to the mean-field rule along an N ladder."""

    n_values: tuple[int, ...]
    closed_gaps: tuple[float, ...]
    open_gaps: tuple[float, ...]
    closed_slope: float
    open_slope: float

    def __post_init__(self) -> None:
        _check_increasing(self.n_values)
        gaps = (*self.closed_gaps, *self.open_gaps)
        if not all(math.isfinite(g) for g in gaps):
            raise ValueError("gaps must be finite")


def convergence_to_mfg(market: MarketParams | ValidatedMarket,
                       n_values, *, grid: TimeGrid | None = None
                       ) -> ConvergenceReport:
    """Gap between finite-N feedback rules and the mean-field rule.

    For each total bank count (group sizes rounded from the fixed weights
    beta) the closed-loop and open-loop systems are solved and their
    strategies compared to the mean-field strategy in sup norm over all
    coefficients.  The log-log slopes are least-squares fits; the gaps
    themselves decay like 1/N.
    """
    vm = validate(market, Mode.MFG)
    if vm.d != 2:
        raise ValueError("the finite-group systems are two-group only")
    ladder = [_sizes_for(vm.beta, n) for n in n_values]
    n_values = tuple(sum(sizes) for sizes in ladder)
    _check_increasing(n_values)
    base = dataclasses.replace(vm.market, beta=vm.beta)
    markets = [validate(_with_sizes(base, sizes), Mode.CLOSED_LOOP)
               for sizes in ladder]
    reference = feedback_mfg(solve_mfg(vm, grid), vm)
    closed_gaps = []
    open_gaps = []
    for finite in markets:
        closed_gaps.append(_strategy_gap(
            feedback_closed(solve_closed_loop(finite, grid), finite), reference))
        open_gaps.append(_strategy_gap(
            feedback_open(solve_open_loop(finite, grid), finite), reference))
    logs = np.log(np.asarray(n_values, dtype=float))
    closed_slope = float(np.polyfit(logs, np.log(closed_gaps), 1)[0])
    open_slope = float(np.polyfit(logs, np.log(open_gaps), 1)[0])
    return ConvergenceReport(
        n_values=n_values,
        closed_gaps=tuple(closed_gaps),
        open_gaps=tuple(open_gaps),
        closed_slope=closed_slope,
        open_slope=open_slope,
    )


def open_vs_limiting(market: MarketParams | ValidatedMarket, n_total: int,
                     *, grid: TimeGrid | None = None) -> dict[str, float]:
    """Sup-norm gaps between open-loop coefficients at finite N and their
    limiting counterparts, keyed 'etao2 vs etahat4' and so on."""
    vm = validate(market, Mode.LIMITING)
    finite = _with_sizes(dataclasses.replace(vm.market, beta=vm.beta),
                         _sizes_for(vm.beta, n_total))
    open_path = solve_open_loop(finite, grid)
    limit_path = solve_limiting(vm, grid)
    pairs = [
        ("etao1", "etahat1"), ("etao2", "etahat4"), ("etao3", "etahat5"),
        ("phio1", "phihat1"), ("phio2", "phihat4"), ("phio3", "phihat5"),
    ]
    return {
        f"{a} vs {b}": float(
            np.abs(open_path.column(a) - limit_path.column(b)).max())
        for a, b in pairs
    }


class SweepAxis(enum.Enum):
    LAMBDA2 = "lambda2"
    HORIZON = "horizon"
    N_TOTAL = "n_total"


def _check_monotone(values) -> None:
    diffs = np.diff(values)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("axis values must be strictly monotone")


@dataclass(frozen=True)
class SweepResult:
    """Liquidity-rate curves along one swept parameter axis."""

    axis: SweepAxis
    values: tuple[float, ...]
    times: tuple[np.ndarray, ...]
    curves: tuple[np.ndarray, ...]
    rate0: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_monotone(self.values)
        if not len(self.values) == len(self.times) == len(self.curves) == len(
                self.rate0):
            raise ValueError("need one curve and summary per axis value")


def sweep_liquidity(market: MarketParams | ValidatedMarket, axis: SweepAxis,
                    values, *, n_steps: int | None = None) -> SweepResult:
    """Solve the closed-loop system per axis value and record the
    liquidity-rate path and its t=0 value.

    LAMBDA2 varies the second group's mixing weight, HORIZON the terminal
    time, N_TOTAL the total bank count at the market's fixed group
    weights (each value must split integrally).
    """
    vm = validate(market, Mode.CLOSED_LOOP)
    base = vm.market
    values = tuple(values)
    # Reject every bad value before the first solve.
    _check_monotone(values)
    markets = []
    for v in values:
        try:
            if axis is SweepAxis.LAMBDA2:
                groups = (base.groups[0],
                          dataclasses.replace(base.groups[1], lam=float(v)))
                varied = dataclasses.replace(base, groups=groups)
            elif axis is SweepAxis.HORIZON:
                varied = dataclasses.replace(base, horizon=float(v))
            else:
                varied = _with_sizes(base, _sizes_for(vm.beta, v))
            markets.append(validate(varied, Mode.CLOSED_LOOP))
        except ValueError as exc:
            raise type(exc)(f"{axis.value} = {v:g}: {exc}") from None
    times, curves, rate0 = [], [], []
    for varied in markets:
        grid = None
        if n_steps is not None:
            grid = TimeGrid(t_end=varied.horizon, n_steps=n_steps)
        path = solve_closed_loop(varied, grid)
        rate = liquidity_rate(path, varied)
        times.append(path.times)
        curves.append(rate)
        rate0.append(float(rate[0]))
    return SweepResult(axis=axis, values=values, times=tuple(times),
                       curves=tuple(curves), rate0=tuple(rate0))


def sweep_claim(result: SweepResult) -> tuple[str, bool]:
    """The qualitative behavior each axis is expected to show, evaluated
    on the sweep: monotone increase of rate(0) for LAMBDA2 and N_TOTAL,
    near-constancy of each curve on the front part of the horizon for
    HORIZON.  Returns a description and whether it holds.
    """
    if result.axis is SweepAxis.HORIZON:
        ok = True
        for t, curve, r0 in zip(result.times, result.curves, result.rate0):
            front = curve[t <= _PLATEAU_FRACTION * t[-1]]
            ok &= float(front.max() - front.min()) <= _PLATEAU_TOL * abs(r0)
        return (f"rate(t) within {_PLATEAU_TOL:.0%} of constant on the first "
                f"{_PLATEAU_FRACTION:.0%} of the horizon", bool(ok))
    diffs = np.diff(result.rate0)
    name = "lambda2" if result.axis is SweepAxis.LAMBDA2 else "N"
    return (f"rate(0) strictly increasing in {name}", bool(np.all(diffs > 0)))


def _covariance(vm: ValidatedMarket, group_index: np.ndarray) -> np.ndarray:
    sig = np.array([vm.groups[k].sigma for k in group_index])
    rho_k = np.array([vm.groups[k].rho_k for k in group_index])
    same_group = group_index[:, None] == group_index[None, :]
    corr = np.full((len(sig), len(sig)), vm.rho**2)
    corr[same_group] = (vm.rho**2
                        + (1.0 - vm.rho**2) * (rho_k[:, None] * rho_k)[
                            same_group])
    np.fill_diagonal(corr, 1.0)
    return np.outer(sig, sig) * corr


def hjb_residual(closed_path: CoefficientPath,
                 market: MarketParams | ValidatedMarket,
                 sample_points: int, *, seed: int = 0) -> float:
    """Worst scaled residual of the dynamic-programming equation at random
    states.

    At each sample the quadratic value ansatz of one bank per group is
    assembled from the coefficient path: analytic space gradient and
    Hessian, finite-difference time derivative of the coefficients, all
    banks' controls from their own first-order conditions, and the running
    cost of the probed bank.  If the coefficients solve their equations,

        dV/dt + sum_j (control_j + gamma_j) dV/dx_j
              + (1/2) tr(Cov * Hess) + running_cost = 0.

    Sample times are snapped to grid-segment midpoints, where the central
    difference of the piecewise-linear coefficient interpolant matches the
    true derivative to second order in the grid step.  Returns
    max |residual| / (1 + |x|^2) over samples and both groups.
    """
    if tuple(closed_path.labels) != CLOSED_LABELS:
        raise ValueError("hjb_residual needs a closed-loop coefficient path")
    vm = validate(market, Mode.CLOSED_LOOP)
    sizes = vm.group_sizes()
    n_banks = sum(sizes)
    group_index = np.repeat(np.arange(2), sizes)
    beta = np.asarray(vm.beta)
    cov = _covariance(vm, group_index)
    members = [np.where(group_index == k)[0] for k in range(2)]
    averagers = np.zeros((2, n_banks))
    for k in range(2):
        averagers[k, members[k]] = 1.0 / sizes[k]
    (g1, g2) = vm.groups
    q = np.array([g1.q, g2.q])
    eps = np.array([g1.eps, g2.eps])
    lam = np.array([g1.lam, g2.lam])
    gammas = (g1.gamma, g2.gamma)

    grid_dt = closed_path.grid.dt
    t_end = closed_path.grid.t_end
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sample_points):
        segment = rng.integers(0, closed_path.grid.n_steps)
        t = (segment + 0.5) * grid_dt
        x = rng.uniform(-2.0, 2.0, size=n_banks)
        coef, later, earlier = closed_path.at(
            [t, min(t + _DT_FD, t_end), max(t - _DT_FD, 0.0)])
        dcoef = (later - earlier) / (2.0 * _DT_FD)
        m = averagers @ x
        mix = (1.0 - lam) * m + lam * (beta @ m)
        gam = np.array([gammas[0](t), gammas[1](t)])

        # Own-state partial derivative of every bank's own value function,
        # then the first-order-condition controls.
        own_partial = np.empty(n_banks)
        for k in range(2):
            h = coef[:10] if k == 0 else coef[10:]
            nk = 1.0 / sizes[k]
            gaps = m[k] - x[members[k]]
            dgap = h[0] * gaps + h[3] * m[0] + h[4] * m[1] + h[6]
            dmk = (h[1] * m[0] + h[3] * gaps + h[5] * m[1] + h[7]) if k == 0 \
                else (h[2] * m[1] + h[4] * gaps + h[5] * m[0] + h[8])
            own_partial[members[k]] = dgap * (nk - 1.0) + dmk * nk
        controls = q[group_index] * (mix[group_index] - x) - own_partial

        for k in range(2):
            h = coef[:10] if k == 0 else coef[10:]
            dh = dcoef[:10] if k == 0 else dcoef[10:]
            i = members[k][0]
            basis = averagers[k] - np.eye(n_banks)[i]
            gap = m[k] - x[i]
            # dV/dt from the coefficient time derivatives.
            dv_dt = (0.5 * dh[0] * gap**2 + 0.5 * dh[1] * m[0]**2
                     + 0.5 * dh[2] * m[1]**2 + dh[3] * gap * m[0]
                     + dh[4] * gap * m[1] + dh[5] * m[0] * m[1]
                     + dh[6] * gap + dh[7] * m[0] + dh[8] * m[1] + dh[9])
            dgap = h[0] * gap + h[3] * m[0] + h[4] * m[1] + h[6]
            dm1 = h[1] * m[0] + h[3] * gap + h[5] * m[1] + h[7]
            dm2 = h[2] * m[1] + h[4] * gap + h[5] * m[0] + h[8]
            gradient = dgap * basis + dm1 * averagers[0] + dm2 * averagers[1]
            hessian = (
                h[0] * np.outer(basis, basis)
                + h[1] * np.outer(averagers[0], averagers[0])
                + h[2] * np.outer(averagers[1], averagers[1])
                + h[3] * (np.outer(basis, averagers[0])
                          + np.outer(averagers[0], basis))
                + h[4] * (np.outer(basis, averagers[1])
                          + np.outer(averagers[1], basis))
                + h[5] * (np.outer(averagers[0], averagers[1])
                          + np.outer(averagers[1], averagers[0]))
            )
            own_gap = mix[k] - x[i]
            running = (0.5 * controls[i]**2 - q[k] * controls[i] * own_gap
                       + 0.5 * eps[k] * own_gap**2)
            residual = (dv_dt
                        + (controls + gam[group_index]) @ gradient
                        + 0.5 * float(np.sum(cov * hessian))
                        + running)
            worst = max(worst, abs(residual) / (1.0 + float(x @ x)))
    return worst
