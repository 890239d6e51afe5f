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
import numbers
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
    LIMITING_LABELS,
    CoefficientPath,
    mfg_labels,
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
)
from .simulate import mean_step_covariance

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
    limiting_path.require_labels(LIMITING_LABELS, "limiting")
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
    limiting_path.require_labels(LIMITING_LABELS, "limiting")
    vm = validate(market, Mode.LIMITING)
    s = limiting_path.times
    slack = math.inf
    for k, name in enumerate(("etahat5", "phihat4")):
        own, other = vm.groups[k], vm.groups[1 - k]
        beta_own, beta_other = vm.beta[k], vm.beta[1 - k]
        rate = (own.q + other.q * other.lam * beta_own
                + own.q * own.lam * beta_other)
        checked = limiting_path.column(name)[::-1]
        bound = (own.c * own.lam * beta_other * np.exp(-rate * s)
                 + own.eps_slack * own.lam * beta_other / rate)
        slack = min(slack, checked.min(), (bound - checked).min())
    return float(slack)


def check_mfg_row_sums(mfg_path: CoefficientPath) -> float:
    """Worst-case magnitude over k and t of sum_h psim_k_h(t)."""
    d = sum(1 for name in mfg_path.labels if name.startswith("etam_"))
    # A path of no group is no mean-field path, and no sum over it a pass.
    mfg_path.require_labels(mfg_labels(max(d, 1)), "mean-field")
    worst = 0.0
    for k in range(1, d + 1):
        total = sum(mfg_path.column(f"psim_{k}_{h}") for h in range(1, d + 1))
        worst = max(worst, float(np.abs(total).max()))
    return worst


def _strategy_gap(a, b) -> float:
    return float(np.abs(a.path.values - b.path.values).max())


def _at_total(vm: ValidatedMarket, n_total: float) -> MarketParams:
    """The market at weights beta with group sizes round(beta_k * N), for
    an integer total N those sizes add up to."""
    beta = vm.beta
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
    groups = tuple(dataclasses.replace(g, n_banks=n)
                   for g, n in zip(vm.groups, sizes))
    return dataclasses.replace(vm.market, beta=beta, groups=groups)


def _check_increasing(n_values) -> None:
    if len(n_values) < 2:
        raise ValueError("an N ladder needs at least 2 values to fit a "
                         f"slope, got {len(n_values)}")
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
    coefficients.  The log-log slopes are least-squares fits over at
    least two totals; the gaps themselves decay like 1/N.
    """
    vm = validate(market, Mode.MFG)
    if vm.d != 2:
        raise ValueError("the finite-group systems are two-group only")
    markets = [validate(_at_total(vm, n), Mode.CLOSED_LOOP) for n in n_values]
    n_values = tuple(finite.n_total for finite in markets)
    _check_increasing(n_values)
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
    finite = _at_total(vm, n_total)
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


def _check_axis_values(axis: SweepAxis, values) -> None:
    # Only the horizon claim can be read off one curve.
    least = 1 if axis is SweepAxis.HORIZON else 2
    if len(values) < least:
        raise ValueError(f"a sweep over {axis.value} needs at least {least} "
                         f"value{'s' * (least > 1)}, got {len(values)}")
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
        _check_axis_values(self.axis, self.values)
        if not len(self.values) == len(self.times) == len(self.curves) == len(
                self.rate0):
            raise ValueError("need one curve and summary per axis value")


def sweep_liquidity(market: MarketParams | ValidatedMarket, axis: SweepAxis,
                    values, *, n_steps: int | None = None) -> SweepResult:
    """Solve the closed-loop system per axis value and record the
    liquidity-rate path and its t=0 value.

    LAMBDA2 varies the second group's mixing weight, HORIZON the terminal
    time, N_TOTAL the total bank count at the market's fixed group
    weights (each value must split integrally).  LAMBDA2 and N_TOTAL
    take at least two values, HORIZON at least one.
    """
    vm = validate(market, Mode.CLOSED_LOOP)
    base = vm.market
    values = tuple(values)
    # Reject every bad value before the first solve.
    _check_axis_values(axis, values)
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
                varied = _at_total(vm, v)
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


def _value_forms(coef: np.ndarray):
    """Each group's ten closed-loop coefficients as V = z'Hz/2 + l'z + c in
    z = (m_k - x, m_1, m_2): H [2, 3, 3], l [2, 3] and c [2]."""
    h = coef.reshape(2, 10)
    return h[:, [[0, 3, 4], [3, 1, 5], [4, 5, 2]]], h[:, 6:9], h[:, 9]


def hjb_residual(closed_path: CoefficientPath,
                 market: MarketParams | ValidatedMarket,
                 sample_points: int, *, seed: int = 0) -> float:
    """Worst scaled residual of the dynamic-programming equation at random
    states.

    Group k's coefficients give the value of its first bank i as the form
    z'Hz/2 + l'z + c of :func:`_value_forms` in z = B x, where B is the
    3 x N map with rows m_k - x_i, m_1 and m_2.  Its time derivative is a
    central difference of the coefficients, its gradient B'(Hz + l) and its
    Hessian B'HB; every bank plays the first-order condition of its own
    value.  If the coefficients solve their equations,

        dV/dt + sum_j (control_j + gamma_j) dV/dx_j
              + (1/2) <H, B Cov B'> + running_cost = 0.

    B Cov B' is :func:`~interbank.simulate.mean_step_covariance` with
    group k's bank slot, reordered: m_k - x_i is minus that slot, whose
    row is zero off the diagonal, so the sign does not matter.

    Sample times are snapped to grid-segment midpoints, where the central
    difference of the piecewise-linear coefficient interpolant matches the
    true derivative to second order in the grid step.  Returns
    max |residual| / (1 + |x|^2) over samples and both groups; a sample
    count that is not an integer, or fewer than one sample, raises
    ValueError.
    """
    closed_path.require_labels(CLOSED_LABELS, "closed-loop")
    if not isinstance(sample_points, numbers.Integral):
        raise ValueError("hjb_residual needs a whole number of sample "
                         f"points, got {sample_points!r}")
    if sample_points < 1:
        raise ValueError("hjb_residual needs at least one sample point, "
                         f"got {sample_points}")
    vm = validate(market, Mode.CLOSED_LOOP)
    sizes = vm.group_sizes()
    group_index = np.repeat(np.arange(2), sizes)
    q, eps, lam = np.array([(g.q, g.eps, g.lam) for g in vm.groups]).T
    averagers = np.eye(2)[:, group_index] / np.array(sizes)[:, None]
    # B of each group's first bank, [2, 3, N].  Its column at that bank,
    # dz_j/dx_j, is the same for every bank j of the group.
    probes = (0, sizes[0])
    maps = np.stack([averagers[[k, 0, 1]] for k in range(2)])
    maps[[0, 1], 0, probes] -= 1.0
    own = maps[[0, 1], :, probes][group_index]
    # z's slots in mean_step_covariance(vm, k): bank k + 1, m_1 and m_2.
    noise = [mean_step_covariance(vm, k)[np.ix_(z, z)]
             for k, z in enumerate(([1, 0, 2], [2, 0, 1]))]

    grid = closed_path.grid
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sample_points):
        t = (rng.integers(0, grid.n_steps) + 0.5) * grid.dt
        x = rng.uniform(-2.0, 2.0, size=len(group_index))
        coef, later, earlier = closed_path.at(
            [t, min(t + _DT_FD, grid.t_end), max(t - _DT_FD, 0.0)])
        hess, lin, _ = _value_forms(coef)
        dhess, dlin, dconst = _value_forms((later - earlier) / (2.0 * _DT_FD))
        m = averagers @ x
        mix = (1.0 - lam) * m + lam * (m @ vm.beta)
        # Every bank's own z as a column, the gradient H z + l of its own
        # value in z, and its control.
        z = np.vstack((m[group_index] - x, np.tile(m[:, None], len(x))))
        grads = (np.einsum("jab,bj->ja", hess[group_index], z)
                 + lin[group_index])
        controls = (q[group_index] * (mix[group_index] - x)
                    - np.sum(grads * own, axis=1))
        gam = np.array([g.gamma(t) for g in vm.groups])
        drift = controls + gam[group_index]
        for k, i in enumerate(probes):
            zi, own_gap = z[:, i], mix[k] - x[i]
            running = (0.5 * controls[i]**2 - q[k] * controls[i] * own_gap
                       + 0.5 * eps[k] * own_gap**2)
            residual = (0.5 * zi @ dhess[k] @ zi + dlin[k] @ zi + dconst[k]
                        + grads[i] @ (maps[k] @ drift)
                        + 0.5 * float(np.sum(hess[k] * noise[k])) + running)
            worst = max(worst, abs(residual) / (1.0 + float(x @ x)))
    return worst
