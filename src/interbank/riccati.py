"""Backward coefficient systems for the grouped lending game.

The value functions of every equilibrium notion treated here are quadratic
in the state, so each notion reduces to a terminal-value system of coupled
Riccati equations for time-dependent coefficients.  This module builds the
right-hand sides, integrates them backward from the horizon with a
fixed-step classic Runge-Kutta scheme, and serializes the resulting
coefficient paths.

Four systems are provided:

  closed loop   20 equations (eta1..eta10, phi1..phi10) for two groups of
                N1 and N2 banks whose feedback controls react to every
                bank's state;
  limiting      12 equations (etahat1..6, phihat1..6), the N -> infinity
                limit of the quadratic and cross coefficients at fixed
                group weights;
  open loop     8 equations (etao1..4, phio1..4) from the adjoint
                processes of the open-loop game, with group sizes entering
                only through 1/N~_k = (1 - lam_k)/N_k + lam_k/N;
  mean field    d + d^2 + d equations (etam_k, psim_k_h, mum_k) for d
                groups of infinitely many banks.

Group weights enter every system through the offsets lam_k*(beta_h - d_kh)
of the tracked convex mixture of averages relative to the own-group
average; the same six-entry quadratic pattern of those offsets shapes all
terminal conditions and constant source terms, so they are computed in one
place and shared between the builders.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import (
    MarketParams,
    Mode,
    TimeGrid,
    ValidatedMarket,
    noise_loadings,
    validate,
)

# Integration aborts once any coefficient magnitude passes this; the
# quadratic terms can reach -infinity in finite time outside the
# existence region.
BLOWUP_LIMIT = 1e12

# Default number of Runge-Kutta steps when callers do not pass a grid.
DEFAULT_STEPS = 2000

CLOSED_LABELS: tuple[str, ...] = tuple(
    f"{name}{j}" for name in ("eta", "phi") for j in range(1, 11)
)
LIMITING_LABELS: tuple[str, ...] = tuple(
    f"{name}{j}" for name in ("etahat", "phihat") for j in range(1, 7)
)
OPEN_LABELS: tuple[str, ...] = tuple(
    f"{name}{j}" for name in ("etao", "phio") for j in range(1, 5)
)


def mfg_labels(d: int) -> tuple[str, ...]:
    """Column labels of the mean-field system for d groups."""
    eta = [f"etam_{k}" for k in range(1, d + 1)]
    psi = [f"psim_{k}_{h}" for k in range(1, d + 1) for h in range(1, d + 1)]
    mu = [f"mum_{k}" for k in range(1, d + 1)]
    return tuple(eta + psi + mu)


class OutOfHorizon(ValueError):
    """A sampled path was evaluated outside its solved time range."""


class BlowUp(RuntimeError):
    """A coefficient left [-BLOWUP_LIMIT, BLOWUP_LIMIT] during integration."""

    def __init__(self, t: float, component: str):
        super().__init__(f"coefficient {component} blew up near t={t:g}")
        self.t = t
        self.component = component


@dataclass(frozen=True)
class OdeSystem:
    """A terminal-value ODE system dy/dt = rhs(t, y), y(T) = terminal.

    ``rhs`` takes the time and the state as a sequence of floats in label
    order and returns the derivative as a sequence of floats of the same
    length; the integrator passes and expects plain Python lists.
    """

    rhs: Callable[[float, Sequence[float]], Sequence[float]]
    terminal: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        terminal = np.asarray(self.terminal, dtype=float)
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "labels", tuple(self.labels))
        if terminal.shape != (len(self.labels),):
            raise ValueError("terminal condition and labels disagree on dimension")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")


@dataclass(frozen=True)
class CoefficientPath:
    """Sampled solution of a backward coefficient system.

    ``values[j]`` holds all components at grid node j; the last row is the
    terminal condition exactly as supplied, with no arithmetic on it.
    """

    grid: TimeGrid
    values: np.ndarray
    labels: tuple[str, ...]
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "times", self.grid.times())
        if values.shape != (self.grid.n_steps + 1, len(self.labels)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{self.grid.n_steps + 1} nodes x {len(self.labels)} labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if not np.isfinite(values).all():
            raise ValueError("coefficient path contains non-finite entries")

    @property
    def horizon(self) -> float:
        return self.grid.t_end

    def column(self, label: str) -> np.ndarray:
        try:
            j = self.labels.index(label)
        except ValueError:
            raise KeyError(f"no component labeled {label!r}") from None
        return self.values[:, j]

    def at(self, t) -> np.ndarray:
        """All components at time t by linear interpolation between nodes;
        for an array of times, one row per time.

        Raises:
          OutOfHorizon: if any time lies outside [0, horizon] (or is NaN).
        """
        t_end = self.grid.t_end
        tol = 1e-9 * max(1.0, t_end)
        t = np.asarray(t, dtype=float)
        outside = ~((t >= -tol) & (t <= t_end + tol))
        if outside.any():
            raise OutOfHorizon(
                f"t={t[outside][0]:g} outside the solved range [0, {t_end:g}]")
        t = np.clip(t, 0.0, t_end)
        times = self.times
        j = np.searchsorted(times, t, side="right") - 1
        j = np.clip(j, 0, len(times) - 2)
        w = ((t - times[j]) / (times[j + 1] - times[j]))[..., None]
        return (1.0 - w) * self.values[j] + w * self.values[j + 1]

    def value_at(self, t: float, label: str) -> float:
        return float(self.at(t)[self.labels.index(label)])

    def write_csv(self, path: str | os.PathLike) -> None:
        """Write ``t`` plus one column per component, 17 significant digits."""
        lines = ["t," + ",".join(self.labels)]
        for t, row in zip(self.times, self.values):
            lines.append(",".join(f"{x:.17g}" for x in [t, *row]))
        atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str | os.PathLike) -> CoefficientPath:
    """Read back a file produced by :meth:`CoefficientPath.write_csv`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        fields = header.split(",")
        if fields[0] != "t":
            raise ValueError("first column must be t")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    if not rows:
        raise ValueError("no data rows below the header")
    data = np.array(rows, dtype=float)
    grid = TimeGrid(t_end=float(data[-1, 0]), n_steps=len(rows) - 1)
    if not np.allclose(data[:, 0], grid.times(), rtol=0.0, atol=1e-12):
        raise ValueError("time column is not a uniform grid starting at 0")
    return CoefficientPath(grid=grid, values=data[:, 1:], labels=tuple(fields[1:]))


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text so that a crash never leaves a partial file behind."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def integrate_backward(system: OdeSystem, grid: TimeGrid) -> CoefficientPath:
    """Integrate a terminal-value system from t = T down to t = 0.

    Classic fourth-order Runge-Kutta applied with the fixed step -dt
    (identical to forward RK4 on the time-reversed system); the global
    error is O(dt^4) for smooth right-hand sides.  The endpoint stages
    are evaluated a hair inside the step: the only explicit time
    dependence comes through the piecewise-constant forcing rates, so a
    rate jump on a grid node then stays one-sided and costs no accuracy.
    The state and stages are lists of Python floats, each formed with the
    operations of the equivalent array expression in the same order, so
    the results equal those of a numpy-array loop bit for bit.

    Raises:
      BlowUp: once any component is non-finite or exceeds BLOWUP_LIMIT in
        magnitude, reporting the time and the offending label.
    """
    rhs = system.rhs
    times = grid.times().tolist()
    values = np.empty((grid.n_steps + 1, len(system.labels)))
    values[-1] = system.terminal
    y = system.terminal.tolist()
    h = -grid.dt
    half = 0.5 * h
    sixth = h / 6.0
    nudge = 1e-9 * grid.dt
    for j in range(grid.n_steps, 0, -1):
        t = times[j]
        k1 = rhs(t - nudge, y)
        k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + h + nudge, [a + h * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        # The sum of magnitudes is NaN, infinite or above the limit
        # whenever a single component is; only then look for which.
        if not sum(map(abs, y)) <= BLOWUP_LIMIT:
            for label, v in zip(system.labels, y):
                if not abs(v) <= BLOWUP_LIMIT:
                    raise BlowUp(times[j - 1], label)
        values[j - 1] = y
    return CoefficientPath(grid=grid, values=values, labels=system.labels)


def _quad_pattern(g: float, o1: float, o2: float) -> tuple[float, ...]:
    """Coefficients of (g*z + o1*m1 + o2*m2)^2 over the six monomials.

    Order matches the component order of the two-group systems:
    z^2, m1^2, m2^2, z*m1, z*m2, m1*m2 (the halves on the squared terms
    cancel against the 1/2 in the quadratic ansatz).
    """
    return (g * g, o1 * o1, o2 * o2, g * o1, g * o2, o1 * o2)


def tracking_offsets(vm: ValidatedMarket) -> np.ndarray:
    """Offsets off[k, h] = lam_k * (beta_h - delta_kh).

    Row k gives the loading of each group average in the difference
    between group k's tracked mixture and its own group average:
    xbar_lam_k - xbar_k = sum_h off[k, h] * xbar_h.  Rows sum to zero.
    """
    lam = np.array([g.lam for g in vm.groups])
    beta = np.array(vm.beta)
    return lam[:, None] * (beta[None, :] - np.eye(len(beta)))


def closed_loop_system(vm: ValidatedMarket) -> OdeSystem:
    """The 20-equation closed-loop system for two finite groups.

    Components 1..6 of each block multiply, in order, (xbar_k - x)^2 / 2,
    xbar_1^2 / 2, xbar_2^2 / 2, (xbar_k - x)*xbar_1, (xbar_k - x)*xbar_2,
    xbar_1*xbar_2 in the quadratic value function of a group-k bank;
    components 7..9 are the linear terms and component 10 the constant.
    """
    (gp1, gp2) = vm.groups
    size1, size2 = vm.group_sizes()
    n1, n2 = 1.0 / size1, 1.0 / size2
    q1, q2 = gp1.q, gp2.q
    e1, e2 = gp1.eps_slack, gp2.eps_slack
    (o11, o12), (o21, o22) = tracking_offsets(vm).tolist()
    gam1, gam2 = gp1.gamma, gp2.gamma
    sig1, sig2 = gp1.sigma, gp2.sigma
    rho = vm.rho
    c0, cg, ci = noise_loadings(rho, gp1.rho_k)
    A1, B1 = c0 * c0 + cg * cg, ci * ci
    c0, cg, ci = noise_loadings(rho, gp2.rho_k)
    A2, B2 = c0 * c0 + cg * cg, ci * ci
    # Constant weights of the second-order (Ito) terms.
    d1_own = 0.5 * sig1 * sig1 * B1 * (1.0 - n1)
    d1_avg = 0.5 * sig1 * sig1 * (A1 + n1 * B1)
    d_cross = rho * rho * sig1 * sig2
    d2_own = 0.5 * sig2 * sig2 * B2 * (1.0 - n2)
    d2_avg = 0.5 * sig2 * sig2 * (A2 + n2 * B2)

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        (h1, h2, h3, h4, h5, h6, h7, h8, h9, h10,
         p1, p2, p3, p4, p5, p6, p7, p8, p9, p10) = y
        # Own-gradient weights of a group-1 bank: the derivative of its
        # value function at its own coordinate is s1*(xbar1 - x) +
        # u1*xbar1 + v1*xbar2 + w1; likewise s2..w2 for group 2.
        s1 = (n1 - 1.0) * h1 + n1 * h4
        u1 = (n1 - 1.0) * h4 + n1 * h2
        v1 = (n1 - 1.0) * h5 + n1 * h6
        w1 = (n1 - 1.0) * h7 + n1 * h8
        s2 = (n2 - 1.0) * p1 + n2 * p5
        u2 = (n2 - 1.0) * p4 + n2 * p6
        v2 = (n2 - 1.0) * p5 + n2 * p3
        w2 = (n2 - 1.0) * p7 + n2 * p9
        # Equilibrium drift of a group-k bank: g_k + G_k*(xbar_k - x)
        # - a_k*xbar1 - b_k*xbar2.
        G1 = q1 - s1
        a1 = u1 - q1 * o11
        b1 = v1 - q1 * o12
        G2 = q2 - s2
        a2 = u2 - q2 * o21
        b2 = v2 - q2 * o22
        g1 = gam1(t) - w1
        g2 = gam2(t) - w2
        return [
            2.0 * G1 * h1 - s1 * s1 - e1,
            2.0 * (a1 * h2 + a2 * h6) - u1 * u1 - e1 * o11 * o11,
            2.0 * (b2 * h3 + b1 * h6) - v1 * v1 - e1 * o12 * o12,
            (G1 + a1) * h4 + a2 * h5 - s1 * u1 - e1 * o11,
            (G1 + b2) * h5 + b1 * h4 - s1 * v1 - e1 * o12,
            (a1 + b2) * h6 + b1 * h2 + a2 * h3 - u1 * v1 - e1 * o11 * o12,
            G1 * h7 - g1 * h4 - g2 * h5 - s1 * w1,
            a1 * h8 + a2 * h9 - g1 * h2 - g2 * h6 - u1 * w1,
            b1 * h8 + b2 * h9 - g1 * h6 - g2 * h3 - v1 * w1,
            -g1 * h8 - g2 * h9 - 0.5 * w1 * w1
            - d1_own * h1 - d1_avg * h2 - d_cross * h6 - d2_avg * h3,
            2.0 * G2 * p1 - s2 * s2 - e2,
            2.0 * (a1 * p2 + a2 * p6) - u2 * u2 - e2 * o21 * o21,
            2.0 * (b2 * p3 + b1 * p6) - v2 * v2 - e2 * o22 * o22,
            (G2 + a1) * p4 + a2 * p5 - s2 * u2 - e2 * o21,
            (G2 + b2) * p5 + b1 * p4 - s2 * v2 - e2 * o22,
            (a1 + b2) * p6 + b1 * p2 + a2 * p3 - u2 * v2 - e2 * o21 * o22,
            G2 * p7 - g1 * p4 - g2 * p5 - s2 * w2,
            a1 * p8 + a2 * p9 - g1 * p2 - g2 * p6 - u2 * w2,
            b1 * p8 + b2 * p9 - g1 * p6 - g2 * p3 - v2 * w2,
            -g1 * p8 - g2 * p9 - 0.5 * w2 * w2
            - d1_avg * p2 - d_cross * p6 - d2_own * p1 - d2_avg * p3,
        ]

    pat1 = _quad_pattern(1.0, o11, o12)
    pat2 = _quad_pattern(1.0, o21, o22)
    terminal = np.array(
        [gp1.c * x for x in pat1] + [0.0] * 4
        + [gp2.c * x for x in pat2] + [0.0] * 4
    )
    return OdeSystem(rhs=rhs, terminal=terminal, labels=CLOSED_LABELS)


def limiting_system(vm: ValidatedMarket) -> OdeSystem:
    """The quadratic and cross coefficients of the closed-loop system in
    the limit of infinitely many banks per group at fixed weights.

    The linear and constant components decouple from these twelve and are
    dropped; the retained components correspond one-to-one to the first
    six of each closed-loop block.
    """
    (gp1, gp2) = vm.groups
    q1, q2 = gp1.q, gp2.q
    e1, e2 = gp1.eps_slack, gp2.eps_slack
    (o11, o12), (o21, o22) = tracking_offsets(vm).tolist()

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        h1, h2, h3, h4, h5, h6, p1, p2, p3, p4, p5, p6 = y
        a1 = -(h4 + q1 * o11)
        b1 = -(h5 + q1 * o12)
        a2 = -(p4 + q2 * o21)
        b2 = -(p5 + q2 * o22)
        return [
            2.0 * q1 * h1 + h1 * h1 - e1,
            2.0 * (a1 * h2 + a2 * h6) - h4 * h4 - e1 * o11 * o11,
            2.0 * (b2 * h3 + b1 * h6) - h5 * h5 - e1 * o12 * o12,
            (q1 + a1) * h4 + a2 * h5 - e1 * o11,
            (q1 + b2) * h5 + b1 * h4 - e1 * o12,
            (a1 + b2) * h6 + b1 * h2 + a2 * h3 - h4 * h5 - e1 * o11 * o12,
            2.0 * q2 * p1 + p1 * p1 - e2,
            2.0 * (a1 * p2 + a2 * p6) - p4 * p4 - e2 * o21 * o21,
            2.0 * (b2 * p3 + b1 * p6) - p5 * p5 - e2 * o22 * o22,
            (q2 + a1) * p4 + a2 * p5 - e2 * o21,
            (q2 + b2) * p5 + b1 * p4 - e2 * o22,
            (a1 + b2) * p6 + b1 * p2 + a2 * p3 - p4 * p5 - e2 * o21 * o22,
        ]

    pat1 = _quad_pattern(1.0, o11, o12)
    pat2 = _quad_pattern(1.0, o21, o22)
    terminal = np.array([gp1.c * x for x in pat1] + [gp2.c * x for x in pat2])
    return OdeSystem(rhs=rhs, terminal=terminal, labels=LIMITING_LABELS)


def open_loop_system(vm: ValidatedMarket) -> OdeSystem:
    """Adjoint coefficient system of the open-loop game for two groups.

    A group-k bank's adjoint process is -(1 - 1/N~_k) times the affine
    form etao1*(xbar_k - x) + etao2*xbar1 + etao3*xbar2 + etao4 (phio
    for group 2), where 1/N~_k = (1 - lam_k)/N_k + lam_k/N.
    """
    (gp1, gp2) = vm.groups
    i1, i2 = vm.inv_tilde_sizes()
    q1, q2 = gp1.q, gp2.q
    e1, e2 = gp1.eps_slack, gp2.eps_slack
    (o11, o12), (o21, o22) = tracking_offsets(vm).tolist()
    gam1, gam2 = gp1.gamma, gp2.gamma
    r1, r2 = 1.0 - i1, 1.0 - i2

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        h1, h2, h3, h4, p1, p2, p3, p4 = y
        # Mean-drift weights and intercepts of the two group averages
        # under the open-loop equilibrium controls.
        am1 = q1 * o11 + r1 * h2
        bm1 = q1 * o12 + r1 * h3
        am2 = q2 * o21 + r2 * p2
        bm2 = q2 * o22 + r2 * p3
        dr1 = gam1(t) + r1 * h4
        dr2 = gam2(t) + r2 * p4
        return [
            (2.0 - i1) * q1 * h1 + r1 * h1 * h1 - e1,
            q1 * r1 * h2 - h2 * am1 - h3 * am2 - e1 * o11,
            q1 * r1 * h3 - h2 * bm1 - h3 * bm2 - e1 * o12,
            q1 * r1 * h4 - h2 * dr1 - h3 * dr2,
            (2.0 - i2) * q2 * p1 + r2 * p1 * p1 - e2,
            q2 * r2 * p2 - p2 * am1 - p3 * am2 - e2 * o21,
            q2 * r2 * p3 - p2 * bm1 - p3 * bm2 - e2 * o22,
            q2 * r2 * p4 - p2 * dr1 - p3 * dr2,
        ]

    terminal = np.array([
        gp1.c, gp1.c * o11, gp1.c * o12, 0.0,
        gp2.c, gp2.c * o21, gp2.c * o22, 0.0,
    ])
    return OdeSystem(rhs=rhs, terminal=terminal, labels=OPEN_LABELS)


def mfg_system(vm: ValidatedMarket) -> OdeSystem:
    """Mean-field coefficient system for d groups.

    Components, in label order: the per-group scalar Riccati coefficients
    etam_k of the squared deviation from the own-group mean, the d x d
    mean-interaction matrix psim_k_h (row k gives how group k's value
    loads on each group mean), and the intercepts mum_k.
    """
    groups = vm.groups
    d = vm.d
    q = np.array([g.q for g in groups])
    e = np.array([g.eps_slack for g in groups])
    c = np.array([g.c for g in groups])
    gammas = [g.gamma for g in groups]
    off = tracking_offsets(vm)
    q_off = q[:, None] * off
    e_off = e[:, None] * off

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        y = np.array(y)
        eta = y[:d]
        psi = y[d : d + d * d].reshape(d, d)
        mu = y[d + d * d :]
        gam = np.array([g(t) for g in gammas])
        deta = 2.0 * q * eta + eta * eta - e
        dpsi = q[:, None] * psi - psi @ (psi + q_off) - e_off
        dmu = q * mu - psi @ (mu + gam)
        return np.concatenate([deta, dpsi.ravel(), dmu]).tolist()

    terminal = np.concatenate([c, (c[:, None] * off).ravel(), np.zeros(d)])
    return OdeSystem(rhs=rhs, terminal=terminal, labels=mfg_labels(d))


def _default_grid(vm: ValidatedMarket) -> TimeGrid:
    return TimeGrid(t_end=vm.horizon, n_steps=DEFAULT_STEPS)


def solve_closed_loop(
    market: MarketParams | ValidatedMarket, grid: TimeGrid | None = None
) -> CoefficientPath:
    """Solve the 20-equation closed-loop system on the given grid."""
    vm = validate(market, Mode.CLOSED_LOOP)
    return integrate_backward(closed_loop_system(vm), grid or _default_grid(vm))


def solve_limiting(
    market: MarketParams | ValidatedMarket, grid: TimeGrid | None = None
) -> CoefficientPath:
    """Solve the 12-equation limiting system on the given grid."""
    vm = validate(market, Mode.LIMITING)
    return integrate_backward(limiting_system(vm), grid or _default_grid(vm))


def solve_open_loop(
    market: MarketParams | ValidatedMarket, grid: TimeGrid | None = None
) -> CoefficientPath:
    """Solve the 8-equation open-loop adjoint system on the given grid."""
    vm = validate(market, Mode.OPEN_LOOP)
    return integrate_backward(open_loop_system(vm), grid or _default_grid(vm))


def solve_mfg(
    market: MarketParams | ValidatedMarket, grid: TimeGrid | None = None
) -> CoefficientPath:
    """Solve the mean-field system for any number of groups."""
    vm = validate(market, Mode.MFG)
    return integrate_backward(mfg_system(vm), grid or _default_grid(vm))
