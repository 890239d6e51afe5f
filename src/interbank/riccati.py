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

import contextlib
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import (
    MarketParams,
    Mode,
    StepFunction,
    TimeGrid,
    ValidatedMarket,
    noise_loadings,
    validate,
)

# Integration aborts once any coefficient magnitude passes this; the
# quadratic terms can reach -infinity in finite time outside the
# existence region.
BLOWUP_LIMIT = 1e12

# Largest array the package builds: a coefficient table, [steps + 1,
# components] doubles, or a stored simulation (see interbank.simulate);
# larger requests fail before they allocate.
MAX_ENSEMBLE_BYTES = 2**30

# Default number of Runge-Kutta steps when callers do not pass a grid.
DEFAULT_STEPS = 2000

_CHECK_ROWS = 256  # rows integrate_backward steps between blow-up checks

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


class LabelMismatch(KeyError, ValueError):
    """A coefficient path does not carry the labels its reader expects."""


class BlowUp(RuntimeError):
    """A coefficient left [-BLOWUP_LIMIT, BLOWUP_LIMIT] during integration,
    or a simulated state did during a simulation (``component`` None)."""

    def __init__(self, t: float, component: str | None = None):
        what = ("simulated state" if component is None
                else f"coefficient {component}")
        super().__init__(f"{what} blew up near t={t:g}")
        self.t = float(t)
        self.component = component

    @classmethod
    def check(cls, rows: np.ndarray, times: Sequence[float],
              labels: Sequence[str] | None = None) -> None:
        """Raise at the first of ``rows``, in stepping order, that holds a
        NaN or passes BLOWUP_LIMIT in magnitude, at its time ``times[j]``
        and, given ``labels`` for the last axis, its first such label."""
        # max and min allocate nothing, and a nan fails both comparisons.
        if rows.size and not (rows.max() <= BLOWUP_LIMIT
                              and rows.min() >= -BLOWUP_LIMIT):
            for row, t in zip(rows, times):
                bad = ~(np.abs(row) <= BLOWUP_LIMIT)
                if bad.any():
                    raise cls(t, None if labels is None
                              else labels[int(np.argmax(bad))])


@dataclass(frozen=True)
class OdeSystem:
    """A terminal-value ODE system dy/dt = rhs(t, y), y(T) = terminal.

    ``rhs`` takes the time and the state as a sequence of floats in label
    order and returns the derivative as a sequence of floats of the same
    length; the integrator passes plain Python lists and raises
    ``ValueError`` on a derivative of any other length.
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

    @staticmethod
    def check_size(grid: TimeGrid, columns: int, what: str,
                   fewer: str) -> None:
        """Refuse ``what``, ``columns`` doubles per node of ``grid``, above
        MAX_ENSEMBLE_BYTES, advising fewer ``fewer``, before it exists."""
        size = (grid.n_steps + 1) * columns * 8
        if size > MAX_ENSEMBLE_BYTES:
            raise ValueError(f"{what} would take {size / 2**30:.3g} GiB, "
                             f"above the {MAX_ENSEMBLE_BYTES / 2**30:g} GiB "
                             f"cap; use fewer {fewer}")

    @property
    def horizon(self) -> float:
        return self.grid.t_end

    def require_labels(self, expected: tuple[str, ...], what: str) -> None:
        """Raise :class:`LabelMismatch` unless the labels are ``expected``,
        those of the ``what`` system."""
        if self.labels != expected:
            raise LabelMismatch(
                f"path labels do not match the {what} system "
                f"(got {self.labels[:3]}... expected {expected[:3]}...)")

    def _index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no component labeled {label!r}") from None

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self._index(label)]

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
        return float(self.at(t)[self._index(label)])

    def write_csv(self, path: str | os.PathLike) -> None:
        """Write ``t`` plus one column per component, as :func:`csv_text`."""
        rows = np.column_stack([self.times, self.values]).tolist()
        atomic_write_text(path, csv_text(("t", *self.labels), rows))


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


def csv_text(header: Sequence[str], rows) -> str:
    """A header line and one line per row, newline-terminated: text fields
    as they are, numbers to 17 significant digits (exact for doubles)."""
    lines = [",".join(header)]
    lines += [",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row)
              for row in rows]
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def atomic_file(path: str | os.PathLike, mode: str):
    """A temporary file opened in ``mode`` that replaces ``path`` when the
    block completes and is removed if it fails, leaving no partial file.
    The file gets the permissions a plain ``open`` would give it under
    the process umask."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".tmp-")
    encoding = None if "b" in mode else "utf-8"
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            yield fh
        # mkstemp creates the file 0600; the umask can only be read by
        # setting it.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text so that a crash never leaves a partial file behind."""
    with atomic_file(path, "w") as fh:
        fh.write(text)


def _rk4_step_source(n: int) -> str:
    """Source of one classic RK4 step for n components, unrolled.

    ``step(rhs, t, h, nudge, y)`` unpacks the state into ``y<i>`` and the
    four stages into ``a<i>``, ``b<i>``, ``c<i>`` and ``d<i>``, and forms
    every stage argument and the update as a list literal.  Every name is
    built from ``range(n)`` alone; the only numbers are the method's own.
    """
    r = range(n)

    def unpack(p: str) -> str:
        return "[" + ", ".join(f"{p}{i}" for i in r) + "]"

    def stage(p: str, w: str) -> str:
        return "[" + ", ".join(f"y{i} + {w} * {p}{i}" for i in r) + "]"

    update = ", ".join(
        f"y{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})" for i in r)
    return "\n".join([
        "def step(rhs, t, h, nudge, y):",
        "    half = 0.5 * h",
        "    sixth = h / 6.0",
        f"    {unpack('y')} = y",
        f"    {unpack('a')} = rhs(t - nudge, y)",
        f"    {unpack('b')} = rhs(t + half, {stage('a', 'half')})",
        f"    {unpack('c')} = rhs(t + half, {stage('b', 'half')})",
        f"    {unpack('d')} = rhs(t + h + nudge, {stage('c', 'h')})",
        f"    return [{update}]",
    ]) + "\n"


# The RK4 step of each state dimension, compiled on first use.
_RK4_STEPS: dict[int, Callable] = {}


def integrate_backward(system: OdeSystem, grid: TimeGrid,
                       breaks: Sequence[float] = ()) -> CoefficientPath:
    """Integrate a terminal-value system from t = T down to t = 0.

    Classic fourth-order Runge-Kutta applied with the fixed step -dt
    (identical to forward RK4 on the time-reversed system); the global
    error is O(dt^4) for smooth right-hand sides.  The endpoint stages
    are evaluated a hair inside the step: the only explicit time
    dependence comes through the piecewise-constant forcing rates, so a
    rate jump on a grid node stays one-sided and costs no accuracy.  A
    step whose interior holds one of the rates' ``breaks`` is taken as
    two or more RK4 steps that meet at each break, with the same nudges,
    so a jump off the grid costs no accuracy either; every other step
    uses h = -dt exactly.  Each step is straight-line code generated
    for the system's dimension and compiled once per dimension: it
    unpacks the state and every stage into names and forms each stage
    argument and the update as a list of Python floats, with the
    operations of the equivalent array expression in the same order, so
    the results equal those of a numpy-array loop bit for bit.  The
    table is checked against BLOWUP_LIMIT every ``_CHECK_ROWS`` rows (and
    when the right-hand side raises), so a diverging solve stops early,
    and a component that left the window is reported at the first node
    where one did, as a check after each step would.

    Raises:
      BlowUp: if any component turned non-finite or exceeded BLOWUP_LIMIT
        in magnitude, reporting the first such node's time and its first
        offending label.
      ValueError: if the [steps + 1, components] table would pass
        ``MAX_ENSEMBLE_BYTES``, or if the right-hand side returns a
        different number of values than the system has components.
    """
    rhs = system.rhs
    n = len(system.labels)
    CoefficientPath.check_size(grid, n, "a coefficient table", "steps")
    if n not in _RK4_STEPS:
        namespace: dict = {}
        exec(compile(_rk4_step_source(n), f"<rk4_step n={n}>", "exec"),
             namespace)
        _RK4_STEPS[n] = namespace["step"]
    step = _RK4_STEPS[n]
    times = grid.times().tolist()
    values = np.empty((grid.n_steps + 1, n))
    values[-1] = system.terminal
    y = system.terminal.tolist()
    nudge = 1e-9 * grid.dt
    # Steps holding a break more than a nudge inside, keyed by their
    # upper node j, and every time they stop at, from t_j down.
    splits = {}
    for b in sorted(set(breaks), reverse=True):
        j = bisect_left(times, b)
        if 0 < j <= grid.n_steps and (
                times[j - 1] + nudge < b < times[j] - nudge):
            splits.setdefault(j, [times[j]]).append(b)

    h = -grid.dt
    try:
        for top in range(grid.n_steps, 0, -_CHECK_ROWS):
            for j in range(top, max(top - _CHECK_ROWS, 0), -1):
                if j in splits:
                    stops = splits[j] + [times[j - 1]]
                    for t, t_next in zip(stops, stops[1:]):
                        y = step(rhs, t, t_next - t, nudge, y)
                else:
                    y = step(rhs, times[j], h, nudge, y)
                values[j - 1] = y
            # Rows j - 1 .. top - 1, the highest (first integrated) first.
            BlowUp.check(values[j - 1 : top][::-1], times[j - 1 : top][::-1],
                         system.labels)
    except (ArithmeticError, ValueError):
        # Float math may fail (overflow, a zero division, a domain error)
        # only once it is fed a state that already left the window:
        # report that as the blow-up it is.
        BlowUp.check(values[j:top][::-1], times[j:top][::-1], system.labels)
        raise
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


def _rate(f: StepFunction) -> Callable[[float], float]:
    """A growth rate for a right-hand side to call: ``f`` itself, or for
    a constant ``f`` a function that returns its value with no search."""
    if f.breaks:
        return f
    value = f.values[0]
    return lambda t: value


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
    gam1, gam2 = _rate(gp1.gamma), _rate(gp2.gamma)
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
    # Products of market numbers (eoo<k><h><h'> = e_k*o_kh*o_kh'), each
    # the leading operand of the expression it stands in, so the
    # right-hand side's bits stay those of the expressions written out.
    m1, m2 = n1 - 1.0, n2 - 1.0
    qo11, qo12, qo21, qo22 = q1 * o11, q1 * o12, q2 * o21, q2 * o22
    eo11, eo12, eo21, eo22 = e1 * o11, e1 * o12, e2 * o21, e2 * o22
    eoo111, eoo122, eoo112 = eo11 * o11, eo12 * o12, eo11 * o12
    eoo211, eoo222, eoo212 = eo21 * o21, eo22 * o22, eo21 * o22

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        (h1, h2, h3, h4, h5, h6, h7, h8, h9, h10,
         p1, p2, p3, p4, p5, p6, p7, p8, p9, p10) = y
        # Own-gradient weights of a group-1 bank: the derivative of its
        # value function at its own coordinate is s1*(xbar1 - x) +
        # u1*xbar1 + v1*xbar2 + w1; likewise s2..w2 for group 2.
        s1 = m1 * h1 + n1 * h4
        u1 = m1 * h4 + n1 * h2
        v1 = m1 * h5 + n1 * h6
        w1 = m1 * h7 + n1 * h8
        s2 = m2 * p1 + n2 * p5
        u2 = m2 * p4 + n2 * p6
        v2 = m2 * p5 + n2 * p3
        w2 = m2 * p7 + n2 * p9
        # Equilibrium drift of a group-k bank: g_k + G_k*(xbar_k - x)
        # - a_k*xbar1 - b_k*xbar2.
        G1 = q1 - s1
        a1 = u1 - qo11
        b1 = v1 - qo12
        G2 = q2 - s2
        a2 = u2 - qo21
        b2 = v2 - qo22
        g1 = gam1(t) - w1
        g2 = gam2(t) - w2
        return [
            2.0 * G1 * h1 - s1 * s1 - e1,
            2.0 * (a1 * h2 + a2 * h6) - u1 * u1 - eoo111,
            2.0 * (b2 * h3 + b1 * h6) - v1 * v1 - eoo122,
            (G1 + a1) * h4 + a2 * h5 - s1 * u1 - eo11,
            (G1 + b2) * h5 + b1 * h4 - s1 * v1 - eo12,
            (a1 + b2) * h6 + b1 * h2 + a2 * h3 - u1 * v1 - eoo112,
            G1 * h7 - g1 * h4 - g2 * h5 - s1 * w1,
            a1 * h8 + a2 * h9 - g1 * h2 - g2 * h6 - u1 * w1,
            b1 * h8 + b2 * h9 - g1 * h6 - g2 * h3 - v1 * w1,
            -g1 * h8 - g2 * h9 - 0.5 * w1 * w1
            - d1_own * h1 - d1_avg * h2 - d_cross * h6 - d2_avg * h3,
            2.0 * G2 * p1 - s2 * s2 - e2,
            2.0 * (a1 * p2 + a2 * p6) - u2 * u2 - eoo211,
            2.0 * (b2 * p3 + b1 * p6) - v2 * v2 - eoo222,
            (G2 + a1) * p4 + a2 * p5 - s2 * u2 - eo21,
            (G2 + b2) * p5 + b1 * p4 - s2 * v2 - eo22,
            (a1 + b2) * p6 + b1 * p2 + a2 * p3 - u2 * v2 - eoo212,
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
    # Products of market numbers, formed as in the expressions they
    # stand in (see closed_loop_system).
    tq1, tq2 = 2.0 * q1, 2.0 * q2
    qo11, qo12, qo21, qo22 = q1 * o11, q1 * o12, q2 * o21, q2 * o22
    eo11, eo12, eo21, eo22 = e1 * o11, e1 * o12, e2 * o21, e2 * o22
    eoo111, eoo122, eoo112 = eo11 * o11, eo12 * o12, eo11 * o12
    eoo211, eoo222, eoo212 = eo21 * o21, eo22 * o22, eo21 * o22

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        h1, h2, h3, h4, h5, h6, p1, p2, p3, p4, p5, p6 = y
        a1 = -(h4 + qo11)
        b1 = -(h5 + qo12)
        a2 = -(p4 + qo21)
        b2 = -(p5 + qo22)
        return [
            tq1 * h1 + h1 * h1 - e1,
            2.0 * (a1 * h2 + a2 * h6) - h4 * h4 - eoo111,
            2.0 * (b2 * h3 + b1 * h6) - h5 * h5 - eoo122,
            (q1 + a1) * h4 + a2 * h5 - eo11,
            (q1 + b2) * h5 + b1 * h4 - eo12,
            (a1 + b2) * h6 + b1 * h2 + a2 * h3 - h4 * h5 - eoo112,
            tq2 * p1 + p1 * p1 - e2,
            2.0 * (a1 * p2 + a2 * p6) - p4 * p4 - eoo211,
            2.0 * (b2 * p3 + b1 * p6) - p5 * p5 - eoo222,
            (q2 + a1) * p4 + a2 * p5 - eo21,
            (q2 + b2) * p5 + b1 * p4 - eo22,
            (a1 + b2) * p6 + b1 * p2 + a2 * p3 - p4 * p5 - eoo212,
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
    gam1, gam2 = _rate(gp1.gamma), _rate(gp2.gamma)
    r1, r2 = 1.0 - i1, 1.0 - i2
    # Products of market numbers, formed as in the expressions they
    # stand in (see closed_loop_system).
    iq1, iq2 = (2.0 - i1) * q1, (2.0 - i2) * q2
    qr1, qr2 = q1 * r1, q2 * r2
    qo11, qo12, qo21, qo22 = q1 * o11, q1 * o12, q2 * o21, q2 * o22
    eo11, eo12, eo21, eo22 = e1 * o11, e1 * o12, e2 * o21, e2 * o22

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        h1, h2, h3, h4, p1, p2, p3, p4 = y
        # Mean-drift weights and intercepts of the two group averages
        # under the open-loop equilibrium controls.
        am1 = qo11 + r1 * h2
        bm1 = qo12 + r1 * h3
        am2 = qo21 + r2 * p2
        bm2 = qo22 + r2 * p3
        dr1 = gam1(t) + r1 * h4
        dr2 = gam2(t) + r2 * p4
        return [
            iq1 * h1 + r1 * h1 * h1 - e1,
            qr1 * h2 - h2 * am1 - h3 * am2 - eo11,
            qr1 * h3 - h2 * bm1 - h3 * bm2 - eo12,
            qr1 * h4 - h2 * dr1 - h3 * dr2,
            iq2 * p1 + r2 * p1 * p1 - e2,
            qr2 * p2 - p2 * am1 - p3 * am2 - eo21,
            qr2 * p3 - p2 * bm1 - p3 * bm2 - eo22,
            qr2 * p4 - p2 * dr1 - p3 * dr2,
        ]

    terminal = np.array([
        gp1.c, gp1.c * o11, gp1.c * o12, 0.0,
        gp2.c, gp2.c * o21, gp2.c * o22, 0.0,
    ])
    return OdeSystem(rhs=rhs, terminal=terminal, labels=OPEN_LABELS)


def _mfg_rhs_source(d: int) -> str:
    """Source of the mean-field right-hand side for d groups, unrolled.

    Every name is built from ``range(d)`` alone: ``a<k>``, ``p<k>_<h>`` and
    ``m<k>`` are the components, ``g<k>`` and ``c<j>_<h>`` the shifted
    means and interaction columns, and the market's numbers (``tq<k>``,
    ``q<k>``, ``e<k>``, ``qo<k>_<h>``, ``eo<k>_<h>``, ``gam<k>``) are
    globals bound by :func:`mfg_system`.  Each sum runs in index order.
    """
    r = range(d)
    state = ([f"a{k}" for k in r] + [f"p{k}_{h}" for k in r for h in r]
             + [f"m{k}" for k in r])
    out = [f"tq{k} * a{k} + a{k} * a{k} - e{k}" for k in r]
    out += [
        f"q{k} * p{k}_{h} - ({' + '.join(f'p{k}_{j} * c{j}_{h}' for j in r)})"
        f" - eo{k}_{h}"
        for k in r for h in r
    ]
    out += [f"q{k} * m{k} - ({' + '.join(f'p{k}_{j} * g{j}' for j in r)})"
            for k in r]
    lines = ["def rhs(t, y):", f"    {', '.join(state)} = y"]
    lines += [f"    g{k} = m{k} + gam{k}(t)" for k in r]
    lines += [f"    c{j}_{h} = p{j}_{h} + qo{j}_{h}" for j in r for h in r]
    lines += ["    return ["] + [f"        {x}," for x in out] + ["    ]"]
    return "\n".join(lines) + "\n"


def mfg_system(vm: ValidatedMarket) -> OdeSystem:
    """Mean-field coefficient system for d groups.

    Components, in label order: the per-group scalar Riccati coefficients
    etam_k of the squared deviation from the own-group mean, the d x d
    mean-interaction matrix psim_k_h (row k gives how group k's value
    loads on each group mean), and the intercepts mum_k.

    The right-hand side is straight-line code generated for this d and
    compiled once per market: deta_k = 2 q_k eta_k + eta_k^2 - e_k,
    dpsi = q psi - psi (psi + q off) - e off and dmu = q mu - psi (mu +
    gamma), row by row with every matrix product summed in index order.
    The market's numbers reach it through the namespace, never the text.
    """
    groups = vm.groups
    d = vm.d
    off = tracking_offsets(vm).tolist()
    namespace: dict = {}
    for k, g in enumerate(groups):
        e = g.eps_slack
        namespace.update({f"tq{k}": 2.0 * g.q, f"q{k}": g.q, f"e{k}": e,
                          f"gam{k}": _rate(g.gamma)})
        for h, o in enumerate(off[k]):
            namespace[f"qo{k}_{h}"] = g.q * o
            namespace[f"eo{k}_{h}"] = e * o
    exec(compile(_mfg_rhs_source(d), f"<mfg_system d={d}>", "exec"),
         namespace)
    terminal = ([g.c for g in groups]
                + [g.c * o for g, row in zip(groups, off) for o in row]
                + [0.0] * d)
    return OdeSystem(rhs=namespace["rhs"], terminal=terminal,
                     labels=mfg_labels(d))


def _default_grid(vm: ValidatedMarket) -> TimeGrid:
    return TimeGrid(t_end=vm.horizon, n_steps=DEFAULT_STEPS)


def _rate_breaks(vm: ValidatedMarket) -> tuple[float, ...]:
    """Every group's growth-rate jump times."""
    return tuple(b for g in vm.groups for b in g.gamma.breaks)


def solve_closed_loop(
    market: MarketParams | ValidatedMarket, grid: TimeGrid | None = None
) -> CoefficientPath:
    """Solve the 20-equation closed-loop system on the given grid."""
    vm = validate(market, Mode.CLOSED_LOOP)
    return integrate_backward(closed_loop_system(vm), grid or _default_grid(vm),
                              _rate_breaks(vm))


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
    return integrate_backward(open_loop_system(vm), grid or _default_grid(vm),
                              _rate_breaks(vm))


def solve_mfg(
    market: MarketParams | ValidatedMarket, grid: TimeGrid | None = None
) -> CoefficientPath:
    """Solve the mean-field system for any number of groups."""
    vm = validate(market, Mode.MFG)
    return integrate_backward(mfg_system(vm), grid or _default_grid(vm),
                              _rate_breaks(vm))
