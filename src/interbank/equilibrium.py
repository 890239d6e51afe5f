"""Affine feedback strategies assembled from solved coefficient paths.

Every equilibrium notion produces a control of the same affine shape for a
bank in group k:

    alpha = gap_gain_k(t) * (xbar_k - x) + sum_h avg_weights[k, h](t) * xbar_h
            + intercept_k(t)

The builders below sample the coefficient combinations on the path's grid
and fold every constant shift (the q_k * lam_k * (beta_h - delta_kh)
offsets of the tracked mixture) into ``avg_weights``, so a simulator only
ever sees one affine rule.  Strategies hold plain sampled arrays with
linear interpolation between nodes; they serialize exactly and never close
over solver state.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

import numpy as np

from .model import MarketParams, Mode, TimeGrid, ValidatedMarket, validate
from .riccati import (
    CLOSED_LABELS,
    LIMITING_LABELS,
    OPEN_LABELS,
    CoefficientPath,
    atomic_write_text,
    mfg_labels,
    solve_closed_loop,
    solve_mfg,
    tracking_offsets,
)


class LabelMismatch(KeyError):
    """The coefficient path does not carry the labels a builder expects."""


class OutOfHorizon(ValueError):
    """A strategy was evaluated outside its solved time range."""


class StrategyKind(enum.Enum):
    CLOSED_LOOP = "closed"
    OPEN_LOOP = "open"
    MFG = "mfg"


@dataclass(frozen=True)
class FeedbackStrategy:
    """Sampled affine feedback rule for d groups.

    gap_gain     [n_nodes, d]     coefficient on (own-group average - own state)
    avg_weights  [n_nodes, d, d]  row k: coefficients on each group average
    intercept    [n_nodes, d]
    """

    kind: StrategyKind
    grid: TimeGrid
    gap_gain: np.ndarray
    avg_weights: np.ndarray
    intercept: np.ndarray
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gap = np.asarray(self.gap_gain, dtype=float)
        weights = np.asarray(self.avg_weights, dtype=float)
        inter = np.asarray(self.intercept, dtype=float)
        nodes = self.grid.n_steps + 1
        d = gap.shape[1] if gap.ndim == 2 else -1
        if gap.shape != (nodes, d) or inter.shape != (nodes, d):
            raise ValueError("gap_gain and intercept must be [n_nodes, d]")
        if weights.shape != (nodes, d, d):
            raise ValueError("avg_weights must be [n_nodes, d, d]")
        for name, arr in (("gap_gain", gap), ("avg_weights", weights),
                          ("intercept", inter)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "gap_gain", gap)
        object.__setattr__(self, "avg_weights", weights)
        object.__setattr__(self, "intercept", inter)
        object.__setattr__(self, "times", self.grid.times())

    @property
    def d(self) -> int:
        return self.gap_gain.shape[1]

    @property
    def horizon(self) -> float:
        return self.grid.t_end

    def _locate(self, t: float) -> tuple[int, float]:
        t_end = self.grid.t_end
        tol = 1e-9 * max(1.0, t_end)
        if t < -tol or t > t_end + tol:
            raise OutOfHorizon(f"t={t:g} outside [0, {t_end:g}]")
        t = min(max(t, 0.0), t_end)
        j = min(int(t / self.grid.dt), self.grid.n_steps - 1)
        w = (t - self.times[j]) / self.grid.dt
        return j, w

    def gap_gain_at(self, t: float) -> np.ndarray:
        j, w = self._locate(t)
        return (1.0 - w) * self.gap_gain[j] + w * self.gap_gain[j + 1]

    def avg_weights_at(self, t: float) -> np.ndarray:
        j, w = self._locate(t)
        return (1.0 - w) * self.avg_weights[j] + w * self.avg_weights[j + 1]

    def intercept_at(self, t: float) -> np.ndarray:
        j, w = self._locate(t)
        return (1.0 - w) * self.intercept[j] + w * self.intercept[j + 1]

    def control(self, t: float, group_index: int, own_state: float,
                group_averages: np.ndarray) -> float:
        """Control of a group ``group_index`` bank at state ``own_state``."""
        averages = np.asarray(group_averages, dtype=float)
        if averages.shape != (self.d,):
            raise ValueError(f"need {self.d} group averages")
        gap = self.gap_gain_at(t)[group_index]
        weights = self.avg_weights_at(t)[group_index]
        inter = self.intercept_at(t)[group_index]
        own_avg = averages[group_index]
        return float(gap * (own_avg - own_state) + weights @ averages + inter)

    def write_csv(self, path: str | os.PathLike) -> None:
        """Write t, gap_k, w_k_h (row-major), int_k at 17 significant digits."""
        d = self.d
        header = (
            ["t"]
            + [f"gap_{k}" for k in range(1, d + 1)]
            + [f"w_{k}_{h}" for k in range(1, d + 1) for h in range(1, d + 1)]
            + [f"int_{k}" for k in range(1, d + 1)]
        )
        lines = [",".join(header)]
        for j, t in enumerate(self.times):
            row = np.concatenate(
                [[t], self.gap_gain[j], self.avg_weights[j].ravel(),
                 self.intercept[j]]
            )
            lines.append(",".join(f"{x:.17g}" for x in row))
        atomic_write_text(path, "\n".join(lines) + "\n")


def _require_labels(path: CoefficientPath, expected: tuple[str, ...],
                    what: str) -> None:
    if tuple(path.labels) != expected:
        raise LabelMismatch(
            f"path labels do not match the {what} system "
            f"(got {path.labels[:3]}... expected {expected[:3]}...)"
        )


def feedback_closed(path: CoefficientPath,
                    market: MarketParams | ValidatedMarket) -> FeedbackStrategy:
    """Feedback rule of the closed-loop equilibrium for two groups.

    Accepts either the 20-component finite-N path, combined with weights
    (1 - 1/N_k) and 1/N_k, or the 12-component limiting path, in which
    case the 1/N_k terms are absent and the linear intercepts are zero.
    """
    if tuple(path.labels) == LIMITING_LABELS:
        vm = validate(market, Mode.LIMITING)
        q1, q2 = (g.q for g in vm.groups)
        off = tracking_offsets(vm)
        col = path.column
        gap = np.stack([q1 + col("etahat1"), q2 + col("phihat1")], axis=1)
        weights = np.stack(
            [
                col("etahat4") + q1 * off[0, 0],
                col("etahat5") + q1 * off[0, 1],
                col("phihat4") + q2 * off[1, 0],
                col("phihat5") + q2 * off[1, 1],
            ],
            axis=1,
        ).reshape(-1, 2, 2)
        inter = np.zeros_like(gap)
        return FeedbackStrategy(StrategyKind.CLOSED_LOOP, path.grid,
                                gap, weights, inter)

    _require_labels(path, CLOSED_LABELS, "closed-loop")
    vm = validate(market, Mode.CLOSED_LOOP)
    n1, n2 = (1.0 / s for s in vm.group_sizes())
    q1, q2 = (g.q for g in vm.groups)
    off = tracking_offsets(vm)
    col = path.column
    # Tilde transforms: (1 - 1/N_k) times the own-gap component minus
    # 1/N_k times the paired component, plus the constant tracking shift.
    gap = np.stack(
        [
            q1 + (1.0 - n1) * col("eta1") - n1 * col("eta4"),
            q2 + (1.0 - n2) * col("phi1") - n2 * col("phi5"),
        ],
        axis=1,
    )
    weights = np.stack(
        [
            (1.0 - n1) * col("eta4") - n1 * col("eta2") + q1 * off[0, 0],
            (1.0 - n1) * col("eta5") - n1 * col("eta6") + q1 * off[0, 1],
            (1.0 - n2) * col("phi4") - n2 * col("phi6") + q2 * off[1, 0],
            (1.0 - n2) * col("phi5") - n2 * col("phi3") + q2 * off[1, 1],
        ],
        axis=1,
    ).reshape(-1, 2, 2)
    inter = np.stack(
        [
            (1.0 - n1) * col("eta7") - n1 * col("eta8"),
            (1.0 - n2) * col("phi7") - n2 * col("phi9"),
        ],
        axis=1,
    )
    return FeedbackStrategy(StrategyKind.CLOSED_LOOP, path.grid,
                            gap, weights, inter)


def feedback_open(path: CoefficientPath,
                  market: MarketParams | ValidatedMarket) -> FeedbackStrategy:
    """Feedback form of the open-loop equilibrium.

    The adjoint process of a group-k bank is an affine form in the state,
    and the equilibrium control is q_k times the tracking gap minus
    (1 - 1/N~_k) times that form, with 1/N~_k = (1 - lam_k)/N_k + lam_k/N.
    """
    _require_labels(path, OPEN_LABELS, "open-loop")
    vm = validate(market, Mode.OPEN_LOOP)
    i1, i2 = vm.inv_tilde_sizes()
    r1, r2 = 1.0 - i1, 1.0 - i2
    q1, q2 = (g.q for g in vm.groups)
    off = tracking_offsets(vm)
    col = path.column
    gap = np.stack(
        [q1 + r1 * col("etao1"), q2 + r2 * col("phio1")], axis=1
    )
    weights = np.stack(
        [
            r1 * col("etao2") + q1 * off[0, 0],
            r1 * col("etao3") + q1 * off[0, 1],
            r2 * col("phio2") + q2 * off[1, 0],
            r2 * col("phio3") + q2 * off[1, 1],
        ],
        axis=1,
    ).reshape(-1, 2, 2)
    inter = np.stack([r1 * col("etao4"), r2 * col("phio4")], axis=1)
    return FeedbackStrategy(StrategyKind.OPEN_LOOP, path.grid,
                            gap, weights, inter)


def feedback_mfg(path: CoefficientPath,
                 market: MarketParams | ValidatedMarket) -> FeedbackStrategy:
    """Feedback rule of the mean-field equilibrium for d groups.

    ``group_averages`` passed to :meth:`FeedbackStrategy.control` then play
    the role of the conditional group means.
    """
    vm = validate(market, Mode.MFG)
    d = vm.d
    _require_labels(path, mfg_labels(d), "mean-field")
    q = np.array([g.q for g in vm.groups])
    off = tracking_offsets(vm)
    col = path.column
    gap = np.stack(
        [q[k] + col(f"etam_{k + 1}") for k in range(d)], axis=1
    )
    weights = np.stack(
        [
            col(f"psim_{k + 1}_{h + 1}") + q[k] * off[k, h]
            for k in range(d)
            for h in range(d)
        ],
        axis=1,
    ).reshape(-1, d, d)
    inter = np.stack([col(f"mum_{k + 1}") for k in range(d)], axis=1)
    return FeedbackStrategy(StrategyKind.MFG, path.grid, gap, weights, inter)


def liquidity_rate(path: CoefficientPath,
                   market: MarketParams | ValidatedMarket) -> np.ndarray:
    """Lending/borrowing intensity of a first-group bank toward its group.

    Returns (1 - 1/N_1) * eta1 - (1/N_1) * eta4 sampled on ``path.times``,
    the coefficient on the gap to the own-group average in the closed-loop
    control once the averaging feedback of the bank's own state is folded
    in.
    """
    _require_labels(path, CLOSED_LABELS, "closed-loop")
    vm = validate(market, Mode.CLOSED_LOOP)
    n1 = 1.0 / vm.group_sizes()[0]
    return (1.0 - n1) * path.column("eta1") - n1 * path.column("eta4")


def default_strategy(market: MarketParams | ValidatedMarket,
                     grid: TimeGrid | None = None) -> FeedbackStrategy:
    """The rule a market plays unless told otherwise: the closed-loop rule
    for two groups, the mean-field rule applied at finite N for any other
    group count."""
    if len(market.groups) == 2:
        return feedback_closed(solve_closed_loop(market, grid), market)
    return feedback_mfg(solve_mfg(market, grid), market)
