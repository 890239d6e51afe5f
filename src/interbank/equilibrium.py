"""Affine feedback strategies assembled from solved coefficient paths.

Every equilibrium notion produces a control of the same affine shape for a
bank in group k:

    alpha = gap_gain_k(t) * (xbar_k - x) + sum_h avg_weights[k, h](t) * xbar_h
            + intercept_k(t)

The builders below sample the coefficient combinations on the path's grid
and fold every constant shift (the q_k * lam_k * (beta_h - delta_kh)
offsets of the tracked mixture) into ``avg_weights``, so a simulator only
ever sees one affine rule.  A strategy is itself a sampled coefficient
path, with the path's linear interpolation between nodes and its exact
CSV form; it never closes over solver state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketParams, Mode, TimeGrid, ValidatedMarket, validate
from .riccati import (
    CLOSED_LABELS,
    OPEN_LABELS,
    CoefficientPath,
    LabelMismatch,  # re-exported: every builder raises it through its path
    OutOfHorizon,  # re-exported: a strategy raises it through its path
    mfg_labels,
    solve_closed_loop,
    solve_mfg,
    tracking_offsets,
)


def _strategy_labels(d: int) -> tuple[str, ...]:
    return (tuple(f"gap_{k}" for k in range(1, d + 1))
            + tuple(f"w_{k}_{h}" for k in range(1, d + 1)
                    for h in range(1, d + 1))
            + tuple(f"int_{k}" for k in range(1, d + 1)))


@dataclass(frozen=True)
class FeedbackStrategy:
    """Sampled affine feedback rule for d groups.

    ``path`` carries the columns gap_k, w_k_h (row-major) and int_k; its
    ``write_csv`` writes the rule and :func:`~interbank.riccati.read_csv`
    reads it back.  Read-only views of its values:

    gap_gain     [n_nodes, d]     coefficient on (own-group average - own state)
    avg_weights  [n_nodes, d, d]  row k: coefficients on each group average
    intercept    [n_nodes, d]
    """

    path: CoefficientPath

    def __post_init__(self) -> None:
        if self.d < 1 or self.path.labels != _strategy_labels(self.d):
            raise ValueError("strategy columns must be gap_k, w_k_h, int_k "
                             "for k, h = 1..d")

    @property
    def d(self) -> int:
        return math.isqrt(len(self.path.labels) + 1) - 1

    @property
    def horizon(self) -> float:
        return self.path.horizon

    def _split(self, rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d = self.d
        parts = (rows[..., :d],
                 rows[..., d : d + d * d].reshape(rows.shape[:-1] + (d, d)),
                 rows[..., d + d * d :])
        for part in parts:
            part.flags.writeable = False
        return parts

    @property
    def gap_gain(self) -> np.ndarray:
        return self._split(self.path.values)[0]

    @property
    def avg_weights(self) -> np.ndarray:
        return self._split(self.path.values)[1]

    @property
    def intercept(self) -> np.ndarray:
        return self._split(self.path.values)[2]

    def at(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gap, weights, intercept) at time t, interpolated by the path;
        an array of times adds a leading axis to each."""
        return self._split(self.path.at(t))

    def control(self, t: float, group_index: int, own_state: float,
                group_averages: np.ndarray) -> float:
        """Control of a group ``group_index`` bank at state ``own_state``."""
        averages = np.asarray(group_averages, dtype=float)
        if averages.shape != (self.d,):
            raise ValueError(f"need {self.d} group averages")
        gap, weights, inter = self.at(t)
        own_avg = averages[group_index]
        return float(gap[group_index] * (own_avg - own_state)
                     + weights[group_index] @ averages + inter[group_index])


def _strategy(grid: TimeGrid, columns: list[np.ndarray]) -> FeedbackStrategy:
    """A strategy from its sampled columns, listed in label order."""
    d = math.isqrt(len(columns) + 1) - 1
    return FeedbackStrategy(CoefficientPath(
        grid, np.stack(columns, axis=1), _strategy_labels(d)))


def feedback_closed(path: CoefficientPath,
                    market: MarketParams | ValidatedMarket) -> FeedbackStrategy:
    """Feedback rule of the closed-loop equilibrium for two groups.

    Takes the 20-component finite-N path, combined with weights
    (1 - 1/N_k) and 1/N_k.  Its large-N limit, intercepts included, is
    the mean-field rule ``feedback_mfg(solve_mfg(market), market)``.
    """
    path.require_labels(CLOSED_LABELS, "closed-loop")
    vm = validate(market, Mode.CLOSED_LOOP)
    n1, n2 = (1.0 / s for s in vm.group_sizes())
    q1, q2 = (g.q for g in vm.groups)
    off = tracking_offsets(vm)
    col = path.column
    # Tilde transforms: (1 - 1/N_k) times the own-gap component minus
    # 1/N_k times the paired component, plus the constant tracking shift.
    return _strategy(path.grid, [
        q1 + (1.0 - n1) * col("eta1") - n1 * col("eta4"),
        q2 + (1.0 - n2) * col("phi1") - n2 * col("phi5"),
        (1.0 - n1) * col("eta4") - n1 * col("eta2") + q1 * off[0, 0],
        (1.0 - n1) * col("eta5") - n1 * col("eta6") + q1 * off[0, 1],
        (1.0 - n2) * col("phi4") - n2 * col("phi6") + q2 * off[1, 0],
        (1.0 - n2) * col("phi5") - n2 * col("phi3") + q2 * off[1, 1],
        (1.0 - n1) * col("eta7") - n1 * col("eta8"),
        (1.0 - n2) * col("phi7") - n2 * col("phi9"),
    ])


def feedback_open(path: CoefficientPath,
                  market: MarketParams | ValidatedMarket) -> FeedbackStrategy:
    """Feedback form of the open-loop equilibrium.

    The adjoint process of a group-k bank is an affine form in the state,
    and the equilibrium control is q_k times the tracking gap minus
    (1 - 1/N~_k) times that form, with 1/N~_k = (1 - lam_k)/N_k + lam_k/N.
    """
    path.require_labels(OPEN_LABELS, "open-loop")
    vm = validate(market, Mode.OPEN_LOOP)
    i1, i2 = vm.inv_tilde_sizes()
    r1, r2 = 1.0 - i1, 1.0 - i2
    q1, q2 = (g.q for g in vm.groups)
    off = tracking_offsets(vm)
    col = path.column
    return _strategy(path.grid, [
        q1 + r1 * col("etao1"),
        q2 + r2 * col("phio1"),
        r1 * col("etao2") + q1 * off[0, 0],
        r1 * col("etao3") + q1 * off[0, 1],
        r2 * col("phio2") + q2 * off[1, 0],
        r2 * col("phio3") + q2 * off[1, 1],
        r1 * col("etao4"),
        r2 * col("phio4"),
    ])


def feedback_mfg(path: CoefficientPath,
                 market: MarketParams | ValidatedMarket) -> FeedbackStrategy:
    """Feedback rule of the mean-field equilibrium for d groups.

    ``group_averages`` passed to :meth:`FeedbackStrategy.control` then play
    the role of the conditional group means.
    """
    vm = validate(market, Mode.MFG)
    d = vm.d
    path.require_labels(mfg_labels(d), "mean-field")
    q = np.array([g.q for g in vm.groups])
    off = tracking_offsets(vm)
    col = path.column
    groups = range(1, d + 1)
    return _strategy(path.grid,
                     [q[k - 1] + col(f"etam_{k}") for k in groups]
                     + [col(f"psim_{k}_{h}") + q[k - 1] * off[k - 1, h - 1]
                        for k in groups for h in groups]
                     + [col(f"mum_{k}") for k in groups])


def liquidity_rate(path: CoefficientPath,
                   market: MarketParams | ValidatedMarket) -> np.ndarray:
    """Lending/borrowing intensity of a first-group bank toward its group.

    Returns (1 - 1/N_1) * eta1 - (1/N_1) * eta4 sampled on ``path.times``,
    the coefficient on the gap to the own-group average in the closed-loop
    control once the averaging feedback of the bank's own state is folded
    in.
    """
    path.require_labels(CLOSED_LABELS, "closed-loop")
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
