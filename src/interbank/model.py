"""Model parameters and validation for the grouped interbank lending game.

Banks are partitioned into groups. Bank ``i`` of group ``k`` controls its
log-capitalization ``X_t`` through a borrowing/lending rate chosen to track
the relative ensemble average ``(1 - lambda_k) * xbar_k + lambda_k * xbar``,
a convex mixture of its own group average and the global average.  Each
group carries quadratic running and terminal tracking penalties, a
deterministic growth rate, and a three-layer noise loading (global, group,
idiosyncratic).

Everything here is immutable after construction; :func:`validate` performs
the standing-assumption checks and is the one place they live.
"""

from __future__ import annotations

import enum
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

BETA_SUM_TOL = 1e-12


def noise_loadings(rho: float, rho_k: float) -> tuple[float, float, float]:
    """Loadings of the global, group, and idiosyncratic Brownian drivers.

    A bank in a group with within-group loading ``rho_k`` is driven by
    ``common * W0 + group * Wk + own * B_i`` with independent standard
    drivers; the three loadings square-sum to one, so the combination is
    itself a standard Brownian motion.
    """
    common = rho
    group = math.sqrt(1.0 - rho * rho) * rho_k
    own = math.sqrt(max(0.0, (1.0 - rho * rho) * (1.0 - rho_k * rho_k)))
    return common, group, own


def _as_float(value):
    """A real number as a Python float; any other value as it is, for
    :func:`validate` to reject."""
    return float(value) if isinstance(value, numbers.Real) else value


class RejectedParams(ValueError):
    """Parameters violate a standing assumption of the model."""


class Mode(enum.Enum):
    """Which equilibrium notion a market is being validated for."""

    CLOSED_LOOP = "closed"
    OPEN_LOOP = "open"
    LIMITING = "limiting"
    MFG = "mfg"


# Modes whose coefficient systems are written for exactly two groups.
TWO_GROUP_MODES = frozenset({Mode.CLOSED_LOOP, Mode.OPEN_LOOP, Mode.LIMITING})

# Modes that need finite group sizes N_k (not just weights beta_k).
FINITE_PLAYER_MODES = frozenset({Mode.CLOSED_LOOP, Mode.OPEN_LOOP})


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant, left-continuous function of time.

    ``values[i]`` applies on the interval ``(breaks[i-1], breaks[i]]``;
    ``values[0]`` applies up to and including ``breaks[0]``, and the last
    value from ``breaks[-1]`` onward.  Left continuity means the lookup at
    a jump time returns the value in force just before the jump.  Real
    breaks and values are stored as Python floats.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("breaks", "values"):
            object.__setattr__(self, name,
                               tuple(map(_as_float, getattr(self, name))))
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("need exactly one more value than break points")
        if any(b >= a for a, b in zip(self.breaks[1:], self.breaks)):
            raise ValueError("break points must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls((), (float(value),))

    def __call__(self, t: float) -> float:
        return self.values[bisect_left(self.breaks, t)]

    def at(self, times) -> np.ndarray:
        """The value at each of ``times``, left-continuous as a call is."""
        return np.asarray(self.values)[
            np.searchsorted(self.breaks, times, side="left")]

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


def as_step_function(value: "StepFunction | float | int") -> StepFunction:
    """Coerce a plain number to a constant :class:`StepFunction`."""
    if isinstance(value, StepFunction):
        return value
    return StepFunction.constant(float(value))


@dataclass(frozen=True)
class GroupParams:
    """Per-group model constants.

    sigma    volatility (per sqrt(time)), >= 0
    q        incentive to borrow/lend toward the tracked average, > 0
    eps      quadratic running penalty, > 0, with q**2 <= eps (convexity)
    c        terminal penalty weight, >= 0
    lam      relative-consideration weight in [0, 1] mixing group vs
             global average
    rho_k    within-group noise correlation loading in [-1, 1]
    gamma    deterministic growth rate of log-capitalization
    n_banks  group size; may be None when only the limiting weight
             beta_k is relevant

    Real numbers are stored as Python floats and an integral n_banks, an
    integral float included, as a Python int, so the coefficient systems,
    which close over these numbers, run on float arithmetic whatever type
    the caller passed (numpy scalars, say).
    """

    sigma: float
    q: float
    eps: float
    c: float
    lam: float
    rho_k: float = 0.0
    gamma: StepFunction = StepFunction.constant(0.0)
    n_banks: int | None = None

    def __post_init__(self) -> None:
        for name in ("sigma", "q", "eps", "c", "lam", "rho_k"):
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        n = self.n_banks
        if isinstance(n, numbers.Integral) or (
                isinstance(n, numbers.Real) and float(n).is_integer()):
            object.__setattr__(self, "n_banks", int(n))
        object.__setattr__(self, "gamma", as_step_function(self.gamma))

    @property
    def eps_slack(self) -> float:
        """Convexity margin eps - q**2 (the source term of every system)."""
        return self.eps - self.q * self.q


@dataclass(frozen=True)
class MarketParams:
    """Cross-group constants: the group list plus global couplings.

    ``beta`` may be given directly for limiting/mean-field use; when every
    group carries ``n_banks`` the weights are derived as N_k / N instead
    and any explicit ``beta`` is ignored.  ``rho`` and ``horizon`` are
    stored as Python floats when they are real numbers.
    """

    rho: float
    horizon: float
    groups: tuple[GroupParams, ...]
    beta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _as_float(self.rho))
        object.__setattr__(self, "horizon", _as_float(self.horizon))
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.beta is not None:
            object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with n_steps intervals (n_steps + 1 nodes)."""

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if self.n_steps < 2:
            raise ValueError("need at least two steps")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


@dataclass(frozen=True)
class ValidatedMarket:
    """A market that passed :func:`validate`, with derived quantities attached."""

    market: MarketParams
    beta: tuple[float, ...]
    n_total: int | None
    warnings: tuple[str, ...]

    @property
    def groups(self) -> tuple[GroupParams, ...]:
        return self.market.groups

    @property
    def d(self) -> int:
        return len(self.market.groups)

    @property
    def rho(self) -> float:
        return self.market.rho

    @property
    def horizon(self) -> float:
        return self.market.horizon

    def group_sizes(self) -> tuple[int, ...]:
        if any(g.n_banks is None for g in self.groups):
            raise RejectedParams("group sizes n_banks are not set for this "
                                 "market")
        return tuple(g.n_banks for g in self.groups)  # type: ignore[misc]

    def inv_tilde_sizes(self) -> tuple[float, ...]:
        """Effective inverse sizes 1/N~_k = (1 - lam_k)/N_k + lam_k/N.

        These replace 1/N_k in the open-loop coefficient system and
        strategies; at lam_k = 1 they collapse to 1/N exactly.
        """
        sizes = self.group_sizes()
        n = float(sum(sizes))
        return tuple(
            (1.0 - g.lam) / nk + g.lam / n for g, nk in zip(self.groups, sizes)
        )


def mfg_terminal_threshold(groups: tuple[GroupParams, ...]) -> float:
    """Terminal weight that suffices for the mean-field system to exist.

    Every group's ``c`` at or above max over group pairs (k, h) of
    q_k * lam_k / lam_h - q_h suffices; it is not necessary.  Only
    meaningful when all lam_k > 0.
    """
    return max(
        gk.q * gk.lam / gh.lam - gh.q
        for gk in groups
        for gh in groups
    )


def validate(market: MarketParams | ValidatedMarket,
             mode: Mode) -> ValidatedMarket:
    """Check the standing assumptions and derive group weights.

    Every entry point of the package calls this on what it was given.  A
    :class:`ValidatedMarket` is re-validated from its ``.market`` for the
    requested mode, so a market checked for one mode never skips the checks
    of a stricter one.

    Args:
      market: raw parameters, or a market validated for any mode.
      mode: equilibrium notion the market will be used for; two-group
        systems require exactly two groups, finite-player modes require
        group sizes, limiting/mean-field modes require weights.

    Returns:
      A :class:`ValidatedMarket` carrying derived ``beta``, the total bank
      count when available, and a tuple of non-fatal warnings.

    Raises:
      RejectedParams: on q**2 > eps, lam outside [0, 1], sigma < 0,
        horizon <= 0, a non-finite sigma, q, eps, c, horizon or growth
        rate, a two-group mode with d != 2, or malformed sizes and weights.
    """
    if isinstance(market, ValidatedMarket):
        market = market.market
    groups = market.groups
    d = len(groups)
    if d < 1:
        raise RejectedParams("at least one group is required")
    if mode in TWO_GROUP_MODES and d != 2:
        got = ", ".join(f"group {k}" for k in range(1, d + 1))
        raise RejectedParams(
            f"{mode.value} mode is defined for exactly two groups, got {got}"
        )
    if not 0.0 < market.horizon < math.inf:
        raise RejectedParams("horizon must be positive and finite")
    if not -1.0 <= market.rho <= 1.0:
        raise RejectedParams("global correlation rho must lie in [-1, 1]")

    warnings: list[str] = []
    for k, g in enumerate(groups, start=1):
        numbers = (g.sigma, g.q, g.eps, g.c, *g.gamma.breaks, *g.gamma.values)
        if not all(map(math.isfinite, numbers)):
            raise RejectedParams(
                f"group {k}: sigma, q, eps, c and gamma must be finite")
        if g.sigma < 0.0:
            raise RejectedParams(f"group {k}: sigma must be nonnegative")
        if g.q <= 0.0:
            raise RejectedParams(f"group {k}: q must be positive")
        if g.eps <= 0.0:
            raise RejectedParams(f"group {k}: eps must be positive")
        if g.c < 0.0:
            raise RejectedParams(f"group {k}: c must be nonnegative")
        if g.q * g.q > g.eps:
            raise RejectedParams(
                f"group {k}: convexity requires q**2 <= eps "
                f"(q**2={g.q * g.q:g}, eps={g.eps:g})"
            )
        if not 0.0 <= g.lam <= 1.0:
            raise RejectedParams(f"group {k}: lam must lie in [0, 1]")
        if not -1.0 <= g.rho_k <= 1.0:
            raise RejectedParams(f"group {k}: rho_k must lie in [-1, 1]")
        if g.n_banks is not None and not (isinstance(g.n_banks, int)
                                          and g.n_banks >= 1):
            raise RejectedParams(
                f"group {k}: n_banks must be a positive whole number")
        if g.q * g.q == g.eps:
            warnings.append(
                f"group {k}: eps - q**2 == 0; degenerate case, the limiting "
                "positivity bounds are vacuous"
            )
        if g.lam == 0.0 or g.lam == 1.0:
            warnings.append(
                f"group {k}: lam == {g.lam:g} sits on the boundary; the "
                "limiting-system analysis assumes 0 < lam < 1"
            )

    unsized = [k for k, g in enumerate(groups, start=1) if g.n_banks is None]
    if mode in FINITE_PLAYER_MODES and unsized:
        raise RejectedParams(f"group {unsized[0]}: {mode.value} mode requires "
                             "n_banks for every group")

    n_total: int | None = None
    if not unsized:
        # Group sizes win over any explicitly supplied weights.
        n_total = sum(g.n_banks for g in groups)  # type: ignore[misc]
        beta = tuple(g.n_banks / n_total for g in groups)  # type: ignore[operator]
    elif market.beta is not None:
        if len(market.beta) != d:
            raise RejectedParams("beta must have one weight per group")
        if any(not 0.0 < b <= 1.0 for b in market.beta):
            raise RejectedParams("each beta_k must lie in (0, 1]")
        if abs(sum(market.beta) - 1.0) > BETA_SUM_TOL:
            raise RejectedParams("group weights beta must sum to 1")
        beta = market.beta
    else:
        raise RejectedParams(
            f"group {unsized[0]}: {mode.value} mode requires either n_banks "
            "or beta for every group"
        )
    assert abs(sum(beta) - 1.0) <= BETA_SUM_TOL

    if mode is Mode.MFG and all(g.lam > 0.0 for g in groups):
        threshold = mfg_terminal_threshold(groups)
        low = [k for k, g in enumerate(groups, start=1) if g.c < threshold]
        if low:
            warnings.append(
                f"groups {low}: terminal weight c below {threshold:g}, the "
                "sufficient (not necessary) level for the mean-field "
                "coefficient system to stay in its existence region"
            )

    return ValidatedMarket(
        market=market,
        beta=beta,
        n_total=n_total,
        warnings=tuple(warnings),
    )


def two_groups(
    *,
    rho: float = 0.0,
    horizon: float = 1.0,
    n1: int | None = None,
    n2: int | None = None,
    beta: tuple[float, float] | None = None,
    sigma: tuple[float, float] = (1.0, 1.0),
    q: tuple[float, float] = (2.0, 2.0),
    eps: tuple[float, float] = (5.0, 4.5),
    c: tuple[float, float] = (0.0, 0.0),
    lam: tuple[float, float] = (0.1, 0.5),
    rho_k: tuple[float, float] = (0.0, 0.0),
    gamma: tuple[StepFunction | float, StepFunction | float] = (0.0, 0.0),
) -> MarketParams:
    """Convenience constructor for the two-group market used throughout."""
    groups = tuple(
        GroupParams(
            sigma=sigma[k],
            q=q[k],
            eps=eps[k],
            c=c[k],
            lam=lam[k],
            rho_k=rho_k[k],
            gamma=as_step_function(gamma[k]),
            n_banks=(n1, n2)[k],
        )
        for k in range(2)
    )
    return MarketParams(rho=rho, horizon=horizon, groups=groups, beta=beta)
