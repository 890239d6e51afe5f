"""Three-layer noise generation and Euler-Maruyama simulation.

Each bank's diffusion mixes one global driver W0, one per-group driver Wk,
and one idiosyncratic driver, with loadings (rho, sqrt(1-rho^2)*rho_k,
sqrt(1-rho^2)*sqrt(1-rho_k^2)) that square-sum to one.  Only drivers
with a nonzero loading are drawn, and one small product mixes them in.

One Euler kernel steps every series.  Under an affine rule the
within-group gap terms sum to zero, so the group means follow a closed
d-dimensional equation, and a bank is its group mean plus a deviation
that decays at the gap gain.  The full simulator steps both; the
ensemble summary steps the means alone on the same per-bank stream, and
default probabilities and mean-field means step them on noise with one
slot per group, not one column per bank.

Randomness is keyed per path: path p draws its entire normal block from
its own generator seeded with (seed, p), so any partition of paths into
batches or threads reproduces the same numbers.  Products run path by
path (stacked or ``einsum``, never a 2-D BLAS call whose kernel depends
on the row count) and reductions over paths are integer counts or
fixed-order writes, so results are bit-identical for any batch size and
worker count.
"""

from __future__ import annotations

import collections
import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .equilibrium import FeedbackStrategy, default_strategy, feedback_mfg
from .model import (
    MarketParams,
    Mode,
    TimeGrid,
    ValidatedMarket,
    noise_loadings,
    validate,
)
from .riccati import BLOWUP_LIMIT, CoefficientPath

# Fixed number of paths per work unit.  Batch boundaries depend only on
# this constant, never on the worker count, so parallel schedules cannot
# reorder any floating-point reduction.
BATCH_PATHS = 512

# Largest array a closed-loop run stores: the per-bank ensemble, paths x
# banks x nodes doubles, or, when only the group means are kept, paths x d
# x nodes; larger requests fail before any draw.
MAX_ENSEMBLE_BYTES = 2**30

_UNIT_NORM_TOL = 1e-14
_MAX_SEED = 2**64


class SimulationBlowUp(RuntimeError):
    """A simulated state left [-BLOWUP_LIMIT, BLOWUP_LIMIT]."""

    def __init__(self, t: float):
        super().__init__(f"simulated state blew up near t={t:g}")
        self.t = t


@dataclass(frozen=True)
class NoiseSpec:
    """Correlation loadings plus the reproducibility contract (seed, n_paths)."""

    rho: float
    rho_k: tuple[float, ...]
    seed: int
    n_paths: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho_k", tuple(float(r) for r in self.rho_k))
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 bits")
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        for r in (self.rho, *self.rho_k):
            if not -1.0 <= r <= 1.0:
                raise ValueError("correlation loadings must lie in [-1, 1]")
        for rk in self.rho_k:
            c0, cg, ci = noise_loadings(self.rho, rk)
            if abs(c0 * c0 + cg * cg + ci * ci - 1.0) >= _UNIT_NORM_TOL:
                raise ValueError("noise loadings do not square-sum to one")

    @classmethod
    def from_market(cls, market: MarketParams | ValidatedMarket, seed: int,
                    n_paths: int) -> "NoiseSpec":
        groups = market.groups
        return cls(rho=market.rho, rho_k=tuple(g.rho_k for g in groups),
                   seed=seed, n_paths=n_paths)

    @property
    def d(self) -> int:
        return len(self.rho_k)


@dataclass(frozen=True)
class IncrementBatch:
    """Normal draws for a contiguous block of paths.

    ``increments`` [paths, n_steps, len(active) + columns] is the drawn
    block scaled by sqrt(dt): leading column i is driver ``active[i]``
    (0 global, k for group k of ``d``), then one idiosyncratic column per
    bank or group slot.  The ``drivers`` property expands the leading
    columns into a new [paths, n_steps, 1 + d] array, zero where a driver
    is not drawn; ``idiosyncratic`` is a view of the rest.  ``x0_normals``
    are unscaled standard normals reserved for initial-state sampling;
    they are drawn first so the stream layout never depends on whether X0
    is random.
    """

    start: int
    x0_normals: np.ndarray
    increments: np.ndarray
    active: tuple[int, ...]
    d: int

    @property
    def drivers(self) -> np.ndarray:
        out = np.zeros(self.increments.shape[:2] + (1 + self.d,))
        out[:, :, list(self.active)] = self.increments[:, :, :len(self.active)]
        return out

    @property
    def idiosyncratic(self) -> np.ndarray:
        return self.increments[:, :, len(self.active):]


def _active_driver_columns(spec: NoiseSpec) -> tuple[int, ...]:
    """Driver indices (0 global, k for group k) with a nonzero loading."""
    active = []
    if spec.rho != 0.0:
        active.append(0)
    if abs(spec.rho) < 1.0:
        active.extend(1 + k for k, r in enumerate(spec.rho_k) if r != 0.0)
    return tuple(active)


def generate_increments(spec: NoiseSpec, grid: TimeGrid,
                        n_banks_per_group: Sequence[int],
                        batch_paths: int = BATCH_PATHS
                        ) -> Iterator[IncrementBatch]:
    """Yield per-path driver and idiosyncratic increments in fixed batches.

    Path p's block is drawn from a PCG64 generator seeded
    SeedSequence((seed, p)): x0 normals first, then step-major rows (the
    active drivers in index order, one column per bank).  A driver whose
    loading vanishes for every group (rho == 0 for the global one,
    sqrt(1-rho^2)*rho_k == 0 for group k) can never reach a bank, so it
    draws no randomness and has no column; fully independent markets pay
    for exactly one normal per bank per step.  The layout depends
    only on (spec, grid, n_banks_per_group), so simulations of the group
    means alone reuse the identical driver columns.  Callers that step
    group means pass slot counts per group in place of bank counts.
    """
    sizes = tuple(int(n) for n in n_banks_per_group)
    if len(sizes) != spec.d:
        raise ValueError("one bank count per group is required")
    n_banks = sum(sizes)
    n_steps = grid.n_steps
    active = _active_driver_columns(spec)
    width = len(active) + n_banks
    root = math.sqrt(grid.dt)
    for start in range(0, spec.n_paths, batch_paths):
        count = min(batch_paths, spec.n_paths - start)
        x0 = np.empty((count, n_banks))
        block = np.empty((count, n_steps, width))
        for j in range(count):
            seq = np.random.SeedSequence(entropy=(spec.seed, start + j))
            rng = np.random.Generator(np.random.PCG64(seq))
            rng.standard_normal(out=x0[j])
            rng.standard_normal(out=block[j])
            block[j] *= root
        yield IncrementBatch(start=start, x0_normals=x0, increments=block,
                             active=active, d=spec.d)
        # The consumer is done with this batch: free it before the next
        # draw, so only one block is alive at a time.
        del x0, block


class TargetKind(enum.Enum):
    GLOBAL_AVERAGE = "global"
    GROUP_AVERAGE = "group"
    SINGLE_BANK = "bank"


@dataclass(frozen=True)
class DefaultSpec:
    """Default barrier on a log-capitalization statistic.

    ``level`` is the barrier D <= 0; the target selects which series is
    monitored against it.
    """

    level: float
    kind: TargetKind = TargetKind.GLOBAL_AVERAGE
    group: int | None = None
    bank: int | None = None

    def __post_init__(self) -> None:
        if not -math.inf < self.level <= 0.0:
            raise ValueError("default level must be finite and <= 0")
        if self.kind is not TargetKind.GLOBAL_AVERAGE and self.group is None:
            raise ValueError(f"{self.kind.value} target needs a group index")
        if self.kind is TargetKind.SINGLE_BANK and self.bank is None:
            raise ValueError("single-bank target needs a bank index")
        if any(i is not None and i < 0 for i in (self.group, self.bank)):
            raise ValueError("group and bank indices start at 0")

    def check_sizes(self, sizes: Sequence[int]) -> None:
        """Raise ValueError unless the target exists in a market whose
        groups hold ``sizes`` banks."""
        if (self.kind is not TargetKind.GLOBAL_AVERAGE
                and self.group >= len(sizes)):
            raise ValueError(f"target group {self.group + 1} out of range: "
                             f"the market has {len(sizes)} groups")
        if (self.kind is TargetKind.SINGLE_BANK
                and self.bank >= sizes[self.group]):
            raise ValueError(f"target bank {self.bank + 1} out of range: "
                             f"group {self.group + 1} has "
                             f"{sizes[self.group]} banks")

    @classmethod
    def global_average(cls, level: float) -> "DefaultSpec":
        return cls(level=level)

    @classmethod
    def group_average(cls, level: float, group: int) -> "DefaultSpec":
        return cls(level=level, kind=TargetKind.GROUP_AVERAGE, group=group)

    @classmethod
    def single_bank(cls, level: float, group: int, bank: int) -> "DefaultSpec":
        return cls(level=level, kind=TargetKind.SINGLE_BANK, group=group,
                   bank=bank)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Simulated bank paths [paths, banks, nodes] and what derives from them.

    ``group_averages`` [paths, d, nodes], ``global_average`` [paths, nodes],
    the start states ``x0`` (a view of ``states[:, :, 0]``) and ``times``
    are computed once, at construction, from ``states`` and ``group_index``.
    """

    grid: TimeGrid
    states: np.ndarray
    group_index: tuple[int, ...]
    group_averages: np.ndarray = field(init=False, repr=False)
    global_average: np.ndarray = field(init=False, repr=False)
    x0: np.ndarray = field(init=False, repr=False)
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_index", tuple(self.group_index))
        n_banks, n_nodes = self.states.shape[1:]
        if n_nodes != self.grid.n_steps + 1:
            raise ValueError("states do not match the grid")
        if len(self.group_index) != n_banks:
            raise ValueError("need one group index per bank")
        proj = _group_projector(self.group_index, max(self.group_index) + 1)
        states = self.states
        object.__setattr__(self, "group_averages",
                           np.einsum("kb,pbn->pkn", proj, states))
        object.__setattr__(self, "global_average", states.mean(axis=1))
        object.__setattr__(self, "x0", states[:, :, 0])
        object.__setattr__(self, "times", self.grid.times())

    @classmethod
    def from_states(cls, grid: TimeGrid, states: np.ndarray,
                    group_index: Sequence[int]) -> "TrajectoryEnsemble":
        return cls(grid=grid, states=states, group_index=group_index)

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_banks(self) -> int:
        return self.states.shape[1]

    @property
    def d(self) -> int:
        return self.group_averages.shape[1]


def _group_projector(group_index: Sequence[int], d: int) -> np.ndarray:
    proj = np.zeros((d, len(group_index)))
    for i, k in enumerate(group_index):
        proj[k, i] = 1.0
    return proj / proj.sum(axis=1, keepdims=True)


def _expand_x0(x0, sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-bank means and standard deviations of the initial states.

    Accepts a scalar, one entry per group, or per-group (mean, std) pairs
    for i.i.d. normal starts; a bare scalar entry means a degenerate start.
    """
    d = len(sizes)
    if np.isscalar(x0):
        per_group = [(float(x0), 0.0)] * d
    else:
        if len(x0) != d:
            raise ValueError(f"start states need one entry per group ({d})")
        per_group = [
            (float(e[0]), float(e[1])) if not np.isscalar(e) else (float(e), 0.0)
            for e in x0
        ]
    if not all(map(math.isfinite, np.ravel(per_group))):
        raise ValueError("start means and standard deviations must be finite")
    mean = np.concatenate([np.full(n, m) for n, (m, _) in zip(sizes, per_group)])
    std = np.concatenate([np.full(n, s) for n, (_, s) in zip(sizes, per_group)])
    if (std < 0.0).any():
        raise ValueError("start standard deviations must be nonnegative")
    return mean, std


def _strategy_tables(strategy: FeedbackStrategy, vm: ValidatedMarket,
                     grid: TimeGrid
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gap gains, averaging weights, and drift (intercept plus growth
    rate gamma_k) at the left node of each step."""
    if abs(strategy.horizon - grid.t_end) > 1e-9 * max(1.0, grid.t_end):
        raise ValueError("strategy horizon does not match the simulation grid")
    times = grid.times()[:grid.n_steps]
    gap, weights, inter = strategy.at(times)
    return gap, weights, inter + _growth_rates(vm, times)


def _growth_rates(vm: ValidatedMarket, times: np.ndarray) -> np.ndarray:
    """Every group's growth rate at ``times``, [times, d], looked up like
    :class:`~interbank.model.StepFunction` does: left-continuous."""
    return np.stack([np.asarray(g.gamma.values)[np.searchsorted(
        g.gamma.breaks, times, side="left")] for g in vm.groups], axis=1)


def _loadings(vm: ValidatedMarket, spec: NoiseSpec, groups: np.ndarray,
              idio=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Volatility-scaled [active drivers, columns] driver loadings and each
    column's own loading times ``idio``; column j is in group ``groups[j]``.
    The spec picks which drivers are drawn, so its correlations must be
    the market's."""
    if spec != NoiseSpec.from_market(vm, spec.seed, spec.n_paths):
        raise ValueError("noise spec correlations differ from the market's")
    sig = np.array([g.sigma for g in vm.groups])[groups]
    loads = sig[:, None] * np.array([noise_loadings(vm.rho, g.rho_k)
                                     for g in vm.groups])[groups]
    active = np.array(_active_driver_columns(spec), dtype=int)[:, None]
    driver = np.where(active == 0, loads[:, 0],
                      np.where(active == 1 + groups, loads[:, 1], 0.0))
    return driver, loads[:, 2] * idio


def _mixed_noise(batch: IncrementBatch, driver: np.ndarray,
                 own: np.ndarray) -> np.ndarray:
    """Per-column diffusion increments from the :func:`_loadings` pair,
    formed in the batch's idiosyncratic block: mix each batch only once."""
    noise = batch.idiosyncratic
    noise *= own
    if len(driver):
        noise += batch.increments[:, :, :len(driver)] @ driver
    return noise


def _run_batches(spec: NoiseSpec, grid: TimeGrid, sizes, worker,
                 jobs: int | None, batch_paths: int = BATCH_PATHS) -> Iterator:
    """``worker`` applied to every batch, yielded lazily in batch order.

    A batch is freed once its worker returns, so a serial run holds one
    noise block at a time provided the caller drops each result before it
    asks for the next; with ``jobs`` threads at most ``jobs`` batches are
    drawn and not yet consumed.
    """
    batches = generate_increments(spec, grid, sizes, batch_paths)
    if jobs is None or jobs <= 1:
        yield from map(worker, batches)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = collections.deque()
        for batch in batches:
            pending.append(pool.submit(worker, batch))
            if len(pending) == jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _euler_means(start: np.ndarray, weights: np.ndarray,
                 drift: np.ndarray | float, noise: np.ndarray,
                 grid: TimeGrid) -> np.ndarray:
    """Euler steps of the closed linear SDE that group means follow.

    m_{n+1} = m_n + (W_n m_n + b_n) dt + e_n for ``start`` [paths, s],
    ``weights`` W [n_steps, s, s], ``drift`` b [n_steps, s] (or 0) and
    increments ``noise`` e [paths, n_steps, s].  Weights of shape
    [n_steps, s] are the diagonal of W: a per-column decay.  Under any
    affine rule the gap terms sum to zero within a group, so group means
    obey this recursion exactly; so does each bank's deviation from its
    group mean, with diagonal W = -gap and b = 0.  Every carried series is
    checked against ``BLOWUP_LIMIT`` after each step.  Returns every
    series at every node, time-major: [n_steps + 1, paths, s].
    """
    dt = grid.dt
    times = grid.times()
    n_paths, n_steps, width = noise.shape
    wdt = weights * dt if weights.any() else None
    # Time-major: each step reads and writes contiguous rows.  Node n + 1
    # holds its increment until the step adds the state of node n to it.
    out = np.empty((n_steps + 1, n_paths, width))
    out[0] = start
    out[1:] = noise.transpose(1, 0, 2)
    if np.any(drift):
        out[1:] += (drift * dt)[:, None, :]
    for n in range(n_steps):
        m, nxt = out[n], out[n + 1]
        nxt += m
        if wdt is not None:
            nxt += (m * wdt[n] if wdt.ndim == 2
                    else np.einsum("ps,ts->pt", m, wdt[n]))
        if not np.abs(nxt).max() <= BLOWUP_LIMIT:
            raise SimulationBlowUp(float(times[n + 1]))
    return out


def simulate_closed_loop(market: MarketParams | ValidatedMarket,
                         strategy: FeedbackStrategy, X0, spec: NoiseSpec,
                         *, grid: TimeGrid | None = None,
                         jobs: int | None = None,
                         batch_paths: int = BATCH_PATHS) -> TrajectoryEnsemble:
    """Euler-Maruyama simulation of every bank under an affine feedback rule.

    Controls at step n are evaluated from the step-n group averages
    (explicit scheme); the per-bank diffusion increment is the unit-norm
    mixture of the global, group, and idiosyncratic drivers scaled by the
    group volatility.  Works for any strategy kind: mean-field strategies
    are applied with sample group averages in place of the means.

    Each bank is stepped as its group mean plus its deviation from it.
    The means follow the closed d-dimensional recursion of
    :func:`_euler_means` driven by the bank-averaged increments; each
    deviation decays at its group's gap gain and carries the bank's
    increment less its group's mean increment.  Both run on the same
    kernel, whose blow-up guard therefore watches the means and the
    deviations rather than their sums.  Start states are stored exactly.

    ``batch_paths`` trades memory for loop overhead and never changes the
    result: every path has its own seed-keyed stream.  Every path of
    every bank is kept, so an ensemble above ``MAX_ENSEMBLE_BYTES``
    raises ValueError.
    """
    return _simulate_group_means(market, strategy, X0, spec, grid=grid,
                                 jobs=jobs, batch_paths=batch_paths,
                                 keep_banks=True)[1]


def _simulate_group_means(market: MarketParams | ValidatedMarket,
                          strategy: FeedbackStrategy, X0, spec: NoiseSpec,
                          *, grid: TimeGrid | None = None,
                          jobs: int | None = None,
                          batch_paths: int = BATCH_PATHS,
                          keep_banks: bool = False
                          ) -> tuple[np.ndarray, TrajectoryEnsemble | None]:
    """The group means of :func:`simulate_closed_loop`'s kernel, time-major
    [n_steps + 1, paths, d], and with ``keep_banks`` its ensemble as well.

    The per-bank stream, generators and layout are those of the full
    simulation, but a group's mean increment is the drawn block times the
    group sums of the columns' loadings (average, then mix).  Without
    ``keep_banks`` no bank's increment or path is formed, and the cap
    ``MAX_ENSEMBLE_BYTES`` applies to the stored means instead of the
    ensemble.  The means do not depend on ``keep_banks``, ``batch_paths``
    or ``jobs``.
    """
    # MFG mode takes any group count; the simulators also need sizes.
    vm = validate(market, Mode.MFG)
    grid = grid or strategy.path.grid
    sizes = vm.group_sizes()
    stored, what = ((sum(sizes), "ensemble") if keep_banks
                    else (vm.d, "group means"))
    size = spec.n_paths * stored * (grid.n_steps + 1) * 8
    if size > MAX_ENSEMBLE_BYTES:
        raise ValueError(f"the {what} would take {size / 2**30:.3g} GiB, "
                         f"above the {MAX_ENSEMBLE_BYTES / 2**30:g} GiB cap; "
                         "use fewer paths or steps")
    group_index = np.repeat(np.arange(vm.d), sizes)
    members = [slice(a - n, a) for a, n in zip(np.cumsum(sizes), sizes)]
    driver, own = _loadings(vm, spec, group_index)
    gap_t, w_t, drift = _strategy_tables(strategy, vm, grid)
    decay = -gap_t[:, group_index]
    mean, std = _expand_x0(X0, sizes)
    proj = _group_projector(group_index, vm.d)
    # Average, then mix: each drawn column's loading on every group mean,
    # so one product turns a batch into the mean increments.
    mean_loads = np.vstack([driver @ proj.T, (proj * own).T])

    def worker(batch: IncrementBatch):
        x0 = mean + std * batch.x0_normals
        # Summed bank by bank in order, as the ensemble sums its stored
        # start states, so the start means equal its start averages bit
        # for bit whatever the batch size.
        m0 = np.stack([np.cumsum(x0[:, banks] * proj[k, banks],
                                 axis=1)[:, -1]
                       for k, banks in enumerate(members)], axis=1)
        mean_noise = batch.increments @ mean_loads
        means = _euler_means(m0, w_t, drift, mean_noise, grid)
        if not keep_banks:
            return batch.start, means, None
        # Every batch reaches exactly one worker, so its noise may be
        # mixed and overwritten in place.
        noise = _mixed_noise(batch, driver, own)
        for k, banks in enumerate(members):
            noise[:, :, banks] -= mean_noise[:, :, k : k + 1]
        states = _euler_means(x0 - m0[:, group_index], decay, 0.0, noise,
                              grid)
        for k, banks in enumerate(members):
            states[:, :, banks] += means[:, :, k : k + 1]
        states[0] = x0
        return batch.start, means, states

    n_nodes = grid.n_steps + 1
    all_means = np.empty((n_nodes, spec.n_paths, vm.d))
    all_states = (np.empty((spec.n_paths, len(group_index), n_nodes))
                  if keep_banks else None)
    for start, means, states in _run_batches(spec, grid, sizes, worker, jobs,
                                             batch_paths):
        stop = start + means.shape[1]
        all_means[:, start:stop] = means
        if keep_banks:
            all_states[start:stop] = states.transpose(1, 2, 0)
        # Free this batch's results before the next batch is drawn.
        del means, states
    ensemble = (TrajectoryEnsemble.from_states(grid, all_states, group_index)
                if keep_banks else None)
    return all_means, ensemble


def simulate_mfg_mean(market: MarketParams | ValidatedMarket,
                      mfg_path: CoefficientPath, spec: NoiseSpec,
                      *, m0=0.0, grid: TimeGrid | None = None,
                      n_banks_per_group: Sequence[int] | None = None,
                      jobs: int | None = None,
                      batch_paths: int = BATCH_PATHS) -> np.ndarray:
    """Conditional group means under the mean-field equilibrium.

    dm_k = (sum_h psi~_{k,h} m_h + mu_k + gamma_k) dt
           + sigma_k (rho dW0 + sqrt(1-rho^2) rho_k dWk),

    the group-mean recursion with the idiosyncratic term dropped
    (N_k = infinity), driven by the 1 + d common drivers only.  Passing
    the ``n_banks_per_group`` used by a finite simulation with the same
    spec and grid reproduces its exact driver increments, coupling the
    mean flow to the ensemble; the default draws no idiosyncratic columns.
    ``m0`` is the deterministic start: one mean, or one per group.

    Returns an array [n_paths, d, n_steps + 1].
    """
    vm = validate(market, Mode.MFG)
    d = vm.d
    strategy = feedback_mfg(mfg_path, vm)
    grid = grid or mfg_path.grid
    _, w_t, drift = _strategy_tables(strategy, vm, grid)
    if n_banks_per_group is None:
        n_banks_per_group = (0,) * d
    driver, _ = _loadings(vm, spec, np.arange(d))
    start_mean, spread = _expand_x0(m0, (1,) * d)
    if spread.any():
        raise ValueError("m0 is one start mean per group, with no spread")

    def worker(batch: IncrementBatch) -> tuple[int, np.ndarray]:
        noise = batch.increments[:, :, :len(driver)] @ driver
        means = _euler_means(start_mean, w_t, drift, noise, grid)
        return batch.start, means.transpose(1, 2, 0)

    out = np.empty((spec.n_paths, d, grid.n_steps + 1))
    for start, means in _run_batches(spec, grid, n_banks_per_group, worker,
                                     jobs, batch_paths):
        out[start : start + means.shape[0]] = means
    return out


def distance_process(ensemble: TrajectoryEnsemble) -> np.ndarray:
    """Per-path difference of the two group averages."""
    if ensemble.d != 2:
        raise ValueError("distance process is defined for two groups")
    return ensemble.group_averages[:, 0, :] - ensemble.group_averages[:, 1, :]


@dataclass(frozen=True)
class HittingEstimate:
    """Monte Carlo first-passage estimate with its binomial standard error."""

    probability: float
    stderr: float
    n_hits: int
    n_paths: int


def mc_hitting_probability(market: MarketParams | ValidatedMarket,
                           spec: NoiseSpec, default: DefaultSpec,
                           strategy: FeedbackStrategy | None = None,
                           *, x0=0.0, grid: TimeGrid | None = None,
                           jobs: int | None = None,
                           batch_paths: int = BATCH_PATHS) -> HittingEstimate:
    """Fraction of paths whose target series reaches the barrier by T.

    Only the group means are stepped: under an affine rule they follow a
    closed d-dimensional equation.  The noise is ``generate_increments(
    spec, grid, (1,) * d)``: per path d start normals and, per step, the
    active drivers plus one idiosyncratic slot per group, scaled by
    sigma_k c_i / sqrt(N_k).  A single-bank target adds a slot in its
    group for the bank's deviation y from the group mean,
    y_{n+1} = y_n (1 - gap_n dt) + sigma_k c_i sqrt((1 - 1/N_k) dt) Z',
    independent of the mean.  For one seed the draws differ from those of
    :func:`simulate_closed_loop`; the law of the estimate does not.

    The barrier is monitored at grid nodes only (t=0 included), so
    excursions below the level inside a step go unseen: the estimate is
    biased low relative to the continuously monitored probability by
    roughly the barrier shift 0.5826 * vol * sqrt(dt) of the monitored
    series.  The returned standard error is binomial.

    Without an explicit strategy the market plays
    :func:`~interbank.equilibrium.default_strategy`.
    """
    vm = validate(market, Mode.MFG)
    sizes = vm.group_sizes()
    if strategy is None:
        strategy = default_strategy(vm, grid)
    grid = grid or strategy.path.grid
    d = vm.d
    slots = [1] * d
    default.check_sizes(sizes)
    if default.kind is TargetKind.SINGLE_BANK:
        slots[default.group] = 2
    groups = np.repeat(np.arange(d), slots)
    means = np.cumsum([0] + slots[:-1])
    is_mean = np.isin(np.arange(len(groups)), means)
    n_k = np.array(sizes, dtype=float)[groups]
    scale = np.where(is_mean, 1.0 / np.sqrt(n_k), np.sqrt(1.0 - 1.0 / n_k))
    driver, own = _loadings(vm, spec, groups, scale)
    # A deviation slot carries no common noise.
    driver[:, ~is_mean] = 0.0
    mean, std = _expand_x0(x0, (1,) * d)
    start_loc = np.where(is_mean, mean[groups], 0.0)
    start_scale = std[groups] * scale

    gap_t, w_t, b_t = _strategy_tables(strategy, vm, grid)
    width = len(groups)
    weights = np.zeros((grid.n_steps, width, width))
    weights[:, means[:, None], means] = w_t
    drift = np.zeros((grid.n_steps, width))
    drift[:, means] = b_t
    # The monitored series as a linear form in the carried series.
    target = np.zeros(width)
    if default.kind is TargetKind.GLOBAL_AVERAGE:
        target[means] = vm.beta
    else:
        target[means[default.group]] = 1.0
    if default.kind is TargetKind.SINGLE_BANK:
        deviation = means[default.group] + 1
        weights[:, deviation, deviation] = -gap_t[:, default.group]
        target[deviation] = 1.0
    level = default.level

    def worker(batch: IncrementBatch) -> int:
        noise = _mixed_noise(batch, driver, own)
        start = start_loc + start_scale * batch.x0_normals
        carried = _euler_means(start, weights, drift, noise, grid)
        series = np.einsum("nps,s->np", carried, target)
        return int((series.min(axis=0) <= level).sum())

    hits = sum(_run_batches(spec, grid, slots, worker, jobs, batch_paths))
    p = hits / spec.n_paths
    stderr = math.sqrt(p * (1.0 - p) / spec.n_paths)
    return HittingEstimate(probability=p, stderr=stderr, n_hits=hits,
                           n_paths=spec.n_paths)
