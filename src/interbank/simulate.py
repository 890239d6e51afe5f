"""Three-layer noise generation and Euler-Maruyama simulation.

Each bank's diffusion mixes one global driver W0, one per-group driver Wk,
and one idiosyncratic driver, with loadings (rho, sqrt(1-rho^2)*rho_k,
sqrt(1-rho^2)*sqrt(1-rho_k^2)) that square-sum to one.

One Euler kernel steps every series.  Under an affine rule the
within-group gap terms sum to zero, so the group means follow a closed
d-dimensional equation, and a bank is its group mean plus a deviation
that decays at the gap gain.  Every run steps the means on one slot per
group, not one column per bank.  Only the slots' joint law matters, so
each draws one normal per step and the Cholesky factor of their step
covariance mixes them: d normals per step whatever the correlations.
Every group-mean run steps each batch's means in one batch pipeline,
on the caller's thread, and hands them to a reducer.  A batch is drawn
and stepped in windows of consecutive nodes of about 1 MiB, each
stepped on from the last row of the one before, so its memory does not
grow with the number of steps; an estimate keeps only each path's
running minimum between windows.  The full simulator stores those means
in every bank of their group and adds one column per bank for the
deviations, drawn and stepped in windows too, on worker threads if
asked; they carry the idiosyncratic noise alone, as the common drivers
move a group's banks alike and reach its mean only.

Randomness is keyed per unit of 64 paths: path p = 64 u + i draws
column i of numpy's ``PCG64(SeedSequence(seed)).jumped(u)`` stream
filled time-major as [nodes, 64, columns], and a bank run's deviations
column i of ``jumped(2**63 + u)``.  Columns a batch does not hold are
drawn and dropped, so any partition of paths into batches, windows or
threads reproduces the same numbers.  Distinct jump counts below 2**64
start about 2**62 or more draws apart.  Products run path by path
(stacked or ``einsum``, never a 2-D BLAS call whose kernel depends on
the row count) and reductions over paths are integer counts or
fixed-order writes, so results are bit-identical for any batch size,
window size and worker count.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .equilibrium import FeedbackStrategy, default_strategy
from .model import (
    MarketParams,
    Mode,
    TimeGrid,
    ValidatedMarket,
    noise_loadings,
    validate,
)
from .riccati import BlowUp, CoefficientPath

# Fixed number of paths per work unit.  Batch boundaries depend only on
# this constant, never on the worker count, so parallel schedules cannot
# reorder any floating-point reduction.
BATCH_PATHS = 512

# Paths that share one stream, bytes of a unit's rows filled per call,
# and rows of a block mixed per product, so no temporary is batch-sized.
_UNIT_PATHS = 64
_FILL_BYTES = 2**15
_MIX_ROWS = 32

# Bytes of draws a batch holds at a time: it is drawn and stepped in
# windows of consecutive nodes of at most this size, or of two rows where
# two rows are larger.
_WINDOW_BYTES = 2**20

# Paths whose bank deviations are drawn and stepped together, one unit:
# a window of them holds 102 nodes at 20 banks, not 512 paths' 12.
_BANK_PATHS = _UNIT_PATHS

_MAX_SEED = 2**64

# A bank run draws unit u's deviation columns from the stream jumped
# _BANK_KEY + u times, which no group-mean stream, jumped u times,
# reaches.
_BANK_KEY = 2**63

# numpy's PCG64 jump step, (phi - 1) 2**128, as in ``PCG64.jumped``:
# advancing a state by (key + u) times it gives ``jumped(key + u)``.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
_MASK_128 = 2**128 - 1


@dataclass(frozen=True)
class NoiseSpec:
    """Correlation loadings plus the reproducibility contract (seed, n_paths)."""

    rho: float
    rho_k: tuple[float, ...]
    seed: int
    n_paths: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho_k", tuple(float(r) for r in self.rho_k))
        for name in ("seed", "n_paths"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 bits")
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        for r in (self.rho, *self.rho_k):
            if not -1.0 <= r <= 1.0:
                raise ValueError("correlation loadings must lie in [-1, 1]")

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
    """Normal draws for a window of consecutive nodes of the contiguous
    paths ``start``, ``start`` + 1, ..., each its columns of its unit's
    stream (see :func:`generate_increments`).

    ``block`` [rows, paths, columns] is time-major, one column per bank
    or group slot, and holds nodes ``node`` .. ``node`` + rows - 1: row
    i holds node ``node`` + i's draws, the unscaled start normals at
    node 0 and step n's draws scaled by sqrt(dt) at node n + 1.  The
    block is a view of memory no other array refers to, or of the
    caller's ``out``; either way the consumer owns it and may step it in
    place.  ``x0_normals`` (row 0) [paths, columns] and ``increments``
    (or ``idiosyncratic``, the rows after it) [paths, rows - 1, columns]
    are path-major views of it, the start normals and the steps in a
    batch's first window.  No common driver is drawn, so ``drivers`` is
    a new zero array [paths, rows - 1, 1 + d]; it and ``idiosyncratic``
    remain for ``perfbench/tracing.py``, which reads them.
    """

    start: int
    block: np.ndarray
    d: int
    node: int = 0

    @property
    def x0_normals(self) -> np.ndarray:
        return self.block[0]

    @property
    def increments(self) -> np.ndarray:
        return self.block[1:].transpose(1, 0, 2)

    @property
    def drivers(self) -> np.ndarray:
        return np.zeros(self.increments.shape[:2] + (1 + self.d,))

    @property
    def idiosyncratic(self) -> np.ndarray:
        return self.increments


def _window_rows(paths: int, columns: int) -> int:
    """Rows of a window of ``paths`` paths and ``columns`` columns."""
    return max(2, _WINDOW_BYTES // (8 * paths * columns))


class _Streams:
    """Unit u's normals from numpy's ``PCG64(SeedSequence(seed))
    .jumped(key + u)``, filled time-major as [nodes, 64, columns]: path
    p = 64 u + i draws column i.

    One ``SeedSequence`` is built.  A batch keeps a generator per unit
    it overlaps (the pool grows to the most), set at its first window to
    the seeded state advanced by (key + u) jump steps, the state
    ``jumped`` gives; later windows continue each stream, as numpy's
    normals do not depend on how a request is split.  A unit is filled
    ``_FILL_BYTES`` (or a row) at a time into one scratch, whose batch's
    columns are copied into the block, the step rows scaled by sqrt(dt);
    the rest are dropped, so path p's draws depend on (seed, key, p).
    """

    def __init__(self, seed: int, key: int, grid: TimeGrid,
                 columns: int) -> None:
        self._seq = np.random.SeedSequence(seed)
        seeded = np.random.PCG64(self._seq)
        self._pool = [np.random.Generator(seeded)]
        self._base = seeded.state
        self._key = key
        self._root = math.sqrt(grid.dt)
        rows = max(1, _FILL_BYTES // (8 * _UNIT_PATHS * columns))
        self._scratch = np.empty((min(rows, grid.n_steps + 1), _UNIT_PATHS,
                                  columns))

    def draw(self, block: np.ndarray, start: int, node: int) -> None:
        """Fill ``block`` [rows, paths, columns] with nodes node .. node +
        rows - 1 of paths start, start + 1, ...; the rows of steps are
        scaled by sqrt(dt).  A batch's windows are drawn in node order
        from node 0, before the next batch's."""
        rows, count = block.shape[:2]
        units = range(start // _UNIT_PATHS,
                      (start + count - 1) // _UNIT_PATHS + 1)
        self._pool += [np.random.Generator(np.random.PCG64(self._seq))
                       for _ in range(len(units) - len(self._pool))]
        for rng, unit in zip(self._pool, units):
            # The unit's column j is the block's path offset + j.
            offset = unit * _UNIT_PATHS - start
            lo, hi = max(offset, 0), min(offset + _UNIT_PATHS, count)
            if node == 0:
                rng.bit_generator.state = self._base
                rng.bit_generator.advance((self._key + unit) * _JUMP
                                          & _MASK_128)
            for r0 in range(0, rows, len(self._scratch)):
                fill = self._scratch[:rows - r0]
                rng.standard_normal(out=fill)
                ours = fill[:, lo - offset : hi - offset]
                np.multiply(ours, self._root,
                            out=block[r0 : r0 + len(fill), lo:hi])
                if node == r0 == 0:
                    block[0, lo:hi] = ours[0]


def _batches(seed: int, key: int, n_paths: int, grid: TimeGrid,
             columns: int, d: int, out: np.ndarray | None = None,
             first: int = 0) -> Iterator[IncrementBatch]:
    """The windows of :func:`generate_increments`, ``columns`` wide, of
    paths ``first`` .. ``first`` + n_paths - 1 (``out`` holds them), with
    unit u's stream ``PCG64(SeedSequence(seed)).jumped(key + u)``: each
    batch's windows in node order, batch after batch."""
    nodes = grid.n_steps + 1
    if out is not None:
        shape = (nodes, n_paths, columns)
        if out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, not {shape}")
        if out.dtype != np.float64:
            raise ValueError(f"out has dtype {out.dtype}, not float64")
        if not out.flags.writeable:
            raise ValueError("out is read-only")
    draws = _Streams(seed, key, grid, columns)
    memory, lent = bytearray(), lambda: None
    for start in range(first, first + n_paths, BATCH_PATHS):
        count = min(BATCH_PATHS, first + n_paths - start)
        # A window of out costs no memory, so it spans the horizon.
        rows = nodes if out is not None else _window_rows(count, columns)
        for node in range(0, nodes, rows):
            if out is None:
                size = min(rows, nodes - node) * count * columns
                # The last window's memory is drawn into again once no
                # array refers to it: new memory costs a page fault per
                # 4 KiB written.  Every view of a window has the array
                # over the bytes as its base, so the reference to it dies
                # with the last view.
                if len(memory) < 8 * size or lent() is not None:
                    memory = bytearray(8 * min(rows, nodes) * count * columns)
                window = np.frombuffer(memory, count=size)
                lent = weakref.ref(window)
                block = window.reshape(-1, count, columns)
                del window
            else:
                block = out[node : node + rows,
                            start - first : start - first + count]
            draws.draw(block, start, node)
            yield IncrementBatch(start=start, block=block, d=d, node=node)
            # The consumer is done with this window: drop it, so that the
            # next window can be drawn into its memory.
            del block


def generate_increments(spec: NoiseSpec, grid: TimeGrid,
                        n_banks_per_group: Sequence[int],
                        out: np.ndarray | None = None
                        ) -> Iterator[IncrementBatch]:
    """Yield per-path start normals and increments, one column per bank
    or group slot, in batches of ``BATCH_PATHS`` paths, each as windows
    of consecutive nodes.

    Path p = 64 u + i takes column i of numpy's ``PCG64(SeedSequence
    (seed)).jumped(u)`` filled time-major as [nodes, 64, columns]: its
    start normals in the first row, then one row per step.  A batch of
    ``paths`` paths comes in windows of max(2, ``_WINDOW_BYTES`` // (8
    paths columns)) rows, at most 1 MiB unless two rows are larger, in
    node order; each continues every unit's stream where the last one
    stopped, and a unit's columns of paths outside the batch are drawn
    and dropped, so neither changes a draw.  The layout depends only on
    (grid, n_banks_per_group), never on the spec's correlations: the
    simulators mix the columns themselves.  ``BATCH_PATHS``, read at
    each call, only groups the paths.

    Without ``out`` a window is drawn into the last window's memory once
    no array refers to it, and into new memory otherwise.  With ``out``,
    a writeable float64 array [n_steps + 1, n_paths, columns], a batch is
    one window spanning the horizon, the view ``out[:, start:start +
    count]``, and no block is allocated; a wrong shape, dtype or a
    read-only ``out`` raises ValueError before any draw.  Beside its
    blocks, a call holds a scratch of ``_FILL_BYTES`` (or of one unit
    row) and a generator per unit of a batch.
    """
    sizes = tuple(int(n) for n in n_banks_per_group)
    if len(sizes) != spec.d:
        raise ValueError("one bank count per group is required")
    return _batches(spec.seed, 0, spec.n_paths, grid, sum(sizes), spec.d, out)


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
        for name in ("group", "bank"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 0:
                raise ValueError("group and bank indices start at 0")
            object.__setattr__(self, name, int(value))

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

    ``group_averages`` [paths, d, nodes] and ``global_average``
    [paths, nodes] are computed from ``states`` and ``group_index`` when
    first read and kept; ``x0`` (a view of ``states[:, :, 0]``) and
    ``times`` are computed on each read.  ``group_index`` holds one
    integer in 0 .. d - 1 per bank, and every group has a bank.
    """

    grid: TimeGrid
    states: np.ndarray
    group_index: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_index", tuple(self.group_index))
        n_banks, n_nodes = self.states.shape[1:]
        if n_nodes != self.grid.n_steps + 1:
            raise ValueError("states do not match the grid")
        if len(self.group_index) != n_banks:
            raise ValueError("need one group index per bank")
        if not all(isinstance(k, numbers.Integral) and k >= 0
                   for k in self.group_index):
            raise ValueError("group indices must be integers from 0")
        if set(self.group_index) != set(range(self.d)):
            raise ValueError(f"every group 0 .. {self.d - 1} needs a bank")

    @functools.cached_property
    def group_averages(self) -> np.ndarray:
        proj = _group_projector(self.group_index, self.d)
        return np.einsum("kb,pbn->pkn", proj, self.states)

    @functools.cached_property
    def global_average(self) -> np.ndarray:
        return self.states.mean(axis=1)

    @property
    def x0(self) -> np.ndarray:
        return self.states[:, :, 0]

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

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
        return int(max(self.group_index)) + 1


def _group_projector(group_index: Sequence[int], d: int) -> np.ndarray:
    proj = np.zeros((d, len(group_index)))
    for i, k in enumerate(group_index):
        proj[k, i] = 1.0
    return proj / proj.sum(axis=1, keepdims=True)


def _expand_x0(x0, sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-bank means and standard deviations of the initial states.

    Accepts a scalar or one entry per group, each a scalar or a (mean,
    std) pair for i.i.d. normal starts; a bare scalar means a degenerate
    start.  Any other entry raises ValueError.
    """
    d = len(sizes)
    entries = [x0] * d if np.isscalar(x0) else list(x0)
    if len(entries) != d:
        raise ValueError(f"start states need one entry per group ({d})")
    pairs = [(e, 0.0) if np.isscalar(e) else tuple(e) for e in entries]
    if not all(len(e) == 2 and all(map(np.isscalar, e)) for e in pairs):
        raise ValueError("each group's start must be a number or a (mean, "
                         "std) pair")
    per_group = [(float(m), float(s)) for m, s in pairs]
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
    return gap, weights, inter + np.stack([g.gamma.at(times)
                                           for g in vm.groups], axis=1)


def _loadings(vm: ValidatedMarket, groups: np.ndarray,
              idio=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Volatility-scaled [1 + d, columns] loadings on the global driver
    and the group drivers (row k for group k), and each column's own
    loading times ``idio``; column j is in group ``groups[j]``."""
    sig = np.array([g.sigma for g in vm.groups])[groups]
    loads = sig[:, None] * np.array([noise_loadings(vm.rho, g.rho_k)
                                     for g in vm.groups])[groups]
    driver = np.zeros((1 + vm.d, len(groups)))
    driver[0] = loads[:, 0]
    driver[1 + groups, np.arange(len(groups))] = loads[:, 1]
    return driver, loads[:, 2] * idio


def _check_jobs(jobs) -> None:
    """Raise ValueError unless ``jobs`` is None or an integer >= 1."""
    if jobs is not None and not (isinstance(jobs, numbers.Integral)
                                 and jobs >= 1):
        raise ValueError(f"jobs must be None or an integer >= 1, not {jobs!r}")


def _euler_means(series: np.ndarray, weights: np.ndarray,
                 drift: np.ndarray | float, grid: TimeGrid, node: int = 0,
                 prev: np.ndarray | None = None) -> np.ndarray:
    """Euler steps of the closed linear SDE that group means follow.

    m_{n+1} = m_n + (W_n m_n + b_n) dt + e_n for the time-major
    ``series`` [rows, paths, s] of nodes ``node`` .. ``node`` + rows - 1,
    which holds the increment e_n in the row of node n + 1 and, at node
    0, the start m_0 in row 0; after node 0 ``prev`` is the state at
    node ``node`` - 1.  ``weights`` W [n_steps, s, s] and ``drift`` b
    [n_steps, s] (or 0) cover the whole grid.  Weights of shape
    [n_steps, s] are the diagonal of W: a per-column decay.  Under any
    affine rule the gap terms sum to zero within a group, so group means
    obey this recursion exactly; so does each bank's deviation from its
    group mean, with diagonal W = -gap and b = 0.  The series is stepped
    in place, each row becoming its node's state, and returned.  Every
    stepped row is checked against the blow-up window once, after the
    last step; a series that left it raises
    :class:`~interbank.riccati.BlowUp` at the first node where any did,
    as a check after each step would.
    """
    dt = grid.dt
    first = 1 if prev is None else 0
    steps = slice(node + first - 1, node + len(series) - 1)
    wdt = weights[steps] * dt if weights.any() else None
    ddt = drift[steps] * dt if np.any(drift) else None
    # A state past the limit may overflow to inf or nan in later steps;
    # the check after the loop reports the first node it left at.
    with np.errstate(over="ignore", invalid="ignore"):
        m = series[0] if prev is None else prev
        for j, nxt in enumerate(series[first:]):
            if ddt is not None:
                nxt += ddt[j]
            nxt += m
            if wdt is not None:
                nxt += (m * wdt[j] if wdt.ndim == 2
                        else np.einsum("ps,ts->pt", m, wdt[j]))
            m = nxt
    BlowUp.check(series[first:],
                 grid.times()[node + first : node + len(series)])
    return series


def simulate_closed_loop(market: MarketParams | ValidatedMarket,
                         strategy: FeedbackStrategy, X0, spec: NoiseSpec,
                         *, grid: TimeGrid | None = None,
                         jobs: int | None = None) -> TrajectoryEnsemble:
    """Euler-Maruyama simulation of every bank under an affine feedback rule.

    Controls at step n are evaluated from the step-n group averages
    (explicit scheme); each bank's diffusion is the unit-norm mixture of
    the global, group, and idiosyncratic drivers scaled by the group
    volatility.  Works for any strategy kind: mean-field strategies are
    applied with sample group averages in place of the means.

    Each bank is stepped as its group mean plus its deviation from it.
    The group means are :func:`simulate_group_means`' for the same spec,
    which is called once and copied into every bank of each group.  The
    deviations are then added to them, ``_BANK_PATHS`` paths (one unit)
    at a time, one column per bank from unit u's stream jumped 2**63 + u
    times (see :func:`generate_increments`), in windows of at most
    ``_WINDOW_BYTES``: a start normal times std_k and step normals times
    sigma_k ci_k, less their group's mean of them, so that they sum to
    zero within a group; each then decays at its group's gap gain on the
    same kernel.  The deviations are drawn and stepped on the caller's
    thread, or with ``jobs`` > 1 on one pool of ``jobs`` worker threads;
    the result does not depend on ``jobs``.  The kernel's blow-up guard
    therefore watches the means and the deviations rather than their
    sums: every mean is stepped and checked before any deviation, and
    deviations fail in path order.  A bank's start state is its group's
    start mean plus its start deviation, and is stored exactly so.

    Every path of every bank is kept, so an ensemble above
    :meth:`~interbank.riccati.CoefficientPath.check_size`'s cap raises
    ValueError before any draw.
    """
    _check_jobs(jobs)
    # MFG mode takes any group count; the simulators also need sizes.
    vm = validate(market, Mode.MFG)
    grid = grid or strategy.path.grid
    sizes = vm.group_sizes()
    CoefficientPath.check_size(grid, spec.n_paths * sum(sizes),
                               "storing the bank paths", "paths or steps")
    group_index = np.repeat(np.arange(vm.d), sizes)
    members = [slice(a - n, a) for a, n in zip(np.cumsum(sizes), sizes)]
    own = _loadings(vm, group_index)[1]
    decay = -_strategy_tables(strategy, vm, grid)[0][:, group_index]
    std = _expand_x0(X0, sizes)[1]
    all_states = np.empty((spec.n_paths, len(group_index), grid.n_steps + 1))
    # Path-major, so that the copies read the means in memory order.
    means = simulate_group_means(vm, strategy, X0, spec,
                                 grid=grid).transpose(1, 2, 0).copy()
    for k, cols in enumerate(members):
        all_states[:, cols] = means[:, k, None]
    del means

    def banks(first: int) -> None:
        # The deviations are drawn, scaled, centred and stepped window by
        # window; each group's mean is summed bank by bank, so no batch,
        # window or path grouping changes its bits.
        for window in _batches(spec.seed, _BANK_KEY,
                               min(_BANK_PATHS, spec.n_paths - first), grid,
                               len(group_index), vm.d, first=first):
            dev, node, lo = window.block, window.node, window.start
            if node == 0:
                dev[0] *= std
            dev[1 if node == 0 else 0:] *= own
            for k, cols in enumerate(members):
                part = dev[:, :, cols]
                total = part[:, :, 0].copy()
                for j in range(1, sizes[k]):
                    total += part[:, :, j]
                part -= (total / sizes[k])[:, :, None]
            _euler_means(dev, decay, 0.0, grid, node, last if node else None)
            last = dev[-1].copy()
            all_states[lo : lo + dev.shape[1], :, node : node + len(dev)] += (
                dev.transpose(1, 2, 0))
            # Hold no view of the window: the next is drawn into its memory.
            del window, dev, part

    firsts = range(0, spec.n_paths, _BANK_PATHS)
    if jobs is None or jobs == 1:
        list(map(banks, firsts))
    else:
        # Results are read in path order, so deviations fail in it.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(banks, firsts))
    return TrajectoryEnsemble.from_states(grid, all_states, group_index)


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = ``cov`` for a positive semidefinite
    ``cov``.  A pivot at or below 1e-12 of its diagonal entry, where
    rounding leaves what is 0 in exact arithmetic, leaves its column zero,
    so the rank-deficient covariances of rho = +-1, rho_k = 1 or
    sigma_k = 0 factor where ``np.linalg.cholesky`` raises."""
    lower = np.zeros_like(cov)
    for j in range(len(cov)):
        pivot = cov[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot > 1e-12 * cov[j, j]:
            lower[j, j] = math.sqrt(pivot)
            below = cov[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]
            lower[j + 1:, j] = below / lower[j, j]
    return lower


def _mean_slots(vm: ValidatedMarket, bank_group: int | None = None):
    """The slots a group-mean run steps and the law of their increments.

    Group k's mean has one slot, with loadings sigma_k (c0, cg_k) on the
    global and group drivers and sigma_k ci_k / sqrt(N_k) on its own, and
    starts at mean_k + std_k / sqrt(N_k) Z.  With ``bank_group`` = g one
    more slot, right after group g's mean, carries a bank's deviation y
    from that mean, started at std_g sqrt(1 - 1/N_g) Z' and stepped as
    y_{n+1} = y_n (1 - gap_n dt) + sigma_g ci_g sqrt((1 - 1/N_g) dt) Z',
    independent of the means.  Returns each group's slot count, each
    slot's group, whether it is a mean, its scale (1 / sqrt(N_k) or
    sqrt(1 - 1/N_k)), and the per-unit-time covariance driver^T driver +
    diag(own^2) of the slot increments, over all d + 1 drivers: a driver
    no group loads adds nothing.
    """
    counts = [1] * vm.d
    if bank_group is not None:
        if not 0 <= bank_group < vm.d:
            raise ValueError(f"bank group {bank_group} not in 0 .. {vm.d - 1}")
        counts[bank_group] = 2
    groups = np.repeat(np.arange(vm.d), counts)
    is_mean = np.isin(np.arange(len(groups)), np.cumsum([0] + counts[:-1]))
    n_k = np.array(vm.group_sizes(), dtype=float)[groups]
    scale = np.where(is_mean, 1.0 / np.sqrt(n_k), np.sqrt(1.0 - 1.0 / n_k))
    driver, own = _loadings(vm, groups, scale)
    # A deviation slot carries no common noise.
    driver[:, ~is_mean] = 0.0
    cov = driver.T @ driver + np.diag(own**2)
    return counts, groups, is_mean, scale, cov


def mean_step_covariance(market: MarketParams | ValidatedMarket,
                         bank_group: int | None = None) -> np.ndarray:
    """Per-unit-time covariance [d, d] of the group means' increments: the
    matrix whose factor drives :func:`simulate_group_means`.  With
    ``bank_group`` = g, [d + 1, d + 1] with a group-g bank's deviation
    from its mean after m_g: common drivers cancel in it, so its row is
    zero off the diagonal, which is sigma_g^2 ci_g^2 (1 - 1/N_g).  A g
    outside 0 .. d - 1 raises ValueError."""
    return _mean_slots(validate(market, Mode.MFG), bank_group)[-1]


def _group_mean_batches(vm: ValidatedMarket, strategy: FeedbackStrategy, x0,
                        spec: NoiseSpec, grid: TimeGrid, reduce,
                        bank_group: int | None = None,
                        out: np.ndarray | None = None) -> Iterator:
    """``reduce(node, carried, state)`` of each window of each batch,
    yielded in order: the window's first node, its rows [rows, paths,
    slots] of the slots of :func:`_mean_slots`, mixed, started and
    stepped in place, and a dict that the batch's windows share, new at
    its first window, whose key "carried" the pipeline keeps.  With
    ``out`` [nodes, n_paths, slots] each batch is one window, its slice
    of it.  Each window is drawn and stepped on the caller's thread, and
    freed once its reducer returns if the caller drops each result.

    Only the slots' joint law matters, so each path draws one normal per
    slot and step and mixes them through the lower Cholesky factor L of
    the slots' covariance: the increments are Z L^T.  With no common
    driver the covariance is diag(own^2) and L is diag(own) exactly.
    Each window is stepped on from the last row of the one before.
    """
    # The noise law comes from the market, so a spec whose correlations
    # differ from the market's was built for another market.
    if spec != NoiseSpec.from_market(vm, spec.seed, spec.n_paths):
        raise ValueError("noise spec correlations differ from the market's")
    counts, groups, is_mean, scale, cov = _mean_slots(vm, bank_group)
    lower = _cholesky(cov)
    # Z L^T in place and element by element, last slot first: slot j
    # sums L[j, i] Z_i over i <= j, whose draws are intact.
    mixes = [(j, lower[j, j], [(i, lower[j, i])
                               for i in np.flatnonzero(lower[j, :j])])
             for j in reversed(range(len(lower)))]
    means = np.flatnonzero(is_mean)
    mean, std = _expand_x0(x0, (1,) * vm.d)
    start_loc = np.where(is_mean, mean[groups], 0.0)
    start_scale = std[groups] * scale

    gap_t, w_t, b_t = _strategy_tables(strategy, vm, grid)
    weights = np.zeros((grid.n_steps, len(groups), len(groups)))
    weights[:, means[:, None], means] = w_t
    drift = np.zeros((grid.n_steps, len(groups)))
    drift[:, means] = b_t
    if bank_group is not None:
        deviation = means[bank_group] + 1
        weights[:, deviation, deviation] = -gap_t[:, bank_group]

    def step(window: IncrementBatch, state: dict):
        series = window.block
        first = 1 if window.node == 0 else 0
        for lo in range(first, len(series), _MIX_ROWS):
            noise = series[lo : lo + _MIX_ROWS]
            for j, diagonal, below in mixes:
                noise[:, :, j] *= diagonal
                for i, weight in below:
                    noise[:, :, j] += weight * noise[:, :, i]
        if first:
            start = series[0]
            start *= start_scale
            start += start_loc
        _euler_means(series, weights, drift, grid, window.node,
                     state.get("carried"))
        state["carried"] = series[-1].copy()
        return reduce(window.node, series, state)

    for window in generate_increments(spec, grid, counts, out):
        if window.node == 0:
            state = {}
        result = step(window, state)
        del window
        yield result


def simulate_group_means(market: MarketParams | ValidatedMarket,
                         strategy: FeedbackStrategy, X0, spec: NoiseSpec,
                         *, grid: TimeGrid | None = None,
                         jobs: int | None = None) -> np.ndarray:
    """The group means of :func:`simulate_closed_loop`, time-major
    [n_steps + 1, paths, d].

    Under an affine rule the group means follow a closed d-dimensional
    equation, so they are stepped alone and the cost scales with d, not
    the number of banks.  Per path d start normals and d normals per
    step are drawn, ``generate_increments`` of the spec with (1,) * d
    slots; the step normals are mixed through the lower Cholesky factor
    of :func:`mean_step_covariance`, which without common noise is
    diag(sigma_k c_i / sqrt(N_k)).  :func:`simulate_closed_loop` steps
    the same slots for the same spec, so its group averages are these
    means up to the rounding of its per-bank sums.  The means are drawn
    and stepped on the caller's thread, whatever ``jobs`` is, and the
    result does not depend on the batching.  Means above
    :meth:`~interbank.riccati.CoefficientPath.check_size`'s cap raise
    ValueError before any draw.

    Each batch is drawn into, mixed and stepped in its slice of the
    returned array, as one window, so beside it a run holds no batch
    block and no generator per path: one scratch of ``_FILL_BYTES``
    while a batch is drawn, a generator per 64-path unit of a batch, and
    temporaries of at most ``_MIX_ROWS`` nodes.
    """
    _check_jobs(jobs)
    vm = validate(market, Mode.MFG)
    grid = grid or strategy.path.grid
    CoefficientPath.check_size(grid, spec.n_paths * vm.d,
                               "storing the group means", "paths or steps")
    out = np.empty((grid.n_steps + 1, spec.n_paths, vm.d))
    for _ in _group_mean_batches(vm, strategy, X0, spec, grid,
                                 lambda *window: None, out=out):
        pass
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
                           jobs: int | None = None) -> HittingEstimate:
    """Fraction of paths whose target series reaches the barrier by T.

    Only the group means are stepped, on the stream of
    :func:`simulate_group_means`: d normals per path and step.  A
    single-bank target adds a slot in its group, and one normal per step,
    for the bank's deviation from the group mean, which decays at the gap
    gain and is independent of the means.  For one seed a bank's
    deviation differs from its deviation in :func:`simulate_closed_loop`;
    the law of the estimate does not.

    The barrier is monitored at grid nodes only (t=0 included), so
    excursions below the level inside a step go unseen: the estimate is
    biased low relative to the continuously monitored probability by
    roughly the barrier shift 0.5826 * vol * sqrt(dt) of the monitored
    series.  The returned standard error is binomial.

    Without an explicit strategy the market plays
    :func:`~interbank.equilibrium.default_strategy`.  Each batch is
    drawn and stepped in windows of at most ``_WINDOW_BYTES``, on the
    caller's thread whatever ``jobs`` is, keeping only each path's
    running minimum between them.
    """
    _check_jobs(jobs)
    vm = validate(market, Mode.MFG)
    default.check_sizes(vm.group_sizes())
    if strategy is None:
        strategy = default_strategy(vm, grid)
    grid = grid or strategy.path.grid
    # The monitored series as a linear form in the carried series; every
    # slot before the target group's mean is a mean.
    bank = default.kind is TargetKind.SINGLE_BANK
    if default.kind is TargetKind.GLOBAL_AVERAGE:
        target = np.array(vm.beta)
    else:
        target = np.zeros(vm.d + bank)
        target[default.group : default.group + 1 + bank] = 1.0
    # Products with 0 and 1 are exact, so a 0/1 form (every group or bank
    # target, and a one-group market's average) is the plain sum of its
    # slots: the projection's series up to the sign of a zero, the same
    # hits, and no projection to form.
    unit = np.flatnonzero(target)
    if not (target[unit] == 1.0).all():
        unit = None

    nodes = grid.n_steps + 1

    def count(node: int, carried: np.ndarray, state) -> int:
        if unit is None:
            series = np.einsum("nps,s->np", carried, target)
        else:
            series = carried[:, :, unit[0]]
            for s in unit[1:]:
                series = series + carried[:, :, s]
        low = series.min(axis=0)
        if node:
            np.minimum(low, state["low"], out=low)
        state["low"] = low
        if node + len(carried) < nodes:
            return 0
        return int((low <= default.level).sum())

    hits = sum(_group_mean_batches(vm, strategy, x0, spec, grid, count,
                                   default.group if bank else None))
    p = hits / spec.n_paths
    stderr = math.sqrt(p * (1.0 - p) / spec.n_paths)
    return HittingEstimate(probability=p, stderr=stderr, n_hits=hits,
                           n_paths=spec.n_paths)
