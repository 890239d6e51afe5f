import dataclasses
import hashlib
import importlib.util
import math
import pathlib
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest

import _reference
from conftest import market_from_params

from interbank.equilibrium import feedback_closed, feedback_mfg, feedback_open
from interbank import simulate
from interbank.model import (
    GroupParams,
    MarketParams,
    Mode,
    StepFunction,
    TimeGrid,
    noise_loadings,
    two_groups,
    validate,
)
from interbank.riccati import (
    BLOWUP_LIMIT,
    MAX_ENSEMBLE_BYTES,
    BlowUp,
    solve_closed_loop,
    solve_mfg,
    solve_open_loop,
)
from interbank.simulate import (
    BATCH_PATHS,
    DefaultSpec,
    NoiseSpec,
    TargetKind,
    TrajectoryEnsemble,
    distance_process,
    generate_increments,
    mc_hitting_probability,
    mean_step_covariance,
    simulate_closed_loop,
    simulate_group_means,
    _euler_means,
)

GRID = TimeGrid(t_end=1.0, n_steps=500)


def closed_strategy(market, grid=GRID):
    return feedback_closed(solve_closed_loop(market, grid), market)


def _numpy_rng(seed, jumps):
    """numpy's own generator for the stream jumped ``jumps`` times."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed)).jumped(jumps))


@pytest.fixture
def seeded(monkeypatch):
    """The arguments of every ``np.random.PCG64`` built, in order: a draw
    builds one before it draws."""
    calls = []
    real = np.random.PCG64

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.random, "PCG64", counted)
    return calls


@pytest.fixture
def batch_starts(monkeypatch):
    """The first path of every batch the simulator draws, in draw order,
    so a test that sets ``simulate.BATCH_PATHS`` can see it take effect."""
    starts = []
    real = simulate.generate_increments

    def recording(*args):
        for batch in real(*args):
            starts.append(batch.start)
            yield batch
            # Hold no batch while the next one is drawn.
            del batch
    monkeypatch.setattr(simulate, "generate_increments", recording)
    return starts


def test_noise_spec_validation():
    NoiseSpec(rho=0.3, rho_k=(0.5, -0.2), seed=7, n_paths=10)
    with pytest.raises(ValueError):
        NoiseSpec(rho=1.2, rho_k=(0.0,), seed=0, n_paths=1)
    with pytest.raises(ValueError):
        NoiseSpec(rho=0.0, rho_k=(2.0,), seed=0, n_paths=1)
    with pytest.raises(ValueError):
        NoiseSpec(rho=0.0, rho_k=(0.0,), seed=-1, n_paths=1)
    with pytest.raises(ValueError):
        NoiseSpec(rho=0.0, rho_k=(0.0,), seed=2**64, n_paths=1)
    with pytest.raises(ValueError):
        NoiseSpec(rho=0.0, rho_k=(0.0,), seed=0, n_paths=0)
    # Seeds and path counts are integers: a float, even an integral one,
    # is refused where it is given, not deep inside a draw.
    for seed, n_paths in ((1.5, 1), (3.0, 1), ("3", 1), (0, 4.0), (0, 2.5),
                          (0, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            NoiseSpec(rho=0.0, rho_k=(0.0,), seed=seed, n_paths=n_paths)
    spec = NoiseSpec(rho=0.0, rho_k=(0.0,), seed=np.uint64(2**63),
                     n_paths=np.int64(4))
    assert type(spec.seed) is int and type(spec.n_paths) is int
    assert spec == NoiseSpec(rho=0.0, rho_k=(0.0,), seed=2**63, n_paths=4)
    spec = NoiseSpec.from_market(market_from_params("rich"), 3, 5)
    assert spec.rho == 0.4 and spec.rho_k == (0.3, 0.5) and spec.d == 2


def test_increments_deterministic_and_batch_invariant(monkeypatch):
    spec = NoiseSpec(rho=0.2, rho_k=(0.1, 0.4), seed=11, n_paths=23)
    grid = TimeGrid(t_end=1.0, n_steps=16)
    a = list(generate_increments(spec, grid, (2, 3)))
    b = list(generate_increments(spec, grid, (2, 3)))
    assert [x.start for x in a] == [0]
    assert np.array_equal(a[0].drivers, b[0].drivers)
    assert np.array_equal(a[0].idiosyncratic, b[0].idiosyncratic)
    assert np.array_equal(a[0].x0_normals, b[0].x0_normals)

    monkeypatch.setattr(simulate, "BATCH_PATHS", 7)
    small = list(generate_increments(spec, grid, (2, 3)))
    assert [x.start for x in small] == [0, 7, 14, 21]
    assert [len(x.x0_normals) for x in small] == [7, 7, 7, 2]
    joined = np.concatenate([x.increments for x in small])
    assert np.array_equal(joined, a[0].increments)


def test_increment_scaling_and_layout():
    spec = NoiseSpec(rho=0.5, rho_k=(0.4,), seed=1, n_paths=200)
    grid = TimeGrid(t_end=1.0, n_steps=100)
    (batch,) = generate_increments(spec, grid, (3,))
    assert batch.block.shape == (101, 200, 3)
    assert batch.drivers.shape == (200, 100, 2) and not batch.drivers.any()
    assert batch.idiosyncratic.shape == (200, 100, 3)
    assert abs(batch.increments.std() - np.sqrt(grid.dt)) < 0.01
    assert abs(batch.x0_normals.std() - 1.0) < 0.1


def test_zero_loading_drivers_draw_nothing():
    # No driver is drawn, whatever the loadings: the simulators mix the
    # columns themselves, so the block holds one column per bank or slot.
    spec = NoiseSpec(rho=0.0, rho_k=(0.0, 0.7), seed=1, n_paths=50)
    grid = TimeGrid(t_end=1.0, n_steps=40)
    (batch,) = generate_increments(spec, grid, (2, 2))
    assert batch.drivers.shape == (50, 40, 3) and not batch.drivers.any()
    assert batch.block.shape == (41, 50, 4)
    assert abs(batch.increments.std() - np.sqrt(grid.dt)) < 0.01
    # Path 0 reconstructed by hand: x0 normals first, then step rows of
    # four banks, scaled by sqrt(dt).
    rng = _numpy_rng(1, 0)
    x0 = rng.standard_normal(4)
    rows = rng.standard_normal((40, 4)) * np.sqrt(grid.dt)
    assert np.array_equal(batch.x0_normals[0], x0)
    assert np.array_equal(batch.idiosyncratic[0], rows)


@pytest.mark.parametrize("rho, rho_k", [(0.0, (0.0, 0.0)),
                                        (0.3, (0.0, 0.5))])
def test_streams_cross_tile_and_batch_edges(monkeypatch, rho, rho_k):
    # 23 paths make batches of 7, 7, 7 and 2, or one batch of tiles of
    # 8, 8 and 7: wherever a path falls, its start normals and step rows
    # are one draw of numpy's stream jumped p times, one column per bank
    # whatever the correlations, and no driver is drawn.  The bank runs'
    # deviation columns, jumped 2**63 + p times, are drawn the same way.
    spec = NoiseSpec(rho=rho, rho_k=rho_k, seed=2**40 + 17, n_paths=23)
    grid = TimeGrid(t_end=1.0, n_steps=9)
    width = 5
    draws = {0: lambda: generate_increments(spec, grid, (2, 3)),
             2**63: lambda: simulate._batches(spec.seed, 2**63, spec.n_paths,
                                              grid, width, spec.d)}
    for size in (7, BATCH_PATHS):
        monkeypatch.setattr(simulate, "BATCH_PATHS", size)
        for key, draw in draws.items():
            batches = list(draw())
            assert [b.start for b in batches] == list(range(0, 23, size))
            for b in batches:
                assert b.block.shape == (10, len(b.x0_normals), width)
                assert not b.drivers.any()
            x0 = np.concatenate([b.x0_normals for b in batches])
            increments = np.concatenate([b.increments for b in batches])
            for p in range(spec.n_paths):
                stream = _numpy_rng(spec.seed, key + p).standard_normal(
                    5 + grid.n_steps * width)
                assert np.array_equal(x0[p], stream[:5]), (size, key, p)
                rows = (stream[5:].reshape(grid.n_steps, width)
                        * np.sqrt(grid.dt))
                assert np.array_equal(increments[p], rows), (size, key, p)


@pytest.mark.parametrize("rho, rho_k", [(0.0, (0.0, 0.0)),
                                        (0.3, (0.0, 0.5))])
def test_increments_drawn_into_out(monkeypatch, rho, rho_k):
    # With out, every batch of 7 paths is its slice of out, holding the
    # bits a fresh draw yields, and out ends up holding every block.
    spec = NoiseSpec(rho=rho, rho_k=rho_k, seed=2**40 + 17, n_paths=23)
    grid = TimeGrid(t_end=1.0, n_steps=9)
    width = 5
    monkeypatch.setattr(simulate, "BATCH_PATHS", 7)
    fresh = [b.block for b in generate_increments(spec, grid, (2, 3))]
    out = np.full((10, 23, width), np.nan)
    starts = []
    for batch, want in zip(generate_increments(spec, grid, (2, 3), out),
                           fresh, strict=True):
        part = out[:, batch.start : batch.start + len(batch.x0_normals)]
        assert np.shares_memory(batch.block, part)
        assert batch.block.shape == part.shape == want.shape
        assert np.array_equal(batch.block, want)
        starts.append(batch.start)
    assert starts == [0, 7, 14, 21]
    assert np.array_equal(out, np.concatenate(fresh, axis=1))


@pytest.mark.parametrize("make_out", [
    lambda shape: np.empty(shape[:2] + (shape[2] + 1,)),
    lambda shape: np.empty((shape[0] - 1,) + shape[1:]),
    lambda shape: np.empty(shape, dtype=np.float32),
    lambda shape: np.empty(shape, dtype=">f8"),
    lambda shape: np.broadcast_to(0.0, shape),
], ids=["width", "nodes", "float32", "big-endian", "read-only"])
def test_bad_out_is_refused_before_any_draw(seeded, make_out):
    spec = NoiseSpec(rho=0.3, rho_k=(0.0, 0.5), seed=5, n_paths=23)
    grid = TimeGrid(t_end=1.0, n_steps=9)
    shape = (10, 23, 5)
    with pytest.raises(ValueError, match="out "):
        next(generate_increments(spec, grid, (2, 3), make_out(shape)))
    assert seeded == []


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 17, 2**63 + 5, 2**64 - 1)


def test_jump_step_is_numpys():
    # Advancing by k jump steps is numpy's jumped(k); a numpy release
    # that changed its jump step would fail here first.
    for k in (1, 2, 2**63 + 9):
        bits = np.random.PCG64(3)
        want = bits.jumped(k).state
        bits.advance(k * simulate._JUMP % 2**128)
        assert bits.state == want, k


@pytest.mark.parametrize("seed", SEEDS)
def test_path_states_equal_numpy_seeding(seed):
    # One-word and two-word seeds, group-mean and bank keys, and path
    # indices taken one at a time and as runs that cross a batch and a
    # 32-bit word boundary.  sqrt(dt) = 1/4, so unscaling is exact.
    grid = TimeGrid(t_end=1.0, n_steps=16)
    columns = 3

    def drawn(key, start, count):
        (batch,) = simulate._batches(seed, key + start, count, grid,
                                     columns, 1)
        return batch.x0_normals, batch.increments * 4.0

    for key in (0, simulate._BANK_KEY):
        for start, count in ((0, 1), (1, 1), (511, 1), (512, 1),
                             (2**32 - 1, 1), (2**32, 1), (509, 5),
                             (2**32 - 2, 5)):
            x0, rows = drawn(key, start, count)
            for i in range(count):
                rng = _numpy_rng(seed, key + start + i)
                assert np.array_equal(x0[i], rng.standard_normal(columns))
                assert np.array_equal(
                    rows[i], rng.standard_normal((grid.n_steps, columns))), (
                        key, start + i)


def test_increments_build_no_seed_sequence(monkeypatch):
    # Every path's stream is numpy's stream jumped p times, though one
    # SeedSequence per call, not one per path, is built to draw it.
    spec = NoiseSpec(rho=0.3, rho_k=(0.5,), seed=2**63 + 5, n_paths=5)
    grid = TimeGrid(t_end=1.0, n_steps=8)
    want = []
    for p in range(spec.n_paths):
        rng = _numpy_rng(spec.seed, p)
        want.append((rng.standard_normal(3),
                     rng.standard_normal((8, 3)) * np.sqrt(grid.dt)))
    calls = []
    real = np.random.SeedSequence

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.random, "SeedSequence", counted)
    monkeypatch.setattr(simulate, "BATCH_PATHS", 2)
    batches = list(generate_increments(spec, grid, (3,)))
    assert calls == [(spec.seed,)]
    assert [b.start for b in batches] == [0, 2, 4]
    x0 = np.concatenate([b.x0_normals for b in batches])
    increments = np.concatenate([b.increments for b in batches])
    for p, (start, rows) in enumerate(want):
        assert np.array_equal(x0[p], start)
        assert np.array_equal(increments[p], rows)


def test_bank_counts_need_one_entry_per_group():
    spec = NoiseSpec(rho=0.0, rho_k=(0.0, 0.0), seed=1, n_paths=2)
    grid = TimeGrid(t_end=1.0, n_steps=4)
    for sizes in ((2,), (2, 3, 1)):
        with pytest.raises(ValueError, match="one bank count per group"):
            generate_increments(spec, grid, sizes)


def test_independent_increments_are_uncorrelated():
    market = two_groups(n1=2, n2=2, rho=0.0, rho_k=(0.0, 0.0))
    spec = NoiseSpec.from_market(market, seed=5, n_paths=500)
    grid = TimeGrid(t_end=1.0, n_steps=200)
    # Drawn into out, the batch is one window over the whole horizon.
    out = np.empty((201, 500, 4))
    (batch,) = generate_increments(spec, grid, (2, 2), out)
    flat = batch.idiosyncratic.reshape(-1, 4)
    corr = np.corrcoef(flat, rowvar=False)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off_diag).max() < 3.0 / np.sqrt(flat.shape[0])


def _composite_correlations(rho, rho_k, sigma, seed=9):
    """Correlations and per-unit-time variances of four simulated banks'
    noise: each step's move less the drift of the explicit per-bank
    scheme."""
    market = two_groups(n1=2, n2=2, rho=rho, rho_k=rho_k, sigma=sigma)
    grid = TimeGrid(t_end=1.0, n_steps=200)
    strategy = closed_strategy(market, grid)
    spec = NoiseSpec.from_market(market, seed=seed, n_paths=500)
    x = simulate_closed_loop(market, strategy, 0.0, spec, grid=grid).states
    rate = _drift(market, strategy, grid)
    noise = np.stack([x[:, :, n + 1] - x[:, :, n] - rate(n, x[:, :, n])
                      * grid.dt for n in range(grid.n_steps)], axis=1)
    flat = noise.reshape(-1, 4)
    return np.corrcoef(flat, rowvar=False), flat.var(axis=0) / grid.dt


def test_within_group_correlation():
    # rho = 0, rho_1 = 0.6: same-group pairs correlate at
    # rho^2 + (1 - rho^2) rho_1^2 = 0.36, cross-group pairs at rho^2 = 0,
    # and each bank's noise has variance sigma_k^2 per unit time.
    corr, variance = _composite_correlations(0.0, (0.6, 0.0), (1.2, 0.8))
    tol = 0.02
    assert abs(corr[0, 1] - 0.36) < tol
    assert abs(corr[2, 3] - 0.0) < tol
    assert abs(corr[0, 2]) < tol and abs(corr[1, 3]) < tol
    assert np.abs(variance / np.repeat([1.44, 0.64], 2) - 1.0).max() < 0.03


def test_full_common_noise_keeps_equal_starts_together():
    # rho = 1 leaves a single driver; banks in one group share sigma and
    # loading, so equal starts give bitwise identical paths.
    market = two_groups(n1=2, n2=2, rho=1.0, sigma=(1.0, 0.5))
    spec = NoiseSpec.from_market(market, seed=2, n_paths=8)
    grid = TimeGrid(t_end=1.0, n_steps=50)
    strategy = closed_strategy(market, grid)
    ens = simulate_closed_loop(market, strategy, 0.0, spec, grid=grid)
    assert np.array_equal(ens.states[:, 0, :], ens.states[:, 1, :])
    assert np.array_equal(ens.states[:, 2, :], ens.states[:, 3, :])
    # The two groups still separate: their volatilities differ.
    assert np.abs(distance_process(ens)).max() > 0.0


def test_symmetric_fixed_point():
    # sigma = 0, gamma = 0, equal starts: controls vanish and states stay.
    market = two_groups(n1=4, n2=16, sigma=(0.0, 0.0))
    spec = NoiseSpec.from_market(market, seed=0, n_paths=3)
    strategy = closed_strategy(market)
    ens = simulate_closed_loop(market, strategy, 0.7, spec, grid=GRID)
    assert np.abs(ens.states - 0.7).max() < 1e-12


def test_deterministic_drift_single_group():
    groups = (GroupParams(sigma=0.0, q=2.0, eps=5.0, c=0.0, lam=0.0,
                          gamma=0.3, n_banks=4),)
    market = MarketParams(rho=0.0, horizon=1.0, groups=groups)
    strategy = feedback_mfg(solve_mfg(market, GRID), market)
    spec = NoiseSpec.from_market(market, seed=0, n_paths=2)
    ens = simulate_closed_loop(market, strategy, -0.2, spec, grid=GRID)
    assert np.abs(ens.states[:, :, -1] - (-0.2 + 0.3)).max() < 1e-12
    mid = np.abs(ens.states[:, :, 250] - (-0.2 + 0.15)).max()
    assert mid < 1e-12


def test_decoupled_group_average_is_noise_plus_growth():
    # At lam = 0 the within-group control terms cancel in the average, so
    # the group mean is exactly the accumulated growth plus mean noise.
    gamma1 = StepFunction(breaks=(0.5,), values=(0.4, -0.1))
    market = two_groups(n1=4, n2=16, lam=(0.0, 0.0), gamma=(gamma1, 0.2))
    spec = NoiseSpec.from_market(market, seed=21, n_paths=32)
    strategy = closed_strategy(market)
    ens = simulate_closed_loop(market, strategy, 0.0, spec, grid=GRID)

    # Group 1's mean slot loads sigma ci / sqrt(N_1) = 1/2 on its draws.
    (batch,) = generate_increments(spec, GRID, (1, 1))
    noise_mean = 0.5 * batch.increments[:, :, 0]
    steps = GRID.times()[:-1]
    growth = np.cumsum(np.array([gamma1(t) for t in steps]) * GRID.dt)
    want = np.concatenate(
        [np.zeros((32, 1)), growth + np.cumsum(noise_mean, axis=1)], axis=1)
    assert np.abs(ens.group_averages[:, 0, :] - want).max() < 1e-12


def test_x0_forms():
    market = two_groups(n1=2, n2=3)
    spec = NoiseSpec.from_market(market, seed=4, n_paths=10)
    grid = TimeGrid(t_end=1.0, n_steps=10)
    strategy = closed_strategy(market, grid)
    ens = simulate_closed_loop(market, strategy, (0.5, -0.5), spec, grid=grid)
    assert np.array_equal(ens.x0[:, :2], np.full((10, 2), 0.5))
    assert np.array_equal(ens.x0[:, 2:], np.full((10, 3), -0.5))

    ens = simulate_closed_loop(market, strategy, ((0.5, 0.2), -0.5), spec,
                               grid=grid)
    want = _bank_noise(market, spec, grid, ((0.5, 0.2), (-0.5, 0.0)))[0]
    assert np.array_equal(ens.x0[:, :2], want[:, :2])
    assert np.array_equal(ens.x0[:, 2:], np.full((10, 3), -0.5))
    with pytest.raises(ValueError):
        simulate_closed_loop(market, strategy, (0.0,), spec, grid=grid)
    with pytest.raises(ValueError):
        simulate_closed_loop(market, strategy, ((0.0, -1.0), 0.0), spec,
                             grid=grid)


def test_ensemble_checks_consistency():
    market = two_groups(n1=2, n2=2)
    spec = NoiseSpec.from_market(market, seed=1, n_paths=4)
    grid = TimeGrid(t_end=1.0, n_steps=8)
    ens = simulate_closed_loop(market, closed_strategy(market, grid), 0.0,
                               spec, grid=grid)
    with pytest.raises(ValueError, match="grid"):
        TrajectoryEnsemble(grid=ens.grid, states=ens.states[:, :, :-1],
                           group_index=ens.group_index)
    with pytest.raises(ValueError, match="group index"):
        TrajectoryEnsemble(grid=ens.grid, states=ens.states,
                           group_index=(0, 0, 1))
    # A negative or fractional index, or a group with no bank (whose
    # average would be 0/0), has no group average.
    for group_index, message in (((-1, 0), "integers from 0"),
                                 ((0, 1.5), "integers from 0"),
                                 ((0, 2), "needs a bank")):
        with pytest.raises(ValueError, match=message):
            TrajectoryEnsemble(grid=ens.grid, states=ens.states[:, :2],
                               group_index=group_index)
    again = TrajectoryEnsemble(grid=ens.grid, states=ens.states,
                               group_index=ens.group_index)
    assert np.array_equal(again.group_averages, ens.group_averages)
    assert np.array_equal(again.x0, ens.states[:, :, 0])


def test_ensemble_derives_its_averages_when_first_read():
    # A run that only writes states derives nothing; once read, the
    # averages are the projection and the mean the constructor used to form.
    market = two_groups(n1=2, n2=3, rho=0.3, rho_k=(0.5, 0.2))
    spec = NoiseSpec.from_market(market, seed=6, n_paths=8)
    grid = TimeGrid(t_end=1.0, n_steps=16)
    ens = simulate_closed_loop(market, closed_strategy(market, grid),
                               ((0.2, 0.1), -0.3), spec, grid=grid)
    assert "group_averages" not in ens.__dict__
    assert "global_average" not in ens.__dict__
    proj = np.array([[0.5, 0.5, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 1 / 3, 1 / 3, 1 / 3]])
    want = np.einsum("kb,pbn->pkn", proj, ens.states)
    assert np.array_equal(ens.group_averages, want)
    assert ens.group_averages is ens.group_averages
    assert np.array_equal(ens.global_average, ens.states.mean(axis=1))
    assert np.array_equal(ens.x0, ens.states[:, :, 0])
    assert np.array_equal(ens.times, grid.times())
    assert ens.d == 2


def test_growth_rates_follow_the_step_function():
    # Left continuity: at a break the rate in force before the jump holds.
    gamma = StepFunction(breaks=(0.25, 0.5, 0.5625), values=(0.3, -0.2, 1.0,
                                                              0.1))
    market = two_groups(n1=2, n2=3, gamma=(gamma, -0.4))
    vm = validate(market, Mode.MFG)
    times = TimeGrid(t_end=1.0, n_steps=16).times()
    assert {0.25, 0.5, 0.5625} <= set(times)
    got = np.stack([g.gamma.at(times) for g in vm.groups], axis=1)
    want = [[gamma(t), -0.4] for t in times]
    assert np.array_equal(got, want)


def test_default_spec_validation():
    for level in (0.5, np.nan, -np.inf):
        with pytest.raises(ValueError):
            DefaultSpec.global_average(level)
    with pytest.raises(ValueError):
        DefaultSpec(level=-1.0, kind=TargetKind.GROUP_AVERAGE)
    with pytest.raises(ValueError):
        DefaultSpec(level=-1.0, kind=TargetKind.SINGLE_BANK, group=0)
    DefaultSpec.single_bank(-1.0, 0, 1)
    DefaultSpec.single_bank(-1.0, 1, 2).check_sizes((4, 3))
    for spec in (DefaultSpec.group_average(-1.0, 2),
                 DefaultSpec.single_bank(-1.0, 0, 4)):
        with pytest.raises(ValueError, match="out of range"):
            spec.check_sizes((4, 3))
    # Indices are integers, refused where they are given rather than
    # when a slice is taken with them.
    for group, bank in ((1.5, 0), (1.0, 0), ("1", 0), (0, 2.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            DefaultSpec.single_bank(-1.0, group, bank)
    with pytest.raises(ValueError, match="must be an integer"):
        DefaultSpec.group_average(-1.0, 1.5)
    spec = DefaultSpec.single_bank(-1.0, np.int64(1), np.uint8(2))
    assert type(spec.group) is int and type(spec.bank) is int
    assert spec == DefaultSpec.single_bank(-1.0, 1, 2)


@pytest.mark.parametrize("group, bank", [(-1, None), (-1, 0), (0, -1)])
def test_default_spec_rejects_negative_indices(group, bank):
    kind = TargetKind.GROUP_AVERAGE if bank is None else TargetKind.SINGLE_BANK
    with pytest.raises(ValueError, match="start at 0"):
        DefaultSpec(level=-0.5, kind=kind, group=group, bank=bank)


@pytest.mark.parametrize("jobs", [1.5, 2.0, "2", 0, -3])
def test_jobs_is_none_or_a_positive_integer(jobs, seeded):
    # Each sampler refuses the worker count before it draws: a fraction
    # would never fill the window of pending batches, and 0 or less
    # would run serially as if the count were valid.
    market = two_groups(n1=2, n2=2)
    grid = TimeGrid(t_end=1.0, n_steps=8)
    strategy = closed_strategy(market, grid)
    spec = NoiseSpec.from_market(market, seed=1, n_paths=4)
    runs = (
        lambda j: simulate_closed_loop(market, strategy, 0.0, spec,
                                       grid=grid, jobs=j).states,
        lambda j: simulate_group_means(market, strategy, 0.0, spec,
                                       grid=grid, jobs=j),
        lambda j: mc_hitting_probability(
            market, spec, DefaultSpec.global_average(-0.1), strategy,
            grid=grid, jobs=j).n_hits)
    for run in runs:
        with pytest.raises(ValueError, match="jobs must be"):
            run(jobs)
    assert seeded == []
    for run in runs:
        assert np.array_equal(run(np.int64(2)), run(None))


def test_only_a_threaded_bank_run_starts_a_pool(monkeypatch):
    # Group-mean runs draw and step on the caller's thread whatever
    # ``jobs`` is; a bank run hands its deviations to one pool of ``jobs``
    # threads, and only when ``jobs`` > 1.
    market = two_groups(n1=2, n2=3)
    grid = TimeGrid(t_end=1.0, n_steps=8)
    strategy = closed_strategy(market, grid)
    spec = NoiseSpec.from_market(market, seed=1,
                                 n_paths=2 * simulate._BANK_PATHS + 3)
    real = simulate.ThreadPoolExecutor

    def refused(*args, **kwargs):
        raise AssertionError("a thread pool was started")
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", refused)
    simulate_group_means(market, strategy, 0.0, spec, grid=grid, jobs=2)
    for default in (DefaultSpec.global_average(-0.1),
                    DefaultSpec.single_bank(-0.1, 1, 2)):
        mc_hitting_probability(market, spec, default, strategy, grid=grid,
                               jobs=2)
    serial = simulate_closed_loop(market, strategy, 0.0, spec, grid=grid,
                                  jobs=1)

    pools = []

    def counted(*args, **kwargs):
        pool = real(*args, **kwargs)
        pools.append(pool._max_workers)
        return pool
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", counted)
    threaded = simulate_closed_loop(market, strategy, 0.0, spec, grid=grid,
                                    jobs=2)
    assert pools == [2]
    assert np.array_equal(threaded.states, serial.states)


@pytest.mark.parametrize("jobs", [0, 1.5, -3])
def test_estimate_refuses_jobs_before_it_solves(jobs, seeded, monkeypatch):
    # Without a strategy the estimate solves the mean-field system first;
    # a bad worker count is refused before that solve and any draw.
    solves = []
    real = simulate.default_strategy

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(simulate, "default_strategy", counted)
    market = two_groups(n1=2, n2=2)
    grid = TimeGrid(t_end=1.0, n_steps=8)
    spec = NoiseSpec.from_market(market, seed=1, n_paths=4)
    default = DefaultSpec.global_average(-0.1)
    with pytest.raises(ValueError, match="jobs must be"):
        mc_hitting_probability(market, spec, default, grid=grid, jobs=jobs)
    assert solves == [] and seeded == []
    mc_hitting_probability(market, spec, default, grid=grid, jobs=1)
    assert len(solves) == 1 and seeded


def test_symmetric_groups_have_zero_distance():
    market = two_groups(n1=3, n2=3, rho=1.0, sigma=(1.0, 1.0),
                        eps=(5.0, 5.0), lam=(0.3, 0.3))
    spec = NoiseSpec.from_market(market, seed=6, n_paths=16)
    ens = simulate_closed_loop(market, closed_strategy(market), 0.3, spec,
                               grid=GRID)
    assert np.abs(distance_process(ens)).max() < 1e-12


def test_distance_contracts_over_time():
    market = two_groups(n1=50, n2=50, rho=0.0, horizon=5.0)
    grid = TimeGrid(t_end=5.0, n_steps=500)
    spec = NoiseSpec.from_market(market, seed=12, n_paths=64)
    strategy = closed_strategy(market, grid)
    ens = simulate_closed_loop(market, strategy, (0.5, -0.5), spec, grid=grid)
    dist = np.abs(distance_process(ens))
    early = dist[:, 100].mean()  # t = 1
    late = dist[:, -1].mean()  # t = 5
    assert late < early


def test_common_noise_widens_distance():
    kw = dict(n1=25, n2=25, sigma=(1.5, 0.5))
    spec_kw = dict(seed=3, n_paths=512)
    var = {}
    for rho in (0.0, 1.0):
        market = two_groups(rho=rho, **kw)
        spec = NoiseSpec.from_market(market, **spec_kw)
        ens = simulate_closed_loop(market, closed_strategy(market), 0.0,
                                   spec, grid=GRID)
        var[rho] = distance_process(ens)[:, -1].var()
    assert var[1.0] > 2.0 * var[0.0]


def test_distance_needs_two_groups():
    groups = (GroupParams(sigma=1.0, q=2.0, eps=5.0, c=0.0, lam=0.0,
                          n_banks=2),)
    market = MarketParams(rho=0.0, horizon=1.0, groups=groups)
    grid = TimeGrid(t_end=1.0, n_steps=8)
    strategy = feedback_mfg(solve_mfg(market, grid), market)
    spec = NoiseSpec.from_market(market, seed=0, n_paths=2)
    ens = simulate_closed_loop(market, strategy, 0.0, spec, grid=grid)
    with pytest.raises(ValueError):
        distance_process(ens)


def test_parallel_run_is_byte_identical(monkeypatch, batch_starts):
    market = market_from_params("rich")
    grid = TimeGrid(t_end=0.8, n_steps=100)
    # More paths than one batch so several workers actually run.
    spec = NoiseSpec.from_market(market, seed=33, n_paths=2 * BATCH_PATHS + 17)
    strategy = closed_strategy(market, grid)
    serial = simulate_closed_loop(market, strategy, 0.1, spec, grid=grid)
    threaded = simulate_closed_loop(market, strategy, 0.1, spec, grid=grid,
                                    jobs=4)
    assert np.array_equal(serial.states, threaded.states)

    level = DefaultSpec.global_average(-0.2)
    a = mc_hitting_probability(market, spec, level, strategy, grid=grid)
    b = mc_hitting_probability(market, spec, level, strategy, grid=grid,
                               jobs=4)
    assert a == b

    # Batches of one or seven paths give the same bits: no product may
    # pick its kernel by the number of rows in a batch.  Path p's stream
    # does not depend on n_paths, so a short spec reruns the first paths.
    head = dataclasses.replace(spec, n_paths=60)
    x0 = ((0.1, 0.2), (-0.1, 0.3))
    targets = (level, DefaultSpec.single_bank(-0.6, 1, 2))

    def outputs():
        states = simulate_closed_loop(market, strategy, x0, head,
                                      grid=grid).states
        hits = [mc_hitting_probability(market, head, t, strategy, x0=x0,
                                       grid=grid) for t in targets]
        means = simulate_group_means(market, strategy, x0, head, grid=grid)
        return states, hits, means

    want = outputs()
    assert np.array_equal(want[0], simulate_closed_loop(
        market, strategy, x0, spec, grid=grid).states[:60])
    for size in (1, 7):
        monkeypatch.setattr(simulate, "BATCH_PATHS", size)
        batch_starts.clear()
        states, hits, means = outputs()
        # Four runs: the states, two estimates and the means.
        assert batch_starts == list(range(0, 60, size)) * 4
        assert np.array_equal(states, want[0])
        assert hits == want[1]
        assert np.array_equal(means, want[2])


def test_spec_correlations_must_match_the_market():
    # The market decides how the noise loads, so a spec built for another
    # market, say one without the common noise, must not run silently.
    market = two_groups(n1=4, n2=16, rho=0.9, lam=(0.0, 0.0))
    grid = TimeGrid(t_end=1.0, n_steps=20)
    strategy = closed_strategy(market, grid)
    good = NoiseSpec.from_market(market, seed=3, n_paths=8)
    for bad in (dataclasses.replace(good, rho=0.0),
                dataclasses.replace(good, rho_k=(0.0, 0.2)),
                dataclasses.replace(good, rho_k=(0.0,))):
        with pytest.raises(ValueError, match="correlations"):
            simulate_closed_loop(market, strategy, 0.0, bad, grid=grid)
        with pytest.raises(ValueError, match="correlations"):
            simulate_group_means(market, strategy, 0.0, bad, grid=grid)
        with pytest.raises(ValueError, match="correlations"):
            mc_hitting_probability(market, bad,
                                   DefaultSpec.global_average(-0.6),
                                   strategy, grid=grid)


def test_mfg_mean_zero_fixed_point():
    # The group means under the mean-field rule: with c = 0, gamma = 0, a
    # zero start and no volatility they stay at zero exactly.
    market = two_groups(n1=4, n2=16, sigma=(0.0, 0.0))
    strategy = feedback_mfg(solve_mfg(market, GRID), market)
    spec = NoiseSpec.from_market(market, seed=1, n_paths=4)
    means = simulate_group_means(market, strategy, 0.0, spec, grid=GRID)
    assert np.abs(means).max() == 0.0


def _slot_factor(market, bank_group=None):
    """``np.linalg.cholesky`` of driver^T driver + diag(own^2), the
    per-unit-time covariance of a group-mean run's slots: group k's mean
    loads sigma_k (c0, cg) on the global and group-k drivers and
    sigma_k ci / sqrt(N_k) on its own; a deviation slot after group g's
    mean loads sigma_g ci sqrt(1 - 1/N_g) on its own alone."""
    d = len(market.groups)
    driver, own = [], []
    for k, g in enumerate(market.groups):
        c0, cg, ci = noise_loadings(market.rho, g.rho_k)
        column = np.zeros(1 + d)
        column[0], column[1 + k] = g.sigma * c0, g.sigma * cg
        driver.append(column)
        own.append(g.sigma * ci / math.sqrt(g.n_banks))
        if k == bank_group:
            driver.append(np.zeros(1 + d))
            own.append(g.sigma * ci * math.sqrt(1.0 - 1.0 / g.n_banks))
    driver, own = np.array(driver).T, np.array(own)
    return np.linalg.cholesky(driver.T @ driver + np.diag(own**2))


def test_mfg_mean_single_group_decoupled():
    # One group under the mean-field rule has nothing to track: its mean
    # is m0 + gamma t plus the summed slot increments, one normal per step
    # times the factor of sigma^2 (rho^2 + ci^2 / N).
    g = GroupParams(sigma=1.3, q=2.0, eps=5.0, c=0.0, lam=0.0, gamma=0.4,
                    n_banks=10)
    market = MarketParams(rho=0.6, horizon=1.0, groups=(g,))
    strategy = feedback_mfg(solve_mfg(market, GRID), market)
    spec = NoiseSpec(rho=0.6, rho_k=(0.0,), seed=8, n_paths=16)
    means = simulate_group_means(market, strategy, 0.25, spec, grid=GRID)
    (batch,) = generate_increments(spec, GRID, (1,))
    noise = np.cumsum(batch.increments @ _slot_factor(market).T, axis=1)
    want = 0.25 + 0.4 * GRID.times()[1:] + noise[:, :, 0]
    assert np.abs(means[1:, :, 0].T - want).max() < 1e-12


@pytest.mark.parametrize("m0, message", [
    (math.nan, "finite"),
    ((0.0, math.inf), "finite"),
    ((0.1, -0.1, 0.3), "one entry per group"),
    (((0.1, 0.2, 0.3), 0.0), r"a number or a \(mean, std\) pair"),
    (((0.1,), 0.0), r"a number or a \(mean, std\) pair"),
])
def test_mfg_mean_rejects_bad_start_means(m0, message, seeded):
    market = two_groups(n1=4, n2=16, c=(0.6, 0.6), lam=(0.4, 0.5))
    grid = TimeGrid(t_end=1.0, n_steps=20)
    strategy = feedback_mfg(solve_mfg(market, grid), market)
    spec = NoiseSpec.from_market(market, seed=5, n_paths=3)
    with pytest.raises(ValueError, match=message):
        simulate_group_means(market, strategy, m0, spec, grid=grid)
    assert seeded == []


def test_mfg_mean_deterministic_flow_matches_ode():
    market = two_groups(n1=4, n2=16, sigma=(0.0, 0.0), gamma=(0.2, -0.1),
                        c=(0.6, 0.6), lam=(0.4, 0.5))
    strategy = feedback_mfg(solve_mfg(market, GRID), market)
    spec = NoiseSpec.from_market(market, seed=5, n_paths=3)
    means = simulate_group_means(market, strategy, 0.0, spec, grid=GRID)
    assert np.array_equal(means[:, 0], means[:, 1]) and np.array_equal(
        means[:, 0], means[:, 2])

    # Noise-free means must follow the linear mean flow; re-integrate it
    # on a 16x finer grid and compare at the coarse nodes.
    fine = TimeGrid(t_end=1.0, n_steps=16 * GRID.n_steps)
    m = np.zeros(2)
    ref = [m.copy()]
    for n in range(fine.n_steps):
        t = n * fine.dt
        _, weights, inter = strategy.at(t)
        rate = (weights @ m + inter
                + np.array([g.gamma(t) for g in market.groups]))
        m = m + rate * fine.dt
        if (n + 1) % 16 == 0:
            ref.append(m.copy())
    assert np.abs(means[:, 0] - np.stack(ref)).max() < 5e-3


def _numpy_streams(spec, grid, columns, key=0):
    """Start normals [paths, columns] and increments [paths, n_steps,
    columns] of numpy's own streams jumped key + p times."""
    starts, steps = [], []
    for p in range(spec.n_paths):
        rng = _numpy_rng(spec.seed, key + p)
        starts.append(rng.standard_normal(columns))
        steps.append(rng.standard_normal((grid.n_steps, columns))
                     * np.sqrt(grid.dt))
    return np.array(starts), np.array(steps)


def _bank_noise(market, spec, grid, x0):
    """Every bank's start [paths, banks] and increments [paths, n_steps,
    banks], rebuilt apart from the simulator: its group's slot from the
    stream jumped p times, started at mean_k + std_k / sqrt(N_k) Z and
    stepped by the draws times the factor of mean_step_covariance, plus
    its deviation from its column of the stream jumped 2**63 + p times,
    scaled by std_k on the start and by sigma_k ci_k on the steps and
    less its group's mean, summed bank by bank.  ``x0`` holds one (mean,
    std) pair per group."""
    sizes = [g.n_banks for g in market.groups]
    group_index = np.repeat(np.arange(len(sizes)), sizes)
    slot_start, slot_steps = _numpy_streams(spec, grid, len(sizes))
    bank_start, bank_steps = _numpy_streams(spec, grid, sum(sizes), 2**63)
    mean, std = np.array(x0, dtype=float).T
    m0 = mean + std * (1.0 / np.sqrt(sizes)) * slot_start
    factor = np.linalg.cholesky(mean_step_covariance(market))
    own = np.array([g.sigma * noise_loadings(market.rho, g.rho_k)[2]
                    for g in market.groups])

    def centred(z):
        for k, n in enumerate(sizes):
            cols = group_index == k
            z[..., cols] -= np.cumsum(z[..., cols], axis=-1)[..., -1:] / n
        return z

    start = m0[:, group_index] + centred(std[group_index] * bank_start)
    steps = ((slot_steps @ factor.T)[:, :, group_index]
             + centred(own[group_index] * bank_steps))
    return start, steps


def _drift(market, strategy, grid):
    """Every bank's drift under the explicit per-bank scheme, as a
    function of the step n and the states [paths, banks] at it: the
    rule's control from the step-n sample group averages plus the
    group's growth rate."""
    sizes = [g.n_banks for g in market.groups]
    group_index = np.repeat(np.arange(len(sizes)), sizes)
    proj = np.array([group_index == k for k in range(len(sizes))], dtype=float)
    proj /= proj.sum(axis=1, keepdims=True)
    growth = np.array([[g.gamma(t) for g in market.groups]
                       for t in grid.times()[:-1]])

    def rate(n, x):
        avg = x @ proj.T
        return (strategy.gap_gain[n, group_index] * (avg[:, group_index] - x)
                + (avg @ strategy.avg_weights[n].T)[:, group_index]
                + (strategy.intercept[n] + growth[n])[group_index])
    return rate


def _reference_states(market, strategy, x0, spec, grid):
    """Every bank under the explicit per-bank Euler scheme, [paths, banks,
    nodes]: controls from the step-n sample group averages, starts and
    increments from :func:`_bank_noise`."""
    x, noise = _bank_noise(market, spec, grid, x0)
    rate = _drift(market, strategy, grid)
    states = [x]
    for n in range(grid.n_steps):
        x = x + rate(n, x) * grid.dt + noise[:, n, :]
        states.append(x)
    return np.stack(states, axis=2)


def _three_groups():
    groups = tuple(
        GroupParams(sigma=s, q=2.0, eps=5.0, c=c, lam=lam, rho_k=rk,
                    gamma=g, n_banks=n)
        for s, c, lam, rk, g, n in ((1.1, 0.4, 0.3, 0.2, 0.1, 2),
                                    (0.8, 0.6, 0.5, 0.0, -0.2, 3),
                                    (1.3, 0.2, 0.7, 0.5, 0.0, 4)))
    return MarketParams(rho=0.3, horizon=1.0, groups=groups)


_RULES = {"closed": (solve_closed_loop, feedback_closed),
          "open": (solve_open_loop, feedback_open),
          "mfg": (solve_mfg, feedback_mfg)}


_CASES = [
    ("stepg", "closed", ((0.2, 0.3), (-0.1, 0.5))),
    ("rich", "open", ((0.1, 0.0), (0.1, 0.0))),
    ("three", "mfg", ((0.0, 0.2), (0.1, 0.0), (-0.2, 0.3))),
]


def _case(name, rule, n_paths=40):
    """Market, 100-step grid, rule and noise spec of one of ``_CASES``."""
    market = _three_groups() if name == "three" else market_from_params(name)
    grid = TimeGrid(t_end=market.horizon, n_steps=100)
    solve, feedback = _RULES[rule]
    strategy = feedback(solve(market, grid), market)
    spec = NoiseSpec.from_market(market, seed=13, n_paths=n_paths)
    return market, grid, strategy, spec


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("name, rule, x0", _CASES)
def test_simulation_matches_the_per_bank_reference(name, rule, x0, jobs,
                                                   monkeypatch, batch_starts):
    market, grid, strategy, spec = _case(name, rule)
    # The reference draws its 40 paths in one default batch.
    want = _reference_states(market, strategy, x0, spec, grid)
    # Several batches, so the serial run reuses its buffers and the
    # threaded run has more than one batch in flight.
    monkeypatch.setattr(simulate, "BATCH_PATHS", 16)
    ens = simulate_closed_loop(market, strategy, x0, spec, grid=grid,
                               jobs=jobs)
    assert batch_starts == [0, 16, 32]
    assert np.array_equal(ens.x0, want[:, :, 0])
    assert np.abs(ens.states - want).max() < 1e-12


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("name, rule, x0", _CASES)
def test_bank_group_averages_are_the_group_means(name, rule, x0, jobs,
                                                 monkeypatch, batch_starts):
    # The bank simulator steps the slot stream of simulate_group_means,
    # and its deviations sum to zero within a group: every path's group
    # averages are those means, up to the rounding of the bank sums.
    market, grid, strategy, spec = _case(name, rule)
    monkeypatch.setattr(simulate, "BATCH_PATHS", 16)
    ens = simulate_closed_loop(market, strategy, x0, spec, grid=grid,
                               jobs=jobs)
    means = simulate_group_means(market, strategy, x0, spec, grid=grid,
                                 jobs=jobs)
    assert batch_starts == [0, 16, 32] * 2
    averages = ens.group_averages.transpose(2, 0, 1)
    assert np.abs(averages - means).max() < 1e-12


def _chi2_quantile(p, dof):
    """Wilson-Hilferty approximation to the chi-square quantile."""
    z = NormalDist().inv_cdf(p)
    return dof * (1.0 - 2.0 / (9.0 * dof)
                  + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


def _euler_group_moments():
    """``euler_group_moments`` of ``perfbench/oracles.py``, loaded from its
    file: the exact moments of the Euler scheme of the group means,
    computed apart from the package."""
    path = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
            / "oracles.py")
    spec = importlib.util.spec_from_file_location("_perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.euler_group_moments


@pytest.mark.parametrize("name, rule, x0", _CASES)
def test_group_means_match_the_ensemble_averages(name, rule, x0):
    # Under an affine rule the bank ensemble's group averages follow
    # m_{n+1} = m_n + (W_n m_n + b_n) dt + e_n, with W and b from the rule
    # plus growth and e_n ~ N(0, P Sigma P^T dt) for the banks' diffusion
    # covariance Sigma and the group-averaging projector P, so at each
    # node they are Gaussian with that recursion's exact moments.  At
    # each node a z-test per group mean and the likelihood-ratio test of
    # the covariance matrix (Bartlett-corrected, chi-square with
    # d(d+1)/2 degrees of freedom) each hold at 1e-3.
    market, grid, strategy, spec = _case(name, rule, n_paths=2000)
    averages = simulate_closed_loop(market, strategy, x0, spec, grid=grid
                                    ).group_averages.transpose(2, 0, 1)
    sizes = np.array([g.n_banks for g in market.groups])
    group_index = np.repeat(np.arange(len(sizes)), sizes)
    proj = (group_index == np.arange(len(sizes))[:, None]) / sizes[:, None]
    step_cov = (proj @ _reference._covariance(market, group_index) @ proj.T
                * grid.dt)
    steps = grid.n_steps
    growth = np.array([[g.gamma(t) for g in market.groups]
                       for t in grid.times()[:steps]])
    mean0, std0 = np.array(x0, dtype=float).T
    mu, cov = _euler_group_moments()(
        strategy.avg_weights[:steps], strategy.intercept[:steps] + growth,
        step_cov, mean0, np.diag(std0**2 / sizes), grid.dt)
    n, d = averages.shape[1:]
    nodes = (1, 10, 50, 100)
    alpha = 1e-3 / len(nodes)
    z_max = NormalDist().inv_cdf(1.0 - alpha / (2 * d))
    chi2_max = _chi2_quantile(1.0 - alpha, d * (d + 1) // 2)
    bartlett = 1.0 - (2 * d * d + 3 * d - 1) / (6.0 * (n - 1) * (d + 1))
    for j in nodes:
        sample = averages[j]
        z = (sample.mean(axis=0) - mu[j]) / np.sqrt(np.diag(cov[j]) / n)
        assert np.abs(z).max() < z_max, (j, z)
        ratio = np.linalg.solve(cov[j], np.cov(sample, rowvar=False))
        lr = (n - 1) * (np.trace(ratio) - np.linalg.slogdet(ratio)[1] - d)
        assert bartlett * lr < chi2_max, (j, bartlett * lr)


def test_group_means_retrace_the_slot_stream(monkeypatch, batch_starts):
    # lam = 0, c = 0 and gamma = 0 leave the group means driftless: each is
    # its start mean_k + std_k / sqrt(N_k) Z plus the summed increments
    # Z L^T, where Z is the block generate_increments draws for (1, 1) slots
    # with no common driver and L the factor of the slots' covariance.
    market = two_groups(n1=3, n2=5, rho=0.3, rho_k=(0.5, 0.2),
                        sigma=(1.2, 0.8), lam=(0.0, 0.0))
    grid = TimeGrid(t_end=1.0, n_steps=50)
    spec = NoiseSpec.from_market(market, seed=4, n_paths=40)
    strategy = closed_strategy(market, grid)
    x0 = ((0.2, 0.4), (-0.1, 0.3))
    (batch,) = generate_increments(spec, grid, (1, 1))
    monkeypatch.setattr(simulate, "BATCH_PATHS", 16)
    means = simulate_group_means(market, strategy, x0, spec, grid=grid)
    assert batch_starts == [0, 16, 32]

    sizes = np.array([3.0, 5.0])
    inc = batch.increments @ _slot_factor(market).T
    start = (np.array([0.2, -0.1])
             + np.array([0.4, 0.3]) / np.sqrt(sizes) * batch.x0_normals)
    want = np.concatenate([start[:, None, :],
                           start[:, None, :] + np.cumsum(inc, axis=1)],
                          axis=1)
    assert means.shape == (51, 40, 2)
    assert np.abs(means.transpose(1, 0, 2) - want).max() < 1e-12


def test_independent_groups_scale_their_slots_by_own_loading():
    # rho = rho_k = 0: no common driver, so the factor is diag(own) and the
    # means are their starts plus the cumulative own * increments, bit for
    # bit.
    market = two_groups(n1=3, n2=5, sigma=(1.2, 0.8), lam=(0.0, 0.0))
    grid = TimeGrid(t_end=1.0, n_steps=50)
    spec = NoiseSpec.from_market(market, seed=4, n_paths=40)
    strategy = closed_strategy(market, grid)
    assert not strategy.avg_weights.any() and not strategy.intercept.any()
    means = simulate_group_means(market, strategy, (0.2, -0.1), spec,
                                 grid=grid)
    (batch,) = generate_increments(spec, grid, (1, 1))
    own = (np.array([1.2, 0.8]) * noise_loadings(0.0, 0.0)[2]
           * (1.0 / np.sqrt([3.0, 5.0])))
    steps = np.concatenate([np.broadcast_to([0.2, -0.1], (40, 1, 2)),
                            own * batch.increments], axis=1)
    assert np.array_equal(means.transpose(1, 0, 2), np.cumsum(steps, axis=1))


def test_group_means_are_bit_identical_across_batches_and_jobs(
        monkeypatch, batch_starts):
    market, grid, strategy, spec = _case("stepg", "closed", BATCH_PATHS + 17)
    x0 = ((0.2, 0.3), (-0.1, 0.5))
    want = simulate_group_means(market, strategy, x0, spec, grid=grid)
    for size in (1, 7, BATCH_PATHS):
        monkeypatch.setattr(simulate, "BATCH_PATHS", size)
        # Four threads, more than the cores, draw and step disjoint
        # slices of one result.
        for jobs in (1, 2, 4):
            batch_starts.clear()
            got = simulate_group_means(market, strategy, x0, spec, grid=grid,
                                       jobs=jobs)
            assert batch_starts == list(range(0, spec.n_paths, size))
            assert np.array_equal(got, want), (size, jobs)


def _memory_case():
    """``stepg`` (4 + 16 banks) on 200 steps in 12 batches of 64 paths."""
    market = market_from_params("stepg")
    grid = TimeGrid(t_end=market.horizon, n_steps=200)
    spec = NoiseSpec.from_market(market, seed=3, n_paths=12 * 64)
    # numpy imports its random module on first use, not before tracing.
    np.random.SeedSequence(0)
    return market, grid, closed_strategy(market, grid), spec


def _block(grid, columns):
    """Bytes of one drawn 64-path batch: start normals and increments."""
    return 64 * (grid.n_steps + 1) * columns * 8


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_means_only_run_holds_one_noise_block(monkeypatch, batch_starts):
    # Each batch is drawn into, and stepped in, its slice of the returned
    # means: the peak stays under the means and 0.75 of a block of one
    # column per group (a tile of 8 paths and small temporaries), where
    # a separate block copied into the means would not.
    market, grid, strategy, spec = _memory_case()
    monkeypatch.setattr(simulate, "BATCH_PATHS", 64)
    means, peak = _traced_peak(lambda: simulate_group_means(
        market, strategy, ((0.0, 0.1), (0.2, 0.3)), spec, grid=grid))
    assert batch_starts == list(range(0, 12 * 64, 64))
    block = _block(grid, 2)
    assert peak < means.nbytes + 0.75 * block


@pytest.mark.parametrize("jobs", [None, 2])
def test_bank_simulation_peak_is_the_ensemble_and_a_few_batches(
        jobs, monkeypatch, batch_starts):
    # Batches are consumed as they finish, never listed: a list of the 12
    # batches' results would double the ensemble.
    market, grid, strategy, spec = _memory_case()
    monkeypatch.setattr(simulate, "BATCH_PATHS", 64)
    ens, peak = _traced_peak(lambda: simulate_closed_loop(
        market, strategy, ((0.0, 0.1), (0.2, 0.3)), spec, grid=grid,
        jobs=jobs))
    assert batch_starts == list(range(0, 12 * 64, 64))
    stored = (ens.states.nbytes + ens.group_averages.nbytes
              + ens.global_average.nbytes)
    batch = _block(grid, 20) + 64 * 20 * (grid.n_steps + 1) * 8
    assert peak < stored + 2 * batch


def _windows(monkeypatch):
    """Record (first path, first node, rows) of every window the
    simulator draws through ``generate_increments``."""
    seen = []
    real = simulate.generate_increments

    def recording(*args):
        for window in real(*args):
            seen.append((window.start, window.node, len(window.block)))
            yield window
            del window
    monkeypatch.setattr(simulate, "generate_increments", recording)
    return seen


def _set_window_rows(monkeypatch, rows, paths, columns):
    """Size the windows so that a batch of ``paths`` paths and ``columns``
    columns is drawn ``rows`` rows at a time, or all at once for None."""
    monkeypatch.setattr(simulate, "_WINDOW_BYTES", 2**40 if rows is None
                        else 8 * paths * columns * rows)


def test_windows_continue_every_paths_stream(monkeypatch):
    # 23 paths in batches of 7, 7, 7 and 2, five columns, windows of 3
    # rows (10 for the batch of 2): a path's rows, joined over its
    # batch's windows, are one draw of numpy's stream jumped p times, or
    # 2**63 + p times for the bank runs' deviation columns.
    spec = NoiseSpec(rho=0.3, rho_k=(0.0, 0.5), seed=2**40 + 17, n_paths=23)
    grid = TimeGrid(t_end=1.0, n_steps=9)
    width = 5
    monkeypatch.setattr(simulate, "BATCH_PATHS", 7)
    _set_window_rows(monkeypatch, 3, 7, width)
    draws = {0: lambda: generate_increments(spec, grid, (2, 3)),
             2**63: lambda: simulate._batches(spec.seed, 2**63, spec.n_paths,
                                              grid, width, spec.d)}
    for key, draw in draws.items():
        windows = list(draw())
        assert [(w.start, w.node, len(w.block)) for w in windows] == [
            (start, node, rows) for start in (0, 7, 14)
            for node, rows in ((0, 3), (3, 3), (6, 3), (9, 1))] + [
                (21, 0, 10)]
        batches = {}
        for w in windows:
            batches.setdefault(w.start, []).append(w.block)
        rows = np.concatenate([np.concatenate(batches[start])
                               for start in sorted(batches)], axis=1)
        assert rows.shape == (10, 23, width)
        # A view kept of a window, and not the window, keeps its memory
        # from being drawn into again.
        kept = [w.block[-1] for w in draw()]
        assert all(np.array_equal(a, w.block[-1])
                   for a, w in zip(kept, windows, strict=True))
        for p in range(spec.n_paths):
            stream = _numpy_rng(spec.seed, key + p).standard_normal(
                width + grid.n_steps * width)
            assert np.array_equal(rows[0, p], stream[:width]), (key, p)
            assert np.array_equal(
                rows[1:, p], stream[width:].reshape(grid.n_steps, width)
                * np.sqrt(grid.dt)), (key, p)


@pytest.mark.parametrize("size", [7, BATCH_PATHS])
@pytest.mark.parametrize("jobs", [None, 2])
def test_windows_change_no_output(monkeypatch, size, jobs):
    # stepg: coupled weights, a stepped growth rate and common noise.
    # Windows of 2, 3 and 7 rows of the two mean slots (the bank runs'
    # twenty deviation columns take 2 rows, the bank target's three
    # slots 2 to 4), with deviations stepped 3 paths at a time, give the
    # bits of windows spanning the horizon.
    market, grid, strategy, spec = _case("stepg", "closed")
    x0 = ((0.2, 0.3), (-0.1, 0.5))
    targets = (DefaultSpec.global_average(-0.3),
               DefaultSpec.group_average(-0.4, 1),
               DefaultSpec.single_bank(-0.5, 1, 2))
    monkeypatch.setattr(simulate, "BATCH_PATHS", size)
    seen = _windows(monkeypatch)

    def outputs():
        means = simulate_group_means(market, strategy, x0, spec, grid=grid,
                                     jobs=jobs)
        states = simulate_closed_loop(market, strategy, x0, spec, grid=grid,
                                      jobs=jobs).states
        hits = [mc_hitting_probability(market, spec, t, strategy, x0=x0,
                                       grid=grid, jobs=jobs).n_hits
                for t in targets]
        return means, states, hits

    _set_window_rows(monkeypatch, None, size, 2)
    means, states, hits = outputs()
    assert {node for _, node, _ in seen} == {0}
    for rows in (2, 3, 7):
        _set_window_rows(monkeypatch, rows, min(size, spec.n_paths), 2)
        monkeypatch.setattr(simulate, "_BANK_PATHS", 3)
        seen.clear()
        got = outputs()
        assert (0, rows, rows) in seen, rows
        assert np.array_equal(got[0], means), rows
        assert np.array_equal(got[1], states), rows
        assert got[2] == hits, rows


@pytest.mark.parametrize("steps", [2000, 8000])
def test_estimate_memory_does_not_grow_with_the_steps(steps):
    # The criterion-4 market at 1024 paths: one batch's whole block is
    # 8.2 MB at 2000 steps and 32.8 MB at 8000, but windows of at most
    # 1 MiB keep the estimate, its solve included, under 2 MiB at both.
    group = GroupParams(sigma=1.0, q=2.0, eps=5.0, c=0.0, lam=0.0, n_banks=10)
    market = MarketParams(groups=(group,), rho=0.0, horizon=1.0, beta=(1.0,))
    spec = NoiseSpec(rho=0.0, rho_k=(0.0,), seed=3, n_paths=1024)
    grid = TimeGrid(t_end=1.0, n_steps=steps)
    assert BATCH_PATHS * (steps + 1) * 8 > 8 * 10**6
    np.random.SeedSequence(0)
    est, peak = _traced_peak(lambda: mc_hitting_probability(
        market, spec, DefaultSpec.global_average(-0.62), grid=grid))
    assert 0 < est.n_hits < spec.n_paths
    assert peak < 2 * 2**20


@pytest.mark.parametrize("jobs", [None, 2])
def test_blow_up_in_a_later_window_is_reported_at_its_node(monkeypatch,
                                                          jobs):
    # The means of test_blow_up_reports_the_first_node_past_the_limit
    # leave the window at node 12, inside the third window of 5 rows.
    # Then, with a gap gain a million times steeper from step 20 on, the
    # deviations alone blow up, in a window after it.  Either is reported
    # at the node that windows spanning the horizon report.
    grid = TimeGrid(t_end=4.0, n_steps=40)
    strategy = closed_strategy(two_groups(n1=2, n2=2, horizon=4.0), grid)
    gamma1 = StepFunction(breaks=(1.0,), values=(0.0, 1e308))
    markets = {"means": two_groups(n1=2, n2=2, horizon=4.0,
                                   gamma=(gamma1, 0.0)),
               "deviations": two_groups(n1=2, n2=2, horizon=4.0)}
    runs = {
        "bank simulation": lambda market, spec: simulate_closed_loop(
            market, strategy, 0.0, spec, grid=grid, jobs=jobs),
        "estimate": lambda market, spec: mc_hitting_probability(
            market, spec, DefaultSpec.single_bank(-1.0, 0, 1), strategy,
            grid=grid, jobs=jobs),
    }
    real = simulate._strategy_tables

    def steep(*args):
        gap, weights, drift = real(*args)
        return np.where(np.arange(len(gap))[:, None] >= 20, 1e6, 1.0) * gap, \
            weights, drift

    def blown(market, run):
        spec = NoiseSpec.from_market(market, seed=0, n_paths=3)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(BlowUp) as exc_info:
                run(market, spec)
        return exc_info.value.t

    times = grid.times()
    for kind, market in markets.items():
        if kind == "deviations":
            monkeypatch.setattr(simulate, "_strategy_tables", steep)
        for name, run in runs.items():
            _set_window_rows(monkeypatch, None, 3, 3)
            want = blown(market, run)
            _set_window_rows(monkeypatch, 5, 3, 3)
            assert blown(market, run) == want, (kind, name)
            if kind == "means":
                assert want == times[12], name
            else:
                assert want > times[20], name


def _series(start, noise):
    """The time-major series [nodes, paths, s] the Euler kernel steps:
    ``start`` [paths, s], then the increments ``noise`` [paths, steps, s]."""
    return np.concatenate([start[None], noise.transpose(1, 0, 2)])


def test_group_mean_kernel_reproduces_the_bank_simulation():
    # Fed the bank-averaged increments of the per-bank reference, the
    # d-dimensional kernel must retrace its group averages, and the
    # deviation recursion y <- y (1 - gap dt) + e must retrace one bank.
    gamma1 = StepFunction(breaks=(0.5,), values=(0.4, -0.1))
    market = two_groups(n1=3, n2=5, rho=0.3, rho_k=(0.5, 0.2),
                        lam=(0.2, 0.6), c=(0.3, 0.1), gamma=(gamma1, 0.1))
    grid = TimeGrid(t_end=1.0, n_steps=200)
    spec = NoiseSpec.from_market(market, seed=29, n_paths=16)
    strategy = closed_strategy(market, grid)
    states = _reference_states(market, strategy, ((0.3, 0.2), (-0.1, 0.4)),
                               spec, grid)

    group_index = np.repeat([0, 1], (3, 5))
    bank_noise = _bank_noise(market, spec, grid, ((0.3, 0.2), (-0.1, 0.4)))[1]
    proj = np.array([group_index == k for k in (0, 1)], dtype=float)
    proj /= proj.sum(axis=1, keepdims=True)
    mean_noise = bank_noise @ proj.T
    steps = grid.n_steps
    growth = np.array([[g.gamma(t) for g in market.groups]
                       for t in grid.times()[:steps]])
    x0 = states[:, :, 0]
    means = _euler_means(_series(x0 @ proj.T, mean_noise),
                         strategy.avg_weights[:steps],
                         strategy.intercept[:steps] + growth, grid)
    assert means.shape == (steps + 1, 16, 2)
    averages = np.einsum("kb,pbn->pkn", proj, states)
    assert np.abs(means.transpose(1, 2, 0) - averages).max() < 1e-12

    for bank, k in ((1, 0), (6, 1)):
        gap = strategy.gap_gain[:steps, k]
        start = (x0[:, bank] - x0 @ proj[k])[:, None]
        noise = (bank_noise[:, :, bank] - mean_noise[:, :, k])[:, :, None]
        deviation = _euler_means(_series(start, noise), -gap[:, None, None],
                                 0.0, grid)
        # Diagonal weights [n_steps, s] are the same decay.
        assert np.array_equal(
            _euler_means(_series(start, noise), -gap[:, None], 0.0, grid),
            deviation)
        path = means[:, :, k] + deviation[:, :, 0]
        assert np.abs(path.T - states[:, bank, :]).max() < 1e-12


def _recorded_draws(monkeypatch):
    """Record the slot layout and normals per path of every batch drawn."""
    seen = []
    real = simulate.generate_increments

    def recording(spec, grid, sizes, *args, **kwargs):
        for batch in real(spec, grid, sizes, *args, **kwargs):
            width = batch.x0_normals.shape[1]
            seen.append((tuple(sizes), width + grid.n_steps * width,
                         batch.idiosyncratic.shape[2]))
            yield batch
    monkeypatch.setattr(simulate, "generate_increments", recording)
    return seen


def test_estimate_draws_one_slot_per_group(monkeypatch):
    # rho > 0 and one rho_k > 0: two of the three drivers are active, yet
    # each path draws one normal per slot and step.
    market = two_groups(n1=3, n2=5, rho=0.3, rho_k=(0.5, 0.0),
                        lam=(0.0, 0.0))
    spec = NoiseSpec.from_market(market, seed=4, n_paths=64)
    grid = TimeGrid(t_end=1.0, n_steps=50)
    strategy = closed_strategy(market, grid)
    x0 = ((0.2, 0.4), (-0.1, 0.3))
    seen = _recorded_draws(monkeypatch)
    est = mc_hitting_probability(market, spec, DefaultSpec.global_average(
        -0.3), strategy, x0=x0, grid=grid)
    assert seen == [((1, 1), 2 + 50 * 2, 2)]

    # lam = 0 and gamma = 0 leave the group means driftless: each is its
    # start mean_k + std_k / sqrt(N_k) Z plus the summed increments Z L^T
    # of the recorded block.
    (batch,) = generate_increments(spec, grid, (1, 1))
    inc = batch.increments @ _slot_factor(market).T
    start = (np.array([0.2, -0.1])
             + np.array([0.4, 0.3]) / np.sqrt([3.0, 5.0]) * batch.x0_normals)
    means = np.concatenate([start[:, None, :],
                            start[:, None, :] + np.cumsum(inc, axis=1)],
                           axis=1)
    average = means @ np.array([3.0, 5.0]) / 8.0
    assert est.n_hits == int((average.min(axis=1) <= -0.3).sum())

    # A bank target adds its deviation from the group mean as one more
    # slot, started at std_k sqrt(1 - 1/N_k) Z' and stepped as
    # y <- y (1 - gap dt) + (L Z)_y, where the factor's deviation row is
    # sigma ci sqrt(1 - 1/N_k) on its own normal alone.
    seen.clear()
    est = mc_hitting_probability(market, spec, DefaultSpec.single_bank(
        -0.3, 1, 2), strategy, x0=x0, grid=grid)
    assert seen == [((1, 2), 3 + 50 * 3, 3)]
    (batch,) = generate_increments(spec, grid, (1, 2))
    factor = _slot_factor(market, bank_group=1)
    assert np.array_equal(factor[2, :2], [0.0, 0.0])
    inc = batch.increments @ factor.T
    start = -0.1 + 0.3 / np.sqrt(5.0) * batch.x0_normals[:, 1:2]
    mean = start + np.concatenate([np.zeros((64, 1)),
                                   np.cumsum(inc[:, :, 1], axis=1)], axis=1)
    y = 0.3 * np.sqrt(0.8) * batch.x0_normals[:, 2]
    bank = [y]
    for n in range(50):
        y = y * (1.0 - strategy.gap_gain[n, 1] * grid.dt) + inc[:, n, 2]
        bank.append(y)
    bank = mean + np.stack(bank, axis=1)
    assert est.n_hits == int((bank.min(axis=1) <= -0.3).sum())


def test_bank_target_matches_the_bank_simulation_in_law():
    # The deviation slot must give the monitored bank the law it has in
    # the full simulation: both estimates agree within sampling error.
    # Independent noise and a deep barrier make the bank's own
    # mean-reverting deviation decide most crossings.
    market = two_groups(n1=4, n2=6, lam=(0.3, 0.5), sigma=(1.2, 0.8))
    grid = TimeGrid(t_end=1.0, n_steps=100)
    strategy = closed_strategy(market, grid)
    default = DefaultSpec.single_bank(-1.2, 0, 1)
    spec = NoiseSpec.from_market(market, seed=41, n_paths=2000)
    est = mc_hitting_probability(market, spec, default, strategy,
                                 x0=((0.1, 0.3), 0.0), grid=grid)
    ens = simulate_closed_loop(market, strategy, ((0.1, 0.3), 0.0),
                               dataclasses.replace(spec, seed=42), grid=grid)
    # Bank 2 of group 1 is row 1 of the per-bank states.
    full = float((ens.states[:, 1, :].min(axis=1) <= -1.2).mean())
    se = np.sqrt(full * (1.0 - full) / spec.n_paths)
    assert 0.05 < full < 0.95
    assert abs(est.probability - full) < 4.0 * np.sqrt(2.0) * se

@pytest.mark.parametrize("seed, hits", [(0, 184), (7, 210),
                                        (2**40 + 17, 185), (2**64 - 1, 197)])
def test_criterion_4_hit_counts_are_pinned(seed, hits):
    # Hit counts of the criterion-4 market at 4096 paths, recorded when
    # path p first drew numpy's stream jumped p times: any slip in the
    # stream or its layout moves them.
    group = GroupParams(sigma=1.0, q=2.0, eps=5.0, c=0.0, lam=0.0, n_banks=10)
    market = MarketParams(groups=(group,), rho=0.0, horizon=1.0, beta=(1.0,))
    spec = NoiseSpec(rho=0.0, rho_k=(0.0,), seed=seed, n_paths=4096)
    est = mc_hitting_probability(market, spec,
                                 DefaultSpec.global_average(-0.62),
                                 grid=TimeGrid(t_end=1.0, n_steps=2000))
    assert est.n_hits == hits


def _pinned_market(n1, n2):
    return two_groups(n1=n1, n2=n2, rho=0.25, rho_k=(0.4, 0.1),
                      sigma=(1.2, 0.8), lam=(0.3, 0.6), c=(0.2, 0.1),
                      gamma=(0.1, -0.2))


def test_bank_target_hit_count_is_pinned():
    # Recorded when path p first drew numpy's stream jumped p times; the
    # bank's deviation slot comes after its group's mean.
    market = _pinned_market(3, 5)
    grid = TimeGrid(t_end=1.0, n_steps=100)
    est = mc_hitting_probability(
        market, NoiseSpec.from_market(market, seed=17, n_paths=1000),
        DefaultSpec.single_bank(-0.4, 1, 2), closed_strategy(market, grid),
        x0=((0.1, 0.2), 0.0), grid=grid)
    assert est.n_hits == 663


def test_bank_states_are_pinned():
    # The SHA-256 of the states of a common-noise market with random
    # starts, recorded when the bank simulator took its group means from
    # the slot stream of simulate_group_means and its deviations from
    # the columns of the stream jumped 2**63 + p times.
    market = _pinned_market(4, 8)
    grid = TimeGrid(t_end=1.0, n_steps=50)
    ens = simulate_closed_loop(
        market, closed_strategy(market, grid), ((0.1, 0.3), (-0.2, 0.1)),
        NoiseSpec.from_market(market, seed=5, n_paths=37), grid=grid)
    assert hashlib.sha256(ens.states.tobytes()).hexdigest() == (
        "09bf51bf3142ff2dd05c5fd46a17f5916a38b8eee7b2ced840c098795a48a409")


def test_hitting_probability_at_start_level():
    market = two_groups(n1=2, n2=2)
    spec = NoiseSpec.from_market(market, seed=2, n_paths=64)
    grid = TimeGrid(t_end=1.0, n_steps=16)
    est = mc_hitting_probability(market, spec, DefaultSpec.global_average(0.0),
                                 closed_strategy(market, grid), x0=0.0,
                                 grid=grid)
    assert est.probability == 1.0
    assert est.n_hits == 64
    assert est.stderr == 0.0


def test_hitting_probability_monotone_in_level():
    market = two_groups(n1=2, n2=2)
    spec = NoiseSpec.from_market(market, seed=2, n_paths=256)
    grid = TimeGrid(t_end=1.0, n_steps=64)
    strategy = closed_strategy(market, grid)
    shallow = mc_hitting_probability(
        market, spec, DefaultSpec.global_average(-0.1), strategy, grid=grid)
    deep = mc_hitting_probability(
        market, spec, DefaultSpec.global_average(-0.8), strategy, grid=grid)
    assert shallow.probability >= deep.probability
    assert 0 <= deep.n_hits <= shallow.n_hits


@pytest.mark.parametrize("rho, rho_k, sigma, group", [
    (1.0, (0.0, 0.0), (1.2, 0.8), 0),
    (-1.0, (0.0, 0.0), (1.2, 0.8), 1),
    # Here rounding leaves the second pivot at 2e-16, not 0.
    (1.0, (0.0, 0.0), (0.7, 0.8), 1),
    (0.5, (0.4, -0.3), (0.0, 1.0), 0),
    (0.5, (0.3, 1.0), (1.2, 0.8), 1),
])
def test_singular_slot_covariances_factor_and_simulate(rho, rho_k, sigma,
                                                       group):
    # rho = +-1, sigma_k = 0 and rho_k = 1 leave the slots' covariance
    # singular, with or without a bank's deviation slot: the factor stays
    # finite, reproduces it with the covariance's rank, and every run goes
    # through.
    market = two_groups(n1=3, n2=5, rho=rho, rho_k=rho_k, sigma=sigma,
                        lam=(0.0, 0.0))
    grid = TimeGrid(t_end=1.0, n_steps=50)
    spec = NoiseSpec.from_market(market, seed=6, n_paths=40)
    vm = validate(market, Mode.MFG)
    for bank_group in (None, group):
        cov = simulate._mean_slots(vm, bank_group)[-1]
        lower = simulate._cholesky(cov)
        assert np.isfinite(lower).all()
        assert np.abs(lower @ lower.T - cov).max() < 1e-12
        # A pivot that is 0 but for rounding adds no noise of its own.
        assert (np.count_nonzero(np.diag(lower))
                == np.linalg.matrix_rank(cov))
    strategy = closed_strategy(market, grid)
    x0 = (0.1, -0.2)
    means = simulate_group_means(market, strategy, x0, spec, grid=grid)
    assert np.isfinite(means).all()
    if sigma[group] == 0.0:
        assert (means[:, :, group] == means[:, :1, group]).all()
    if abs(rho) == 1.0:
        # One driver moves both driftless means, in proportion to sigma.
        moves = means - np.array(x0)
        assert np.abs(moves[:, :, 0] * sigma[1]
                      - moves[:, :, 1] * sigma[0]).max() < 1e-12
    est = mc_hitting_probability(market, spec, DefaultSpec.single_bank(
        -0.3, group, 1), strategy, x0=x0, grid=grid)
    assert 0 <= est.n_hits <= spec.n_paths


def _random_market(d, seed):
    """A d-group market with random volatilities, correlations and sizes;
    a group of one bank is possible."""
    rng = np.random.default_rng(seed)
    groups = tuple(
        GroupParams(sigma=rng.uniform(0.2, 1.5), q=2.0, eps=5.0, c=0.3,
                    lam=rng.uniform(0.1, 0.9), rho_k=rng.uniform(-1.0, 1.0),
                    n_banks=int(rng.integers(1, 30)))
        for _ in range(d))
    return MarketParams(rho=rng.uniform(-1.0, 1.0), horizon=1.0,
                        groups=groups)


@pytest.mark.parametrize("d, seed", [(d, seed) for d in (2, 3)
                                     for seed in range(4)])
def test_the_bank_row_of_the_slot_covariance(d, seed):
    # With group g's bank slot, right after its mean, the means block is
    # the group-mean covariance bit for bit.  The common drivers move the
    # group's banks alike and cancel in a deviation: its row is zero off
    # the diagonal, which holds sigma_g^2 ci_g^2 (1 - 1/N_g).
    market = _random_market(d, seed)
    means = mean_step_covariance(market)
    for g, group in enumerate(market.groups):
        cov = mean_step_covariance(market, g)
        rest = np.delete(np.arange(d + 1), g + 1)
        assert cov[np.ix_(rest, rest)].tobytes() == means.tobytes()
        assert not cov[g + 1, rest].any() and not cov[rest, g + 1].any()
        ci = noise_loadings(market.rho, group.rho_k)[2]
        want = group.sigma**2 * ci**2 * (1.0 - 1.0 / group.n_banks)
        assert cov[g + 1, g + 1] == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bank_group", [-2, -1, 2, 5])
def test_a_bank_group_outside_the_market_is_rejected(bank_group):
    market = two_groups(n1=3, n2=5, rho=0.4, rho_k=(0.3, 0.6))
    with pytest.raises(ValueError, match="bank group"):
        mean_step_covariance(market, bank_group)


@pytest.mark.parametrize("jobs", [1, 2])
def test_common_noise_never_reaches_a_deviation(monkeypatch, jobs):
    # rho = 1 leaves every own loading 0, so the banks of a group share
    # every increment: whatever the noise does to the means, the
    # difference of two banks' paths is their start difference under the
    # noiseless decay of the group's gap gain.
    monkeypatch.setattr(simulate, "BATCH_PATHS", 8)
    market = two_groups(n1=3, n2=5, rho=1.0, sigma=(1.2, 0.8), c=(0.3, 0.1),
                        lam=(0.35, 0.6), gamma=(0.2, -0.1))
    grid = TimeGrid(t_end=1.0, n_steps=100)
    strategy = closed_strategy(market, grid)
    spec = NoiseSpec.from_market(market, seed=4, n_paths=20)
    ens = simulate_closed_loop(market, strategy, ((0.1, 0.4), (-0.2, 0.7)),
                               spec, grid=grid, jobs=jobs)
    decay = np.cumprod(np.vstack([np.ones(2), 1.0 - strategy.gap_gain[:-1]
                                  * grid.dt]), axis=0)
    for k, banks in enumerate((slice(0, 3), slice(3, 8))):
        states = ens.states[:, banks]
        gaps = states[:, 1:] - states[:, :1]
        assert np.abs(gaps[:, :, 0]).min() > 0.0
        assert np.abs(gaps - gaps[:, :, :1] * decay[:, k]).max() < 1e-12
        # The noise does move the group's paths.
        assert np.abs(np.diff(states[:, 0], axis=1)).max() > 0.05


def test_hitting_validates_target_indices():
    market = two_groups(n1=2, n2=2)
    spec = NoiseSpec.from_market(market, seed=2, n_paths=8)
    grid = TimeGrid(t_end=1.0, n_steps=8)
    strategy = closed_strategy(market, grid)
    with pytest.raises(ValueError):
        mc_hitting_probability(market, spec,
                               DefaultSpec.group_average(-0.5, 2), strategy,
                               grid=grid)
    with pytest.raises(ValueError):
        mc_hitting_probability(market, spec,
                               DefaultSpec.single_bank(-0.5, 0, 5), strategy,
                               grid=grid)


def test_simulation_blow_up():
    # Solve the strategy on a tame market, then simulate with an absurd
    # growth rate so the states leave the finite window.
    grid = TimeGrid(t_end=1.0, n_steps=10)
    strategy = closed_strategy(two_groups(n1=2, n2=2), grid)
    market = two_groups(n1=2, n2=2, gamma=(1e16, 0.0))
    spec = NoiseSpec.from_market(market, seed=0, n_paths=2)
    with pytest.raises(BlowUp) as exc_info:
        simulate_closed_loop(market, strategy, 0.0, spec, grid=grid)
    assert 0.0 < exc_info.value.t <= 1.0
    assert exc_info.value.component is None
    assert str(exc_info.value).startswith("simulated state blew up near t=")


def test_blow_up_reports_the_first_node_past_the_limit():
    # From t = 1 on, group 1 grows at 1e308: its mean leaves the window at
    # the first node after the jump and overflows to inf before T = 4.
    # The overflow must stay inside the kernel, and the reported time
    # must be that first node's.
    grid = TimeGrid(t_end=4.0, n_steps=40)
    strategy = closed_strategy(two_groups(n1=2, n2=2, horizon=4.0), grid)
    gamma1 = StepFunction(breaks=(1.0,), values=(0.0, 1e308))
    market = two_groups(n1=2, n2=2, horizon=4.0, gamma=(gamma1, 0.0))
    times = grid.times()
    first = next(n for n in range(grid.n_steps)
                 if gamma1(times[n]) * grid.dt > BLOWUP_LIMIT)
    assert gamma1(times[first]) * (4.0 - float(times[first])) == math.inf
    spec = NoiseSpec.from_market(market, seed=0, n_paths=3)
    runs = {
        "bank simulation": lambda: simulate_closed_loop(
            market, strategy, 0.0, spec, grid=grid),
        "estimate": lambda: mc_hitting_probability(
            market, spec, DefaultSpec.single_bank(-1.0, 0, 1), strategy,
            grid=grid),
    }
    for name, run in runs.items():
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(BlowUp) as exc_info:
                run()
        assert exc_info.value.t == times[first + 1], name


def test_strategy_grid_mismatch_rejected():
    market = two_groups(n1=2, n2=2, horizon=2.0)
    strategy = closed_strategy(market, TimeGrid(t_end=2.0, n_steps=100))
    spec = NoiseSpec.from_market(market, seed=0, n_paths=2)
    with pytest.raises(ValueError):
        simulate_closed_loop(market, strategy, 0.0, spec,
                             grid=TimeGrid(t_end=1.0, n_steps=100))
    # Same horizon, different resolution: interpolated tables are fine.
    simulate_closed_loop(market, strategy, 0.0, spec,
                         grid=TimeGrid(t_end=2.0, n_steps=50))


@pytest.mark.parametrize("name", ["benchmark", "stepg"])
def test_resampled_tables_match_index_lookup(name):
    # A 400-step rule on an 800-step simulation grid.  Each row must agree
    # with interpolation by node index, j = floor(t / dt) and
    # w = (t - t_j) / dt, to rounding.
    market = market_from_params(name)
    strategy = closed_strategy(market, TimeGrid(t_end=1.0, n_steps=400))
    coarse = strategy.path
    grid = TimeGrid(t_end=1.0, n_steps=800)
    gap, weights, drift = simulate._strategy_tables(
        strategy, validate(market, Mode.MFG), grid)
    for n, t in enumerate(grid.times()[:-1]):
        j = min(int(t / coarse.grid.dt), coarse.grid.n_steps - 1)
        w = (t - coarse.times[j]) / coarse.grid.dt
        row = (1.0 - w) * coarse.values[j] + w * coarse.values[j + 1]
        growth = [g.gamma(t) for g in market.groups]
        assert np.abs(gap[n] - row[:2]).max() <= 1e-15
        assert np.abs(weights[n].ravel() - row[2:6]).max() <= 1e-15
        assert np.abs(drift[n] - growth - row[6:]).max() <= 1e-15


def test_oversized_ensemble_is_refused_before_any_allocation():
    market = two_groups(n1=4, n2=16)
    strategy = closed_strategy(market, TimeGrid(t_end=1.0, n_steps=50))
    # 10**10 paths x 20 banks x 51 nodes x 8 bytes: about 82 TB.
    spec = NoiseSpec.from_market(market, seed=0, n_paths=10**10)
    assert (spec.n_paths * 20 * 51 * 8) > MAX_ENSEMBLE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            simulate_closed_loop(market, strategy, 0.0, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
