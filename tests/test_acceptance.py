"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL line with the measured quantity, the
tolerance it is held to, and the wall time against its budget, then
asserts.  The lines print unconditionally so a red run still shows every
measurement.
"""

import dataclasses
import math
import time

import numpy as np

import _frozen as fz
from conftest import market_from_params, scalar_riccati, weights_market

from interbank.analysis import (
    SweepAxis,
    analytic_systemic_probability,
    check_mfg_row_sums,
    check_prop1_bounds,
    check_sum_identity,
    convergence_to_mfg,
    hjb_residual,
    monitoring_deficit,
    open_vs_limiting,
    sweep_claim,
    sweep_liquidity,
)
from interbank.cli import main
from interbank.model import (
    GroupParams,
    MarketParams,
    StepFunction,
    TimeGrid,
    mfg_terminal_threshold,
    two_groups,
)
from interbank.riccati import (
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
)
from interbank.simulate import DefaultSpec, NoiseSpec, mc_hitting_probability

GRID = TimeGrid(t_end=1.0, n_steps=2000)


def announce(capsys, ok: bool, label: str, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capsys.disabled():
        print(line)
    return line


def test_criterion_1_limiting_sum_identity(capsys):
    t0 = time.perf_counter()
    path = solve_limiting(weights_market(), GRID)
    eta_sum, phi_sum = check_sum_identity(path)
    elapsed = time.perf_counter() - t0
    ok = max(eta_sum, phi_sum) < 1e-8 and elapsed < 1.0
    line = announce(
        capsys, ok, "criterion 1 (limiting sum identity)",
        f"max|etahat4+etahat5| = {eta_sum:.2e}, max|phihat4+phihat5| = "
        f"{phi_sum:.2e}, tol 1e-8; {elapsed:.2f}s of 1s")
    assert ok, line


def test_criterion_2_bound_slack_on_random_markets(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = math.inf
    for _ in range(100):
        q = rng.uniform(0.5, 3.0, size=2)
        eps = q * q + rng.uniform(0.1, 4.0, size=2)
        c = rng.uniform(0.0, 2.0, size=2)
        lam = rng.uniform(0.05, 0.95, size=2)
        b1 = rng.uniform(0.1, 0.9)
        horizon = rng.uniform(0.5, 2.0)
        market = weights_market(
            beta=(b1, 1.0 - b1), q=tuple(q), eps=tuple(eps), c=tuple(c),
            lam=tuple(lam), horizon=horizon)
        path = solve_limiting(market, TimeGrid(t_end=horizon, n_steps=500))
        worst = min(worst, check_prop1_bounds(path, market))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-8 and elapsed < 30.0
    line = announce(
        capsys, ok, "criterion 2 (positivity and exponential bounds)",
        f"min slack over 100 random markets = {worst:.2e}, floor -1e-8; "
        f"{elapsed:.2f}s of 30s")
    assert ok, line


def test_criterion_3_liquidity_rate_sweeps(capsys):
    t0 = time.perf_counter()
    market = market_from_params("benchmark")
    lam2 = sweep_liquidity(market, SweepAxis.LAMBDA2,
                           (0.1, 0.3, 0.5, 0.7, 0.9))
    desc_a, ok_a = sweep_claim(lam2)
    horizon = sweep_liquidity(market, SweepAxis.HORIZON, (10.0,),
                              n_steps=2000)
    desc_b, ok_b = sweep_claim(horizon)
    population = sweep_liquidity(market, SweepAxis.N_TOTAL,
                                 (10, 50, 100, 500))
    desc_c, ok_c = sweep_claim(population)
    elapsed = time.perf_counter() - t0
    in_time = elapsed < 5.0
    rates = ", ".join(f"{r:.7f}" for r in lam2.rate0)
    line_a = announce(capsys, ok_a and in_time, "criterion 3a (lambda2 sweep)",
                      f"{desc_a}; rate(0) = {rates}; {elapsed:.2f}s of 5s")
    announce(capsys, ok_b and in_time, "criterion 3b (horizon plateau)",
             f"{desc_b} at T=10; {elapsed:.2f}s of 5s")
    announce(capsys, ok_c and in_time, "criterion 3c (population sweep)",
             f"{desc_c}, rate(0) = "
             + ", ".join(f"{r:.5f}" for r in population.rate0)
             + f"; {elapsed:.2f}s of 5s")
    assert ok_b and ok_c and in_time
    # The mixing-weight claim does not hold on this market: rate(0) falls
    # as the second group leans toward the global average.  Kept failing
    # on purpose; the measured values are in the line above.
    assert ok_a, line_a


def test_criterion_4_systemic_default_probability(capsys):
    t0 = time.perf_counter()
    group = GroupParams(sigma=1.0, q=2.0, eps=5.0, c=0.0, lam=0.0, n_banks=10)
    market = MarketParams(groups=(group,), rho=0.0, horizon=1.0, beta=(1.0,))
    analytic = analytic_systemic_probability(-0.62, 1.0, 10, 1.0)
    assert abs(analytic - fz.EXIT_PROBS["d062_n10"]) < 1e-12
    spec = NoiseSpec(rho=0.0, rho_k=(0.0,), seed=2024, n_paths=100_000)
    est = mc_hitting_probability(market, spec,
                                 DefaultSpec.global_average(-0.62),
                                 grid=GRID)
    # Grid monitoring only misses exits, so the deficit widens one side.
    deficit = monitoring_deficit(-0.62, 1.0, 10, 1.0, GRID.dt)
    elapsed = time.perf_counter() - t0
    gap = analytic - est.probability
    lo, hi = -3.0 * est.stderr, 3.0 * est.stderr + deficit
    ok = lo <= gap <= hi and elapsed < 60.0
    line = announce(
        capsys, ok, "criterion 4 (systemic default probability)",
        f"analytic {analytic:.6f} - mc {est.probability:.6f} = {gap:.6f} "
        f"within [-3se, 3se+deficit] = [{lo:.6f}, {hi:.6f}]; "
        f"{elapsed:.1f}s of 60s")
    assert ok, line


def test_criterion_5_mean_field_consistency(capsys):
    t0 = time.perf_counter()
    report = convergence_to_mfg(market_from_params("benchmark"),
                                (100, 1_000, 10_000), grid=GRID)
    closed = report.closed_gaps
    decreasing = all(b < a for a, b in zip(closed, closed[1:]))
    gaps = open_vs_limiting(weights_market(), 1_000_000, grid=GRID)
    named = max(gaps["etao2 vs etahat4"], gaps["phio3 vs phihat5"])
    worst_open = max(gaps.values())
    elapsed = time.perf_counter() - t0
    ok = (closed[-1] < 1e-2 and decreasing and named < 1e-3
          and worst_open < 1e-3 and elapsed < 10.0)
    line = announce(
        capsys, ok, "criterion 5 (mean-field consistency)",
        "closed-vs-mfg feedback gaps ("
        + ", ".join(f"{g:.2e}" for g in closed)
        + f") decreasing, final tol 1e-2; open-vs-limiting max "
        f"{worst_open:.2e} at N=1e6, tol 1e-3; {elapsed:.2f}s of 10s")
    assert ok, line


def test_criterion_6_mfg_row_sums_random_draws(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst = 0.0
    for d in (1, 2, 3, 4):
        for _ in range(3):
            qs = rng.uniform(0.5, 2.5, size=d)
            groups = tuple(
                GroupParams(
                    sigma=rng.uniform(0.5, 2.0), q=q,
                    eps=q * q + rng.uniform(0.1, 3.0), c=0.0,
                    lam=rng.uniform(0.05, 0.95),
                    rho_k=rng.uniform(0.0, 0.9),
                    gamma=StepFunction(
                        breaks=(), values=(rng.uniform(-0.5, 0.5),)),
                ) for q in qs)
            # Terminal weights above the well-posedness floor.
            floor = max(mfg_terminal_threshold(groups), 0.0)
            groups = tuple(
                dataclasses.replace(g, c=floor + rng.uniform(0.1, 1.0))
                for g in groups)
            w = rng.uniform(0.2, 1.0, size=d)
            horizon = rng.uniform(0.5, 2.0)
            market = MarketParams(groups=groups, rho=rng.uniform(0.0, 0.9),
                                  horizon=horizon, beta=tuple(w / w.sum()))
            path = solve_mfg(market, TimeGrid(t_end=horizon, n_steps=1000))
            worst = max(worst, check_mfg_row_sums(path))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    line = announce(
        capsys, ok, "criterion 6 (mean-field row sums)",
        f"max |sum_h psim_k_h| over d in 1..4, 3 draws each = {worst:.2e}, "
        f"tol 1e-8; {elapsed:.2f}s of 10s")
    assert ok, line


def test_criterion_7_degenerate_markets(capsys):
    t0 = time.perf_counter()
    sized = two_groups(n1=4, n2=16, eps=(4.0, 4.0), c=(0.0, 0.0),
                       gamma=(0.3, -0.1), rho=0.5)
    flat = weights_market(eps=(4.0, 4.0), gamma=(0.3, -0.1))
    worst_flat = max(
        np.abs(solve_closed_loop(sized, GRID).values).max(),
        np.abs(solve_open_loop(sized, GRID).values).max(),
        np.abs(solve_limiting(flat, GRID).values).max(),
        np.abs(solve_mfg(flat, GRID).values).max(),
    )
    closed = solve_closed_loop(two_groups(n1=4, n2=16, lam=(0.0, 0.0)), GRID)
    cross = ("eta3", "eta5", "eta6", "eta9", "phi2", "phi4", "phi6", "phi8")
    worst_cross = max(np.abs(closed.column(lab)).max() for lab in cross)
    limit = solve_limiting(weights_market(lam=(0.0, 0.0)), GRID)
    for lab in ("etahat4", "etahat5", "phihat4", "phihat5"):
        worst_cross = max(worst_cross, np.abs(limit.column(lab)).max())
    eta1_gap = abs(closed.value_at(0.0, "eta1")
                   - scalar_riccati(1.0 - 1.0 / 16.0, 4.0, 1.0, 0.0, 1.0))
    elapsed = time.perf_counter() - t0
    ok = (worst_flat == 0.0 and worst_cross == 0.0 and eta1_gap < 1e-8
          and elapsed < 2.0)
    line = announce(
        capsys, ok, "criterion 7 (degenerate markets)",
        f"flat-cost paths max {worst_flat:.1e} (exactly 0), decoupled cross "
        f"coefficients max {worst_cross:.1e} (exactly 0), eta1 vs scalar "
        f"closed form {eta1_gap:.2e}, tol 1e-8; {elapsed:.2f}s of 2s")
    assert ok, line


def test_criterion_8_solver_order_and_residual(capsys):
    t0 = time.perf_counter()
    market = market_from_params("benchmark")
    ref = fz.COEFFS[("benchmark", "closed", 0.0)]

    def err(n_steps):
        path = solve_closed_loop(market, TimeGrid(t_end=1.0, n_steps=n_steps))
        return max(abs(path.value_at(0.0, lab) - v) for lab, v in ref.items())

    ratio = err(20) / err(40)
    residual = hjb_residual(solve_closed_loop(market, GRID), market, 100,
                            seed=5)
    elapsed = time.perf_counter() - t0
    ok = 12.0 <= ratio <= 20.0 and residual < 1e-4 and elapsed < 5.0
    line = announce(
        capsys, ok, "criterion 8 (solver order and residual)",
        f"step-halving error ratio {ratio:.2f} in [12, 20]; worst scaled "
        f"dynamic-programming residual {residual:.2e} at 100 samples, "
        f"tol 1e-4; {elapsed:.2f}s of 5s")
    assert ok, line


PARALLEL_CFG = """\
rho = 0.3
horizon = 1.0
steps = 200
seed = 11
paths = 530

[group.1]
sigma = 1.0
q = 2.0
eps = 5.0
lam = 0.1
rho_k = 0.4
n_banks = 4

[group.2]
sigma = 1.0
q = 2.0
eps = 4.5
lam = 0.5
n_banks = 16
"""


def test_criterion_9_parallel_byte_identity(tmp_path, capsys):
    t0 = time.perf_counter()
    serial_cfg = tmp_path / "serial.cfg"
    serial_cfg.write_text(PARALLEL_CFG)
    parallel_cfg = tmp_path / "parallel.cfg"
    parallel_cfg.write_text("jobs = 4\n" + PARALLEL_CFG)
    rc_a = main(["simulate", "--config", str(serial_cfg),
                 "--out", str(tmp_path / "serial")])
    rc_b = main(["simulate", "--config", str(parallel_cfg),
                 "--out", str(tmp_path / "parallel")])
    read = lambda d: (tmp_path / d / "ensemble_summary.csv").read_bytes()
    same = read("serial") == read("parallel")
    elapsed = time.perf_counter() - t0
    ok = rc_a == 0 and rc_b == 0 and same
    line = announce(
        capsys, ok, "criterion 9 (serial/parallel determinism)",
        f"ensemble_summary.csv byte-identical across jobs=1 and jobs=4 "
        f"over 530 paths: {same}; {elapsed:.2f}s")
    assert ok, line
