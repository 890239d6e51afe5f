import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import _frozen
import _reference
from conftest import market_from_params

from interbank.analysis import (
    BGK_BETA,
    ConvergenceReport,
    DomainError,
    SweepAxis,
    SweepResult,
    analytic_systemic_probability,
    check_mfg_row_sums,
    check_prop1_bounds,
    check_sum_identity,
    convergence_to_mfg,
    hjb_residual,
    monitoring_deficit,
    normal_cdf,
    open_vs_limiting,
    sweep_claim,
    sweep_liquidity,
)
from interbank import riccati
from interbank.equilibrium import (
    LabelMismatch,
    feedback_closed,
    feedback_mfg,
    feedback_open,
    liquidity_rate,
)
from interbank.model import (Mode, RejectedParams, TimeGrid, two_groups,
                             validate)
from interbank.riccati import (
    CoefficientPath,
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
)

GRID = TimeGrid(t_end=1.0, n_steps=2000)


def test_normal_cdf_reference_values():
    for x, want in _frozen.NORMAL_CDF:
        assert abs(normal_cdf(x) - want) < 1e-12
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(3.0) + normal_cdf(-3.0) - 1.0) < 1e-15


def test_analytic_probability_values_and_domain():
    assert analytic_systemic_probability(0.0, 1.0, 10, 1.0) == 1.0
    got = analytic_systemic_probability(-0.62, 1.0, 10, 1.0)
    assert abs(got - _frozen.EXIT_PROBS["d062_n10"]) < 1e-12
    got = analytic_systemic_probability(-1.96, 1.0, 1, 1.0)
    assert abs(got - _frozen.EXIT_PROBS["d196"]) < 1e-12
    with pytest.raises(DomainError):
        analytic_systemic_probability(0.1, 1.0, 10, 1.0)
    with pytest.raises(ValueError):
        analytic_systemic_probability(-0.5, 0.0, 10, 1.0)
    with pytest.raises(ValueError):
        analytic_systemic_probability(-0.5, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        analytic_systemic_probability(-0.5, 1.0, 10, 0.0)


def test_analytic_probability_monotone_in_horizon():
    probs = [analytic_systemic_probability(-0.5, 1.0, 10, T)
             for T in (0.5, 1.0, 2.0, 10.0, 1e6)]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.99


def test_monitoring_deficit():
    base = dict(D=-0.62, sigma=1.0, N=10, T=1.0)
    deficits = [monitoring_deficit(dt=dt, **base)
                for dt in (1e-12, 1e-4, 1e-3, 1e-2)]
    assert all(d > 0.0 for d in deficits)
    assert all(a < b for a, b in zip(deficits, deficits[1:]))
    assert deficits[0] < 1e-6
    # The deficit equals the analytic drop from shifting the barrier.
    want = (analytic_systemic_probability(-0.62, 1.0, 10, 1.0)
            - analytic_systemic_probability(
                -0.62 - BGK_BETA * math.sqrt(1e-3 / 10), 1.0, 10, 1.0))
    assert abs(monitoring_deficit(dt=1e-3, **base) - want) < 1e-15


def test_sum_identity_on_limiting_path():
    path = solve_limiting(market_from_params("benchmark"), GRID)
    eta, phi = check_sum_identity(path)
    assert eta < 1e-8 and phi < 1e-8


def test_prop1_bounds_have_nonnegative_slack():
    for name in ("benchmark", "rich", "stepg"):
        market = market_from_params(name)
        grid = TimeGrid(t_end=market.horizon, n_steps=2000)
        slack = check_prop1_bounds(solve_limiting(market, grid), market)
        assert slack >= -1e-8


def test_mfg_row_sums():
    for name in ("benchmark", "mfg3"):
        market = market_from_params(name)
        grid = TimeGrid(t_end=market.horizon, n_steps=2000)
        assert check_mfg_row_sums(solve_mfg(market, grid)) < 1e-8


def test_convergence_report_validation():
    with pytest.raises(ValueError):
        ConvergenceReport(n_values=(100, 100), closed_gaps=(1.0, 1.0),
                          open_gaps=(1.0, 1.0), closed_slope=0.0,
                          open_slope=0.0)
    with pytest.raises(ValueError):
        ConvergenceReport(n_values=(10, 100), closed_gaps=(1.0, math.nan),
                          open_gaps=(1.0, 0.1), closed_slope=0.0,
                          open_slope=0.0)


def test_feedback_rules_converge_to_mean_field():
    report = convergence_to_mfg(market_from_params("benchmark"),
                                (100, 1000, 10000), grid=GRID)
    assert all(a > b for a, b in zip(report.closed_gaps,
                                     report.closed_gaps[1:]))
    assert all(a > b for a, b in zip(report.open_gaps, report.open_gaps[1:]))
    assert report.closed_gaps[-1] < 1e-2
    # Both families approach the mean-field rule at rate 1/N.
    assert -1.1 < report.closed_slope < -0.9
    assert -1.1 < report.open_slope < -0.9


def test_open_loop_coefficients_approach_limiting():
    gaps = open_vs_limiting(market_from_params("benchmark"), 10**6, grid=GRID)
    assert set(gaps) == {
        "etao1 vs etahat1", "etao2 vs etahat4", "etao3 vs etahat5",
        "phio1 vs phihat1", "phio2 vs phihat4", "phio3 vs phihat5",
    }
    assert max(gaps.values()) < 1e-3
    coarse = open_vs_limiting(market_from_params("benchmark"), 10**3, grid=GRID)
    assert all(coarse[key] > gaps[key] for key in gaps)


@pytest.mark.parametrize("n_total", [3, 20.5, 21])
def test_population_sweep_rejects_totals_that_do_not_split(n_total):
    # At equal weights these totals would round to 2 + 2 or 10 + 10 banks
    # and silently solve another market.
    market = two_groups(n1=5, n2=5)
    with pytest.raises(ValueError, match=str(n_total)):
        sweep_liquidity(market, SweepAxis.N_TOTAL, (10, n_total), n_steps=50)
    with pytest.raises(ValueError, match=str(n_total)):
        convergence_to_mfg(market, (10, n_total), grid=GRID)


@pytest.mark.parametrize("call, error, message", [
    (lambda m: sweep_liquidity(m, SweepAxis.N_TOTAL, (10, 20.5), n_steps=50),
     ValueError, "not an integer"),
    (lambda m: sweep_liquidity(m, SweepAxis.LAMBDA2, (0.5, 1.5), n_steps=50),
     RejectedParams, "lam must lie"),
    (lambda m: sweep_liquidity(m, SweepAxis.LAMBDA2, (0.1, 0.5, 0.3),
                               n_steps=50),
     ValueError, "strictly monotone"),
    (lambda m: sweep_liquidity(m, SweepAxis.HORIZON, (1.0, -1.0), n_steps=50),
     RejectedParams, "horizon"),
    (lambda m: convergence_to_mfg(m, (100, 10), grid=TimeGrid(1.0, 50)),
     ValueError, "strictly increasing"),
    # One value shows no trend, and one N fits no slope.
    (lambda m: sweep_liquidity(m, SweepAxis.LAMBDA2, (0.3,), n_steps=50),
     ValueError, "sweep over lambda2 needs at least 2 values"),
    (lambda m: sweep_liquidity(m, SweepAxis.N_TOTAL, (20,), n_steps=50),
     ValueError, "sweep over n_total needs at least 2 values"),
    (lambda m: sweep_liquidity(m, SweepAxis.HORIZON, (), n_steps=50),
     ValueError, "sweep over horizon needs at least 1 value"),
    (lambda m: convergence_to_mfg(m, (100,), grid=TimeGrid(1.0, 50)),
     ValueError, "N ladder needs at least 2 values"),
])
def test_bad_sweep_and_ladder_inputs_fail_before_any_solve(
        monkeypatch, call, error, message):
    solves = []
    solve = riccati.integrate_backward

    def counted(system, grid):
        solves.append(system.labels[0])
        return solve(system, grid)

    monkeypatch.setattr(riccati, "integrate_backward", counted)
    with pytest.raises(error, match=message):
        call(two_groups(n1=4, n2=16))
    assert solves == []


def test_lambda2_sweep_goes_the_other_way():
    # On this market the group-1 rate at t=0 falls as the second group
    # mixes toward the global average, so the increase claim is false.
    result = sweep_liquidity(market_from_params("benchmark"), SweepAxis.LAMBDA2,
                             (0.1, 0.3, 0.5, 0.7, 0.9), n_steps=400)
    desc, ok = sweep_claim(result)
    assert "lambda2" in desc
    assert ok is False
    assert all(a > b for a, b in zip(result.rate0, result.rate0[1:]))


def test_horizon_sweep_shows_plateau():
    result = sweep_liquidity(market_from_params("benchmark"), SweepAxis.HORIZON,
                             (5.0, 10.0, 20.0), n_steps=2000)
    desc, ok = sweep_claim(result)
    assert ok is True
    # A short horizon breaks the front-half constancy.
    short = sweep_liquidity(market_from_params("benchmark"), SweepAxis.HORIZON,
                            (2.0,), n_steps=2000)
    assert sweep_claim(short)[1] is False


def test_population_sweep_increases_rate():
    result = sweep_liquidity(market_from_params("benchmark"), SweepAxis.N_TOTAL,
                             (20, 50, 100, 500), n_steps=400)
    desc, ok = sweep_claim(result)
    assert ok is True
    assert all(b > a for a, b in zip(result.rate0, result.rate0[1:]))


def test_sweep_result_validation():
    result = sweep_liquidity(market_from_params("benchmark"), SweepAxis.LAMBDA2,
                             (0.2, 0.4), n_steps=50)
    with pytest.raises(ValueError):
        SweepResult(axis=result.axis, values=(0.4, 0.2, 0.3),
                    times=result.times + result.times[:1],
                    curves=result.curves + result.curves[:1],
                    rate0=result.rate0 + result.rate0[:1])
    with pytest.raises(ValueError):
        SweepResult(axis=result.axis, values=result.values,
                    times=result.times, curves=result.curves,
                    rate0=result.rate0[:1])
    # One lambda2 value would claim an increase over nothing.
    with pytest.raises(ValueError, match="at least 2 values"):
        SweepResult(axis=result.axis, values=result.values[:1],
                    times=result.times[:1], curves=result.curves[:1],
                    rate0=result.rate0[:1])


def test_hjb_residual_vanishes_for_flat_costs():
    market = two_groups(n1=4, n2=16, eps=(4.0, 4.0), lam=(0.3, 0.7))
    path = solve_closed_loop(market, GRID)
    assert np.abs(path.values).max() == 0.0
    assert hjb_residual(path, market, 50) < 1e-6


def test_hjb_residual_small_on_solved_path():
    market = market_from_params("benchmark")
    path = solve_closed_loop(market, GRID)
    assert hjb_residual(path, market, 100) < 1e-4


def test_hjb_residual_detects_perturbation():
    market = market_from_params("benchmark")
    path = solve_closed_loop(market, GRID)
    values = path.values.copy()
    values[:, 0] += 1e-2
    broken = dataclasses.replace(path, values=values)
    assert hjb_residual(broken, market, 100) >= 1e-3


# Two-group markets of the dense-reference test beyond the frozen ones:
# many banks, and one driver for every bank (rho = 1, no own noise).
_HJB_MARKETS = {
    "large": dict(n1=40, n2=160, rho=0.3, rho_k=(0.5, 0.2), c=(0.3, 0.1),
                  lam=(0.35, 0.6), gamma=(0.2, -0.1)),
    "common": dict(n1=3, n2=7, rho=1.0, sigma=(1.2, 0.7), c=(0.3, 0.1),
                   lam=(0.35, 0.6), gamma=(0.2, -0.1)),
}


@pytest.mark.parametrize("name,seed,n_steps,samples,perturb", [
    *((name, seed, 2000, 100, False) for name in ("benchmark", "rich", "stepg")
      for seed in (0, 5, 7)),
    ("benchmark", 0, 2000, 100, True),
    ("large", 3, 400, 20, False),
    ("common", 2, 400, 50, False),
])
def test_hjb_residual_matches_the_dense_reference(name, seed, n_steps,
                                                  samples, perturb):
    # The 3 x 3 quadratic form gives the residual of the term-by-term
    # ansatz with a dense N x N Hessian, to roundoff, at the same samples.
    if name in _HJB_MARKETS:
        market = two_groups(**_HJB_MARKETS[name])
    else:
        market = market_from_params(name)
    path = solve_closed_loop(market, TimeGrid(t_end=market.horizon,
                                              n_steps=n_steps))
    if perturb:
        values = path.values.copy()
        values[:, 0] += 1e-2
        path = dataclasses.replace(path, values=values)
    got = hjb_residual(path, market, samples, seed=seed)
    want = _reference.hjb_residual_dense(
        path, validate(market, Mode.CLOSED_LOOP), samples, seed=seed)
    assert abs(got - want) <= 1e-15
    assert (got >= 1e-3) if perturb else (got < 1e-4)


def test_hjb_residual_holds_no_bank_by_bank_array():
    # 2000 banks: a dense N x N noise covariance alone would take 32 MB.
    market = two_groups(n1=400, n2=1600, rho=0.3, rho_k=(0.5, 0.2),
                        c=(0.3, 0.1), lam=(0.35, 0.6))
    path = solve_closed_loop(market, TimeGrid(t_end=1.0, n_steps=200))
    tracemalloc.start()
    try:
        hjb_residual(path, market, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_hjb_residual_is_zero_for_flat_costs():
    market = two_groups(n1=4, n2=16, eps=(4.0, 4.0), lam=(0.3, 0.7))
    assert hjb_residual(solve_closed_loop(market, GRID), market, 50) == 0.0


def test_hjb_residual_requires_closed_path():
    market = market_from_params("benchmark")
    with pytest.raises(ValueError):
        hjb_residual(solve_limiting(market, GRID), market, 10)


@pytest.mark.parametrize("samples", [0, -3])
def test_hjb_residual_needs_a_sample(samples):
    # A maximum over no samples would read 0.0, a pass.
    market = market_from_params("benchmark")
    path = solve_closed_loop(market, TimeGrid(t_end=1.0, n_steps=50))
    with pytest.raises(ValueError, match="at least one sample"):
        hjb_residual(path, market, samples)


@pytest.mark.parametrize("read, wrong", [
    (feedback_closed, "open"),
    (feedback_open, "closed"),
    (feedback_mfg, "closed"),
    (liquidity_rate, "limiting"),
    (lambda path, m: hjb_residual(path, m, 10), "open"),
    (lambda path, m: check_sum_identity(path), "closed"),
    (check_prop1_bounds, "open"),
    (lambda path, m: check_mfg_row_sums(path), "closed"),
    (lambda path, m: check_mfg_row_sums(path), "no"),
], ids=["feedback_closed", "feedback_open", "feedback_mfg", "liquidity_rate",
        "hjb_residual", "check_sum_identity", "check_prop1_bounds",
        "check_mfg_row_sums", "check_mfg_row_sums-no-columns"])
def test_path_readers_refuse_another_systems_path(read, wrong):
    market = market_from_params("benchmark")
    grid = TimeGrid(t_end=1.0, n_steps=50)
    solve = {"closed": solve_closed_loop, "open": solve_open_loop,
             "limiting": solve_limiting,
             "no": lambda m, g: CoefficientPath(g, np.zeros((51, 0)), ())}
    with pytest.raises(LabelMismatch):
        read(solve[wrong](market, grid), market)
