from dataclasses import replace

import numpy as np
import pytest

from conftest import market_from_params, weights_market

from interbank.equilibrium import (
    FeedbackStrategy,
    LabelMismatch,
    OutOfHorizon,
    default_strategy,
    feedback_closed,
    feedback_mfg,
    feedback_open,
    liquidity_rate,
)
from interbank.model import (
    GroupParams,
    MarketParams,
    Mode,
    TimeGrid,
    two_groups,
    validate,
)
from interbank.riccati import (
    CoefficientPath,
    read_csv,
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
    tracking_offsets,
)

GRID = TimeGrid(t_end=1.0, n_steps=2000)


def flat_cost_market(**overrides):
    kw = dict(n1=4, n2=16, eps=(4.0, 4.0), c=(0.0, 0.0))
    kw.update(overrides)
    return two_groups(**kw)


def test_flat_cost_strategies_reduce_to_tracking_shift():
    # With a zero coefficient path the control is q_k times the tracking
    # gap, so the folded coefficients are pure shift constants.
    market = flat_cost_market()
    vm = validate(market, Mode.CLOSED_LOOP)
    off = tracking_offsets(vm)
    q = np.array([2.0, 2.0])
    for strategy in (
        feedback_closed(solve_closed_loop(market, GRID), market),
        feedback_open(solve_open_loop(market, GRID), market),
        feedback_mfg(solve_mfg(market, GRID), market),
    ):
        assert np.array_equal(strategy.gap_gain,
                              np.tile(q, (GRID.n_steps + 1, 1)))
        assert np.array_equal(strategy.avg_weights,
                              np.tile(q[:, None] * off, (GRID.n_steps + 1, 1, 1)))
        assert np.abs(strategy.intercept).max() == 0.0


def test_large_n_rule_is_the_mean_field_rule():
    market = weights_market()
    strategy = feedback_mfg(solve_mfg(market, GRID), market)
    # It is the rule default_strategy plays for any group count but two.
    solo = MarketParams(rho=0.0, horizon=1.0, groups=market.groups[:1],
                        beta=(1.0,))
    assert np.array_equal(
        default_strategy(solo, GRID).path.values,
        feedback_mfg(solve_mfg(solo, GRID), solo).path.values)
    # Weight rows cancel exactly in the infinite-bank rule.
    assert np.abs(strategy.avg_weights.sum(axis=2)).max() < 1e-14
    assert np.abs(strategy.intercept).max() == 0.0


def test_finite_weight_rows_sum_to_zero():
    # Translation invariance of the game: shifting every bank by the same
    # constant leaves all controls unchanged.
    for name in ("benchmark", "rich", "stepg"):
        market = market_from_params(name)
        closed = feedback_closed(solve_closed_loop(market, GRID), market)
        assert np.abs(closed.avg_weights.sum(axis=2)).max() < 1e-12
        opened = feedback_open(solve_open_loop(market, GRID), market)
        assert np.abs(opened.avg_weights.sum(axis=2)).max() < 1e-12


def test_terminal_gap_gain_equals_q():
    market = weights_market()  # c = 0
    strategy = feedback_mfg(solve_mfg(market, GRID), market)
    assert np.allclose(strategy.at(1.0)[0], [2.0, 2.0], atol=1e-14)


def test_decoupled_market_is_pure_mean_reversion():
    market = flat_cost_market(eps=(5.0, 4.5), lam=(0.0, 0.0))
    strategy = feedback_closed(solve_closed_loop(market, GRID), market)
    assert np.abs(strategy.avg_weights).max() < 1e-12
    assert np.abs(strategy.intercept).max() == 0.0
    assert strategy.at(0.0)[0][0] > 2.0  # q + positive coefficient


def test_closed_and_large_n_rules_agree_for_huge_groups():
    finite = weights_market(n1=40000, n2=160000)
    a = feedback_closed(solve_closed_loop(finite, GRID), finite)
    b = feedback_mfg(solve_mfg(weights_market(), GRID), weights_market())
    assert np.abs(a.gap_gain - b.gap_gain).max() < 1e-3
    assert np.abs(a.avg_weights - b.avg_weights).max() < 1e-3


def test_closed_loop_intercepts_tend_to_the_large_n_rule():
    # With nonzero growth rates the closed-loop intercepts do not vanish
    # as the groups grow: they approach the mean-field rule's, at about
    # 1/N.  The limiting path has no linear components to give them.
    market = market_from_params("rich")
    grid = TimeGrid(market.horizon, 1000)
    with pytest.raises(LabelMismatch):
        feedback_closed(solve_limiting(market, grid), market)
    large = feedback_mfg(solve_mfg(market, grid), market)
    assert np.abs(large.intercept).max() > 1e-2
    gaps = []
    for factor in (10, 100, 1000):
        finite = replace(market, groups=tuple(
            replace(g, n_banks=g.n_banks * factor) for g in market.groups))
        closed = feedback_closed(solve_closed_loop(finite, grid), finite)
        gaps.append(np.abs(closed.intercept - large.intercept).max())
    assert gaps[0] < 1e-3
    assert all(b < 0.2 * a for a, b in zip(gaps, gaps[1:])), gaps


def test_control_is_affine():
    market = market_from_params("rich")
    strategy = feedback_closed(solve_closed_loop(market,
                                                 TimeGrid(0.8, 2000)), market)
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = rng.uniform(0.0, 0.8)
        k = int(rng.integers(0, 2))
        x, xp = rng.normal(size=2)
        m, mp = rng.normal(size=(2, 2))
        a = strategy.control(t, k, x, m)
        b = strategy.control(t, k, xp, mp)
        mid = strategy.control(t, k, 0.5 * (x + xp), 0.5 * (m + mp))
        assert abs(mid - 0.5 * (a + b)) < 1e-12


def test_mfg_row_sums_and_single_group():
    market = market_from_params("mfg3")
    strategy = feedback_mfg(solve_mfg(market, GRID), market)
    assert strategy.d == 3
    assert np.abs(strategy.avg_weights.sum(axis=2)).max() < 1e-12

    solo = MarketParams(rho=0.0, horizon=1.0, groups=(
        GroupParams(sigma=1.0, q=2.0, eps=5.0, c=0.5, lam=0.7),),
        beta=(1.0,))
    rule = feedback_mfg(solve_mfg(solo, GRID), solo)
    assert np.abs(rule.avg_weights).max() == 0.0
    assert np.abs(rule.intercept).max() == 0.0


def test_label_mismatch():
    market = market_from_params("benchmark")
    open_path = solve_open_loop(market, GRID)
    with pytest.raises(LabelMismatch):
        feedback_closed(open_path, market)
    with pytest.raises(LabelMismatch):
        feedback_open(solve_closed_loop(market, GRID), market)
    with pytest.raises(LabelMismatch):
        feedback_mfg(open_path, market)
    with pytest.raises(LabelMismatch):
        liquidity_rate(open_path, market)


def test_out_of_horizon():
    market = market_from_params("benchmark")
    strategy = feedback_closed(solve_closed_loop(market, GRID), market)
    with pytest.raises(OutOfHorizon):
        strategy.at(1.1)
    with pytest.raises(OutOfHorizon):
        strategy.at(np.array([0.5, 1.1]))
    with pytest.raises(OutOfHorizon):
        strategy.at(np.nan)
    with pytest.raises(OutOfHorizon):
        strategy.control(-0.1, 0, 0.0, np.zeros(2))
    # A node hit within floating tolerance is fine.
    strategy.at(1.0 + 1e-12)
    strategy.at(-1e-12)


def test_control_checks_average_count():
    market = market_from_params("benchmark")
    strategy = feedback_closed(solve_closed_loop(market, GRID), market)
    with pytest.raises(ValueError):
        strategy.control(0.5, 0, 0.0, np.zeros(3))


STRATEGY_LABELS = ("gap_1", "gap_2", "w_1_1", "w_1_2", "w_2_1", "w_2_2",
                   "int_1", "int_2")


def test_strategy_validation():
    nodes = GRID.n_steps + 1
    values = np.zeros((nodes, 8))
    values[:, :2] = 1.0
    good = FeedbackStrategy(CoefficientPath(GRID, values, STRATEGY_LABELS))
    assert good.gap_gain.shape == (nodes, 2)
    assert good.avg_weights.shape == (nodes, 2, 2)
    assert good.intercept.shape == (nodes, 2)
    # Three gap gains with two groups' weights and intercepts.
    wrong = STRATEGY_LABELS[:2] + ("gap_3",) + STRATEGY_LABELS[3:]
    with pytest.raises(ValueError):
        FeedbackStrategy(CoefficientPath(GRID, values, wrong))
    # Weights short of a column.
    with pytest.raises(ValueError):
        FeedbackStrategy(CoefficientPath(
            GRID, values[:, :7], STRATEGY_LABELS[:6] + ("int_1",)))
    # Node count off the grid.
    with pytest.raises(ValueError):
        CoefficientPath(GRID, values[1:], STRATEGY_LABELS)
    bad = values.copy()
    bad[5, 1] = np.nan
    with pytest.raises(ValueError):
        CoefficientPath(GRID, bad, STRATEGY_LABELS)
    # The rule's arrays are views of the path, not copies to edit.
    with pytest.raises(ValueError):
        good.gap_gain[0, 0] = 5.0


def test_interpolation_between_nodes():
    market = market_from_params("benchmark")
    strategy = feedback_closed(solve_closed_loop(market,
                                                 TimeGrid(1.0, 10)), market)
    t_mid = 0.5 * (strategy.path.times[3] + strategy.path.times[4])
    want = 0.5 * (strategy.gap_gain[3] + strategy.gap_gain[4])
    assert np.allclose(strategy.at(t_mid)[0], want, atol=1e-15)


def test_liquidity_rate_matches_components():
    market = market_from_params("benchmark")
    path = solve_closed_loop(market, GRID)
    rate = liquidity_rate(path, market)
    n1 = 1.0 / 4.0
    want = (1.0 - n1) * path.column("eta1") - n1 * path.column("eta4")
    assert np.array_equal(rate, want)
    assert rate[-1] == 0.0  # c = 0 kills the terminal coefficients
    # Between nodes and outside the horizon the path itself answers.
    coef = dict(zip(path.labels, path.at(0.37)))
    between = (1.0 - n1) * coef["eta1"] - n1 * coef["eta4"]
    assert abs(between - np.interp(0.37, path.times, rate)) < 1e-15
    with pytest.raises(ValueError):
        path.at(1.2)


def test_strategy_csv(tmp_path):
    market = market_from_params("benchmark")
    strategy = feedback_closed(solve_closed_loop(market,
                                                 TimeGrid(1.0, 4)), market)
    target = tmp_path / "strategy.csv"
    strategy.path.write_csv(target)
    lines = target.read_text().splitlines()
    assert lines[0] == "t,gap_1,gap_2,w_1_1,w_1_2,w_2_1,w_2_2,int_1,int_2"
    assert len(lines) == 6
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert np.array_equal(parsed[:, 1:3], strategy.gap_gain)
    assert np.array_equal(parsed[:, 3:7],
                          strategy.avg_weights.reshape(5, 4))
    loaded = FeedbackStrategy(read_csv(target))
    assert np.array_equal(loaded.path.values, strategy.path.values)


@pytest.mark.parametrize("build, solve", [
    (feedback_closed, solve_closed_loop),
    (feedback_open, solve_open_loop),
    (feedback_mfg, solve_mfg),
])
def test_strategy_at_nodes_returns_the_stored_rows(build, solve):
    market = market_from_params("stepg")
    strategy = build(solve(market, TimeGrid(1.0, 40)), market)
    nodes = strategy.path.times
    gap, weights, inter = strategy.at(nodes)
    assert np.array_equal(gap, strategy.gap_gain)
    assert np.array_equal(weights, strategy.avg_weights)
    assert np.array_equal(inter, strategy.intercept)
    # Every node a simulation steps from, sign of zero included.
    rows = strategy.path.at(nodes[:-1])
    assert rows.tobytes() == strategy.path.values[:-1].tobytes()
    for j in (0, 17, 39):
        one = strategy.at(nodes[j])
        assert np.array_equal(one[0], gap[j])
        assert np.array_equal(one[1], weights[j])
        assert np.array_equal(one[2], inter[j])
