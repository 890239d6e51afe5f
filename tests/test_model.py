import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from interbank.model import (
    GroupParams,
    MarketParams,
    Mode,
    RejectedParams,
    StepFunction,
    TimeGrid,
    as_step_function,
    mfg_terminal_threshold,
    noise_loadings,
    two_groups,
    validate,
)
from interbank.riccati import solve_closed_loop


def test_step_function_left_continuous():
    f = StepFunction(breaks=(0.25, 0.5), values=(1.0, -2.0, 3.0))
    assert f(0.0) == 1.0
    assert f(0.25) == 1.0
    assert f(0.250001) == -2.0
    assert f(0.5) == -2.0
    assert f(10.0) == 3.0


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(breaks=(0.5,), values=(1.0,))
    with pytest.raises(ValueError):
        StepFunction(breaks=(0.5, 0.5), values=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        StepFunction(breaks=(0.7, 0.2), values=(1.0, 2.0, 3.0))


def test_step_function_helpers():
    f = StepFunction.constant(0.0)
    assert f.is_zero
    g = StepFunction(breaks=(1.0,), values=(0.5, -2.0))
    assert not g.is_zero
    assert as_step_function(3)(0.0) == 3.0
    assert as_step_function(g) is g


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_noise_loadings_unit_norm(rho, rho_k):
    c0, cg, ci = noise_loadings(rho, rho_k)
    assert math.isclose(c0 * c0 + cg * cg + ci * ci, 1.0, abs_tol=1e-14)
    assert ci >= 0.0


def test_group_params_coerces_gamma():
    g = GroupParams(sigma=1.0, q=2.0, eps=5.0, c=0.0, lam=0.1, gamma=0.7)
    assert isinstance(g.gamma, StepFunction)
    assert g.gamma(0.3) == 0.7
    assert g.eps_slack == 1.0


def test_time_grid():
    grid = TimeGrid(t_end=2.0, n_steps=4)
    assert grid.dt == 0.5
    assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    for t_end in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TimeGrid(t_end=t_end, n_steps=4)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, n_steps=1)


def test_time_grid_needs_a_whole_step_count():
    # An integral count, an integral float or a numpy integer included,
    # is stored as a Python int, so the grid's nodes can be formed.
    for n_steps in (4, 4.0, np.int64(4), np.float64(4.0)):
        grid = TimeGrid(t_end=2.0, n_steps=n_steps)
        assert type(grid.n_steps) is int and grid == TimeGrid(2.0, 4)
        assert len(grid.times()) == 5
    for n_steps in (2.5, math.nan, math.inf, "4", None):
        with pytest.raises(ValueError, match="whole number"):
            TimeGrid(t_end=1.0, n_steps=n_steps)


def test_sizes_win_over_weights():
    market = two_groups(n1=4, n2=16, beta=(0.5, 0.5))
    vm = validate(market, Mode.CLOSED_LOOP)
    assert vm.beta == (0.2, 0.8)
    assert vm.n_total == 20
    assert vm.group_sizes() == (4, 16)


def test_weights_only_market():
    vm = validate(two_groups(beta=(0.2, 0.8)), Mode.LIMITING)
    assert vm.beta == (0.2, 0.8)
    assert vm.n_total is None
    with pytest.raises(RejectedParams):
        vm.group_sizes()


def test_weights_need_one_per_group():
    for beta in ((1.0,), (0.2, 0.3, 0.5)):
        with pytest.raises(RejectedParams, match="one weight per group"):
            validate(dataclasses.replace(two_groups(), beta=beta),
                     Mode.LIMITING)


@pytest.mark.parametrize("mode", [Mode.CLOSED_LOOP, Mode.OPEN_LOOP])
def test_finite_modes_need_sizes(mode):
    with pytest.raises(RejectedParams):
        validate(two_groups(beta=(0.2, 0.8)), mode)


def test_two_group_modes_need_two_groups():
    one = MarketParams(rho=0.0, horizon=1.0,
                       groups=(GroupParams(1.0, 2.0, 5.0, 0.0, 0.0,
                                           n_banks=3),))
    with pytest.raises(RejectedParams):
        validate(one, Mode.CLOSED_LOOP)
    vm = validate(one, Mode.MFG)
    assert vm.beta == (1.0,)
    # A validated market is validated again for each mode it is used in.
    assert validate(vm, Mode.MFG).market is one
    with pytest.raises(RejectedParams):
        validate(vm, Mode.CLOSED_LOOP)
    with pytest.raises(RejectedParams):
        solve_closed_loop(vm)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(q=(0.0, 2.0)),
        dict(q=(-1.0, 2.0)),
        dict(eps=(0.0, 4.5)),
        dict(eps=(3.9, 4.5)),  # q**2 = 4 > eps
        dict(lam=(-0.1, 0.5)),
        dict(lam=(0.1, 1.5)),
        dict(sigma=(-1.0, 1.0)),
        dict(rho=1.5),
        dict(rho=-2.0),
        dict(horizon=0.0),
        dict(horizon=-1.0),
        dict(c=(-0.1, 0.0)),
        dict(rho_k=(0.0, -1.2)),
    ],
)
def test_rejections(overrides):
    with pytest.raises(RejectedParams):
        validate(two_groups(n1=4, n2=16, **overrides), Mode.CLOSED_LOOP)


def test_rejects_bad_sizes_and_weights():
    with pytest.raises(RejectedParams):
        validate(two_groups(n1=0, n2=16), Mode.CLOSED_LOOP)
    with pytest.raises(RejectedParams, match="whole number"):
        validate(two_groups(n1=3.5, n2=16), Mode.CLOSED_LOOP)
    # An integral float is a bank count, stored as a Python int.
    vm = validate(two_groups(n1=np.float64(4.0), n2=16.0), Mode.CLOSED_LOOP)
    assert vm.n_total == 20 and type(vm.n_total) is int
    assert all(type(g.n_banks) is int for g in vm.groups)
    with pytest.raises(RejectedParams):
        validate(two_groups(beta=(0.2, 0.7)), Mode.LIMITING)
    with pytest.raises(RejectedParams):
        validate(two_groups(beta=(0.0, 1.0)), Mode.LIMITING)
    with pytest.raises(RejectedParams):
        validate(two_groups(beta=(1.2, -0.2)), Mode.LIMITING)
    with pytest.raises(RejectedParams):
        validate(two_groups(), Mode.LIMITING)
    with pytest.raises(RejectedParams):
        validate(MarketParams(rho=0.0, horizon=1.0, groups=()), Mode.MFG)


def test_boundary_warnings():
    vm = validate(two_groups(beta=(0.2, 0.8), lam=(0.0, 1.0)), Mode.LIMITING)
    assert sum("boundary" in w for w in vm.warnings) == 2
    vm = validate(two_groups(beta=(0.2, 0.8), eps=(4.0, 4.5)), Mode.LIMITING)
    assert any("degenerate" in w for w in vm.warnings)


def test_mfg_terminal_warning():
    # q1*lam1/lam2 - q2 = 2*0.9/0.1 - 2 = 16 dominates.
    market = two_groups(beta=(0.2, 0.8), lam=(0.9, 0.1), c=(0.0, 0.0))
    assert math.isclose(mfg_terminal_threshold(market.groups), 16.0)
    vm = validate(market, Mode.MFG)
    assert any("existence region" in w for w in vm.warnings)
    ok = validate(two_groups(beta=(0.2, 0.8), lam=(0.9, 0.1), c=(17.0, 17.0)),
                  Mode.MFG)
    assert not any("existence region" in w for w in ok.warnings)
    # Not meaningful when some group ignores the global average entirely.
    free = validate(two_groups(beta=(0.2, 0.8), lam=(0.0, 0.1)), Mode.MFG)
    assert not any("existence region" in w for w in free.warnings)


def test_inv_tilde_sizes():
    vm = validate(two_groups(n1=4, n2=16, lam=(1.0, 1.0)), Mode.OPEN_LOOP)
    assert vm.inv_tilde_sizes() == (1.0 / 20.0, 1.0 / 20.0)
    vm = validate(two_groups(n1=4, n2=16, lam=(0.0, 0.0)), Mode.OPEN_LOOP)
    assert vm.inv_tilde_sizes() == (0.25, 0.0625)
    vm = validate(two_groups(n1=4, n2=16, lam=(0.5, 0.5)), Mode.OPEN_LOOP)
    want = (0.5 / 4 + 0.5 / 20, 0.5 / 16 + 0.5 / 20)
    assert np.allclose(vm.inv_tilde_sizes(), want, rtol=0.0, atol=1e-15)


@given(
    st.floats(0.1, 3.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0),
)
def test_validate_accepts_standing_assumptions(q, slack, lam, c):
    market = two_groups(beta=(0.3, 0.7), q=(q, q), eps=(q * q + slack,) * 2,
                        lam=(lam, lam), c=(c, c))
    vm = validate(market, Mode.LIMITING)
    assert math.isclose(sum(vm.beta), 1.0, abs_tol=1e-12)
