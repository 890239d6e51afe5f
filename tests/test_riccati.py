import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _frozen as fz
import _reference
from conftest import (
    gamma_from_spec,
    market_from_params,
    random_mfg_market,
    scalar_riccati,
    weights_market,
)

from interbank import riccati
from interbank.model import (
    Mode,
    StepFunction,
    TimeGrid,
    two_groups,
    validate,
)
from interbank.riccati import (
    BLOWUP_LIMIT,
    BlowUp,
    CLOSED_LABELS,
    LIMITING_LABELS,
    OPEN_LABELS,
    CoefficientPath,
    OdeSystem,
    OutOfHorizon,
    atomic_file,
    closed_loop_system,
    csv_text,
    integrate_backward,
    limiting_system,
    mfg_labels,
    mfg_system,
    open_loop_system,
    read_csv,
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
    tracking_offsets,
)

SOLVERS = {
    "closed": solve_closed_loop,
    "limiting": solve_limiting,
    "open": solve_open_loop,
    "mfg": solve_mfg,
}

GRID = TimeGrid(t_end=1.0, n_steps=2000)


def test_constant_rhs_is_exact():
    slope = np.array([2.0, -3.0, 0.5])
    system = OdeSystem(rhs=lambda t, y: slope,
                       terminal=np.array([1.0, 1.0, 1.0]),
                       labels=("a", "b", "c"))
    path = integrate_backward(system, TimeGrid(t_end=1.0, n_steps=10))
    want = 1.0 + np.outer(path.times - 1.0, slope)
    assert np.abs(path.values - want).max() < 1e-14


def test_cubic_time_dependence_is_near_exact():
    # RK4 quadrature is exact for polynomial integrands up to degree 3;
    # the only residual comes from the tiny inward shift of the endpoint
    # stages (1e-9 of a step) that keeps rate jumps one-sided.
    system = OdeSystem(rhs=lambda t, y: np.array([3.0 * t * t]),
                       terminal=np.array([8.0]), labels=("cube",))
    path = integrate_backward(system, TimeGrid(t_end=2.0, n_steps=16))
    assert np.abs(path.column("cube") - path.times**3).max() < 1e-9


def test_stationary_point_of_scalar_riccati():
    # With terminal sqrt(eps) - q the quadratic coefficient never moves.
    root = math.sqrt(5.0) - 2.0
    market = weights_market(lam=(0.0, 0.0), eps=(5.0, 5.0), c=(root, root))
    path = solve_limiting(market, GRID)
    for label in ("etahat1", "phihat1"):
        assert np.abs(path.column(label) - root).max() < 1e-13


def test_scalar_closed_form_decoupled_groups():
    market = two_groups(n1=4, n2=16, lam=(0.0, 0.0))
    eta1 = solve_closed_loop(market, GRID).value_at(0.0, "eta1")
    want = scalar_riccati(1.0 - 1.0 / 16.0, 4.0, 1.0, 0.0, 1.0)
    assert abs(eta1 - want) < 1e-10
    assert abs(eta1 - fz.SCALAR_RICCATI["closed_n4"]) < 1e-10

    limit = solve_limiting(weights_market(lam=(0.0, 0.0)), GRID)
    assert abs(limit.value_at(0.0, "etahat1")
               - fz.SCALAR_RICCATI["limiting"]) < 1e-10

    with_c = solve_limiting(weights_market(lam=(0.0, 0.0), c=(0.3, 0.0)), GRID)
    assert abs(with_c.value_at(0.0, "etahat1")
               - fz.SCALAR_RICCATI["limiting_c"]) < 1e-10
    assert abs(fz.SCALAR_RICCATI["limiting_c"]
               - scalar_riccati(1.0, 4.0, 1.0, 0.3, 1.0)) < 1e-13


@pytest.mark.parametrize("key", sorted(fz.COEFFS, key=repr))
def test_frozen_reference_values(key):
    name, kind, t = key
    market = market_from_params(name)
    path = SOLVERS[kind](market, TimeGrid(t_end=market.horizon, n_steps=2000))
    for label, want in fz.COEFFS[key].items():
        got = path.value_at(t, label)
        assert abs(got - want) < 1e-10 * (1.0 + abs(want)), (label, got, want)


def test_terminal_values_are_bit_exact():
    market = market_from_params("rich")
    vm = validate(market, Mode.CLOSED_LOOP)
    path = solve_closed_loop(vm, GRID)
    off = tracking_offsets(vm)
    c1, c2 = (g.c for g in vm.groups)
    assert path.value_at(1.0, "eta1") == c1
    assert path.value_at(1.0, "eta4") == c1 * off[0, 0]
    assert path.value_at(1.0, "eta7") == 0.0
    assert path.value_at(1.0, "phi3") == c2 * off[1, 1] ** 2
    assert path.value_at(1.0, "phi10") == 0.0


def test_weight_sum_identity_on_fine_grid():
    market = weights_market()
    path = solve_limiting(market, TimeGrid(t_end=1.0, n_steps=10000))
    eta = path.column("etahat4") + path.column("etahat5")
    phi = path.column("phihat4") + path.column("phihat5")
    assert np.abs(eta).max() < 1e-8
    assert np.abs(phi).max() < 1e-8


def test_translation_invariance_identities_closed():
    # Shifting every bank by the same constant changes nothing, which
    # pins two exact linear combinations of each block's components.
    for name in ("benchmark", "rich", "stepg"):
        path = solve_closed_loop(market_from_params(name), GRID)
        col = path.column
        assert np.abs(col("eta2") + col("eta3") + 2 * col("eta6")).max() < 1e-12
        assert np.abs(col("phi2") + col("phi3") + 2 * col("phi6")).max() < 1e-12
        assert np.abs(col("eta8") + col("eta9")).max() < 1e-12
        assert np.abs(col("phi8") + col("phi9")).max() < 1e-12


def test_zero_solution_is_exact():
    market = two_groups(n1=4, n2=16, eps=(4.0, 4.0), c=(0.0, 0.0),
                        gamma=(0.3, -0.1), rho=0.5)
    for solve in (solve_closed_loop, solve_open_loop):
        assert np.abs(solve(market, GRID).values).max() == 0.0
    no_sizes = weights_market(eps=(4.0, 4.0), gamma=(0.3, -0.1))
    for solve in (solve_limiting, solve_mfg):
        assert np.abs(solve(no_sizes, GRID).values).max() == 0.0


def test_forward_reintegration_round_trip():
    market = market_from_params("rich")
    back = solve_limiting(market, TimeGrid(t_end=0.8, n_steps=2000))
    rhs = limiting_system(validate(market, Mode.LIMITING)).rhs

    def reversed_rhs(t, y):
        return [-v for v in rhs(0.8 - t, y)]

    forward = integrate_backward(
        OdeSystem(rhs=reversed_rhs, terminal=back.values[0],
                  labels=back.labels),
        back.grid,
    )
    assert np.abs(forward.values[::-1] - back.values).max() < 1e-8


def test_step_halving_error_ratio():
    # Fourth-order convergence: halving dt divides the error by about 16.
    market = market_from_params("benchmark")
    ref = fz.COEFFS[("benchmark", "closed", 0.0)]

    def err(n_steps):
        path = solve_closed_loop(market, TimeGrid(t_end=1.0, n_steps=n_steps))
        return max(abs(path.value_at(0.0, lab) - v) for lab, v in ref.items())

    ratio = err(20) / err(40)
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("steps", [125, 401, 1999])
@pytest.mark.parametrize("kind", ["closed", "open", "mfg"])
def test_rate_jumps_off_the_grid_keep_fourth_order(kind, steps):
    # stepg's first growth rate jumps at t = 0.5, off these grids: split
    # at the jump, each step stays within the frozen RK4 tolerance.
    market = market_from_params("stepg")
    grid = TimeGrid(t_end=market.horizon, n_steps=steps)
    path = SOLVERS[kind](market, grid)
    bound = 1e-10 * (grid.dt / 5e-4) ** 4
    for label, want in fz.COEFFS[("stepg", kind, 0.0)].items():
        got = path.value_at(0.0, label)
        assert abs(got - want) < bound * (1.0 + abs(want)), (label, got, want)


@pytest.mark.parametrize("steps", [400, 2000])
@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in ("benchmark", "rich", "stepg") for kind in SOLVERS
] + [("mfg3", "mfg")])
def test_rate_jumps_on_the_grid_change_no_bit(name, kind, steps):
    market = market_from_params(name)
    builder, mode = BUILDERS[kind]
    grid = TimeGrid(t_end=market.horizon, n_steps=steps)
    plain = integrate_backward(builder(validate(market, mode)), grid)
    assert (SOLVERS[kind](market, grid).values.tobytes()
            == plain.values.tobytes())


def test_steps_split_at_every_jump_inside_them():
    # dy/dt = f(t) for a step function f with two jumps inside the step
    # from 0.5 to 0.25: RK4 split at both integrates it exactly, and
    # unsplit it does not.
    f = StepFunction(breaks=(0.3, 0.4), values=(1.0, -2.0, 0.5))
    system = OdeSystem(rhs=lambda t, y: [f(t)], terminal=np.zeros(1),
                       labels=("y",))
    grid = TimeGrid(t_end=1.0, n_steps=4)
    want = [-0.4, -0.15, -0.25, -0.125, 0.0]
    split = integrate_backward(system, grid, (0.4, 0.3, 0.3, 1.0, 2.0))
    assert np.abs(split.values[:, 0] - want).max() < 1e-15
    plain = integrate_backward(system, grid)
    assert np.abs(plain.values[:2, 0] - want[:2]).max() > 1e-3


def test_blow_up_reports_component_and_time():
    market = two_groups(n1=4, n2=16, eps=(4e7, 4.5))
    with pytest.raises(BlowUp) as exc_info:
        solve_closed_loop(market, TimeGrid(t_end=1.0, n_steps=50))
    err = exc_info.value
    assert err.component in CLOSED_LABELS
    assert 0.0 <= err.t < 1.0
    assert err.component in str(err)


BUILDERS = {
    "closed": (closed_loop_system, Mode.CLOSED_LOOP),
    "limiting": (limiting_system, Mode.LIMITING),
    "open": (open_loop_system, Mode.OPEN_LOOP),
    "mfg": (mfg_system, Mode.MFG),
}


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in ("benchmark", "rich", "stepg") for kind in SOLVERS
] + [("mfg3", "mfg"), ("mfg1", "mfg"), ("mfg5", "mfg")])
def test_solvers_match_the_array_loop_bit_for_bit(name, kind):
    if name in ("mfg1", "mfg5"):
        market = random_mfg_market(int(name[-1]), seed=5)
    else:
        market = market_from_params(name)
    builder, mode = BUILDERS[kind]
    grid = TimeGrid(t_end=market.horizon, n_steps=400)
    # The random markets' growth rates jump off the grid; the limiting
    # system has no growth rate.
    breaks = ([b for g in market.groups for b in g.gamma.breaks]
              if kind != "limiting" else [])
    want = _reference.rk4_backward_arrays(builder(validate(market, mode)),
                                          grid, breaks)
    assert np.array_equal(SOLVERS[kind](market, grid).values, want)


@pytest.mark.parametrize("d", range(1, 7))
def test_mfg_rhs_matches_the_numpy_rhs(d):
    # The generated RHS sums each matrix product in index order, numpy's
    # BLAS product need not: equal bit for bit only when no sum has two
    # terms, and to roundoff of the state's scale otherwise.
    vm = validate(random_mfg_market(d, seed=d), Mode.MFG)
    rhs = mfg_system(vm).rhs
    want_rhs = _reference.mfg_rhs_arrays(vm)
    rng = np.random.default_rng(100 + d)
    for _ in range(200):
        y = rng.uniform(-1.0, 1.0, d + d * d + d).tolist()
        t = float(rng.uniform(0.0, 1.0))
        got, want = np.array(rhs(t, y)), np.array(want_rhs(t, y))
        if d == 1:
            assert got.tobytes() == want.tobytes()
        else:
            tol = 1e-15 * (1.0 + np.abs(y).max())
            assert np.abs(got - want).max() <= tol, (t, y)


def _random_two_group_market(rng):
    """Random sizes, weights, correlations and constants, and growth rates
    with zero, one or two jumps."""
    q = rng.uniform(0.5, 2.5, 2)
    gammas = []
    for jumps in rng.integers(0, 3, 2):
        gammas.append(StepFunction(
            breaks=tuple(np.sort(rng.uniform(0.05, 0.95, jumps)).tolist()),
            values=tuple(rng.uniform(-1.0, 1.0, jumps + 1).tolist())))
    n1, n2 = rng.integers(2, 40, 2).tolist()
    return two_groups(
        n1=n1, n2=n2, rho=float(rng.uniform(-0.95, 0.95)),
        rho_k=tuple(rng.uniform(-0.95, 0.95, 2).tolist()),
        sigma=tuple(rng.uniform(0.1, 1.5, 2).tolist()), q=tuple(q.tolist()),
        eps=tuple((q * q + rng.uniform(0.05, 3.0, 2)).tolist()),
        c=tuple(rng.uniform(0.0, 1.0, 2).tolist()),
        lam=tuple(rng.uniform(0.0, 1.0, 2).tolist()), gamma=tuple(gammas))


@pytest.mark.parametrize("kind, written", [
    ("closed", _reference.closed_rhs_written),
    ("limiting", _reference.limiting_rhs_written),
    ("open", _reference.open_rhs_written),
])
def test_two_group_rhs_match_the_written_out_expressions(kind, written):
    # The builders form products of market numbers once; each must be
    # the leading operand of the expression it stands in, so the RHS
    # gives the same floats as the expressions written out in full, at
    # any state and at, just before and just after every rate jump.
    builder, mode = BUILDERS[kind]
    rng = np.random.default_rng(26)
    for _ in range(40):
        market = _random_two_group_market(rng)
        vm = validate(market, mode)
        system, want_rhs = builder(vm), written(vm)
        rhs, n = system.rhs, len(system.labels)
        times = rng.uniform(0.0, 1.0, 5).tolist()
        for b in (b for g in market.groups for b in g.gamma.breaks):
            times += [b, b - 1e-9, b + 1e-9, float(np.nextafter(b, 0.0)),
                      float(np.nextafter(b, 1.0))]
        for t in times:
            for scale in (1e-3, 1.0, 1e3):
                y = (scale * rng.uniform(-1.0, 1.0, n)).tolist()
                got, want = rhs(t, y), want_rhs(t, y)
                assert (np.array(got).tobytes()
                        == np.array(want).tobytes()), (kind, market, t, y)


def test_constant_rates_read_without_a_search_change_no_bit(monkeypatch):
    # The same rates as one-jump step functions whose jump lies past the
    # horizon, so every lookup searches, give the same tables; constant
    # rates are read without calling the step function at all.
    searches = [0]
    call = StepFunction.__call__

    def counted(self, t):
        searches[0] += 1
        return call(self, t)

    monkeypatch.setattr(StepFunction, "__call__", counted)

    def stepped(market):
        groups = tuple(
            dataclasses.replace(g, gamma=StepFunction(
                breaks=(2.0 * market.horizon,), values=g.gamma.values * 2))
            for g in market.groups)
        return dataclasses.replace(market, groups=groups)

    def constant(market):
        groups = tuple(
            dataclasses.replace(g, gamma=StepFunction.constant(v))
            for g, v in zip(market.groups, (0.3, -0.2, 0.1)))
        return dataclasses.replace(market, groups=groups)

    grid = TimeGrid(t_end=1.0, n_steps=200)
    rich = market_from_params("rich")
    cases = [(rich, "closed"), (rich, "open")] + [
        (constant(random_mfg_market(d, seed=d)), "mfg") for d in (1, 2, 3)]
    for market, kind in cases:
        assert all(not g.gamma.breaks and g.gamma.values != (0.0,)
                   for g in market.groups)
        searches[0] = 0
        read = SOLVERS[kind](market, grid).values
        assert searches[0] == 0, kind
        searched = SOLVERS[kind](stepped(market), grid).values
        assert searches[0] > 0, kind
        assert read.tobytes() == searched.tobytes(), kind


def test_mfg_rhs_source_holds_no_market_number():
    first, second = (mfg_system(validate(random_mfg_market(3, seed), Mode.MFG))
                     for seed in (1, 2))
    assert first.rhs(0.5, first.terminal.tolist()) != second.rhs(
        0.5, second.terminal.tolist())
    assert first.rhs.__code__.co_code == second.rhs.__code__.co_code
    assert first.rhs.__code__.co_filename == "<mfg_system d=3>"
    assert not [c for c in first.rhs.__code__.co_consts
                if isinstance(c, float)]


def test_rk4_step_is_generated_once_per_dimension(monkeypatch):
    steps = {}
    monkeypatch.setattr(riccati, "_RK4_STEPS", steps)
    grid = TimeGrid(t_end=1.0, n_steps=10)
    first = solve_closed_loop(market_from_params("rich"), grid)
    step = steps[20]
    second = solve_closed_loop(market_from_params("stepg"), grid)
    assert not np.array_equal(first.values, second.values)
    solve_open_loop(market_from_params("rich"), grid)
    assert list(steps) == [20, 8] and steps[20] is step
    code = step.__code__
    assert code.co_filename == "<rk4_step n=20>"
    assert {c for c in code.co_consts if isinstance(c, float)} == {
        0.5, 2.0, 6.0}


@pytest.mark.parametrize("returned", [[-1.0, -2.0, -3.0], [-1.0]])
def test_rhs_of_the_wrong_length_is_an_error(returned):
    system = OdeSystem(rhs=lambda t, y: returned, terminal=np.zeros(2),
                       labels=("a", "b"))
    with pytest.raises(ValueError):
        integrate_backward(system, TimeGrid(t_end=1.0, n_steps=4))


def test_table_above_the_cap_is_refused_before_any_allocation(monkeypatch):
    system = OdeSystem(rhs=lambda t, y: [0.0, 0.0], terminal=np.zeros(2),
                       labels=("a", "b"))
    # 10**12 steps would be a 14.6 TiB table, and its times 7.3 TiB.
    with pytest.raises(ValueError, match="GiB cap"):
        integrate_backward(system, TimeGrid(t_end=1.0, n_steps=10**12))
    # 4 steps of 2 components are 5 x 2 doubles, 80 bytes.
    grid = TimeGrid(t_end=1.0, n_steps=4)
    monkeypatch.setattr(riccati, "MAX_ENSEMBLE_BYTES", 80)
    assert integrate_backward(system, grid).values.shape == (5, 2)
    monkeypatch.setattr(riccati, "MAX_ENSEMBLE_BYTES", 79)
    with pytest.raises(ValueError, match="GiB cap"):
        integrate_backward(system, grid)


def test_numpy_numbers_are_stored_as_python_floats():
    # Solves on numpy scalars run several times slower than on floats, so
    # every market number is stored as a float whatever type it came in.
    p = fz.PARAMS["stepg"]
    reals = ("sigma", "q", "eps", "c", "lam", "rho_k")

    def build(real, integer):
        gammas = tuple(
            StepFunction(breaks=tuple(map(real, g.breaks)),
                         values=tuple(map(real, g.values)))
            for g in map(gamma_from_spec, p["gamma"]))
        return two_groups(
            rho=real(p["rho"]), horizon=real(p["T"]),
            n1=integer(p["N"][0]), n2=integer(p["N"][1]), gamma=gammas,
            **{key: tuple(map(real, p[key])) for key in reals})

    market = build(np.float64, np.int64)
    assert type(market.rho) is float and type(market.horizon) is float
    for g in market.groups:
        assert [type(getattr(g, key)) for key in reals] == [float] * 6
        assert type(g.n_banks) is int
        assert {type(x) for x in g.gamma.breaks + g.gamma.values} == {float}
    plain = build(float, int)
    assert market == plain
    grid = TimeGrid(t_end=1.0, n_steps=200)
    for kind, solve in SOLVERS.items():
        assert solve(market, grid).values.tobytes() == solve(
            plain, grid).values.tobytes(), kind


def test_blow_up_matches_the_array_loop():
    # The table is checked once, after the loop: every system must still
    # report the node and label a check after each step would.  A huge
    # slack diverges at once; a huge growth rate below t = 0.5, off the
    # grid, diverges mid-horizon in the linear components only.
    stiff = two_groups(n1=4, n2=16, eps=(4e7, 4.5))
    late = two_groups(n1=4, n2=16, gamma=(
        StepFunction(breaks=(0.51,), values=(1e16, 0.0)), 0.0))
    grid = TimeGrid(t_end=1.0, n_steps=50)
    seen = set()
    for market, kinds in [(stiff, BUILDERS), (late, ("closed", "open", "mfg"))]:
        breaks = [b for g in market.groups for b in g.gamma.breaks]
        for kind in kinds:
            builder, mode = BUILDERS[kind]
            system = builder(validate(market, mode))
            with pytest.raises(_reference.ArrayBlowUp) as want:
                _reference.rk4_backward_arrays(system, grid, breaks)
            with pytest.raises(BlowUp) as got:
                integrate_backward(system, grid, breaks)
            assert (got.value.t, got.value.component) == (
                want.value.t, want.value.component), kind
            seen.add(got.value.t)
    assert seen == {0.98, 0.5}


def test_a_diverging_solve_stops_within_one_block():
    # The table is checked block by block: a solve that leaves the window
    # at its second step calls the right-hand side for one block of rows
    # at most, not for the whole grid, and one that leaves it mid-horizon,
    # blocks below the top, still reports the array loop's node and label.
    grid = TimeGrid(t_end=1.0, n_steps=2000)
    stiff = two_groups(n1=4, n2=16, eps=(4e7, 4.5))
    late = two_groups(n1=4, n2=16, gamma=(
        StepFunction(breaks=(0.51,), values=(1e16, 0.0)), 0.0))
    for market, first_calls in [(stiff, 4 * riccati._CHECK_ROWS),
                                (late, None)]:
        breaks = [b for g in market.groups for b in g.gamma.breaks]
        system = closed_loop_system(validate(market, Mode.CLOSED_LOOP))
        calls = 0

        def counted(t, y):
            nonlocal calls
            calls += 1
            return system.rhs(t, y)

        with pytest.raises(_reference.ArrayBlowUp) as want:
            _reference.rk4_backward_arrays(system, grid, breaks)
        with pytest.raises(BlowUp) as got:
            integrate_backward(dataclasses.replace(system, rhs=counted),
                               grid, breaks)
        assert (got.value.t, got.value.component) == (
            want.value.t, want.value.component)
        if first_calls is not None:
            assert got.value.t == 0.999
            assert calls <= first_calls
        else:
            assert 0.5 < got.value.t < 0.51


def test_an_rhs_that_fails_on_a_blown_up_state_is_a_blow_up():
    # Below t = 0.3 component b is driven past the limit, and c's rate
    # exp(|b| / 1e10) overflows once the RHS is fed b from a written row
    # (about 1e13 at the next step's stages; 5e12 at most inside the step
    # that first leaves the window).
    def rhs(t, y):
        return [1.0, -1e14 if t < 0.3 else 0.0, math.exp(abs(y[1]) / 1e10)]

    system = OdeSystem(rhs=rhs, terminal=np.zeros(3), labels=("a", "b", "c"))
    grid = TimeGrid(t_end=1.0, n_steps=20)
    with pytest.raises(OverflowError):
        rhs(0.2, [0.0, 1e13, 0.0])
    with pytest.raises(_reference.ArrayBlowUp) as want:
        _reference.rk4_backward_arrays(system, grid)
    with pytest.raises(BlowUp) as got:
        integrate_backward(system, grid)
    assert (got.value.t, got.value.component) == (want.value.t,
                                                  want.value.component)
    assert (got.value.t, got.value.component) == (grid.times()[5], "b")


def test_an_rhs_error_before_any_blow_up_propagates():
    # Rows were written and all lie inside the window: the RHS's own
    # error, of any type, is what the caller sees.
    def wrong_length(t, y):
        return [0.0, 0.0] if t > 0.5 else [0.0]

    def divides(t, y):
        return [1.0 / float(t > 0.5), 0.0]

    grid = TimeGrid(t_end=1.0, n_steps=4)
    for rhs, error in [(wrong_length, ValueError),
                       (divides, ZeroDivisionError)]:
        system = OdeSystem(rhs=rhs, terminal=np.zeros(2), labels=("a", "b"))
        with pytest.raises(error):
            integrate_backward(system, grid)


@pytest.mark.parametrize("c_slope", [1e14, 2.0])
def test_nan_is_a_blow_up_at_its_first_label(c_slope):
    # Below t = 0.3 component b turns NaN and c takes the given slope (so
    # passes the limit, or not); the first stage to see it belongs to the
    # step ending at node 0.25.
    def rhs(t, y):
        late = t < 0.3
        return [1.0, math.nan if late else 0.0, c_slope if late else 0.0]

    system = OdeSystem(rhs=rhs, terminal=np.zeros(3), labels=("a", "b", "c"))
    grid = TimeGrid(t_end=1.0, n_steps=20)
    with pytest.raises(_reference.ArrayBlowUp) as want:
        _reference.rk4_backward_arrays(system, grid)
    with pytest.raises(BlowUp) as got:
        integrate_backward(system, grid)
    assert (got.value.t, got.value.component) == (want.value.t,
                                                  want.value.component)
    assert (got.value.t, got.value.component) == (grid.times()[5], "b")


def test_components_just_inside_the_limit_are_no_blow_up():
    terminal = np.full(3, 0.9 * BLOWUP_LIMIT)
    system = OdeSystem(rhs=lambda t, y: [0.0, 0.0, 0.0], terminal=terminal,
                       labels=("a", "b", "c"))
    path = integrate_backward(system, TimeGrid(t_end=1.0, n_steps=4))
    assert np.array_equal(path.values, np.tile(terminal, (5, 1)))


def test_labels():
    assert len(CLOSED_LABELS) == 20
    assert len(LIMITING_LABELS) == 12
    assert len(OPEN_LABELS) == 8
    assert CLOSED_LABELS[0] == "eta1" and CLOSED_LABELS[10] == "phi1"
    assert mfg_labels(2) == ("etam_1", "etam_2", "psim_1_1", "psim_1_2",
                             "psim_2_1", "psim_2_2", "mum_1", "mum_2")


def test_systems_and_paths_check_their_labels():
    with pytest.raises(ValueError, match="disagree on dimension"):
        OdeSystem(rhs=lambda t, y: y, terminal=np.zeros(3), labels=("a", "b"))
    with pytest.raises(ValueError, match="labels must be unique"):
        OdeSystem(rhs=lambda t, y: y, terminal=np.zeros(2), labels=("a", "a"))
    with pytest.raises(ValueError, match="labels must be unique"):
        CoefficientPath(grid=TimeGrid(t_end=1.0, n_steps=2),
                        values=np.zeros((3, 2)), labels=("a", "a"))


def test_solve_without_a_grid_takes_the_default_steps():
    market = weights_market()
    path = solve_limiting(market)
    assert path.grid == TimeGrid(t_end=market.horizon, n_steps=2000)
    assert riccati.DEFAULT_STEPS == 2000
    assert np.array_equal(path.values,
                          solve_limiting(market, path.grid).values)


def test_path_interpolation_and_range():
    market = weights_market()
    path = solve_limiting(market, TimeGrid(t_end=1.0, n_steps=10))
    nodes = path.times
    mid = 0.5 * (nodes[3] + nodes[4])
    want = 0.5 * (path.values[3] + path.values[4])
    assert np.abs(path.at(mid) - want).max() < 1e-15
    assert path.at(0.0) is not None
    with pytest.raises(ValueError):
        path.at(-0.01)
    with pytest.raises(ValueError):
        path.at(1.01)
    for lookup in (path.column, lambda label: path.value_at(0.5, label)):
        with pytest.raises(KeyError, match="no component labeled 'nope'"):
            lookup("nope")


def _node_interpolation(path, t):
    """Scalar lookup by bisection of the node times, written out."""
    t_end = path.grid.t_end
    t = min(max(t, 0.0), t_end)
    j = int(np.searchsorted(path.times, t, side="right")) - 1
    j = min(max(j, 0), len(path.times) - 2)
    w = (t - path.times[j]) / (path.times[j + 1] - path.times[j])
    return (1.0 - w) * path.values[j] + w * path.values[j + 1]


@pytest.mark.parametrize("system", sorted(SOLVERS))
def test_path_at_is_bit_identical_for_scalars_and_arrays(system):
    market = market_from_params("stepg")
    path = SOLVERS[system](market, TimeGrid(t_end=1.0, n_steps=37))
    rng = np.random.default_rng(3)
    times = np.concatenate([rng.uniform(0.0, 1.0, 200), path.times,
                            [-1e-12, 1.0 + 1e-12, 0.5]])
    scalar = np.stack([path.at(float(t)) for t in times])
    want = np.stack([_node_interpolation(path, float(t)) for t in times])
    assert scalar.tobytes() == want.tobytes()
    assert path.at(times).tobytes() == scalar.tobytes()
    assert path.at(times[:240].reshape(2, 120)).shape == (
        2, 120, len(path.labels))


def test_path_at_rejects_times_off_the_horizon():
    path = solve_limiting(weights_market(), TimeGrid(t_end=1.0, n_steps=10))
    for bad in (1.01, -0.01, np.nan, np.array([0.2, 1.01])):
        with pytest.raises(OutOfHorizon):
            path.at(bad)
    assert issubclass(OutOfHorizon, ValueError)


def test_csv_round_trip(tmp_path):
    market = market_from_params("stepg")
    path = solve_closed_loop(market, TimeGrid(t_end=1.0, n_steps=50))
    target = tmp_path / "closed.csv"
    path.write_csv(target)
    text = target.read_text()
    assert text.splitlines()[0] == "t," + ",".join(CLOSED_LABELS)
    loaded = read_csv(target)
    assert loaded.labels == path.labels
    assert loaded.grid == path.grid
    assert np.array_equal(loaded.values, path.values)



def test_csv_with_an_uneven_time_column_is_rejected(tmp_path):
    target = tmp_path / "uneven.csv"
    target.write_text("t,eta1\n0,1\n0.25,1\n1,1\n")
    with pytest.raises(ValueError, match="not a uniform grid"):
        read_csv(target)


@pytest.mark.parametrize("text", ["", "t,eta1\n", "t,eta1\n\n"])
def test_csv_without_rows_is_rejected(tmp_path, text):
    target = tmp_path / "empty.csv"
    target.write_text(text)
    with pytest.raises(ValueError, match="first column|no data rows"):
        read_csv(target)

_CSV_TOKENS = ["0", "0.5", "1", "-2", "1e400", "nan", "inf", "", " ", "x",
               "1_0", "0x1", "1,2", "t", "é"]


@st.composite
def _csv_texts(draw):
    """Text near the CSV layout: a header, then rows of drawn tokens."""
    header = draw(st.sampled_from(["t", "t,a", "t,a,b", "t,a,a", "a,t", "",
                                   "t,é"]))
    rows = draw(st.lists(st.lists(st.sampled_from(_CSV_TOKENS), max_size=4),
                         max_size=5))
    if draw(st.booleans()):  # a uniform time column
        rows = [[f"{j / max(1, len(rows) - 1)!r}"] + row[1:]
                for j, row in enumerate(rows)]
    return "\n".join([header] + [",".join(row) for row in rows])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_csv_texts(), st.text(max_size=60)))
def test_malformed_csv_raises_only_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "path.csv")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            path = read_csv(target)
        except ValueError:
            return
    assert np.isfinite(path.values).all()
    assert path.values.shape == (path.grid.n_steps + 1, len(path.labels))


def test_csv_text_writes_text_as_is_and_numbers_exactly():
    text = csv_text(("name", "value"), [("a", 0.1), ("b", 3), ("c", 2 / 3)])
    assert text == ("name,value\na,0.10000000000000001\nb,3\n"
                    "c,0.66666666666666663\n")
    assert csv_text(("t",), []) == "t\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=lambda m: f"{m:03o}")
def test_outputs_get_the_mode_of_a_plain_open(tmp_path, umask):
    path = solve_limiting(weights_market(), TimeGrid(t_end=1.0, n_steps=10))
    old = os.umask(umask)
    try:
        path.write_csv(tmp_path / "limiting.csv")
        with atomic_file(tmp_path / "paths.bin", "wb") as fh:
            fh.write(b"\x00" * 8)
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    want = 0o666 & ~umask
    for name in ("limiting.csv", "paths.bin", "plain"):
        assert (tmp_path / name).stat().st_mode & 0o777 == want, name


def test_csv_write_is_atomic(tmp_path):
    path = solve_limiting(weights_market(), TimeGrid(t_end=1.0, n_steps=10))
    target = tmp_path / "out" / "limiting.csv"
    target.parent.mkdir()
    path.write_csv(target)
    leftovers = [p for p in target.parent.iterdir() if p.name != "limiting.csv"]
    assert leftovers == []


@settings(max_examples=15, deadline=None)
@given(
    q=st.floats(0.5, 3.0),
    slack1=st.floats(0.1, 3.0),
    slack2=st.floats(0.1, 3.0),
    lam1=st.floats(0.05, 0.95),
    lam2=st.floats(0.05, 0.95),
    beta1=st.floats(0.2, 0.8),
    c=st.floats(0.0, 1.0),
    horizon=st.floats(0.5, 2.0),
)
def test_weight_sum_identity_random_markets(q, slack1, slack2, lam1, lam2,
                                            beta1, c, horizon):
    market = two_groups(
        beta=(beta1, 1.0 - beta1), horizon=horizon, q=(q, q),
        eps=(q * q + slack1, q * q + slack2), lam=(lam1, lam2), c=(c, c),
    )
    path = solve_limiting(market, TimeGrid(t_end=horizon, n_steps=500))
    total = np.abs(path.column("etahat4") + path.column("etahat5")).max()
    assert total < 1e-10
    assert np.isfinite(path.values).all()
