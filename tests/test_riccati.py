import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _frozen as fz
import _reference
from conftest import market_from_params, scalar_riccati, weights_market

from interbank.model import Mode, TimeGrid, two_groups, validate
from interbank.riccati import (
    BLOWUP_LIMIT,
    BlowUp,
    CLOSED_LABELS,
    LIMITING_LABELS,
    OPEN_LABELS,
    CoefficientPath,
    OdeSystem,
    OutOfHorizon,
    closed_loop_system,
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
] + [("mfg3", "mfg")])
def test_solvers_match_the_array_loop_bit_for_bit(name, kind):
    market = market_from_params(name)
    builder, mode = BUILDERS[kind]
    grid = TimeGrid(t_end=market.horizon, n_steps=400)
    want = _reference.rk4_backward_arrays(builder(validate(market, mode)), grid)
    assert np.array_equal(SOLVERS[kind](market, grid).values, want)


def test_blow_up_matches_the_array_loop():
    market = two_groups(n1=4, n2=16, eps=(4e7, 4.5))
    system = closed_loop_system(validate(market, Mode.CLOSED_LOOP))
    grid = TimeGrid(t_end=1.0, n_steps=50)
    with pytest.raises(_reference.ArrayBlowUp) as want:
        _reference.rk4_backward_arrays(system, grid)
    with pytest.raises(BlowUp) as got:
        integrate_backward(system, grid)
    assert (got.value.t, got.value.component) == (want.value.t,
                                                  want.value.component)


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
    with pytest.raises(KeyError):
        path.column("nope")


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
