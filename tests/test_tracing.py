"""The benchmark's tracer still hooks the package: loaded from its file as
the benchmark loads it, installed around small runs of every traced
layer, and undone without a trace."""

import importlib.util
import inspect
import pathlib

import interbank
from interbank import equilibrium, riccati, simulate
from interbank.model import TimeGrid, two_groups

TRACING = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
           / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> dict:
    """Every function the tracer may rebind, keyed by where it is bound:
    module attributes, entries of module-level tables, the two class
    attributes it wraps, and the simulator's numpy."""
    found = {}
    for module in (interbank, *tracing.LAYER_MODULES):
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                found[(module.__name__, attr)] = value
            elif isinstance(value, dict) and attr != "__builtins__":
                for key, entry in value.items():
                    if inspect.isfunction(entry):
                        found[(module.__name__, attr, key)] = entry
    found["write_csv"] = riccati.CoefficientPath.__dict__["write_csv"]
    found["from_states"] = simulate.TrajectoryEnsemble.__dict__["from_states"]
    found["np"] = simulate.np
    return found


def test_traced_runs_count_every_layer_and_undo_restores_the_package():
    tracing = _load_tracing()
    before = _bindings(tracing)
    market = two_groups(n1=2, n2=3, rho=0.3, rho_k=(0.4, 0.0))
    grid = TimeGrid(t_end=1.0, n_steps=20)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert _bindings(tracing) != before
        # Through the module attributes, which the tracer rebinds.
        strategy = equilibrium.feedback_closed(
            riccati.solve_closed_loop(market, grid), market)
        spec = simulate.NoiseSpec.from_market(market, seed=3, n_paths=8)
        ensemble = simulate.simulate_closed_loop(market, strategy, 0.1, spec,
                                                 grid=grid)
        means = simulate.simulate_group_means(market, strategy, 0.1, spec,
                                              grid=grid)
        estimate = simulate.mc_hitting_probability(
            market, spec, simulate.DefaultSpec.global_average(-0.5),
            strategy, grid=grid)
    finally:
        undo()
    assert ensemble.states.shape == (8, 5, 21) and means.shape == (21, 8, 2)
    assert 0 <= estimate.n_hits <= 8
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    for name in ("simulate.batches", "simulate.ensemble_build_ms",
                 "riccati.rhs_calls"):
        assert metrics[name][0] > 0.0, name
    # A solve may add entries to a cache; no binding may differ.
    after = _bindings(tracing)
    for where, value in before.items():
        assert after[where] is value, where


def test_traced_windows_count_the_normals_drawn(monkeypatch):
    # Windows of 3 rows of the two slots of 8 paths: an estimate draws
    # 21 nodes in 7 windows, and the means one window over the horizon.
    # Each window's block holds drawn rows only, so the tracer's count is
    # the normals drawn: 8 paths x 21 nodes x 2 slots per run.
    tracing = _load_tracing()
    market = two_groups(n1=2, n2=3, rho=0.3, rho_k=(0.4, 0.0))
    grid = TimeGrid(t_end=1.0, n_steps=20)
    strategy = equilibrium.feedback_closed(
        riccati.solve_closed_loop(market, grid), market)
    spec = simulate.NoiseSpec.from_market(market, seed=3, n_paths=8)
    monkeypatch.setattr(simulate, "_WINDOW_BYTES", 8 * 8 * 2 * 3)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        simulate.mc_hitting_probability(
            market, spec, simulate.DefaultSpec.global_average(-0.5),
            strategy, grid=grid)
        simulate.simulate_group_means(market, strategy, 0.1, spec, grid=grid)
    finally:
        undo()
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert metrics["simulate.batches"][0] == 7 + 1
    assert metrics["simulate.normals_drawn"][0] == 2 * 8 * 21 * 2
