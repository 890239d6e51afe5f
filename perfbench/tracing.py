"""Spans and counters recorded around the package's public functions.

``install`` replaces every public module-level function of
``interbank.model``, ``riccati``, ``equilibrium``, ``simulate``,
``analysis`` and ``cli`` (and the two public methods that do I/O or
build ensembles) with a wrapper that records a span: name, start, end
and the span that was open when it started.  The layer of a span is the
module that defines the function; ``bench`` spans come from the
benchmark itself.  Calls too frequent for a span each (the right-hand
side of a coefficient system, the seeding of one path's generator) add
to counters instead.  The undo callable that ``install`` returns puts the originals back, so traced
and untraced rounds can alternate in one process.

The package source is never modified; everything happens by rebinding
attributes from this file.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import threading
import time
import types

import numpy as np

import interbank
from interbank import analysis, cli, equilibrium, model, riccati, simulate

LAYER_MODULES = (model, riccati, equilibrium, simulate, analysis, cli)
LAYERS = ("bench", "model", "riccati", "equilibrium", "simulate", "analysis",
          "cli")

# System builders and the system each one's right-hand side belongs to.
BUILDERS = {
    "closed_loop_system": "closed",
    "open_loop_system": "open",
    "limiting_system": "limiting",
    "mfg_system": "mfg",
}
SOLVERS = {
    "solve_closed_loop": "closed",
    "solve_open_loop": "open",
    "solve_limiting": "limiting",
    "solve_mfg": "mfg",
}

MIB = float(2 ** 20)


class Tracer:
    """In-memory span list and counters; written out when the run ends."""

    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent index or -1].
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = {}
        # Per-system right-hand-side [total ns, calls].
        self.rhs = {kind: [0, 0] for kind in BUILDERS.values()}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter_ns()

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    def within(self, prefix: str) -> bool:
        """Whether a span whose name starts with ``prefix`` is open."""
        return any(self.spans[i][0].startswith(prefix)
                   for i in self._stack())


class NullTracer:
    """Stands in for a tracer in untraced rounds; records nothing."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


# ----------------------------------------------------------------------
# Wrappers.


def _spanned(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _builder(tracer: Tracer, fn, name: str, kind: str):
    """Wrap a system builder so the right-hand side it returns is timed."""
    acc = tracer.rhs[kind]
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            system = fn(*args, **kwargs)
        rhs = system.rhs

        def timed_rhs(t, y):
            start = clock()
            out = rhs(t, y)
            acc[0] += clock() - start
            acc[1] += 1
            return out

        return riccati.OdeSystem(rhs=timed_rhs, terminal=system.terminal,
                                 labels=system.labels)
    return wrapper


def _increments(tracer: Tracer, fn, name: str):
    """Wrap the increment generator: one span per batch drawn, plus the
    normals drawn, the path.bank.steps they feed and the batch bytes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    batch = next(batches)
                except StopIteration:
                    return
            paths, steps, banks = batch.idiosyncratic.shape
            active = int(np.any(batch.drivers != 0.0, axis=(0, 1)).sum())
            tracer.counters["simulate.batches"] += 1
            tracer.counters["simulate.normals"] += (
                batch.x0_normals.size + paths * steps * (active + banks))
            tracer.counters["simulate.path_bank_steps"] += paths * steps * banks
            tracer.peak("simulate.noise_bytes",
                        batch.x0_normals.nbytes + batch.drivers.nbytes
                        + batch.idiosyncratic.nbytes)
            yield batch
    return wrapper


def _writer(tracer: Tracer, fn, name: str):
    """Wrap the atomic file writer; bytes written under a cli span count
    toward the cli layer."""
    @functools.wraps(fn)
    def wrapper(path, text):
        with tracer.span(name):
            fn(path, text)
        if tracer.within("cli."):
            tracer.counters["cli.bytes"] += len(text.encode("utf-8"))
    return wrapper


def _ensemble(tracer: Tracer, fn, name: str):
    """Wrap the full simulator; records the bytes of the ensemble it returns."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            ensemble = fn(*args, **kwargs)
        tracer.peak("simulate.states_bytes",
                    ensemble.states.nbytes + ensemble.group_averages.nbytes
                    + ensemble.global_average.nbytes + ensemble.x0.nbytes)
        return ensemble
    return wrapper


def _timed_numpy(tracer: Tracer) -> types.ModuleType:
    """A copy of the numpy namespace whose generator constructors add
    their time to the seeding counter; bound as ``simulate.np`` only."""
    rng_ns = types.ModuleType("numpy.random")
    rng_ns.__dict__.update(np.random.__dict__)
    clock = time.perf_counter_ns
    counters = tracer.counters
    for attr in ("SeedSequence", "PCG64", "Generator"):
        real = getattr(np.random, attr)

        def timed(*args, _real=real, _attr=attr, **kwargs):
            start = clock()
            out = _real(*args, **kwargs)
            counters["simulate.seed_ns"] += clock() - start
            if _attr == "SeedSequence":
                counters["simulate.seeded_paths"] += 1
            return out
        setattr(rng_ns, attr, timed)
    np_ns = types.ModuleType("numpy")
    np_ns.__dict__.update(np.__dict__)
    np_ns.random = rng_ns
    return np_ns


class _Patch:
    """Rebinds attributes and dictionary entries; ``undo`` restores them."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_item(self, table: dict, key, value) -> None:
        self.saved.append((table, key, table[key]))
        table[key] = value

    def undo(self) -> None:
        for owner, key, value in reversed(self.saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self.saved.clear()


def install(tracer: Tracer):
    """Wrap the package's public functions; returns the undo callable."""
    patch = _Patch()
    replaced = {}
    for module in LAYER_MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if attr in BUILDERS:
                replaced[fn] = _builder(tracer, fn, name, BUILDERS[attr])
            elif fn is simulate.generate_increments:
                replaced[fn] = _increments(tracer, fn, name)
            elif fn is riccati.atomic_write_text:
                replaced[fn] = _writer(tracer, fn, name)
            elif fn is simulate.simulate_closed_loop:
                replaced[fn] = _ensemble(tracer, fn, name)
            else:
                replaced[fn] = _spanned(tracer, fn, name)
    # Rebind every reference, including names imported into other modules
    # and dispatch tables such as the cli's command and solver maps.
    for module in (interbank, *LAYER_MODULES):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                patch.set(module, attr, replaced[value])
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if inspect.isfunction(entry) and entry in replaced:
                        patch.set_item(value, key, replaced[entry])
    write_csv = riccati.CoefficientPath.__dict__["write_csv"]
    patch.set(riccati.CoefficientPath, "write_csv",
              _spanned(tracer, write_csv, "riccati.write_csv"))
    from_states = simulate.TrajectoryEnsemble.__dict__["from_states"].__func__
    patch.set(simulate.TrajectoryEnsemble, "from_states", classmethod(
        _spanned(tracer, from_states, "simulate.ensemble_from_states")))
    patch.set(simulate, "np", _timed_numpy(tracer))
    return patch.undo


# ----------------------------------------------------------------------
# Per-layer metrics.


def self_times(tracer: Tracer) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in tracer.spans]
    for _, start, end, parent in tracer.spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, rounds: int,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the spans and counters of ``rounds``
    traced rounds.  Per-call figures are 0 where a workload never makes
    that call."""
    spans = tracer.spans
    own = self_times(tracer)
    durations = collections.defaultdict(list)
    self_by_name = collections.defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0)
    for (name, start, end, _), mine in zip(spans, own):
        durations[name].append(end - start)
        self_by_name[name] += mine
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + mine
    counters = tracer.counters

    def per_call(names, scale, total=None):
        calls = sum(len(durations[n]) for n in names)
        if not calls:
            return 0.0
        spent = total if total is not None else sum(
            sum(durations[n]) for n in names)
        return spent / calls / scale

    def ratio(numerator, denominator, scale=1.0):
        return numerator / denominator / scale if denominator else 0.0

    # Writes the cli makes itself (summaries, manifests), not the ones a
    # coefficient path makes inside write_csv.
    cli_writes = [end - start for name, start, end, parent in spans
                  if name == "riccati.atomic_write_text" and parent >= 0
                  and spans[parent][0].startswith("cli.")]
    cli_calls = len(durations["cli.main"])
    generation_ns = sum(durations["simulate.generate_increments"])
    stepping = ("simulate.simulate_closed_loop",
                "simulate.mc_hitting_probability")
    checks = ("analysis.check_sum_identity", "analysis.check_prop1_bounds",
              "analysis.check_mfg_row_sums")
    parse = ("cli.build_parser", "cli.parse_config_text",
             "cli.build_runconfig")
    feedback = ("equilibrium.feedback_closed", "equilibrium.feedback_open",
                "equilibrium.feedback_mfg")

    out: dict[str, tuple[float, str]] = {}
    out["model.validate_us"] = (per_call(["model.validate"], 1e3), "us")
    for kind in BUILDERS.values():
        spent, calls = tracer.rhs[kind]
        out[f"riccati.rhs_us.{kind}"] = (ratio(spent, calls, 1e3), "us")
    for solver, kind in SOLVERS.items():
        out[f"riccati.solve_ms.{kind}"] = (
            per_call([f"riccati.{solver}"], 1e6), "ms")
    out["riccati.solves"] = (
        sum(len(durations[f"riccati.{s}"]) for s in SOLVERS) / rounds, "count")
    out["riccati.rhs_calls"] = (
        sum(calls for _, calls in tracer.rhs.values()) / rounds, "count")
    out["riccati.csv_write_ms"] = (per_call(["riccati.write_csv"], 1e6), "ms")
    out["riccati.csv_read_ms"] = (per_call(["riccati.read_csv"], 1e6), "ms")
    out["equilibrium.feedback_ms"] = (per_call(feedback, 1e6), "ms")
    out["equilibrium.liquidity_rate_ms"] = (
        per_call(["equilibrium.liquidity_rate"], 1e6), "ms")
    out["simulate.seed_us_per_path"] = (
        ratio(counters["simulate.seed_ns"], counters["simulate.seeded_paths"],
              1e3), "us")
    out["simulate.normal_ns"] = (
        ratio(generation_ns - counters["simulate.seed_ns"],
              counters["simulate.normals"]), "ns")
    out["simulate.normals_drawn"] = (counters["simulate.normals"] / rounds,
                                     "count")
    out["simulate.euler_ns"] = (
        ratio(sum(self_by_name[n] for n in stepping),
              counters["simulate.path_bank_steps"]), "ns")
    out["simulate.noise_mb"] = (
        tracer.maxima.get("simulate.noise_bytes", 0.0) / MIB, "MB")
    out["simulate.states_mb"] = (
        tracer.maxima.get("simulate.states_bytes", 0.0) / MIB, "MB")
    out["simulate.batches"] = (counters["simulate.batches"] / rounds, "count")
    out["simulate.ensemble_build_ms"] = (
        per_call(["simulate.ensemble_from_states"], 1e6), "ms")
    out["simulate.estimate_ms"] = (
        per_call(["simulate.mc_hitting_probability"], 1e6), "ms")
    out["analysis.sweep_s"] = (per_call(["analysis.sweep_liquidity"], 1e9), "s")
    out["analysis.convergence_s"] = (
        per_call(["analysis.convergence_to_mfg"], 1e9), "s")
    out["analysis.hjb_residual_ms"] = (
        per_call(["analysis.hjb_residual"], 1e6), "ms")
    out["analysis.check_ms"] = (per_call(checks, 1e6), "ms")
    out["cli.parse_ms"] = (
        ratio(sum(sum(durations[n]) for n in parse), cli_calls, 1e6), "ms")
    out["cli.summary_ms"] = (
        per_call(["cli.cmd_simulate"], 1e6,
                 total=self_by_name["cli.cmd_simulate"]), "ms")
    out["cli.write_ms"] = (ratio(sum(cli_writes), cli_calls, 1e6), "ms")
    out["cli.bytes_written"] = (
        counters["cli.bytes"] / rounds, "count")
    for command in ("solve", "simulate", "sweep", "check", "prob"):
        out[f"cli.cmd_{command}_ms"] = (
            per_call([f"cli.cmd_{command}"], 1e6), "ms")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (layer_self[layer] / rounds / 1e6, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def dump(tracer: Tracer, path: str) -> None:
    """Write the spans as JSON lines: name, start and end in microseconds
    from the first span, parent index."""
    origin = tracer.spans[0][1] if tracer.spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps([name, (start - origin) / 1e3,
                                 (end - origin) / 1e3, parent]) + "\n")
