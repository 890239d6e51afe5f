"""The benchmark's workloads: inputs made from a seed, operations, checks.

A workload runs in rounds.  Every round attempts the same operations,
each a call into the package through its public API, and checks every
output against ``oracles`` before the next operation starts.  An
operation fails when the package raises or, for a command, exits with a
non-zero code; a check that does not hold makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import shutil

import numpy as np

import interbank as ib
import interbank.cli
import oracles

GRID = ib.TimeGrid(t_end=1.0, n_steps=2000)


class Workload:
    """Counts operations and collects failed checks across rounds."""

    name = ""

    def __init__(self, root: str, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def rng(self, round_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, round_index])

    def op(self, tracer, name: str, fn):
        """Run one operation; an exception marks it failed."""
        self.attempted += 1
        with tracer.span(f"bench.{name}"):
            try:
                return fn()
            except Exception as exc:  # a raising operation is a failed one
                self.failed += 1
                self.notes.append(f"{name}: {type(exc).__name__}: {exc}")
                return None

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def verify(self, tag: str, check, *args):
        """Run a check on an operation's output files; a file that cannot
        be parsed counts as a failed check."""
        try:
            return check(*args)
        except Exception as exc:  # malformed output is a wrong output
            self.problems.append(f"{tag}: {type(exc).__name__}: {exc}")
            return None

    def warm_up(self) -> None:
        """Touch every code path once at a small size."""

    def run_round(self, index: int, tracer) -> None:
        raise NotImplementedError

    def end_round(self, index: int) -> None:
        """Untimed clean-up after a round."""

    def finish(self) -> None:
        """Checks that pool every round of the run."""


# ----------------------------------------------------------------------
# Frozen markets.


def frozen_market(params: dict) -> ib.MarketParams:
    """The market a frozen parameter set describes."""
    gammas = []
    for spec in params["gamma"]:
        v0, rest = spec[0], spec[1:]
        gammas.append(ib.StepFunction(breaks=tuple(b for b, _ in rest),
                                      values=(v0,) + tuple(v for _, v in rest)))
    if len(params["q"]) == 2:
        return ib.two_groups(
            rho=params["rho"], horizon=params["T"], n1=params["N"][0],
            n2=params["N"][1], sigma=params["sigma"], q=params["q"],
            eps=params["eps"], c=params["c"], lam=params["lam"],
            rho_k=params["rho_k"], gamma=tuple(gammas))
    groups = tuple(
        ib.GroupParams(sigma=1.0, q=q, eps=e, c=c, lam=lam, gamma=g)
        for q, e, c, lam, g in zip(params["q"], params["eps"], params["c"],
                                   params["lam"], gammas))
    return ib.MarketParams(rho=0.0, horizon=params["T"], groups=groups,
                           beta=params["beta"])


def columns(path) -> dict[str, np.ndarray]:
    return {label: path.values[:, j] for j, label in enumerate(path.labels)}


def node(path, t: float) -> int:
    """Grid node at time t (every frozen time sits on a node)."""
    j = int(round(t / path.grid.dt))
    if abs(path.times[j] - t) > 1e-12:
        raise ValueError(f"t={t} is not a grid node")
    return j


def system_of(labels) -> str:
    first = labels[0]
    if first == "eta1":
        return "closed"
    if first == "etao1":
        return "open"
    if first == "etahat1":
        return "limiting"
    return "mfg"


def prop1_groups(market: ib.MarketParams):
    return tuple((g.q, g.eps, g.c, g.lam) for g in market.groups)


def market_beta(market: ib.MarketParams) -> tuple[float, ...]:
    if all(g.n_banks is not None for g in market.groups):
        total = sum(g.n_banks for g in market.groups)
        return tuple(g.n_banks / total for g in market.groups)
    return tuple(market.beta)


class PathChecks:
    """Structural and frozen-value checks shared by the solver workloads."""

    def __init__(self, workload: Workload, frozen) -> None:
        self.w = workload
        self.frozen = frozen

    def structure(self, tag: str, path, market=None) -> None:
        cols = columns(path)
        system = system_of(path.labels)
        w = self.w
        w.expect(bool(np.isfinite(path.values).all()), f"{tag}: non-finite")
        if system == "mfg":
            d = sum(1 for label in path.labels if label.startswith("etam_"))
            gap = oracles.mfg_row_sum_gap(cols, d)
            w.expect(gap <= oracles.IDENTITY_TOL,
                     f"{tag}: psim row sums {gap:.2e}")
            return
        gap = oracles.shift_identity_gap(cols, system)
        w.expect(gap <= oracles.IDENTITY_TOL,
                 f"{tag}: shift identity {gap:.2e}")
        if system == "limiting" and market is not None:
            slack = oracles.prop1_slack(path.times, cols["etahat5"],
                                        cols["phihat4"], prop1_groups(market),
                                        market_beta(market))
            w.expect(slack >= -1e-8, f"{tag}: Prop-1 slack {slack:.2e}")

    def frozen_values(self, tag: str, path, name: str, system: str) -> None:
        for (fname, fsystem, t), values in self.frozen.COEFFS.items():
            if (fname, fsystem) != (name, system):
                continue
            row = path.values[node(path, t)]
            for label, want in values.items():
                got = row[path.labels.index(label)]
                tol = oracles.frozen_tolerance(want, path.grid.dt)
                self.w.expect(abs(got - want) <= tol,
                              f"{tag}: {label}(t={t}) = {got!r}, mpmath "
                              f"{want!r}")

    def frozen_rate0(self, name: str) -> float:
        ref = self.frozen.COEFFS[(name, "closed", 0.0)]
        return oracles.liquidity_rate0(ref["eta1"], ref["eta4"],
                                       self.frozen.PARAMS[name]["N"][0])


# ----------------------------------------------------------------------
# mc_default: repeated systemic-default estimates.


class McDefault(Workload):
    """Criterion-4 market: one group of 10 banks, rho = 0, barrier -0.62,
    T = 1 on 2000 steps.  Each estimate has its own seed and passes no
    strategy, so it solves the mean-field system first."""

    name = "mc_default"
    PATHS = 4096
    LEVEL = -0.62
    SIZE = 10

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        group = ib.GroupParams(sigma=1.0, q=2.0, eps=5.0, c=0.0, lam=0.0,
                               n_banks=self.SIZE)
        self.market = ib.MarketParams(groups=(group,), rho=0.0, horizon=1.0,
                                      beta=(1.0,))
        self.default = ib.DefaultSpec.global_average(self.LEVEL)
        vol = math.sqrt(oracles.average_variance_rate(
            0.0, (1.0,), (1.0,), (0.0,), (self.SIZE,)))
        self.band = oracles.hitting_band(self.LEVEL, vol, 1.0, GRID.dt)
        self.hits = 0
        self.paths = 0

    def warm_up(self):
        ib.mc_hitting_probability(
            self.market, ib.NoiseSpec(rho=0.0, rho_k=(0.0,), seed=1,
                                      n_paths=16),
            self.default, grid=ib.TimeGrid(t_end=1.0, n_steps=100))

    def run_round(self, index, tracer):
        seed = int(self.rng(index).integers(2 ** 63))
        spec = ib.NoiseSpec(rho=0.0, rho_k=(0.0,), seed=seed,
                            n_paths=self.PATHS)
        est = self.op(tracer, "estimate", lambda: ib.mc_hitting_probability(
            self.market, spec, self.default, grid=GRID))
        if est is None:
            return
        tag = f"estimate seed={seed}"
        self.expect(est.n_paths == self.PATHS, f"{tag}: n_paths")
        self.expect(est.probability == est.n_hits / est.n_paths,
                    f"{tag}: probability is not hits / paths")
        p = est.probability
        self.expect(math.isclose(est.stderr,
                                 math.sqrt(p * (1 - p) / est.n_paths)),
                    f"{tag}: binomial standard error")
        self.expect(oracles.hits_consistent(est.n_hits, est.n_paths,
                                            *self.band),
                    f"{tag}: {est.n_hits} hits of {est.n_paths} outside the "
                    f"reflection band {self.band}")
        self.hits += est.n_hits
        self.paths += est.n_paths

    def finish(self):
        if self.paths:
            self.expect(oracles.hits_consistent(self.hits, self.paths,
                                                *self.band),
                        f"pooled {self.hits} hits of {self.paths} outside the "
                        f"reflection band {self.band}")


# ----------------------------------------------------------------------
# coeff_sweeps: the numerical analysis without Monte Carlo.


class CoeffSweeps(Workload):
    """Every system on the frozen markets, the three liquidity sweeps,
    convergence to the mean-field rule, random markets from the
    criterion-2 and criterion-6 families, step halving and the
    dynamic-programming residual."""

    name = "coeff_sweeps"
    SOLVERS = {
        "closed": "solve_closed_loop",
        "open": "solve_open_loop",
        "limiting": "solve_limiting",
        "mfg": "solve_mfg",
    }
    N_TOTALS = (10, 20, 100)
    LIMITING_MARKETS = 16
    MFG_SIZES = (1, 2, 3, 4)

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        self.frozen = oracles.load_frozen(root)
        self.checks = PathChecks(self, self.frozen)
        self.markets = {name: frozen_market(p)
                        for name, p in self.frozen.PARAMS.items()}
        self.systems = sorted({(name, system)
                               for name, system, _ in self.frozen.COEFFS})
        self.benchmark = self.markets["benchmark"]
        self.weights = ib.two_groups(beta=(0.2, 0.8))

    def solve(self, system, market, grid):
        return getattr(ib, self.SOLVERS[system])(market, grid)

    def warm_up(self):
        grid = ib.TimeGrid(t_end=1.0, n_steps=20)
        for system in self.SOLVERS:
            self.solve(system, self.benchmark, grid)

    def run_round(self, index, tracer):
        rng = self.rng(index)
        closed = None
        for name, system in self.systems:
            market = self.markets[name]
            grid = ib.TimeGrid(t_end=market.horizon, n_steps=2000)
            path = self.op(tracer, f"solve.{system}",
                           lambda: self.solve(system, market, grid))
            if path is not None:
                tag = f"{name}/{system}"
                self.checks.frozen_values(tag, path, name, system)
                self.checks.structure(tag, path, market)
                if (name, system) == ("benchmark", "closed"):
                    closed = path
        self.sweeps(tracer, rng)
        self.convergence(tracer)
        self.limiting_family(tracer, rng)
        self.mfg_family(tracer, rng)
        self.order_and_residual(tracer, rng, closed)

    def sweeps(self, tracer, rng):
        rate0 = self.checks.frozen_rate0("benchmark")
        lam2 = tuple(sorted({0.5, *np.round(rng.uniform(0.05, 0.95, 2), 6)}))
        result = self.op(tracer, "sweep.lambda2", lambda: ib.sweep_liquidity(
            self.benchmark, ib.SweepAxis.LAMBDA2, lam2))
        if result is not None:
            got = result.rate0[lam2.index(0.5)]
            self.expect(abs(got - rate0) <= oracles.frozen_tolerance(
                rate0, GRID.dt), f"lambda2 sweep: rate(0) at 0.5 = {got!r}, "
                f"mpmath {rate0!r}")
            self.expect(all(r > 0 for r in result.rate0),
                        "lambda2 sweep: non-positive rate")
        result = self.op(tracer, "sweep.horizon", lambda: ib.sweep_liquidity(
            self.benchmark, ib.SweepAxis.HORIZON, (10.0,), n_steps=2000))
        if result is not None:
            # Constant rates make the system autonomous: the T = 10 curve
            # at t = 9 is the T = 1 curve at t = 0.
            times, curve = result.times[0], result.curves[0]
            j = int(round(9.0 / (times[1] - times[0])))
            got = curve[j]
            self.expect(abs(got - rate0) <= oracles.frozen_tolerance(
                rate0, times[1] - times[0]),
                f"horizon sweep: rate(9) at T=10 = {got!r}, mpmath rate(0) at "
                f"T=1 {rate0!r}")
            front = curve[times <= 5.0]
            self.expect(front.max() - front.min() <= 0.01 * abs(curve[0]),
                        "horizon sweep: no plateau on the first half")
        result = self.op(tracer, "sweep.n_total", lambda: ib.sweep_liquidity(
            self.benchmark, ib.SweepAxis.N_TOTAL, self.N_TOTALS))
        if result is not None:
            got = result.rate0[self.N_TOTALS.index(20)]
            self.expect(abs(got - rate0) <= oracles.frozen_tolerance(
                rate0, GRID.dt), f"N sweep: rate(0) at N=20 = {got!r}, "
                f"mpmath {rate0!r}")
            self.expect(all(b > a for a, b in zip(result.rate0,
                                                  result.rate0[1:])),
                        f"N sweep: rate(0) not increasing {result.rate0}")

    def convergence(self, tracer):
        report = self.op(tracer, "convergence", lambda: ib.convergence_to_mfg(
            self.benchmark, (100, 1_000, 10_000), grid=GRID))
        if report is not None:
            for kind, gaps, slope in (
                    ("closed", report.closed_gaps, report.closed_slope),
                    ("open", report.open_gaps, report.open_slope)):
                self.expect(all(b < a for a, b in zip(gaps, gaps[1:])),
                            f"convergence: {kind} gaps not decreasing {gaps}")
                # The finite-N rules differ from the mean-field rule by
                # O(1/N).
                self.expect(-1.1 <= slope <= -0.9,
                            f"convergence: {kind} slope {slope:.3f}")
            self.expect(report.closed_gaps[-1] < 1e-2,
                        f"convergence: final gap {report.closed_gaps[-1]}")
        gaps = self.op(tracer, "open_vs_limiting", lambda: ib.open_vs_limiting(
            self.weights, 1_000_000, grid=GRID))
        if gaps is not None:
            worst = max(gaps.values())
            self.expect(worst < 1e-3, f"open vs limiting at N=1e6: {worst}")

    def limiting_family(self, tracer, rng):
        """Criterion-2 family: random weight-only markets, limiting system
        at 500 steps, Prop-1 bound slack."""
        for _ in range(self.LIMITING_MARKETS):
            q = rng.uniform(0.5, 3.0, size=2)
            eps = q * q + rng.uniform(0.1, 4.0, size=2)
            c = rng.uniform(0.0, 2.0, size=2)
            lam = rng.uniform(0.05, 0.95, size=2)
            b1 = rng.uniform(0.1, 0.9)
            horizon = rng.uniform(0.5, 2.0)
            market = ib.two_groups(beta=(b1, 1.0 - b1), q=tuple(q),
                                   eps=tuple(eps), c=tuple(c), lam=tuple(lam),
                                   horizon=horizon)
            grid = ib.TimeGrid(t_end=horizon, n_steps=500)

            def solve_and_bound(market=market, grid=grid):
                path = ib.solve_limiting(market, grid)
                return path, ib.check_prop1_bounds(path, market)
            out = self.op(tracer, "limiting.random", solve_and_bound)
            if out is None:
                continue
            path, slack = out
            cols = columns(path)
            mine = oracles.prop1_slack(path.times, cols["etahat5"],
                                       cols["phihat4"], prop1_groups(market),
                                       market_beta(market))
            tag = f"random limiting market {market}"
            self.expect(abs(slack - mine) <= 1e-12,
                        f"{tag}: package slack {slack!r}, oracle {mine!r}")
            self.checks.structure(tag, path, market)

    def mfg_family(self, tracer, rng):
        """Criterion-6 family: random d-group mean-field markets with
        terminal weights above the well-posedness floor, 1000 steps."""
        for d in self.MFG_SIZES:
            qs = rng.uniform(0.5, 2.5, size=d)
            groups = tuple(
                ib.GroupParams(
                    sigma=rng.uniform(0.5, 2.0), q=q,
                    eps=q * q + rng.uniform(0.1, 3.0), c=0.0,
                    lam=rng.uniform(0.05, 0.95), rho_k=rng.uniform(0.0, 0.9),
                    gamma=ib.StepFunction(breaks=(),
                                          values=(rng.uniform(-0.5, 0.5),)))
                for q in qs)
            floor = max(max(gk.q * gk.lam / gh.lam - gh.q
                            for gk in groups for gh in groups), 0.0)
            groups = tuple(dataclasses.replace(g, c=floor + rng.uniform(0.1,
                                                                        1.0))
                           for g in groups)
            w = rng.uniform(0.2, 1.0, size=d)
            horizon = rng.uniform(0.5, 2.0)
            market = ib.MarketParams(groups=groups, rho=rng.uniform(0.0, 0.9),
                                     horizon=horizon, beta=tuple(w / w.sum()))
            grid = ib.TimeGrid(t_end=horizon, n_steps=1000)

            def solve_and_sum(market=market, grid=grid):
                path = ib.solve_mfg(market, grid)
                return path, ib.check_mfg_row_sums(path)
            out = self.op(tracer, "mfg.random", solve_and_sum)
            if out is None:
                continue
            path, worst = out
            tag = f"random mean-field market d={d}"
            self.expect(worst < 1e-8, f"{tag}: package row sums {worst:.2e}")
            self.checks.structure(tag, path)

    def order_and_residual(self, tracer, rng, closed):
        ref = self.frozen.COEFFS[("benchmark", "closed", 0.0)]

        def errors():
            out = []
            for steps in (20, 40):
                path = ib.solve_closed_loop(
                    self.benchmark, ib.TimeGrid(t_end=1.0, n_steps=steps))
                out.append(max(abs(path.values[0][path.labels.index(k)] - v)
                               for k, v in ref.items()))
            return out
        errs = self.op(tracer, "step_halving", errors)
        if errs is not None:
            self.expect(oracles.rk4_order_ok(*errs),
                        f"step halving: error ratio {errs[0] / errs[1]:.2f}")
        if closed is None:
            return
        seed = int(rng.integers(2 ** 31))
        residual = self.op(tracer, "hjb_residual", lambda: ib.hjb_residual(
            closed, self.benchmark, 100, seed=seed))
        if residual is not None:
            self.expect(residual < 1e-4,
                        f"dynamic-programming residual {residual:.2e}")


# ----------------------------------------------------------------------
# cli_run: the console script, in process.


PROB_CONFIG = """\
rho = 0.6
horizon = 1.0
steps = 400
seed = 11
paths = 2000
barrier = -0.62
target = global
mc = true

[group.1]
sigma = 1.0
q = 2.0
eps = 5.0
lam = 0.0
rho_k = 0.3
n_banks = 4

[group.2]
sigma = 1.0
q = 2.0
eps = 4.5
lam = 0.0
rho_k = 0.3
n_banks = 16
"""


def stepg_config(params: dict, steps: int, paths: int) -> str:
    """README-style two-group config for the frozen ``stepg`` market."""
    lines = [
        f"rho = {params['rho']!r}",
        f"horizon = {params['T']!r}",
        f"steps = {steps}",
        "seed = 7",
        f"paths = {paths}",
        "jobs = 1",
        "x0 = 0.0~0.1, 0.2~0.3",
        "systems = closed, open, limiting, mfg",
        "checks = identity, bounds, rowsums",
        "axis = n_total",
        "values = 10, 20, 50, 100",
    ]
    for k in range(2):
        v0, *rest = params["gamma"][k]
        gamma = ", ".join([repr(v0)] + [f"{b!r}:{v!r}" for b, v in rest])
        lines += [
            "", f"[group.{k + 1}]",
            f"sigma = {params['sigma'][k]!r}",
            f"q = {params['q'][k]!r}",
            f"eps = {params['eps'][k]!r}",
            f"c = {params['c'][k]!r}",
            f"lam = {params['lam'][k]!r}",
            f"rho_k = {params['rho_k'][k]!r}",
            f"gamma = {gamma}",
            f"n_banks = {params['N'][k]}",
        ]
    return "\n".join(lines) + "\n"


class CliRun(Workload):
    """``interbank.cli.main`` on the frozen ``stepg`` market written as a
    config file (4 + 16 banks, rho > 0, rho_k > 0, random x0), then
    ``prob`` on a driftless market where the command's analytic claim does
    not apply.

    ``simulate`` runs serially. With two worker threads, the round's wall
    time follows how free the second core is: on a shared two-core
    machine its spread between runs was about twice the serial one, and
    it was no faster at 1000 paths.
    """

    name = "cli_run"
    STEPS = 400
    PATHS = 1000
    SUMMARY_NODES = range(0, 401, 40)
    QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        self.frozen = oracles.load_frozen(root)
        self.checks = PathChecks(self, self.frozen)
        params = self.frozen.PARAMS["stepg"]
        self.params = params
        self.config = os.path.join(scratch, "run.cfg")
        self.prob_config = os.path.join(scratch, "prob.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(stepg_config(params, self.STEPS, self.PATHS))
        with open(self.prob_config, "w", encoding="utf-8") as fh:
            fh.write(PROB_CONFIG)
        self.market = frozen_market(params)
        grid = ib.TimeGrid(t_end=params["T"], n_steps=self.STEPS)
        self.moments = self.summary_oracle(grid)
        # prob: equal sigma, lam = 0 and gamma = 0 leave the global average
        # a driftless Brownian motion.
        beta = (0.2, 0.8)
        vol = math.sqrt(oracles.average_variance_rate(
            0.6, beta, (1.0, 1.0), (0.3, 0.3), (4, 16)))
        self.prob_band = oracles.hitting_band(-0.62, vol, 1.0, 1.0 / 400)
        self.z = oracles.two_sided_z()
        self.dkw = oracles.dkw_epsilon(self.PATHS) + 1.0 / self.PATHS
        self.scores: list[list[float]] = []
        self.spreads: list[list[float]] = []

    def summary_oracle(self, grid):
        """Mean and covariance of the group means at every node, from the
        closed-loop rule's average weights and intercepts."""
        p = self.params
        strategy = ib.feedback_closed(ib.solve_closed_loop(self.market, grid),
                                      self.market)
        steps = grid.n_steps
        times = np.linspace(0.0, grid.t_end, steps + 1)[:steps]
        growth = np.empty((steps, 2))
        for k, spec in enumerate(p["gamma"]):
            v0, rest = spec[0], spec[1:]
            for n, t in enumerate(times):
                # Left-continuous: a rate applies up to and including its
                # break point.
                value = v0
                for brk, v in rest:
                    if t > brk:
                        value = v
                growth[n, k] = value
        sizes = p["N"]
        step_cov = oracles.group_noise_covariance(p["rho"], p["sigma"],
                                                  p["rho_k"], sizes, grid.dt)
        mean0 = np.array([0.0, 0.2])
        cov0 = np.diag(np.array([0.1, 0.3]) ** 2 / np.array(sizes))
        return oracles.euler_group_moments(
            strategy.avg_weights[:steps], strategy.intercept[:steps] + growth,
            step_cov, mean0, cov0, grid.dt)

    def command(self, tracer, name: str, argv):
        """One command in process; stdout is kept for the checks."""
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out):
                return ib.cli.main(argv)
        rc = self.op(tracer, f"cli.{name}", call)
        if rc not in (0, None):
            self.failed += 1
            self.notes.append(f"{name}: exit {rc}: {out.getvalue().strip()}")
        return rc, out.getvalue()

    def warm_up(self):
        out = os.path.join(self.scratch, "warm")
        with contextlib.redirect_stdout(io.StringIO()):
            ib.cli.main(["solve", "--config", self.config, "--out", out,
                         "--steps", "20", "--quiet"])
        shutil.rmtree(out)

    def round_dir(self, index: int) -> str:
        return os.path.join(self.scratch, f"round-{index}")

    def run_round(self, index, tracer):
        out = self.round_dir(index)
        seed = str(int(self.rng(index).integers(2 ** 31)))
        common = ["--out", out, "--quiet"]
        rc, _ = self.command(tracer, "solve",
                             ["solve", "--config", self.config, *common])
        paths = {}
        if rc == 0:
            paths = self.verify("cli solve", self.check_solve, out) or {}
        rc, _ = self.command(tracer, "simulate",
                             ["simulate", "--config", self.config, *common,
                              "--seed", seed])
        if rc == 0:
            self.verify("cli simulate", self.check_summary,
                        os.path.join(out, "ensemble_summary.csv"))
        rc, text = self.command(tracer, "sweep",
                                ["sweep", "--config", self.config, *common])
        if rc == 0:
            self.verify("cli sweep", self.check_sweep,
                        os.path.join(out, "sweep_n_total.csv"), text)
        rc, _ = self.command(tracer, "check",
                             ["check", "--config", self.config, *common])
        if rc == 0:
            self.verify("cli check", self.check_check,
                        os.path.join(out, "check_results.csv"), paths)
        # Fails every time: cmd_prob compares the estimate with a formula
        # for a single uncorrelated group.
        rc, text = self.command(tracer, "prob",
                                ["prob", "--config", self.prob_config,
                                 *common])
        if rc is not None:
            self.verify("cli prob", self.check_prob,
                        os.path.join(out, "prob.csv"))

    def end_round(self, index):
        shutil.rmtree(self.round_dir(index), ignore_errors=True)

    def check_solve(self, out: str) -> dict:
        paths = {}
        for system in ("closed", "open", "limiting", "mfg"):
            path = ib.read_csv(os.path.join(out, f"{system}.csv"))
            tag = f"cli solve {system}"
            self.expect(path.grid.n_steps == self.STEPS, f"{tag}: grid")
            self.checks.frozen_values(tag, path, "stepg", system)
            self.checks.structure(tag, path, self.market)
            paths[system] = path
        return paths

    def check_summary(self, filename: str) -> None:
        """Every 40th node against the Euler moments: a z-test on each
        mean, chi-square on the distance's spread, DKW on the quantiles.
        The scores are kept so ``finish`` can test them pooled over all
        rounds, which sees errors a single round of 1000 paths cannot."""
        with open(filename, encoding="ascii") as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(filename, delimiter=",", skiprows=1)
        col = {name: data[:, j] for j, name in enumerate(header)}
        means, covs = self.moments
        beta = np.array([0.2, 0.8])
        n = self.PATHS
        scores, spreads = [], []
        for j in self.SUMMARY_NODES:
            mu, cov = means[j], covs[j]
            tag = f"cli simulate t={col['t'][j]:.3f}"
            dist_var = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
            for name, want, var in (
                    ("g1_mean", mu[0], cov[0, 0]),
                    ("g2_mean", mu[1], cov[1, 1]),
                    ("global_mean", beta @ mu, beta @ cov @ beta),
                    ("dist_mean", mu[0] - mu[1], dist_var)):
                score = (col[name][j] - want) / math.sqrt(var / n)
                self.expect(abs(score) <= self.z, f"{tag}: {name} "
                            f"{col[name][j]:.5f}, Euler mean {want:.5f}")
                scores.append(score)
            for k in range(2):
                sd = math.sqrt(cov[k, k])
                for p in self.QUANTILES:
                    q = col[f"g{k + 1}_q{round(100 * p):02d}"][j]
                    level = oracles.normal_cdf((q - mu[k]) / sd)
                    self.expect(abs(level - p) <= self.dkw,
                                f"{tag}: g{k + 1} quantile {p} sits at level "
                                f"{level:.4f}")
                    scores.append((level - p) / math.sqrt(p * (1 - p) / n))
            spread = n * col["dist_std"][j] ** 2 / dist_var
            self.expect(oracles.chi2_consistent(spread, n - 1, self.z),
                        f"{tag}: dist_std {col['dist_std'][j]:.5f}, Euler "
                        f"{math.sqrt(dist_var):.5f}")
            spreads.append(spread)
        self.scores.append(scores)
        self.spreads.append(spreads)

    def finish(self):
        rounds = len(self.scores)
        if not rounds:
            return
        pooled = np.sum(self.scores, axis=0) / math.sqrt(rounds)
        worst = float(np.abs(pooled).max())
        self.expect(worst <= self.z, f"cli simulate pooled over {rounds} "
                    f"rounds: worst score {worst:.2f}")
        for spread in np.sum(self.spreads, axis=0):
            self.expect(oracles.chi2_consistent(
                spread, rounds * (self.PATHS - 1), self.z),
                f"cli simulate pooled over {rounds} rounds: distance "
                f"variance ratio {spread / (rounds * self.PATHS):.4f}")

    def check_sweep(self, filename: str, text: str) -> None:
        self.expect(text.startswith("PASS sweep n_total"),
                    f"cli sweep: {text.strip()}")
        data = np.loadtxt(filename, delimiter=",", skiprows=1,
                          usecols=(1, 2, 3))
        starts = data[data[:, 1] == 0.0]
        rate0 = dict(zip(starts[:, 0], starts[:, 2]))
        want = self.checks.frozen_rate0("stepg")
        got = rate0.get(20.0, math.nan)
        self.expect(abs(got - want) <= oracles.frozen_tolerance(
            want, 1.0 / self.STEPS), f"cli sweep: rate(0) at N=20 = {got!r}, "
            f"mpmath {want!r}")
        values = [rate0[v] for v in sorted(rate0)]
        self.expect(len(values) == 4 and all(
            b > a for a, b in zip(values, values[1:])),
            f"cli sweep: rate(0) by N {values}")

    def check_check(self, filename: str, paths: dict) -> None:
        with open(filename, encoding="ascii") as fh:
            rows = {line.split(",")[0]: line.strip().split(",")
                    for line in fh.readlines()[1:]}
        self.expect(sorted(rows) == ["bounds", "identity", "rowsums"],
                    f"cli check: rows {sorted(rows)}")
        if not {"limiting", "mfg"} <= set(paths) or len(rows) != 3:
            return
        cols = columns(paths["limiting"])
        identity = max(
            float(np.abs(cols["etahat4"] + cols["etahat5"]).max()),
            float(np.abs(cols["phihat4"] + cols["phihat5"]).max()))
        slack = oracles.prop1_slack(paths["limiting"].times, cols["etahat5"],
                                    cols["phihat4"], prop1_groups(self.market),
                                    market_beta(self.market))
        mfg = columns(paths["mfg"])
        rowsum = max(float(np.abs(mfg[f"psim_{k}_1"] + mfg[f"psim_{k}_2"])
                           .max()) for k in (1, 2))
        for name, mine in (("identity", identity), ("bounds", slack),
                           ("rowsums", rowsum)):
            got = float(rows[name][1])
            self.expect(abs(got - mine) <= 1e-12 and rows[name][3] == "1",
                        f"cli check {name}: {got!r}, from the solved paths "
                        f"{mine!r}")

    def check_prob(self, filename: str) -> None:
        with open(filename, encoding="ascii") as fh:
            rows = dict(line.strip().split(",") for line in fh.readlines()[1:])
        hits, n = int(float(rows["n_hits"])), int(float(rows["n_paths"]))
        self.expect(n == 2000 and float(rows["mc"]) == hits / n,
                    f"cli prob: {rows}")
        self.expect(oracles.hits_consistent(hits, n, *self.prob_band),
                    f"cli prob: {hits} hits of {n} outside the reflection "
                    f"band {self.prob_band} of the exact variance")


WORKLOADS = {w.name: w for w in (McDefault, CoeffSweeps, CliRun)}
