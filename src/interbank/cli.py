"""Command-line interface: solve, simulate, sweep, check, prob.

Configuration is a flat key-value text file with one [group.k] section per
group, numbered 1 to d; an unknown, repeated or misnumbered key or section,
or a name repeated in ``systems`` or ``checks``, is rejected (exit 2), and
the message names it::

    rho = 0.0
    horizon = 1.0
    steps = 2000
    seed = 7
    paths = 1000
    # beta = 0.2, 0.8          # only needed when groups omit n_banks

    [group.1]
    sigma = 1.0
    q = 2.0
    eps = 5.0
    c = 0.0
    lam = 0.1
    rho_k = 0.0
    n_banks = 2
    gamma = 0.0                # or "0.5, 0.25:1.0, 0.75:-0.2" (value, break:value, ...)

Top-level keys: the market's ``rho``, ``horizon`` and ``beta``; the run's
``steps``, ``seed``, ``paths``, ``jobs`` and ``out``; and run-specific
``systems`` (solve: closed, open, limiting, mfg), ``x0`` (simulate, prob:
per-group start, "mean" or "mean~std" for i.i.d. normal starts),
``raw_dump`` (simulate), ``barrier``/``target``/``mc`` (prob),
``axis``/``values`` (sweep) and ``checks`` (check: identity, bounds,
rowsums).  The flags --out, --seed, --steps, --paths replace the
corresponding config keys in the text before it is read, so every key,
from the file or a flag, is parsed and checked once, before any work.

Every run writes CSV artifacts atomically plus a JSON manifest holding
the package version and the config text the run read, flags applied;
running the same command on that text repeats the run.  Exit codes:
0 success and all hard checks passed, 1 a hard check failed, 2 rejected
parameters, 3 integration or simulation blow-up.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    SweepAxis,
    analytic_systemic_probability,
    check_mfg_row_sums,
    check_prop1_bounds,
    check_sum_identity,
    monitoring_deficit,
    sweep_claim,
    sweep_liquidity,
)
from .equilibrium import default_strategy
from .model import (
    GroupParams,
    MarketParams,
    Mode,
    RejectedParams,
    StepFunction,
    TimeGrid,
    validate,
)
from .riccati import (
    BlowUp,
    atomic_file,
    atomic_write_text,
    csv_text,
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
)
from .simulate import (
    DefaultSpec,
    NoiseSpec,
    TargetKind,
    mc_hitting_probability,
    mean_step_covariance,
    simulate_closed_loop,
    simulate_group_means,
)

_SOLVERS = {
    "closed": solve_closed_loop,
    "open": solve_open_loop,
    "limiting": solve_limiting,
    "mfg": solve_mfg,
}
_CHECKS = ("identity", "bounds", "rowsums")

# The summary's quantile columns, and the nodes it reduces per block.
_QUANTILES = {"q05": 0.05, "q25": 0.25, "q50": 0.50, "q75": 0.75,
              "q95": 0.95}
_SUMMARY_ROWS = 32

_GROUP_KEYS = ("sigma", "q", "eps", "c", "lam", "rho_k", "gamma", "n_banks")
_TOP_KEYS = ("rho", "horizon", "beta", "steps", "seed", "paths", "jobs",
             "out", "raw_dump", "x0", "systems", "checks", "axis", "values",
             "barrier", "target", "mc")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one CLI invocation; ``text`` is the
    config text they were read from, flags applied."""

    command: str
    text: str
    market: MarketParams
    n_steps: int
    seed: int
    n_paths: int
    out_dir: str
    jobs: int | None = None
    quiet: bool = False
    systems: tuple[str, ...] = ()
    x0: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    barrier: DefaultSpec | None = None
    mc: bool = False
    raw_dump: bool = False
    axis: SweepAxis | None = None
    values: tuple[float, ...] = ()
    checks: tuple[str, ...] = ()


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    """Split a config file into sections of raw key-value strings; a
    section, or a key within one section, may appear only once."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = sections[""]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ValueError(f"line {lineno}: section [{name}] repeated")
            current = sections[name] = {}
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            raise ValueError(f"line {lineno}: key {key!r} repeated")
        current[key] = value
    return sections


def _read(entries: dict[str, str], key: str, parse, default=..., section=""):
    """``parse`` applied to a key's text, or ``default`` when the key is
    absent (required if no default); a failure names the key and text."""
    where = f"[{section}] {key}" if section else key
    if key not in entries:
        if default is ...:
            raise ValueError(f"{where} is required")
        return default
    text = entries[key]
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{where} = {text or '(empty)'}: {exc}") from None


def _parse_gamma(text: str) -> StepFunction:
    parts = [p.strip() for p in text.split(",")]
    values = [float(parts[0])]
    breaks = []
    for part in parts[1:]:
        when, _, value = part.partition(":")
        breaks.append(float(when))
        values.append(float(value))
    return StepFunction(breaks=tuple(breaks), values=tuple(values))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return value


def _finites(text: str) -> tuple[float, ...]:
    return tuple(map(_finite, text.split(",")))


def _parse_x0(text: str, d: int) -> tuple[tuple[float, float], ...]:
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) == 1:
        tokens = tokens * d
    if len(tokens) != d:
        raise ValueError(f"need one entry or one per group ({d})")
    out = []
    for token in tokens:
        mean, tilde, std = token.partition("~")
        out.append((_finite(mean), _finite(std) if tilde else 0.0))
        if out[-1][1] < 0.0:
            raise ValueError("standard deviations must be nonnegative")
    return tuple(out)


_TARGET_INDICES = {"global": 0, "group": 1, "bank": 2}


def _parse_target(text: str, barrier: float) -> DefaultSpec:
    kind, *parts = text.split(":")
    if kind not in _TARGET_INDICES:
        raise ValueError(f"unknown target {text!r}")
    if len(parts) != _TARGET_INDICES[kind]:
        raise ValueError(f"target {text!r}: expected global, group:k or "
                         "bank:k:j")
    try:
        indices = [int(p) - 1 for p in parts]
    except ValueError:
        raise ValueError(
            f"target {text!r}: indices must be integers") from None
    if any(i < 0 for i in indices):
        raise ValueError(f"target {text!r}: indices start at 1")
    return DefaultSpec(barrier, TargetKind(kind), *indices)


def _names(known):
    """Parser of a comma-separated list of distinct names drawn from
    ``known``."""
    def parse(text: str) -> tuple[str, ...]:
        names = tuple(s.strip() for s in text.split(",") if s.strip())
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError(f"unknown {unknown}; expected some of "
                             f"{', '.join(known)}")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"{', '.join(map(repr, repeated))} repeated")
        return names
    return parse


def _at_least(least: int, below: int | None = None):
    """Parser of an integer no smaller than ``least`` and, if ``below`` is
    given, smaller than it."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be at least {least}")
        if below is not None and value >= below:
            raise ValueError(f"must be below {below}")
        return value
    return parse


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _build_market(sections: dict[str, dict[str, str]]) -> MarketParams:
    top = sections[""]
    unknown = set(top) - set(_TOP_KEYS)
    if unknown:
        raise ValueError(f"unknown top-level keys {sorted(unknown)}")
    names = [name for name in sections if name]
    if not names:
        raise ValueError("at least one [group.k] section is required")
    expected = [f"group.{k}" for k in range(1, len(names) + 1)]
    if set(names) != set(expected):
        raise ValueError(
            f"sections must be [group.1] to [group.{len(names)}], without "
            f"gaps or leading zeros; got [{'], ['.join(names)}]")
    groups = []
    for name in expected:
        entries = sections[name]
        unknown = set(entries) - set(_GROUP_KEYS)
        if unknown:
            raise ValueError(f"[{name}]: unknown keys {sorted(unknown)}")
        read = functools.partial(_read, entries, section=name)
        groups.append(GroupParams(
            sigma=read("sigma", float, 1.0),
            q=read("q", float),
            eps=read("eps", float),
            c=read("c", float, 0.0),
            lam=read("lam", float, 0.0),
            rho_k=read("rho_k", float, 0.0),
            gamma=read("gamma", _parse_gamma, StepFunction.constant(0.0)),
            n_banks=read("n_banks", int, None),
        ))
    return MarketParams(
        rho=_read(top, "rho", float, 0.0),
        horizon=_read(top, "horizon", float, 1.0),
        groups=tuple(groups),
        beta=_read(top, "beta", _finites, None),
    )


def _config_text(sections: dict[str, dict[str, str]]) -> str:
    """``sections`` as config text, one ``key = value`` line per entry."""
    lines = []
    for name, entries in sections.items():
        lines += [f"[{name}]"] if name else []
        lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def _flag_text(key: str, value) -> str:
    """A flag's value as config text; a value that the text would read
    back differently (a ``#``, a line break, or leading or trailing
    spaces) is refused."""
    text = str(value)
    if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
        raise ValueError(f"--{key} {text!r}: config text cannot hold a '#', "
                         "a line break, or leading or trailing spaces")
    return text


def build_runconfig(command: str, sections: dict[str, dict[str, str]],
                    overrides: argparse.Namespace) -> RunConfig:
    """Read every key once; the flags --steps, --seed, --paths and --out
    are written into the top-level section first, as if the file held
    them."""
    top = dict(sections[""])
    for key in ("steps", "seed", "paths", "out"):
        if getattr(overrides, key) is not None:
            top[key] = _flag_text(key, getattr(overrides, key))
    sections = {**sections, "": top}
    market = _build_market(sections)
    d = len(market.groups)
    level = _read(top, "barrier",
                  lambda t: DefaultSpec.global_average(float(t)).level, None)
    # The target is read, and so checked, with or without a barrier.  It
    # must exist: its group in the market, and its bank where the group's
    # size is known.
    spec_level = 0.0 if level is None else level
    barrier = _read(top, "target", lambda t: _parse_target(t, spec_level),
                    DefaultSpec.global_average(spec_level))
    barrier.check_sizes([math.inf if g.n_banks is None else g.n_banks
                         for g in market.groups])
    return RunConfig(
        command=command,
        text=_config_text(sections),
        market=market,
        n_steps=_read(top, "steps", _at_least(2), 2000),
        seed=_read(top, "seed", _at_least(0, below=2**64), 0),
        n_paths=_read(top, "paths", _at_least(1), 1000),
        out_dir=_read(top, "out", str, "out"),
        jobs=_read(top, "jobs", _at_least(1), None),
        quiet=overrides.quiet,
        systems=_read(top, "systems", _names(_SOLVERS), ()),
        x0=_read(top, "x0", lambda t: _parse_x0(t, d), ((0.0, 0.0),) * d),
        barrier=None if level is None else barrier,
        mc=_read(top, "mc", _parse_bool, False),
        raw_dump=_read(top, "raw_dump", _parse_bool, False),
        axis=_read(top, "axis", SweepAxis, None),
        values=_read(top, "values", _finites, ()),
        checks=_read(top, "checks", _names(_CHECKS), ()),
    )


def config_to_manifest(config: RunConfig, outputs: list[str]) -> dict:
    """JSON-ready echo of the run: the config text it read, flags applied."""
    return {"version": __version__, "command": config.command,
            "config": config.text, "outputs": outputs}


def runconfig_from_manifest(manifest: dict) -> RunConfig:
    """The settings of the run a manifest records, read from its config
    text with no flags."""
    no_flags = argparse.Namespace(steps=None, seed=None, paths=None, out=None,
                                  quiet=False)
    return build_runconfig(manifest["command"],
                           parse_config_text(manifest["config"]), no_flags)


def _say(config: RunConfig, message: str) -> None:
    if not config.quiet:
        print(message)


def _grid(config: RunConfig) -> TimeGrid:
    return TimeGrid(t_end=config.market.horizon, n_steps=config.n_steps)


def _default_systems(config: RunConfig) -> tuple[str, ...]:
    market = config.market
    sized = all(g.n_banks is not None for g in market.groups)
    systems = []
    if len(market.groups) == 2:
        if sized:
            systems += ["closed", "open"]
        systems.append("limiting")
    systems.append("mfg")
    return tuple(systems)


# Every command returns its exit code and the files it wrote; ``main``
# lists them in the command's manifest.


def cmd_solve(config: RunConfig) -> tuple[int, list[str]]:
    systems = config.systems or _default_systems(config)
    outputs = []
    for name in systems:
        path = _SOLVERS[name](config.market, _grid(config))
        filename = os.path.join(config.out_dir, f"{name}.csv")
        path.write_csv(filename)
        outputs.append(filename)
        _say(config, f"wrote {filename} ({len(path.labels)} components)")
    return 0, outputs


def _summary_table(means: np.ndarray, times: np.ndarray, beta
                   ) -> tuple[list[str], np.ndarray]:
    """The header and [nodes, columns] table of ``ensemble_summary.csv``
    for the group means [nodes, paths, d]: per node, each group's mean
    and quantiles over the paths, the beta-weighted global mean and, for
    two groups, the mean and standard deviation of their distance.

    Nodes are summarised ``_SUMMARY_ROWS`` at a time, so no temporary
    holds every node's paths.  Each node is reduced along its own row,
    with the strides it has in ``means``, so no number depends on the
    block size.
    """
    d = means.shape[2]
    header = ["t"]
    for k in range(1, d + 1):
        header += [f"g{k}_mean"] + [f"g{k}_{name}" for name in _QUANTILES]
    header.append("global_mean")
    if d == 2:
        header += ["dist_mean", "dist_std"]
    levels = list(_QUANTILES.values())
    table = np.empty((len(times), len(header)))
    for lo in range(0, len(times), _SUMMARY_ROWS):
        rows = slice(lo, lo + _SUMMARY_ROWS)
        block = means[rows]
        columns = [times[rows]]
        for k in range(d):
            series = block[:, :, k]
            columns += [series.mean(axis=1),
                        *np.quantile(series, levels, axis=1)]
        columns.append((block @ beta).mean(axis=1))
        if d == 2:
            distance = block[:, :, 0] - block[:, :, 1]
            columns += [distance.mean(axis=1), distance.std(axis=1)]
        table[rows] = np.column_stack(columns)
    return header, table


def cmd_simulate(config: RunConfig) -> tuple[int, list[str]]:
    spec = NoiseSpec.from_market(config.market, config.seed, config.n_paths)
    grid = _grid(config)
    strategy = default_strategy(config.market, grid)
    # Dumped bank paths come first: theirs is the larger cap, so an
    # oversized run is refused before any draw.
    if config.raw_dump:
        ensemble = simulate_closed_loop(config.market, strategy, config.x0,
                                        spec, grid=grid, jobs=config.jobs)
    means = simulate_group_means(config.market, strategy, config.x0, spec,
                                 grid=grid, jobs=config.jobs)
    header, table = _summary_table(
        means, grid.times(), validate(config.market, Mode.MFG).beta)
    # Only the summary is written: free the means before its text.
    del means
    summary = os.path.join(config.out_dir, "ensemble_summary.csv")
    atomic_write_text(summary, csv_text(header, table.tolist()))
    outputs = [summary]
    _say(config, f"wrote {summary} ({config.n_paths} paths)")
    if config.raw_dump:
        raw = os.path.join(config.out_dir, "paths.bin")
        header = (f"raw float64 little-endian paths={ensemble.n_paths} "
                  f"banks={ensemble.n_banks} nodes={ensemble.grid.n_steps + 1}\n")
        with atomic_file(raw, "wb") as fh:
            fh.write(header.encode("ascii"))
            ensemble.states.astype("<f8", copy=False).tofile(fh)
        outputs.append(raw)
        _say(config, f"wrote {raw}")
    return 0, outputs


def cmd_sweep(config: RunConfig) -> tuple[int, list[str]]:
    if config.axis is None or not config.values:
        raise ValueError("sweep needs 'axis' and 'values' in the config")
    result = sweep_liquidity(config.market, config.axis, config.values,
                             n_steps=config.n_steps)
    filename = os.path.join(config.out_dir,
                            f"sweep_{config.axis.value}.csv")
    rows = [(config.axis.value, value, t, r)
            for value, times, curve in zip(result.values, result.times,
                                           result.curves)
            for t, r in zip(times.tolist(), curve.tolist())]
    atomic_write_text(filename, csv_text(("axis", "value", "t", "rate"), rows))
    description, ok = sweep_claim(result)
    summary = ", ".join(f"{v:g}:{r:.6g}" for v, r in zip(result.values,
                                                         result.rate0))
    print(f"{'PASS' if ok else 'FAIL'} sweep {config.axis.value}: "
          f"{description}; rate(0) by value: {summary}")
    return (0 if ok else 1), [filename]


def cmd_check(config: RunConfig) -> tuple[int, list[str]]:
    # identity and bounds read the limiting system, which needs two groups.
    checks = config.checks or (_CHECKS if len(config.market.groups) == 2
                               else ("rowsums",))
    results = []
    market = config.market
    grid = _grid(config)
    # identity and bounds read the same limiting solution.
    if {"identity", "bounds"} & set(checks):
        limiting = solve_limiting(market, grid)
    for name in checks:
        if name == "identity":
            eta, phi = check_sum_identity(limiting)
            value, threshold = max(eta, phi), 1e-8
            ok = value < threshold
            detail = f"max|etahat4+etahat5|={eta:.3e} max|phihat4+phihat5|={phi:.3e}"
        elif name == "bounds":
            value, threshold = check_prop1_bounds(limiting, market), -1e-8
            ok = value >= threshold
            detail = f"min slack={value:.3e}"
        else:  # rowsums
            value, threshold = check_mfg_row_sums(solve_mfg(market, grid)), 1e-8
            ok = value < threshold
            detail = f"max|sum_h psim_k_h|={value:.3e}"
        results.append((name, value, threshold, int(ok)))
        print(f"{'PASS' if ok else 'FAIL'} check {name}: {detail} "
              f"(threshold {threshold:g})")
    filename = os.path.join(config.out_dir, "check_results.csv")
    atomic_write_text(filename, csv_text(("check", "value", "threshold",
                                          "passed"), results))
    return (0 if all(ok for *_, ok in results) else 1), [filename]


def _reflection_volatility(config: RunConfig, strategy) -> float | None:
    """Volatility of the global average when it is a driftless Brownian
    motion started at 0, where the reflection formula holds; else None.

    That needs a global target, gamma = 0, a rule whose average weights
    and intercepts vanish, and a degenerate start at 0.  The variance rate
    is then beta^T Sigma beta, with Sigma the group means' step covariance
    that the simulator draws from.
    """
    market = config.market
    if (config.barrier.kind is not TargetKind.GLOBAL_AVERAGE
            or any(not g.gamma.is_zero for g in market.groups)
            or strategy.avg_weights.any() or strategy.intercept.any()
            or any(pair != (0.0, 0.0) for pair in config.x0)):
        return None
    vm = validate(market, Mode.MFG)
    beta = np.array(vm.beta)
    variance = beta @ mean_step_covariance(vm) @ beta
    return float(np.sqrt(variance)) if variance > 0.0 else None


def cmd_prob(config: RunConfig) -> tuple[int, list[str]]:
    if config.barrier is None:
        raise ValueError("prob needs 'barrier' in the config")
    market = config.market
    grid = _grid(config)
    strategy = default_strategy(market, grid)
    level = config.barrier.level
    vol = _reflection_volatility(config, strategy)
    rows = []
    if vol is None:
        print("analytic: n/a (the reflection formula needs a driftless "
              "global average started at 0)")
    else:
        analytic = analytic_systemic_probability(level, vol, 1,
                                                 market.horizon)
        rows.append(("analytic", analytic))
        print(f"analytic systemic probability: {analytic:.6g} "
              f"(D={level:g}, vol={vol:.6g}, T={market.horizon:g})")
    ok = True
    if config.mc:
        spec = NoiseSpec.from_market(market, config.seed, config.n_paths)
        estimate = mc_hitting_probability(market, spec, config.barrier,
                                          strategy, x0=config.x0, grid=grid,
                                          jobs=config.jobs)
        rows += [("mc", estimate.probability), ("stderr", estimate.stderr)]
        if vol is None:
            print(f"prob: mc={estimate.probability:.6g} +- "
                  f"{estimate.stderr:.2g} (no analytic claim)")
        else:
            deficit = monitoring_deficit(level, vol, 1, market.horizon,
                                         grid.dt)
            gap = analytic - estimate.probability
            allowance = 3.0 * estimate.stderr
            ok = -allowance <= gap <= allowance + deficit
            rows.append(("deficit", deficit))
            print(f"{'PASS' if ok else 'FAIL'} prob: "
                  f"mc={estimate.probability:.6g} +- {estimate.stderr:.2g}, "
                  f"analytic-mc={gap:.3e} (3*stderr={allowance:.3e} + "
                  f"monitoring deficit {deficit:.3e})")
        rows += [("n_hits", estimate.n_hits), ("n_paths", estimate.n_paths)]
    filename = os.path.join(config.out_dir, "prob.csv")
    atomic_write_text(filename, csv_text(("quantity", "value"), rows))
    return (0 if ok else 1), [filename]


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "prob": cmd_prob,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interbank",
        description="Grouped interbank lending game: solve, simulate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None,
                       help="time-grid steps M")
        p.add_argument("--paths", type=int, default=None,
                       help="Monte Carlo path count")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            sections = parse_config_text(fh.read())
        config = build_runconfig(args.command, sections, args)
        groups = config.market.groups
        sized = all(g.n_banks is not None for g in groups)
        validated = validate(config.market, Mode.CLOSED_LOOP
                             if len(groups) == 2 and sized else Mode.MFG)
        for warning in validated.warnings:
            if not config.quiet:
                print(f"warning: {warning}", file=sys.stderr)
        os.makedirs(config.out_dir, exist_ok=True)
        code, outputs = _COMMANDS[config.command](config)
        manifest = config_to_manifest(config, outputs)
        atomic_write_text(
            os.path.join(config.out_dir, f"{config.command}_manifest.json"),
            json.dumps(manifest, indent=2) + "\n")
        return code
    except RejectedParams as exc:
        print(f"rejected parameters: {exc}", file=sys.stderr)
        return 2
    except BlowUp as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
