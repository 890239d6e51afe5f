"""Shared test helpers: markets built from the frozen parameter sets."""

import math

import numpy as np

import _frozen

from interbank.model import GroupParams, MarketParams, StepFunction, two_groups


def gamma_from_spec(spec) -> StepFunction:
    """Convert the frozen (v0, (break, v), ...) encoding to a StepFunction."""
    v0, rest = spec[0], spec[1:]
    return StepFunction(breaks=tuple(b for b, _ in rest),
                        values=(v0,) + tuple(v for _, v in rest))


def market_from_params(name: str) -> MarketParams:
    """Rebuild the market a frozen parameter set describes."""
    p = _frozen.PARAMS[name]
    gammas = tuple(gamma_from_spec(g) for g in p["gamma"])
    if len(p["q"]) == 2:
        return two_groups(
            rho=p["rho"], horizon=p["T"], n1=p["N"][0], n2=p["N"][1],
            sigma=p["sigma"], q=p["q"], eps=p["eps"], c=p["c"],
            lam=p["lam"], rho_k=p["rho_k"], gamma=gammas,
        )
    groups = tuple(
        GroupParams(sigma=1.0, q=q, eps=e, c=c, lam=l, gamma=g)
        for q, e, c, l, g in zip(p["q"], p["eps"], p["c"], p["lam"], gammas)
    )
    return MarketParams(rho=0.0, horizon=p["T"], groups=groups, beta=p["beta"])


def random_mfg_market(d: int, seed: int) -> MarketParams:
    """A d-group mean-field market with distinct random constants, terminal
    weights above the existence threshold and a growth rate per group
    that jumps once at a random time."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.5, 2.5, d)
    lam = rng.uniform(0.2, 0.9, d)
    floor = max(0.0, ((q * lam)[:, None] / lam[None, :] - q[None, :]).max())
    w = rng.uniform(0.2, 1.0, d)
    groups = tuple(
        GroupParams(sigma=1.0, q=q[k], eps=q[k] * q[k] + rng.uniform(0.1, 3.0),
                    c=floor + rng.uniform(0.1, 1.0), lam=lam[k],
                    gamma=StepFunction(breaks=(rng.uniform(0.1, 0.9),),
                                       values=tuple(rng.uniform(-0.5, 0.5, 2))))
        for k in range(d))
    return MarketParams(rho=0.0, horizon=1.0, groups=groups,
                        beta=tuple(w / w.sum()))


def weights_market(**overrides) -> MarketParams:
    """The benchmark two-group market with weights only (no bank counts)."""
    kw = dict(beta=(0.2, 0.8))
    kw.update(overrides)
    return two_groups(**kw)


def scalar_riccati(a: float, b: float, c_run: float, terminal: float,
                   t_end: float, t: float = 0.0) -> float:
    """Closed-form solution of dy/dt = a*y**2 + b*y - c_run, y(T) = terminal."""
    disc = math.sqrt(b * b + 4.0 * a * c_run)
    r_hi = (-b + disc) / (2.0 * a)
    r_lo = (-b - disc) / (2.0 * a)
    z = (terminal - r_hi) / (terminal - r_lo) * math.exp(-disc * (t_end - t))
    return (r_hi - r_lo * z) / (1.0 - z)
