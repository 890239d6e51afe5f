"""Simulate an ensemble of bank trajectories under the equilibrium rule.

Banks follow an Euler scheme for the controlled diffusion: each step
adds the feedback drift toward the group averages plus a correlated
Gaussian increment built from one global driver, one driver per group,
and an idiosyncratic term per bank.

Randomness is keyed per path: path p draws its whole increment block
from a generator seeded with (seed, p).  The ensemble is therefore
independent of batching and of the number of worker threads, which the
last section checks by direct comparison.
"""

import numpy as np

from interbank import (
    NoiseSpec,
    TimeGrid,
    distance_process,
    feedback_closed,
    simulate_closed_loop,
    solve_closed_loop,
    two_groups,
)

market = two_groups(n1=4, n2=16, rho=0.2, rho_k=(0.3, 0.3))
grid = TimeGrid(t_end=1.0, n_steps=500)
strategy = feedback_closed(solve_closed_loop(market, grid), market)

spec = NoiseSpec.from_market(market, seed=7, n_paths=2000)
ens = simulate_closed_loop(market, strategy, 0.0, spec, grid=grid)

print(f"{ens.n_paths} paths, {ens.n_banks} banks, "
      f"{grid.n_steps} steps of {grid.dt:g}")

# Group averages are stored per path; across paths they stay centered
# while the spread grows roughly like the driver volatilities.
t_idx = [0, 250, 500]
for k in range(ens.d):
    means = ens.group_averages[:, k, t_idx].mean(axis=0)
    stds = ens.group_averages[:, k, t_idx].std(axis=0)
    print(f"group {k + 1} average: mean "
          + ", ".join(f"{m:+.4f}" for m in means)
          + "  spread " + ", ".join(f"{s:.4f}" for s in stds))

# The distance process is the per-path gap between the two group
# averages, the quantity the cross-group tracking terms act on.
dist = distance_process(ens)
print("group-average gap spread:",
      ", ".join(f"{dist[:, i].std():.4f}" for i in t_idx))

# Same spec, different thread count: byte-identical states.
again = simulate_closed_loop(market, strategy, 0.0, spec, grid=grid, jobs=4)
print("identical across jobs:",
      bool(np.array_equal(ens.states, again.states)))
