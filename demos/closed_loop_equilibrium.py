"""Solve the coupled Riccati systems for a two-group lending market.

A market has d groups of banks; banks control the rate at which they
borrow from or lend to the others, trading tracking error against a
quadratic effort cost.  The equilibrium feedback rule is affine in the
bank's own log-reserve and the group averages, with time-varying
coefficients that solve a terminal-value ODE system.

This script builds the standard two-group market (4 large banks with
low mixing weight, 16 small banks with high mixing weight), solves the
closed-loop, open-loop, mean-field, and limiting systems on one grid,
and shows how to read coefficients, evaluate the feedback rule, and
round-trip the solution through CSV.
"""

import tempfile

import numpy as np

from interbank import (
    TimeGrid,
    feedback_closed,
    liquidity_rate,
    read_csv,
    solve_closed_loop,
    solve_limiting,
    solve_mfg,
    solve_open_loop,
    two_groups,
)

market = two_groups(n1=4, n2=16)
grid = TimeGrid(t_end=market.horizon, n_steps=400)

# Each solver integrates its own coefficient system backward from the
# terminal condition and returns the path sampled on the grid nodes.
closed = solve_closed_loop(market, grid)
open_path = solve_open_loop(market, grid)
mfg = solve_mfg(market, grid)
limiting = solve_limiting(market, grid)

print("closed-loop labels: ", ", ".join(closed.labels))
print("open-loop labels:   ", ", ".join(open_path.labels))
print("mean-field labels:  ", ", ".join(mfg.labels))
print("limiting labels:    ", ", ".join(limiting.labels))

# Coefficients are largest at t=0 and decay to the terminal condition:
# the further the horizon, the more aggressively banks track the pack.
for t in (0.0, 0.5, 1.0):
    print(f"eta1({t:.1f}) = {closed.value_at(t, 'eta1'):+.6f}   "
          f"eta6({t:.1f}) = {closed.value_at(t, 'eta6'):+.6f}")

# The feedback rule itself: a group-1 bank sitting 0.3 below its group
# average borrows, one sitting above lends (negative rate).
strategy = feedback_closed(closed, market)
averages = (0.1, 0.0)
for own in (-0.2, 0.1, 0.4):
    alpha = strategy.control(0.0, 0, own, averages)
    print(f"control(t=0, group 1, x={own:+.1f}, m={averages}) = {alpha:+.6f}")

# The lending intensity toward the own-group average, sampled on the
# grid.  It is flat over most of the horizon and rolls off near T.
rate = liquidity_rate(closed, market)
ts = np.linspace(0.0, market.horizon, 5)
print("liquidity rate:",
      ", ".join(f"{r:.5f}" for r in np.interp(ts, closed.times, rate)))

# Solutions serialize to CSV with one column per coefficient and
# round-trip exactly.
with tempfile.NamedTemporaryFile(suffix=".csv", mode="w") as fh:
    closed.write_csv(fh.name)
    again = read_csv(fh.name)
print("CSV round trip exact:",
      bool(np.array_equal(again.values, closed.values)
           and again.labels == closed.labels))
