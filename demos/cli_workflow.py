"""Drive the command-line interface end to end from one config file.

The installed console script is called ``interbank``; this demo calls
the same entry point in process.  A run is described by an INI-style
config: top-level keys for the market and the run, one [group.k]
section per group; the flags --steps, --seed, --paths and --out replace
those keys.  Every command writes its outputs plus a JSON manifest to
the --out directory: the package version, the output list, and the
config text the run read with the flags written in.  Running the same
command on that text repeats the run.

Commands:
    solve      integrate coefficient systems, one CSV per system
    simulate   Monte Carlo ensemble, summary statistics per time node
    sweep      one-axis parameter sweep of the liquidity rate
    check      structural identities and bounds on the solved systems
    prob       barrier-crossing probability by Monte Carlo, checked
               against the reflection formula where it holds
"""

import os
import tempfile

from interbank.cli import main

CONFIG = """\
# two groups: 4 large banks, 16 small
rho = 0.0
horizon = 1.0
steps = 400
seed = 11
paths = 2000
systems = closed, open, limiting, mfg
checks = identity, bounds, rowsums
axis = lambda2
values = 0.1, 0.5, 0.9
barrier = -0.62
target = global
mc = true

[group.1]
sigma = 1.0
q = 2.0
eps = 5.0
lam = 0.1
n_banks = 4

[group.2]
sigma = 1.0
q = 2.0
eps = 4.5
lam = 0.5
n_banks = 16
"""

with tempfile.TemporaryDirectory() as tmp:
    cfg = os.path.join(tmp, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)

    for command in ("solve", "simulate", "check", "prob", "sweep"):
        out = os.path.join(tmp, command)
        print(f"$ interbank {command} --config run.cfg --out {command}/")
        rc = main([command, "--config", cfg, "--out", out])
        print(f"  exit {rc}, wrote: {', '.join(sorted(os.listdir(out)))}")

    # Exit codes separate outcome classes: 0 all checks passed, 1 a
    # check failed (the lambda2 sweep direction, see the line above),
    # 2 rejected parameters, 3 a blown-up integration.
    bad = os.path.join(tmp, "bad.cfg")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(CONFIG.replace("eps = 5.0", "eps = 3.0"))
    rc = main(["solve", "--config", bad, "--out", os.path.join(tmp, "bad")])
    print(f"eps below q**2 is rejected before any work: exit {rc}")
