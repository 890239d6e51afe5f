import argparse
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
import interbank.cli as cli
from interbank import riccati, simulate
from interbank.cli import (
    RunConfig,
    _parse_bool,
    _parse_gamma,
    _parse_target,
    _parse_x0,
    build_runconfig,
    config_to_manifest,
    main,
    parse_config_text,
    runconfig_from_manifest,
)
from interbank.model import Mode, StepFunction, TimeGrid, validate
from interbank.riccati import csv_text, solve_limiting
from interbank.simulate import DefaultSpec, TargetKind

TWO_GROUP = """\
# two groups, figure-style parameters
rho = 0.0
horizon = 1.0
steps = 200
seed = 11
paths = 64

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

ONE_GROUP = """\
horizon = 1.0
steps = 400
seed = 3
paths = 2000
barrier = -0.62
target = global

[group.1]
sigma = 1.0
q = 2.0
eps = 5.0
lam = 0.0
n_banks = 10
"""


THREE_GROUP = TWO_GROUP + """
[group.3]
q = 1.5
eps = 4.0
lam = 0.3
n_banks = 4
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(tmp_path, command, text, *extra, out="out"):
    cfg = write_config(tmp_path, text)
    out_dir = str(tmp_path / out)
    rc = main([command, "--config", cfg, "--out", out_dir, *extra])
    return rc, out_dir


def test_parse_config_text():
    sections = parse_config_text(
        "a = 1  # trailing comment\n\n[sec]\nkey = x = y\n# only comment\n")
    assert sections[""] == {"a": "1"}
    assert sections["sec"] == {"key": "x = y"}
    with pytest.raises(ValueError):
        parse_config_text("not a pair\n")


def test_parse_gamma():
    assert _parse_gamma("0.1") == StepFunction(breaks=(), values=(0.1,))
    got = _parse_gamma("0.3, 0.5:-0.2, 0.8:0.0")
    assert got == StepFunction(breaks=(0.5, 0.8), values=(0.3, -0.2, 0.0))


def test_parse_x0():
    assert _parse_x0("0.5", 2) == ((0.5, 0.0), (0.5, 0.0))
    assert _parse_x0("0.5~0.1, -0.2", 2) == ((0.5, 0.1), (-0.2, 0.0))
    with pytest.raises(ValueError):
        _parse_x0("1, 2, 3", 2)


def test_parse_target():
    assert _parse_target("global", -0.5) == DefaultSpec.global_average(-0.5)
    got = _parse_target("group:2", -0.5)
    assert got.kind is TargetKind.GROUP_AVERAGE and got.group == 1
    got = _parse_target("bank:1:3", -0.5)
    assert got.group == 0 and got.bank == 2
    with pytest.raises(ValueError):
        _parse_target("everyone", -0.5)
    for text in ("group", "group:x", "group:0", "bank:1", "bank:1:2:3"):
        with pytest.raises(ValueError):
            _parse_target(text, -0.5)


def test_parse_bool():
    assert _parse_bool("TRUE") and _parse_bool("on") and _parse_bool("1")
    assert not (_parse_bool("False") or _parse_bool("no") or _parse_bool("0"))
    with pytest.raises(ValueError):
        _parse_bool("maybe")


def _overrides(**kwargs):
    base = dict(steps=None, seed=None, paths=None, out=None, quiet=False)
    base.update(kwargs)
    return argparse.Namespace(**base)


def test_build_runconfig_overrides():
    sections = parse_config_text(TWO_GROUP)
    config = build_runconfig("solve", sections, _overrides())
    assert config.n_steps == 200 and config.seed == 11 and config.n_paths == 64
    assert config.market.groups[1].eps == 4.5
    assert config.market.groups[1].n_banks == 16
    config = build_runconfig(
        "solve", sections, _overrides(steps=50, seed=7, paths=5, out="other"))
    assert config.n_steps == 50 and config.seed == 7
    assert config.n_paths == 5 and config.out_dir == "other"


def test_manifest_round_trip():
    # Top-level keys must come before the first [group.k] header.
    text = (
        "barrier = -0.4\ntarget = group:2\naxis = lambda2\n"
        "values = 0.1, 0.5, 0.9\nsystems = closed, mfg\njobs = 2\n"
        "x0 = 0.5~0.1, -0.2\nmc = true\nraw_dump = true\n"
        "checks = identity, rowsums\n") + TWO_GROUP
    config = build_runconfig("sweep", parse_config_text(text), _overrides())
    manifest = json.loads(json.dumps(config_to_manifest(config, ["a.csv"])))
    assert manifest["outputs"] == ["a.csv"]
    assert runconfig_from_manifest(manifest) == config


def test_solve_writes_all_systems(tmp_path, capsys):
    rc, out = run(tmp_path, "solve", TWO_GROUP)
    assert rc == 0
    widths = {"closed": 21, "open": 9, "limiting": 13, "mfg": 9}
    for name, n_cols in widths.items():
        lines = pathlib.Path(out, f"{name}.csv").read_text().splitlines()
        assert len(lines) == 202
        assert len(lines[0].split(",")) == n_cols
    manifest = json.loads(pathlib.Path(out, "solve_manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert len(manifest["outputs"]) == 4
    assert "wrote" in capsys.readouterr().out


def test_solve_single_group_defaults_to_mean_field(tmp_path):
    text = "steps = 50\n[group.1]\nq = 2.0\neps = 5.0\nlam = 0.4\nn_banks = 3\n"
    rc, out = run(tmp_path, "solve", text)
    assert rc == 0
    assert sorted(os.listdir(out)) == ["mfg.csv", "solve_manifest.json"]


def test_solve_steps_override(tmp_path):
    cfg = write_config(tmp_path, TWO_GROUP)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--steps", "50",
                 "--quiet"]) == 0
    assert len(pathlib.Path(out, "closed.csv").read_text().splitlines()) == 52


def test_degenerate_costs_solve_to_zero(tmp_path, capsys):
    text = TWO_GROUP.replace("eps = 5.0", "eps = 4.0").replace(
        "eps = 4.5", "eps = 4.0")
    rc, out = run(tmp_path, "solve", text)
    assert rc == 0
    assert "degenerate" in capsys.readouterr().err
    data = np.genfromtxt(os.path.join(out, "closed.csv"), delimiter=",",
                         names=True)
    for name in data.dtype.names[1:]:
        assert np.abs(data[name]).max() == 0.0


def test_rejected_params_exit_code(tmp_path, capsys):
    text = TWO_GROUP.replace("eps = 4.5", "eps = 3.9")  # below q^2
    rc, _ = run(tmp_path, "solve", text)
    assert rc == 2
    assert "rejected parameters" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    text = TWO_GROUP + "whatever = 3\n"  # lands in [group.2]
    rc, _ = run(tmp_path, "solve", text)
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    rc, _ = run(tmp_path, "solve", "systems = closed, bogus\n" + TWO_GROUP)
    assert rc == 2
    rc, _ = run(tmp_path, "sweep", TWO_GROUP)  # no axis/values
    assert rc == 2


@pytest.mark.parametrize("text, message", [
    ("x0 = 0~-1\n" + TWO_GROUP, "standard deviations must be nonnegative"),
    ("horizon = 1.0\nsteps = 10\n", "at least one [group.k] section"),
], ids=["negative-std", "no-groups"])
def test_config_rejections_exit_code(tmp_path, capsys, text, message):
    rc, _ = run(tmp_path, "simulate", text)
    assert rc == 2
    assert message in capsys.readouterr().err


def test_blow_up_exit_code(tmp_path, capsys):
    # A huge growth rate diverges in the linear components only; a huge
    # slack diverges in every system at the first step.
    for text in (
            TWO_GROUP.replace("n_banks = 4\n", "n_banks = 4\ngamma = 1e16\n"),
            TWO_GROUP.replace("eps = 5.0", "eps = 4e7")):
        rc, _ = run(tmp_path, "solve", text)
        assert rc == 3
        assert "blow-up" in capsys.readouterr().err


def test_missing_group_sizes_rejected(tmp_path):
    # Weights suffice for the limiting and mean-field systems; the
    # finite-player systems and the simulators need sizes.
    text = "beta = 0.2, 0.8\n" + TWO_GROUP.replace(
        "n_banks = 4\n", "").replace("n_banks = 16\n", "")
    rc, out = run(tmp_path, "solve", text)
    assert rc == 0
    assert sorted(os.listdir(out)) == ["limiting.csv", "mfg.csv",
                                       "solve_manifest.json"]
    rc, _ = run(tmp_path, "solve", "systems = closed\n" + text, out="closed")
    assert rc == 2
    rc, _ = run(tmp_path, "simulate", text, out="simulate")
    assert rc == 2


@pytest.mark.parametrize("flag, field", [("--steps", "n_steps"),
                                         ("--paths", "n_paths")])
def test_zero_step_or_path_override_rejected(tmp_path, flag, field):
    # A flag is read as config text, so its value is checked like the file's.
    with pytest.raises(ValueError, match=f"^{flag[2:]} = 0: must be at least"):
        build_runconfig("simulate", parse_config_text(TWO_GROUP),
                        _overrides(**{flag[2:]: 0}))
    rc, _ = run(tmp_path, "simulate", TWO_GROUP, flag, "0", "--quiet")
    assert rc == 2


def test_simulate_summary(tmp_path):
    rc, out = run(tmp_path, "simulate", "x0 = 0.3~0.2, -0.125\n" + TWO_GROUP)
    assert rc == 0
    data = np.genfromtxt(os.path.join(out, "ensemble_summary.csv"),
                         delimiter=",", names=True)
    assert data.dtype.names == (
        "t", "g1_mean", "g1_q05", "g1_q25", "g1_q50", "g1_q75", "g1_q95",
        "g2_mean", "g2_q05", "g2_q25", "g2_q50", "g2_q75", "g2_q95",
        "global_mean", "dist_mean", "dist_std")
    assert len(data) == 201
    # The quantile fan brackets the central tendency at every node.
    assert np.all(data["g1_q05"] <= data["g1_mean"] + 1e-12)
    assert np.all(data["g1_mean"] <= data["g1_q95"] + 1e-12)
    assert abs(data["g1_mean"][0] - 0.3) < 0.2 / math.sqrt(64) * 4
    # -0.125 is dyadic, so the start averages are float-exact.
    assert data["g2_mean"][0] == -0.125


def test_simulate_same_seed_is_byte_identical(tmp_path):
    _, out_a = run(tmp_path, "simulate", TWO_GROUP, out="a")
    _, out_b = run(tmp_path, "simulate", TWO_GROUP, out="b")
    read = lambda d: pathlib.Path(d, "ensemble_summary.csv").read_bytes()
    assert read(out_a) == read(out_b)
    _, out_c = run(tmp_path, "simulate", TWO_GROUP, "--seed", "12", out="c")
    assert read(out_a) != read(out_c)


def test_simulate_parallel_is_byte_identical(tmp_path):
    base = TWO_GROUP.replace("paths = 64", "paths = 530")
    _, serial = run(tmp_path, "simulate", base, out="serial")
    _, threaded = run(tmp_path, "simulate", "jobs = 4\n" + base, out="par")
    read = lambda d: pathlib.Path(d, "ensemble_summary.csv").read_bytes()
    assert read(serial) == read(threaded)


def test_simulate_single_noiseless_path_is_reproducible(tmp_path):
    text = "x0 = 0.4\n" + TWO_GROUP.replace(
        "sigma = 1.0", "sigma = 0.0").replace("paths = 64", "paths = 1")
    _, out_a = run(tmp_path, "simulate", text, out="a")
    _, out_b = run(tmp_path, "simulate", text, out="b")
    read = lambda d: pathlib.Path(d, "ensemble_summary.csv").read_bytes()
    assert read(out_a) == read(out_b)
    data = np.genfromtxt(os.path.join(out_a, "ensemble_summary.csv"),
                         delimiter=",", names=True)
    # One noiseless path: the quantile fan collapses onto the mean.
    assert np.array_equal(data["g1_q05"], data["g1_mean"])
    assert np.array_equal(data["g1_q95"], data["g1_mean"])
    assert np.abs(data["dist_std"]).max() == 0.0


def test_simulate_raw_dump(tmp_path):
    text = "raw_dump = true\n" + TWO_GROUP.replace("paths = 64", "paths = 8")
    rc, out = run(tmp_path, "simulate", text)
    assert rc == 0
    with open(os.path.join(out, "paths.bin"), "rb") as fh:
        header = fh.readline().decode("ascii")
        payload = fh.read()
    assert header == "raw float64 little-endian paths=8 banks=20 nodes=201\n"
    assert len(payload) == 8 * 20 * 201 * 8
    states = np.frombuffer(payload, dtype="<f8").reshape(8, 20, 201)
    assert np.isfinite(states).all()
    assert np.abs(states[:, :, 0]).max() == 0.0


def test_raw_dump_paths_average_to_the_summary_means(tmp_path):
    # The dumped banks step the summary's own group means, so their group
    # averages, averaged over the paths, are its g{k}_mean columns.
    text = ("raw_dump = true\nrho = 0.3\nx0 = 0.1~0.2, -0.2~0.3\n"
            + TWO_GROUP.replace("rho = 0.0\n", "")
            .replace("lam = 0.1\n", "lam = 0.1\nrho_k = 0.4\n")
            .replace("paths = 64", "paths = 600"))
    rc, out = run(tmp_path, "simulate", text, "--quiet")
    assert rc == 0
    with open(os.path.join(out, "paths.bin"), "rb") as fh:
        fh.readline()
        states = np.frombuffer(fh.read(), dtype="<f8").reshape(600, 20, 201)
    data = np.genfromtxt(os.path.join(out, "ensemble_summary.csv"),
                         delimiter=",", names=True)
    for name, banks in (("g1_mean", slice(0, 4)), ("g2_mean", slice(4, 20))):
        averages = states[:, banks].mean(axis=1).mean(axis=0)
        assert np.abs(averages - data[name]).max() < 1e-12, name


def test_failed_raw_dump_leaves_no_temporary(tmp_path, monkeypatch, capsys):
    replace = os.replace

    def disk_full(src, dst):
        if os.path.basename(dst) == "paths.bin":
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", disk_full)
    text = "raw_dump = true\n" + TWO_GROUP.replace("paths = 64", "paths = 8")
    rc, out = run(tmp_path, "simulate", text)
    assert rc == 2
    assert "No space left on device" in capsys.readouterr().err
    assert os.listdir(out) == ["ensemble_summary.csv"]


def test_sweep_lambda2_fails_monotonicity(tmp_path, capsys):
    text = "axis = lambda2\nvalues = 0.1, 0.5, 0.9\n" + TWO_GROUP
    rc, out = run(tmp_path, "sweep", text)
    assert rc == 1
    assert "FAIL sweep lambda2" in capsys.readouterr().out
    lines = pathlib.Path(out, "sweep_lambda2.csv").read_text().splitlines()
    assert lines[0] == "axis,value,t,rate"
    assert len(lines) == 1 + 3 * 201


@pytest.mark.parametrize("values, message", [
    ("0.5, 1.5", "lam must lie"),
    ("0.1, 0.5, 0.3", "strictly monotone"),
    ("0.3", "needs at least 2 values"),
])
def test_sweep_bad_values_exit_code(tmp_path, capsys, values, message):
    text = f"axis = lambda2\nvalues = {values}\n" + TWO_GROUP
    rc, out = run(tmp_path, "sweep", text)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "sweep_lambda2.csv"))


@pytest.mark.parametrize("text, name", [
    ("pathz = 5\n" + ONE_GROUP, "pathz"),
    (ONE_GROUP + "\n[grup.2]\nq = 2.0\neps = 5.0\nn_banks = 3\n", "grup.2"),
    (ONE_GROUP.replace("[group.1]", "[group.one]"), "group.one"),
], ids=["key", "section", "group-name"])
def test_unknown_keys_and_sections_are_rejected(tmp_path, capsys, text, name):
    rc, out = run(tmp_path, "solve", text)
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "solve_manifest.json"))


def test_readme_config_is_valid():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    config = build_runconfig("solve", parse_config_text(text), _overrides())
    assert config.n_paths == 2000 and len(config.market.groups) == 2


def test_simulate_refuses_an_oversized_ensemble(tmp_path, capsys):
    # 10**8 paths x 2 group means x 201 nodes would take 322 GB.
    rc, out = run(tmp_path, "simulate", TWO_GROUP, "--paths", "100000000")
    assert rc == 2
    assert "cap" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "ensemble_summary.csv"))


class _PastTheSizeCheck(Exception):
    """Raised by the first step of a simulation after its size check."""


@pytest.mark.parametrize("raw_dump, stored", [(False, 2), (True, 20)])
def test_readme_states_the_simulate_memory_cap(tmp_path, monkeypatch, capsys,
                                               raw_dump, stored):
    # README: paths x d x (steps + 1) doubles, or paths x banks x
    # (steps + 1) with raw_dump, capped at 1 GiB.
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    assert ("stores paths × d × (steps + 1) doubles" in text
            and "paths × banks × (steps + 1) doubles" in text
            and "1 GiB" in text and riccati.MAX_ENSEMBLE_BYTES == 2**30)
    config = ("raw_dump = true\n" if raw_dump else "") + TWO_GROUP
    row = stored * 201 * 8
    above = riccati.MAX_ENSEMBLE_BYTES // row + 1
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "simulate", config, "--paths", str(above))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and "cap" in capsys.readouterr().err
    assert peak < 2**20
    assert not os.path.exists(os.path.join(out, "ensemble_summary.csv"))

    def past(*args, **kwargs):
        raise _PastTheSizeCheck
    monkeypatch.setattr(simulate, "_loadings", past)
    with pytest.raises(_PastTheSizeCheck):
        run(tmp_path, "simulate", config, "--paths", str(above - 1))


@pytest.mark.parametrize("command",
                         ["solve", "simulate", "sweep", "check", "prob"])
def test_grid_above_the_table_cap_is_a_config_error(tmp_path, capsys,
                                                    command):
    # Every command solves first, and the solver refuses a coefficient
    # table above the cap before it forms the grid's times.
    rc, out = run(tmp_path, command, _readme_config(),
                  "--steps", str(10**12))
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "GiB cap" in err
    assert not os.path.exists(out) or not os.listdir(out)


def test_simulate_summary_does_not_depend_on_raw_dump(tmp_path):
    text = "rho = 0.4\nx0 = 0.3~0.2, -0.1~0.4\n" + TWO_GROUP.replace(
        "rho = 0.0\n", "").replace("lam = 0.1\n", "lam = 0.1\nrho_k = 0.3\n")
    _, plain = run(tmp_path, "simulate", text, out="plain")
    _, dumped = run(tmp_path, "simulate", "raw_dump = true\n" + text,
                    out="dumped")
    read = lambda d: pathlib.Path(d, "ensemble_summary.csv").read_bytes()
    assert read(plain) == read(dumped)
    assert os.path.exists(os.path.join(dumped, "paths.bin"))


# Correlated markets with random starts, one per group count.
_SUMMARY_CONFIGS = {
    1: "rho = 0.3\nx0 = 0.1~0.2\n" + ONE_GROUP,
    2: "x0 = 0.3~0.2, -0.1~0.4\n" + TWO_GROUP.replace("rho = 0.0",
                                                      "rho = 0.3"),
    3: "x0 = 0.3~0.2, -0.1~0.4, 0.2~0.1\n" + THREE_GROUP.replace(
        "rho = 0.0", "rho = 0.3"),
}


@pytest.mark.parametrize("steps, paths", [(400, 1000), (400, 1), (5, 1000),
                                          (5, 1)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_simulate_summary_equals_the_whole_array_summary(
        tmp_path, monkeypatch, d, steps, paths):
    # 401 nodes are twelve blocks of 32 and one of 17; 6 nodes are less
    # than one block.  Either way the file holds the bytes of the summary
    # formed over every node at once.
    drawn = []

    def recording(market, *args, **kwargs):
        drawn.append((market, simulate.simulate_group_means(market, *args,
                                                            **kwargs)))
        return drawn[-1][1]
    monkeypatch.setattr(cli, "simulate_group_means", recording)
    rc, out = run(tmp_path, "simulate", _SUMMARY_CONFIGS[d],
                  "--steps", str(steps), "--paths", str(paths))
    assert rc == 0
    ((market, means),) = drawn
    assert means.shape == (steps + 1, paths, d)
    header, rows = _reference.ensemble_summary_whole(
        means, TimeGrid(t_end=1.0, n_steps=steps).times(),
        validate(market, Mode.MFG).beta)
    got = pathlib.Path(out, "ensemble_summary.csv").read_bytes()
    assert got == csv_text(header, rows).encode("ascii")


def test_simulate_holds_little_beside_its_group_means(tmp_path):
    # cli_run's shape: 1000 paths, 400 steps, two groups, common noise.
    # Drawn into the means and summarised 32 nodes at a time, the run
    # holds a quarter of the means beside them, where a separate batch
    # block and whole-array summary temporaries would hold about as much
    # again as the means.
    text = _SUMMARY_CONFIGS[2]
    run(tmp_path, "simulate", text, "--steps", "5", "--paths", "2",
        out="warm")
    tracemalloc.start()
    try:
        rc, _ = run(tmp_path, "simulate", text, "--steps", "400",
                    "--paths", "1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    means = 401 * 1000 * 2 * 8
    assert peak - means < 0.25 * means


def test_sweep_population_passes(tmp_path, capsys):
    text = "axis = n_total\nvalues = 20, 50, 100\n" + TWO_GROUP
    rc, out = run(tmp_path, "sweep", text)
    assert rc == 0
    assert "PASS sweep n_total" in capsys.readouterr().out


def test_check_command(tmp_path, capsys):
    rc, out = run(tmp_path, "check", TWO_GROUP)
    assert rc == 0
    stdout = capsys.readouterr().out
    for name in ("identity", "bounds", "rowsums"):
        assert f"PASS check {name}" in stdout
    lines = pathlib.Path(out, "check_results.csv").read_text().splitlines()
    assert lines[0] == "check,value,threshold,passed"
    assert len(lines) == 4
    assert all(line.endswith(",1") for line in lines[1:])


@pytest.mark.parametrize("text", [ONE_GROUP, THREE_GROUP],
                         ids=["one-group", "three-groups"])
def test_check_defaults_to_rowsums_without_two_groups(tmp_path, capsys,
                                                       text):
    rc, out = run(tmp_path, "check", text)
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS check rowsums")
    lines = pathlib.Path(out, "check_results.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("rowsums,")


@pytest.mark.parametrize("name", ["identity", "bounds"])
def test_check_limiting_names_need_two_groups(tmp_path, capsys, name):
    rc, _ = run(tmp_path, "check", f"checks = {name}\n" + THREE_GROUP)
    assert rc == 2
    assert "exactly two groups" in capsys.readouterr().err


def test_prob_analytic(tmp_path, capsys):
    rc, out = run(tmp_path, "prob", ONE_GROUP)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "analytic systemic probability" in stdout
    lines = pathlib.Path(out, "prob.csv").read_text().splitlines()
    assert lines[0] == "quantity,value"
    name, value = lines[1].split(",")
    assert name == "analytic"
    assert abs(float(value) - 0.0499) < 5e-4


def test_prob_monte_carlo_agrees(tmp_path, capsys):
    rc, out = run(tmp_path, "prob", "mc = true\n" + ONE_GROUP)
    assert rc == 0
    assert "PASS prob" in capsys.readouterr().out
    rows = prob_rows(out)
    assert float(rows["n_paths"]) == 2000
    assert 0.0 < float(rows["mc"]) < 0.15
    assert float(rows["deficit"]) > 0.0


def test_prob_requires_barrier(tmp_path):
    text = ONE_GROUP.replace("barrier = -0.62\n", "")
    rc, _ = run(tmp_path, "prob", text)
    assert rc == 2


@pytest.mark.parametrize("target, message", [
    ("group", "expected global, group:k or bank:k:j"),
    ("group:x", "indices must be integers"),
    ("bank:1", "expected global, group:k or bank:k:j"),
    ("group:2", "target group 2 out of range"),
    ("bank:1:11", "target bank 11 out of range"),
])
def test_malformed_target_exit_code(tmp_path, capsys, target, message):
    text = ONE_GROUP.replace("target = global", f"target = {target}")
    rc, out = run(tmp_path, "prob", text)
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not os.path.exists(os.path.join(out, "prob.csv"))


def test_sweep_total_that_does_not_split_exit_code(tmp_path, capsys):
    text = "axis = n_total\nvalues = 10, 20.5\n" + TWO_GROUP
    rc, out = run(tmp_path, "sweep", text)
    assert rc == 2
    assert "bank total 20.5 is not an integer" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "sweep_n_total.csv"))


@pytest.mark.parametrize("text, named, out", [
    (TWO_GROUP + "\n[group.1]\nlam = 0.2\n", "section [group.1] repeated",
     "out"),
    (TWO_GROUP.replace("[group.2]", "[group.3]"), "[group.1], [group.3]",
     "out"),
    (TWO_GROUP + "\n[group.02]\nq = 2.0\neps = 5.0\n", "[group.02]", "out"),
    ("steps = 20\n" + TWO_GROUP.replace("steps = 200", "steps = 30"),
     "key 'steps' repeated", "out"),
    ("jobs = -3\n" + TWO_GROUP, "jobs = -3", "out"),
    (TWO_GROUP.replace("seed = 11", "seed = -1"), "seed = -1", "out"),
    (TWO_GROUP.replace("seed = 11", "seed = 18446744073709551616"),
     "seed = 18446744073709551616", "out"),
    ("target = nonsense:1:2:3\n" + TWO_GROUP, "target = nonsense:1:2:3",
     "out"),
    ("x0 = 0.1~\n" + TWO_GROUP, "x0 = 0.1~", "out"),
    ("target = bank:1:9\n" + TWO_GROUP, "target bank 9 out of range", "out"),
    ("target = group:3\n" + TWO_GROUP, "target group 3 out of range", "out"),
    # The manifest's config text would read these --out values back as
    # another directory: "o" for "o#1".
    (TWO_GROUP, "--out", "o#1"),
    (TWO_GROUP, "--out", "o\nsteps = 3"),
    (TWO_GROUP, "--out", "o "),
], ids=["repeated-section", "numbering-gap", "leading-zero", "repeated-key",
        "negative-jobs", "negative-seed", "seed-past-64-bits",
        "target-without-barrier", "x0-empty-std", "bank-past-its-group",
        "group-past-the-market",
        "out-comment", "out-line-break", "out-trailing-space"])
def test_misread_config_text_is_rejected(tmp_path, capsys, text, named, out):
    rc, out = run(tmp_path, "solve", text, out=out)
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "solve_manifest.json"))


@pytest.mark.parametrize("command, text, named", [
    ("solve", TWO_GROUP.replace("steps = 200", "steps = 1"), "steps = 1"),
    ("simulate", TWO_GROUP.replace("paths = 64", "paths = 0"), "paths = 0"),
    ("sweep", "axis = n_total\nvalues =\n" + TWO_GROUP, "values = (empty)"),
    ("solve", TWO_GROUP.replace("lam = 0.1\n", "lam = 0.1\ngamma = 0.5, :1\n"),
     "[group.1] gamma = 0.5, :1"),
    ("solve", TWO_GROUP.replace("eps = 4.5\n", ""), "[group.2] eps is required"),
    ("sweep", "axis = lambda2\nvalues = 0.5, 1.5\n" + TWO_GROUP,
     "lambda2 = 1.5: group 2: lam must lie"),
], ids=["steps", "paths", "empty-values", "gamma", "missing-eps",
        "sweep-value"])
def test_config_errors_name_their_key(tmp_path, capsys, command, text, named):
    rc, _ = run(tmp_path, command, text)
    assert rc == 2
    assert named in capsys.readouterr().err


def test_check_solves_each_system_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_limiting(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_limiting", counted)
    rc, _ = run(tmp_path, "check", "checks = identity, bounds\n" + TWO_GROUP)
    assert rc == 0
    assert len(calls) == 1


def _readme():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def _readme_config():
    return _readme().split("```ini\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("command",
                         ["solve", "simulate", "sweep", "check", "prob"])
def test_manifest_config_repeats_the_run(tmp_path, command):
    text = "raw_dump = true\n" + _readme_config()
    rc, out = run(tmp_path, command, text, "--steps", "60", "--seed", "5",
                  "--paths", "40", "--quiet")
    with open(os.path.join(out, f"{command}_manifest.json")) as fh:
        manifest = json.load(fh)
    cfg = write_config(tmp_path, manifest["config"], name="manifest.cfg")
    again = str(tmp_path / "again")
    assert main([command, "--config", cfg, "--out", again, "--quiet"]) == rc
    assert sorted(os.listdir(again)) == sorted(os.listdir(out))
    assert manifest["outputs"]
    for path in manifest["outputs"]:
        with open(path, "rb") as fh:
            first = fh.read()
        with open(os.path.join(again, os.path.basename(path)), "rb") as fh:
            assert fh.read() == first, path


@pytest.mark.parametrize("command, line", [
    ("solve", "systems = closed, open, limiting, bogus"),
    ("check", "checks = identity, bogus"),
], ids=["systems", "checks"])
def test_unknown_names_are_rejected_before_any_solve(tmp_path, monkeypatch,
                                                     capsys, command, line):
    calls = []
    integrate = riccati.integrate_backward

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(riccati, "integrate_backward", counted)
    rc, out = run(tmp_path, command, line + "\n" + TWO_GROUP)
    assert rc == 2
    assert "bogus" in capsys.readouterr().err
    assert calls == []
    assert not os.path.exists(out) or os.listdir(out) == []


@pytest.mark.parametrize("command, line, named", [
    ("solve", "systems = closed, open, closed", "systems = closed, open, "
     "closed: 'closed' repeated"),
    ("check", "checks = rowsums, identity, rowsums, identity",
     "checks = rowsums, identity, rowsums, identity: 'identity', 'rowsums' "
     "repeated"),
], ids=["systems", "checks"])
def test_repeated_names_are_rejected_before_any_solve(tmp_path, monkeypatch,
                                                      capsys, command, line,
                                                      named):
    # Accepted, a repeat would solve twice and write one file, or one
    # row, twice.
    calls = []
    integrate = riccati.integrate_backward

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(riccati, "integrate_backward", counted)
    rc, out = run(tmp_path, command, line + "\n" + TWO_GROUP)
    assert rc == 2
    assert named in capsys.readouterr().err
    assert calls == []
    assert not os.path.exists(out) or os.listdir(out) == []


def test_docs_list_the_accepted_keys_and_names():
    readme = _readme()
    top = readme.split("Accepted top-level keys:", 1)[1].split(". Group", 1)[0]
    assert re.findall(r"`(\w+)`", top) == list(cli._TOP_KEYS)
    group = readme.split("Group sections are `[group.k]`", 1)[1].split(".")[0]
    assert re.findall(r"`(\w+)`", group) == list(cli._GROUP_KEYS)
    example = parse_config_text(_readme_config())[""]
    assert example["systems"] == ", ".join(cli._SOLVERS)
    assert example["checks"] == ", ".join(cli._CHECKS)
    doc = cli.__doc__
    block, keys = doc.split("::", 1)[1].split("Top-level keys:", 1)
    assert set(parse_config_text(block)["group.1"]) == set(cli._GROUP_KEYS)
    keys = keys.split("The flags", 1)[0]
    assert set(re.findall(r"``(\w+)``", keys)) == set(cli._TOP_KEYS)
    for key, names in (("systems", cli._SOLVERS), ("checks", cli._CHECKS)):
        listed = re.search(rf"``{key}`` \(\w+: ([\w,\s]+)\)", doc).group(1)
        assert re.split(r",\s+", listed) == list(names)


# Two groups of 4 + 16 banks, rho = 0.6, rho_k = 0.3, lam_k = 0 and no
# growth: the global average is a driftless Brownian motion with variance
# rate 0.6^2 + 0.64 * (0.2^2 (0.09 + 0.91/4) + 0.8^2 (0.09 + 0.91/16)).
CORRELATED_PROB = """\
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


def prob_rows(out):
    lines = pathlib.Path(out, "prob.csv").read_text().splitlines()
    return dict(line.split(",") for line in lines[1:])


def test_prob_uses_the_exact_volatility(tmp_path, capsys):
    rc, out = run(tmp_path, "prob", CORRELATED_PROB)
    assert rc == 0
    assert "PASS prob" in capsys.readouterr().out
    rows = prob_rows(out)
    variance = 0.36 + 0.64 * (0.04 * (0.09 + 0.91 / 4)
                              + 0.64 * (0.09 + 0.91 / 16))
    z = -0.62 / math.sqrt(variance)
    want = math.erfc(-z / math.sqrt(2.0))
    assert abs(float(rows["analytic"]) - want) < 1e-12


@pytest.mark.parametrize("change", [
    ("lam = 0.0", "lam = 0.3"),
    ("target = global", "target = group:2"),
    ("mc = true", "mc = true\nx0 = 0.1"),
])
def test_prob_outside_the_formula_makes_no_claim(tmp_path, capsys, change):
    rc, out = run(tmp_path, "prob", CORRELATED_PROB.replace(*change))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "analytic: n/a" in stdout
    assert "PASS" not in stdout and "FAIL" not in stdout
    rows = prob_rows(out)
    assert "analytic" not in rows and "deficit" not in rows
    assert float(rows["n_paths"]) == 2000
    assert float(rows["mc"]) == float(rows["n_hits"]) / 2000


@pytest.mark.parametrize("command, text", [
    ("simulate", "x0 = nan\n" + TWO_GROUP),
    ("simulate", "x0 = 0~inf\n" + TWO_GROUP),
    ("prob", "x0 = -inf\n" + CORRELATED_PROB),
    ("prob", CORRELATED_PROB.replace("barrier = -0.62", "barrier = nan")),
], ids=["simulate-x0-nan", "simulate-x0-std-inf", "prob-x0-minus-inf",
        "prob-barrier-nan"])
def test_non_finite_start_or_barrier_rejected(tmp_path, capsys, command,
                                              text):
    rc, _ = run(tmp_path, command, text, "--quiet")
    assert rc == 2
    assert "config error" in capsys.readouterr().err


# Every key set, with a growth-rate break, so each number can be poisoned.
ALL_NUMBERS = """\
rho = 0.2
horizon = 1.0
steps = 40
seed = 11
paths = 8
x0 = 0.1 ~ 0.2, 0.0
beta = 0.2, 0.8
axis = lambda2
values = 0.1, 0.5

[group.1]
sigma = 1.0
q = 2.0
eps = 5.0
c = 0.5
lam = 0.1
rho_k = 0.3
gamma = 0.1, 0.5:-0.2
n_banks = 4

[group.2]
sigma = 0.8
q = 2.0
eps = 4.5
c = 0.5
lam = 0.5
rho_k = 0.0
gamma = 0.0
n_banks = 16
"""
_NUMBER_SPANS = [m.span() for m in re.finditer(r"(?<=[\s:])-?\d+(?:\.\d+)?",
                                               ALL_NUMBERS)]


def test_all_numbers_config_is_valid(tmp_path):
    rc, _ = run(tmp_path, "solve", ALL_NUMBERS, "--quiet")
    assert rc == 0
    assert len(_NUMBER_SPANS) == 30


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_NUMBER_SPANS), st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_numbers_are_rejected(span, bad):
    start, end = span
    text = ALL_NUMBERS[:start] + bad + ALL_NUMBERS[end:]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        rc = main(["solve", "--config", cfg, "--out",
                   os.path.join(tmp, "out"), "--quiet"])
    assert rc == 2, text


# Values for the config fuzz: well-formed, malformed and out of range.
# Counts stay small, so no example allocates more than a few MB.
_NUMBERS = ["0", "1", "2", "0.5", "-1", "2.5", "1e300", "-1e-300", "nan",
            "inf", "-inf", "x", "", "1,2", "0x10"]
_SMALL_COUNTS = ["1", "2", "3", "8", "0", "-4", "2.5", "x", "", "nan", "1e2"]
_FUZZ_VALUES = {
    "rho": _NUMBERS, "horizon": _NUMBERS, "beta": _NUMBERS + ["0.2, 0.8"],
    "steps": _SMALL_COUNTS, "paths": _SMALL_COUNTS,
    "jobs": ["1", "2", "0", "-1", "x"],
    "seed": ["0", "7", "-1", "x", str(2**64)],
    "x0": ["0", "0.1~0.2", "1~-1", "nan", "0, 1", "0, 1, 2", "~", "a"],
    "raw_dump": ["true", "false", "maybe", ""], "mc": ["true", "no", "2"],
    "systems": ["closed", "open, mfg", "limiting", "x", ""],
    "checks": ["identity", "bounds, rowsums", "x", ""],
    "axis": ["lambda2", "horizon", "n_total", "x"],
    "values": ["10, 20", "0.1, 0.5", "0.5, 0.1, 0.3", "1, 2", "x", "",
               "1e300, 1e301", "nan, 1"],
    "barrier": ["-0.5", "0.5", "nan", "-inf", "x", ""],
    "target": ["global", "group:1", "group:3", "group", "bank:1:1",
               "bank:2:99", "bank:0:1", "x"],
    "pathz": ["5"], "sigma": ["1.0"],
}
_GROUP_VALUES = {
    "sigma": _NUMBERS, "q": _NUMBERS, "eps": _NUMBERS + ["5.0"],
    "c": _NUMBERS, "lam": _NUMBERS, "rho_k": _NUMBERS,
    "n_banks": _SMALL_COUNTS,
    "gamma": ["0", "0.5, 0.25:1.0", "0.1, 2:0.3", "1, 0.5:1, 0.2:2",
              "x:y", "0.5, :1", "nan"],
    "foo": ["1"],
}
_FUZZ_BASE = {
    "": {"steps": "8", "paths": "4", "seed": "1", "axis": "n_total",
         "values": "10, 20", "barrier": "-0.5", "mc": "true"},
    "group.1": {"q": "2.0", "eps": "5.0", "lam": "0.1", "n_banks": "2"},
    "group.2": {"q": "2.0", "eps": "4.5", "lam": "0.5", "n_banks": "3"},
}


@st.composite
def _fuzz_configs(draw):
    """A small valid two-group config with up to four entries replaced,
    added or removed, in known or unknown keys and sections, plus every
    section, key and value the example changed."""
    sections = {name: dict(entries) for name, entries in _FUZZ_BASE.items()}
    changed = set()
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(["", "group.1", "group.2", "group.3",
                                     "grup.2"]))
        pool = _FUZZ_VALUES if name == "" else _GROUP_VALUES
        key = draw(st.sampled_from(sorted(pool)))
        entries = sections.setdefault(name, {})
        changed |= {name, key} - {""}
        if draw(st.booleans()) and key in entries and key not in (
                "steps", "paths"):
            del entries[key]
        else:
            entries[key] = value = draw(st.sampled_from(pool[key]))
            changed |= {value, *re.split(r"[,:~]", value)}
    lines = []
    for name, entries in sections.items():
        lines += [f"[{name}]"] if name else []
        lines += [f"{k} = {v}" for k, v in entries.items()]
    return "\n".join(lines) + "\n", changed


def _names_one_of(message, tokens):
    """Whether ``message`` holds one of ``tokens`` as a whole word; a
    number also matches in any float spelling, a section [group.k] also
    as "group k"."""
    words = set()
    for token in map(str.strip, tokens):
        if not token:
            continue
        words.add(token)
        if token.startswith("group."):
            words.add("group " + token[6:])
        try:
            words |= {f"{float(token):g}", repr(float(token))}
        except ValueError:
            pass
    return any(re.search(rf"(?<![\w.]){re.escape(w)}(?![\w])", message)
               for w in words)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["solve", "simulate", "sweep", "check", "prob"]),
       _fuzz_configs())
def test_fuzzed_configs_map_to_exit_codes(command, example):
    text, changed = example
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", cfg, "--out",
                       os.path.join(tmp, "out"), "--quiet"])
    assert rc in (0, 1, 2, 3), text
    if rc == 2:
        assert _names_one_of(err.getvalue(), changed), (text, err.getvalue())
