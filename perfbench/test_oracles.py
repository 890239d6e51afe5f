"""Tests of the benchmark's oracles against closed forms and each other."""

import math
import os

import numpy as np
import pytest

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reflection_reproduces_the_frozen_exit_probability():
    frozen = oracles.load_frozen(ROOT)
    vol = math.sqrt(oracles.average_variance_rate(0.0, (1.0,), (1.0,), (0.0,),
                                                  (10,)))
    got = oracles.reflection_probability(-0.62, vol, 1.0)
    assert abs(got - frozen.EXIT_PROBS["d062_n10"]) < 1e-12


def test_grid_shift_lowers_the_probability_into_the_band():
    lo, hi = oracles.hitting_band(-0.62, 0.3, 1.0, 1e-3)
    shifted = oracles.reflection_probability(-0.62, 0.3, 1.0, 1e-3)
    assert lo < shifted < hi
    assert hi == oracles.reflection_probability(-0.62, 0.3, 1.0)


def test_variance_rate_matches_the_equal_sigma_formula():
    rho, beta, rho_k, sizes, sigma = 0.6, (0.2, 0.8), (0.3, 0.5), (4, 16), 1.3
    want = sigma ** 2 * (rho ** 2 + (1 - rho ** 2) * sum(
        b * b * (r * r + (1 - r * r) / n)
        for b, r, n in zip(beta, rho_k, sizes)))
    got = oracles.average_variance_rate(rho, beta, (sigma, sigma), rho_k,
                                        sizes)
    assert got == pytest.approx(want, rel=1e-14)


def test_covariance_recursion_without_weights_is_the_exact_variance():
    rho, sigma, rho_k, sizes = 0.45, (1.2, 0.7), (0.4, 0.1), (4, 16)
    beta = np.array(sizes) / sum(sizes)
    steps, horizon = 250, 2.0
    dt = horizon / steps
    step_cov = oracles.group_noise_covariance(rho, sigma, rho_k, sizes, dt)
    means, covs = oracles.euler_group_moments(
        np.zeros((steps, 2, 2)), np.zeros((steps, 2)), step_cov,
        np.array([0.3, -0.1]), np.zeros((2, 2)), dt)
    rate = oracles.average_variance_rate(rho, beta, sigma, rho_k, sizes)
    assert beta @ covs[-1] @ beta == pytest.approx(horizon * rate, rel=1e-12)
    assert np.array_equal(means[-1], [0.3, -0.1])


def test_mean_recursion_is_the_euler_product():
    steps, dt, w, b = 100, 0.01, -0.7, 0.2
    means, covs = oracles.euler_group_moments(
        np.full((steps, 1, 1), w), np.full((steps, 1), b), np.zeros((1, 1)),
        np.array([1.0]), np.array([[0.5]]), dt)
    a = 1.0 + w * dt
    want = a ** steps + b * dt * (1 - a ** steps) / (1 - a)
    assert means[-1, 0] == pytest.approx(want, rel=1e-13)
    assert covs[-1, 0, 0] == pytest.approx(0.5 * a ** (2 * steps), rel=1e-13)


def test_binomial_tails_match_direct_sums():
    n, p = 40, 0.17
    pmf = [math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(n + 1)]
    for k in (0, 3, 7, 15, 40):
        assert oracles.binom_upper(k, n, p) == pytest.approx(sum(pmf[k:]),
                                                             rel=1e-12)
        assert oracles.binom_lower(k, n, p) == pytest.approx(
            sum(pmf[: k + 1]), rel=1e-12)


def test_hit_counts_far_from_the_band_are_rejected():
    assert oracles.hits_consistent(205, 4096, 0.048, 0.050)
    assert not oracles.hits_consistent(330, 4096, 0.048, 0.050)
    assert not oracles.hits_consistent(100, 4096, 0.048, 0.050)


def test_gaussian_thresholds():
    assert oracles.two_sided_z(0.05) == pytest.approx(1.959963984540054,
                                                      abs=1e-9)
    assert math.erfc(oracles.two_sided_z() / math.sqrt(2)) == pytest.approx(
        oracles.ALPHA, rel=1e-6)
    assert oracles.dkw_epsilon(1000, 0.05) == pytest.approx(
        math.sqrt(math.log(40.0) / 2000.0))
    z = oracles.two_sided_z()
    assert oracles.chi2_consistent(999.0, 999, z)
    assert not oracles.chi2_consistent(1.5 ** 2 * 999, 999, z)


def test_identities_and_row_sums_see_a_broken_pair():
    x = np.linspace(-0.3, 0.2, 11)
    cols = {"etao2": x, "etao3": -x, "phio2": 2 * x, "phio3": -2 * x}
    assert oracles.shift_identity_gap(cols, "open") == 0.0
    cols["phio3"] = -2 * x + 1e-6
    assert oracles.shift_identity_gap(cols, "open") > 1e-7
    rows = {"psim_1_1": x, "psim_1_2": -x, "psim_2_1": x, "psim_2_2": -x}
    assert oracles.mfg_row_sum_gap(rows, 2) == 0.0


def test_prop1_slack_of_the_bound_itself_is_zero():
    groups = ((2.0, 5.0, 0.3, 0.1), (2.0, 4.5, 0.2, 0.5))
    beta = (0.2, 0.8)
    s = np.linspace(0.0, 1.0, 101)
    q1, e1, c1, l1 = groups[0]
    q2, e2, c2, l2 = groups[1]
    r1 = q1 + q2 * l2 * beta[0] + q1 * l1 * beta[1]
    r2 = q2 + q1 * l1 * beta[1] + q2 * l2 * beta[0]
    # Paths given in forward time t = T - s.
    eta5 = (c1 * l1 * beta[1] * np.exp(-r1 * s)
            + (e1 - q1 * q1) * l1 * beta[1] / r1)[::-1]
    phi4 = (c2 * l2 * beta[0] * np.exp(-r2 * s)
            + (e2 - q2 * q2) * l2 * beta[0] / r2)[::-1]
    assert oracles.prop1_slack(s, eta5, phi4, groups, beta) == pytest.approx(
        0.0, abs=1e-15)
    assert oracles.prop1_slack(s, eta5 * 1.01, phi4, groups, beta) < 0.0


def test_frozen_tolerance_scales_as_the_fourth_power_of_the_step():
    base = oracles.frozen_tolerance(0.0, 5e-4)
    assert base == 1e-10
    assert oracles.frozen_tolerance(0.0, 1e-3) == pytest.approx(16 * base)
    assert oracles.rk4_order_ok(16.0, 1.0)
    assert not oracles.rk4_order_ok(4.0, 1.0)
