"""Generate frozen reference values for the test suite.

Usage::

    python3 tests/_reference.py > tests/_frozen.py

Everything here is deliberately independent of the library: plain-float
explicit-midpoint integration at a very fine step with Richardson
extrapolation, mpmath for the normal distribution and for the scalar
Riccati equation in closed form.  The script cross-checks its own output
(exact zero solutions, closed forms, internal identities, system
agreement in degenerate limits) and refuses to emit values if any check
fails.  Diagnostics go to stderr, the frozen module to stdout.

The module also keeps :func:`rk4_backward_arrays`, the library's backward
RK4 loop as it ran on numpy arrays before the integrator moved to Python
floats.  The tests hold the library to it bit for bit; the frozen values
do not use it.
"""

import sys

import mpmath
import numpy as np

BASE_STEP = 1e-5


# ----------------------------------------------------------------------
# Parameter sets.  gamma entries are (v0, (break, v1), ...) and evaluate
# left-continuously, matching the library's step functions.

PARAMS = {
    "benchmark": dict(
        T=1.0, rho=0.0, N=(4, 16), beta=(0.2, 0.8), sigma=(1.0, 1.0),
        rho_k=(0.0, 0.0), q=(2.0, 2.0), eps=(5.0, 4.5), c=(0.0, 0.0),
        lam=(0.1, 0.5), gamma=((0.0,), (0.0,)),
    ),
    "rich": dict(
        T=0.8, rho=0.4, N=(2, 3), beta=(0.4, 0.6), sigma=(1.1, 0.8),
        rho_k=(0.3, 0.5), q=(1.7, 2.1), eps=(5.0, 6.0), c=(0.4, 0.7),
        lam=(0.35, 0.6), gamma=((0.2,), (-0.1,)),
    ),
    "stepg": dict(
        T=1.0, rho=0.25, N=(4, 16), beta=(0.2, 0.8), sigma=(1.2, 0.9),
        rho_k=(0.4, 0.1), q=(2.0, 2.0), eps=(5.0, 4.5), c=(0.1, 0.2),
        lam=(0.1, 0.5), gamma=((0.3, (0.5, -0.2)), (-0.1,)),
    ),
}

PARAMS_MFG3 = dict(
    T=1.0, q=(1.5, 2.0, 2.5), eps=(4.0, 5.0, 7.0), c=(2.5, 2.5, 2.5),
    lam=(0.4, 0.5, 0.6), beta=(0.3, 0.3, 0.4),
    gamma=((0.1,), (0.0,), (-0.1,)),
)


def make_gamma(spec):
    v0, rest = spec[0], spec[1:]

    def gamma(t):
        value = v0
        for brk, v in rest:
            if t > brk + 1e-12:
                value = v
            else:
                break
        return value

    return gamma


# ----------------------------------------------------------------------
# Explicit midpoint (RK2) backward integration on plain floats.


def rk2_backward(rhs, terminal, t_end, n_steps, capture):
    """Integrate dy/dt = rhs from t_end down to 0.

    capture maps a node index (multiples of n_steps) to a time; returns
    {time: y list} including t = 0.
    """
    h = t_end / n_steps
    y = list(terminal)
    out = {}
    for j in range(n_steps, 0, -1):
        t = j * h
        if j in capture:
            out[capture[j]] = list(y)
        k1 = rhs(t, y)
        ym = [yi - 0.5 * h * ki for yi, ki in zip(y, k1)]
        k2 = rhs(t - 0.5 * h, ym)
        y = [yi - h * ki for yi, ki in zip(y, k2)]
        for yi in y:
            if not (-1e12 < yi < 1e12):
                raise RuntimeError(f"blow-up near t={t - h}")
    out[0.0] = y
    return out


def refine(rhs, terminal, t_end, capture_times):
    """Richardson-extrapolated solution snapshots and the step-halving gap."""
    n = round(t_end / BASE_STEP)
    snaps = []
    for steps in (n, 2 * n):
        capture = {round(t * steps / t_end): t for t in capture_times}
        snaps.append(rk2_backward(rhs, terminal, t_end, steps, capture))
    coarse, fine = snaps
    gap = max(
        abs(a - b)
        for t in coarse
        for a, b in zip(coarse[t], fine[t])
    )
    extrap = {
        t: [(4.0 * b - a) / 3.0 for a, b in zip(coarse[t], fine[t])]
        for t in coarse
    }
    return extrap, gap


# ----------------------------------------------------------------------
# Classic RK4 on numpy arrays, step for step the library's former loop.


class ArrayBlowUp(RuntimeError):
    """A component of the array loop left [-1e12, 1e12] or turned NaN."""

    def __init__(self, t, component):
        super().__init__(f"{component} blew up near t={t:g}")
        self.t = t
        self.component = component


def rk4_backward_arrays(system, grid):
    """Integrate an ``OdeSystem`` backward over a ``TimeGrid``.

    Every stage is a numpy array expression, as in the library before its
    integrator moved to Python floats; the right-hand side's output is
    taken through ``np.asarray``.  Returns the [nodes, components] values
    or raises :class:`ArrayBlowUp` naming the node time and first label.
    """
    rhs = system.rhs
    times = grid.times()
    values = np.empty((grid.n_steps + 1, len(system.labels)))
    values[-1] = system.terminal
    y = np.array(system.terminal, dtype=float)
    h = -grid.dt
    nudge = 1e-9 * grid.dt
    for j in range(grid.n_steps, 0, -1):
        t = times[j]
        k1 = np.asarray(rhs(t - nudge, y))
        k2 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k1))
        k3 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k2))
        k4 = np.asarray(rhs(t + h + nudge, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad = ~np.isfinite(y) | (np.abs(y) > 1e12)
        if bad.any():
            raise ArrayBlowUp(float(times[j - 1]),
                              system.labels[int(np.argmax(bad))])
        values[j - 1] = y
    return values


# ----------------------------------------------------------------------
# System right-hand sides, written out longhand.


def offsets(par):
    l1, l2 = par["lam"]
    b1, b2 = par["beta"]
    return l1 * (b1 - 1.0), l1 * b2, l2 * b1, l2 * (b2 - 1.0)


def closed_system(par):
    N1, N2 = par["N"]
    q1, q2 = par["q"]
    e1 = par["eps"][0] - q1 * q1
    e2 = par["eps"][1] - q2 * q2
    o11, o12, o21, o22 = offsets(par)
    f1, f2 = 1.0 / N1, 1.0 / N2
    gam1, gam2 = (make_gamma(g) for g in par["gamma"])
    rho = par["rho"]
    sg1, sg2 = par["sigma"]
    rk1, rk2 = par["rho_k"]
    # Ito weights: common + group factor loadings versus idiosyncratic.
    mix1 = rho * rho + (1.0 - rho * rho) * rk1 * rk1
    mix2 = rho * rho + (1.0 - rho * rho) * rk2 * rk2
    w_own1 = 0.5 * sg1 * sg1 * (1.0 - mix1) * (1.0 - f1)
    w_avg1 = 0.5 * sg1 * sg1 * (mix1 + f1 * (1.0 - mix1))
    w_own2 = 0.5 * sg2 * sg2 * (1.0 - mix2) * (1.0 - f2)
    w_avg2 = 0.5 * sg2 * sg2 * (mix2 + f2 * (1.0 - mix2))
    w_x = rho * rho * sg1 * sg2

    def rhs(t, y):
        E = y[:10]
        F = y[10:]
        S1 = (f1 - 1.0) * E[0] + f1 * E[3]
        U1 = (f1 - 1.0) * E[3] + f1 * E[1]
        V1 = (f1 - 1.0) * E[4] + f1 * E[5]
        W1 = (f1 - 1.0) * E[6] + f1 * E[7]
        S2 = (f2 - 1.0) * F[0] + f2 * F[4]
        U2 = (f2 - 1.0) * F[3] + f2 * F[5]
        V2 = (f2 - 1.0) * F[4] + f2 * F[2]
        W2 = (f2 - 1.0) * F[6] + f2 * F[8]
        G1, G2 = q1 - S1, q2 - S2
        a1, b1 = U1 - q1 * o11, V1 - q1 * o12
        a2, b2 = U2 - q2 * o21, V2 - q2 * o22
        g1, g2 = gam1(t) - W1, gam2(t) - W2
        return [
            2.0 * G1 * E[0] - S1 * S1 - e1,
            2.0 * a1 * E[1] + 2.0 * a2 * E[5] - U1 * U1 - e1 * o11 * o11,
            2.0 * b2 * E[2] + 2.0 * b1 * E[5] - V1 * V1 - e1 * o12 * o12,
            (G1 + a1) * E[3] + a2 * E[4] - S1 * U1 - e1 * o11,
            (G1 + b2) * E[4] + b1 * E[3] - S1 * V1 - e1 * o12,
            (a1 + b2) * E[5] + b1 * E[1] + a2 * E[2] - U1 * V1 - e1 * o11 * o12,
            G1 * E[6] - g1 * E[3] - g2 * E[4] - S1 * W1,
            a1 * E[7] + a2 * E[8] - g1 * E[1] - g2 * E[5] - U1 * W1,
            b1 * E[7] + b2 * E[8] - g1 * E[5] - g2 * E[2] - V1 * W1,
            -g1 * E[7] - g2 * E[8] - 0.5 * W1 * W1
            - w_own1 * E[0] - w_avg1 * E[1] - w_avg2 * E[2] - w_x * E[5],
            2.0 * G2 * F[0] - S2 * S2 - e2,
            2.0 * a1 * F[1] + 2.0 * a2 * F[5] - U2 * U2 - e2 * o21 * o21,
            2.0 * b2 * F[2] + 2.0 * b1 * F[5] - V2 * V2 - e2 * o22 * o22,
            (G2 + a1) * F[3] + a2 * F[4] - S2 * U2 - e2 * o21,
            (G2 + b2) * F[4] + b1 * F[3] - S2 * V2 - e2 * o22,
            (a1 + b2) * F[5] + b1 * F[1] + a2 * F[2] - U2 * V2 - e2 * o21 * o22,
            G2 * F[6] - g1 * F[3] - g2 * F[4] - S2 * W2,
            a1 * F[7] + a2 * F[8] - g1 * F[1] - g2 * F[5] - U2 * W2,
            b1 * F[7] + b2 * F[8] - g1 * F[5] - g2 * F[2] - V2 * W2,
            -g1 * F[7] - g2 * F[8] - 0.5 * W2 * W2
            - w_avg1 * F[1] - w_own2 * F[0] - w_avg2 * F[2] - w_x * F[5],
        ]

    c1, c2 = par["c"]
    terminal = (
        [c1, c1 * o11 * o11, c1 * o12 * o12, c1 * o11, c1 * o12,
         c1 * o11 * o12, 0.0, 0.0, 0.0, 0.0]
        + [c2, c2 * o21 * o21, c2 * o22 * o22, c2 * o21, c2 * o22,
           c2 * o21 * o22, 0.0, 0.0, 0.0, 0.0]
    )
    return rhs, terminal


def limiting_system(par):
    q1, q2 = par["q"]
    e1 = par["eps"][0] - q1 * q1
    e2 = par["eps"][1] - q2 * q2
    o11, o12, o21, o22 = offsets(par)

    def rhs(t, y):
        E1, E2, E3, E4, E5, E6, F1, F2, F3, F4, F5, F6 = y
        a1, b1 = -(E4 + q1 * o11), -(E5 + q1 * o12)
        a2, b2 = -(F4 + q2 * o21), -(F5 + q2 * o22)
        return [
            2.0 * q1 * E1 + E1 * E1 - e1,
            2.0 * a1 * E2 + 2.0 * a2 * E6 - E4 * E4 - e1 * o11 * o11,
            2.0 * b2 * E3 + 2.0 * b1 * E6 - E5 * E5 - e1 * o12 * o12,
            (q1 + a1) * E4 + a2 * E5 - e1 * o11,
            (q1 + b2) * E5 + b1 * E4 - e1 * o12,
            (a1 + b2) * E6 + b1 * E2 + a2 * E3 - E4 * E5 - e1 * o11 * o12,
            2.0 * q2 * F1 + F1 * F1 - e2,
            2.0 * a1 * F2 + 2.0 * a2 * F6 - F4 * F4 - e2 * o21 * o21,
            2.0 * b2 * F3 + 2.0 * b1 * F6 - F5 * F5 - e2 * o22 * o22,
            (q2 + a1) * F4 + a2 * F5 - e2 * o21,
            (q2 + b2) * F5 + b1 * F4 - e2 * o22,
            (a1 + b2) * F6 + b1 * F2 + a2 * F3 - F4 * F5 - e2 * o21 * o22,
        ]

    c1, c2 = par["c"]
    terminal = [
        c1, c1 * o11 * o11, c1 * o12 * o12, c1 * o11, c1 * o12,
        c1 * o11 * o12,
        c2, c2 * o21 * o21, c2 * o22 * o22, c2 * o21, c2 * o22,
        c2 * o21 * o22,
    ]
    return rhs, terminal


def open_system(par):
    N1, N2 = par["N"]
    q1, q2 = par["q"]
    e1 = par["eps"][0] - q1 * q1
    e2 = par["eps"][1] - q2 * q2
    o11, o12, o21, o22 = offsets(par)
    l1, l2 = par["lam"]
    n_total = N1 + N2
    i1 = (1.0 - l1) / N1 + l1 / n_total
    i2 = (1.0 - l2) / N2 + l2 / n_total
    r1, r2 = 1.0 - i1, 1.0 - i2
    gam1, gam2 = (make_gamma(g) for g in par["gamma"])

    def rhs(t, y):
        E1, E2, E3, E4, F1, F2, F3, F4 = y
        m11 = q1 * o11 + r1 * E2
        m12 = q1 * o12 + r1 * E3
        m21 = q2 * o21 + r2 * F2
        m22 = q2 * o22 + r2 * F3
        drift1 = gam1(t) + r1 * E4
        drift2 = gam2(t) + r2 * F4
        return [
            (2.0 - i1) * q1 * E1 + r1 * E1 * E1 - e1,
            q1 * r1 * E2 - E2 * m11 - E3 * m21 - e1 * o11,
            q1 * r1 * E3 - E2 * m12 - E3 * m22 - e1 * o12,
            q1 * r1 * E4 - E2 * drift1 - E3 * drift2,
            (2.0 - i2) * q2 * F1 + r2 * F1 * F1 - e2,
            q2 * r2 * F2 - F2 * m11 - F3 * m21 - e2 * o21,
            q2 * r2 * F3 - F2 * m12 - F3 * m22 - e2 * o22,
            q2 * r2 * F4 - F2 * drift1 - F3 * drift2,
        ]

    c1, c2 = par["c"]
    terminal = [c1, c1 * o11, c1 * o12, 0.0, c2, c2 * o21, c2 * o22, 0.0]
    return rhs, terminal


def mfg_system(par):
    q = par["q"]
    d = len(q)
    e = [par["eps"][k] - q[k] * q[k] for k in range(d)]
    lam, beta = par["lam"], par["beta"]
    off = [
        [lam[k] * (beta[h] - (1.0 if h == k else 0.0)) for h in range(d)]
        for k in range(d)
    ]
    gammas = [make_gamma(g) for g in par["gamma"]]

    def rhs(t, y):
        eta = y[:d]
        psi = [y[d + k * d : d + (k + 1) * d] for k in range(d)]
        mu = y[d + d * d :]
        gam = [g(t) for g in gammas]
        deta = [2.0 * q[k] * eta[k] + eta[k] * eta[k] - e[k] for k in range(d)]
        dpsi = []
        for k in range(d):
            for h in range(d):
                acc = q[k] * psi[k][h] - e[k] * off[k][h]
                for j in range(d):
                    acc -= psi[k][j] * (psi[j][h] + q[j] * off[j][h])
                dpsi.append(acc)
        dmu = [
            q[k] * mu[k]
            - sum(psi[k][j] * (mu[j] + gam[j]) for j in range(d))
            for k in range(d)
        ]
        return deta + dpsi + dmu

    c = par["c"]
    terminal = (
        list(c)
        + [c[k] * off[k][h] for k in range(d) for h in range(d)]
        + [0.0] * d
    )
    return rhs, terminal


def mfg_from_two_group(par):
    return dict(T=par["T"], q=par["q"], eps=par["eps"], c=par["c"],
                lam=par["lam"], beta=par["beta"], gamma=par["gamma"])


# ----------------------------------------------------------------------
# Closed forms via mpmath.


def scalar_riccati_path(a, b, c_run, terminal, t_end):
    """Closed-form y(t) for dy/dt = a*y^2 + b*y - c_run with y(T) = terminal."""
    a, b, c_run = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c_run)
    terminal, t_end = mpmath.mpf(terminal), mpmath.mpf(t_end)
    disc = mpmath.sqrt(b * b + 4 * a * c_run)
    r_hi = (-b + disc) / (2 * a)
    r_lo = (-b - disc) / (2 * a)
    z_end = (terminal - r_hi) / (terminal - r_lo)

    def path(t):
        z = z_end * mpmath.exp(-disc * (t_end - t))
        return (r_hi - r_lo * z) / (1 - z)

    return path


def scalar_riccati_at_zero(a, b, c_run, terminal, t_end):
    return float(scalar_riccati_path(a, b, c_run, terminal, t_end)(0))


LABELS = {
    "closed": [f"eta{i}" for i in range(1, 11)]
    + [f"phi{i}" for i in range(1, 11)],
    "limiting": [f"etahat{i}" for i in range(1, 7)]
    + [f"phihat{i}" for i in range(1, 7)],
    "open": [f"etao{i}" for i in range(1, 5)] + [f"phio{i}" for i in range(1, 5)],
}


def mfg_label_list(d):
    names = [f"etam_{k}" for k in range(1, d + 1)]
    names += [f"psim_{k}_{h}" for k in range(1, d + 1) for h in range(1, d + 1)]
    names += [f"mum_{k}" for k in range(1, d + 1)]
    return names


def note(msg):
    print(msg, file=sys.stderr)


def main():
    mpmath.mp.dps = 40
    coeffs = {}
    gaps = {}

    for name, par in PARAMS.items():
        t_end = par["T"]
        capture = [t_end / 2] if name == "benchmark" else []
        for kind, builder in (
            ("closed", closed_system),
            ("limiting", limiting_system),
            ("open", open_system),
        ):
            rhs, terminal = builder(par)
            snaps, gap = refine(rhs, terminal, t_end, capture)
            gaps[(name, kind)] = gap
            for t, values in snaps.items():
                coeffs[(name, kind, t)] = dict(zip(LABELS[kind], values))
            note(f"{name}/{kind}: step-halving gap {gap:.3e}")
        rhs, terminal = mfg_system(mfg_from_two_group(par))
        snaps, gap = refine(rhs, terminal, t_end, [])
        gaps[(name, "mfg")] = gap
        coeffs[(name, "mfg", 0.0)] = dict(zip(mfg_label_list(2), snaps[0.0]))
        note(f"{name}/mfg: step-halving gap {gap:.3e}")

    rhs, terminal = mfg_system(PARAMS_MFG3)
    snaps, gap = refine(rhs, terminal, PARAMS_MFG3["T"], [])
    gaps[("mfg3", "mfg")] = gap
    coeffs[("mfg3", "mfg", 0.0)] = dict(zip(mfg_label_list(3), snaps[0.0]))
    note(f"mfg3/mfg: step-halving gap {gap:.3e}")

    worst_gap = max(gaps.values())
    assert worst_gap < 1e-8, f"integration not converged: {worst_gap:.3e}"

    # Internal consistency checks, all on values this script produced.
    bench_lim = coeffs[("benchmark", "limiting", 0.0)]
    ident = max(abs(bench_lim["etahat4"] + bench_lim["etahat5"]),
                abs(bench_lim["phihat4"] + bench_lim["phihat5"]))
    note(f"limiting weight-sum identity: {ident:.3e}")
    assert ident < 1e-12

    bench_mfg = coeffs[("benchmark", "mfg", 0.0)]
    pairs = [("etam_1", "etahat1"), ("etam_2", "phihat1"),
             ("psim_1_1", "etahat4"), ("psim_1_2", "etahat5"),
             ("psim_2_1", "phihat4"), ("psim_2_2", "phihat5")]
    agree = max(abs(bench_mfg[a] - bench_lim[b]) for a, b in pairs)
    note(f"mfg (d=2) vs limiting subsystem: {agree:.3e}")
    assert agree < 1e-12

    # Decoupled groups: the own quadratic coefficients solve scalar
    # Riccati equations in closed form, the cross and linear coefficients
    # vanish, and the constant component is the time integral of the
    # Ito correction against the quadratic one.
    lam0 = dict(PARAMS["benchmark"], lam=(0.0, 0.0), c=(0.3, 0.0))
    rhs, terminal = closed_system(lam0)
    snaps, _ = refine(rhs, terminal, lam0["T"], [])
    got = snaps[0.0]
    diffs = []
    for block, (n_banks, q, eps, c_term) in enumerate(
        zip(lam0["N"], lam0["q"], lam0["eps"], lam0["c"])
    ):
        want = scalar_riccati_at_zero(
            1.0 - 1.0 / n_banks**2, 2.0 * q, eps - q * q, c_term, lam0["T"])
        diffs.append(abs(got[10 * block] - want))
    note(f"lam=0 closed form: max |quadratic - exact| = {max(diffs):.3e}")
    assert max(diffs) < 1e-11
    rest = max(abs(v) for v in got[1:9] + got[11:19])
    assert rest < 1e-15, f"lam=0 coupling leak {rest:.3e}"
    w_own1 = (0.5 * lam0["sigma"][0] ** 2
              * (1.0 - lam0["rho_k"][0] ** 2) * (1.0 - lam0["rho"] ** 2)
              * (1.0 - 1.0 / lam0["N"][0]))
    ito_exact = w_own1 * float(mpmath.quad(
        scalar_riccati_path(1.0 - 1.0 / lam0["N"][0] ** 2, 4.0, 1.0, 0.3,
                            1.0), [0, 1]))
    note(f"lam=0 constant term: |eta10(0) - integral| = "
         f"{abs(got[9] - ito_exact):.3e}")
    assert abs(got[9] - ito_exact) < 1e-11

    # Flat-cost market: the zero solution is exact and the integration
    # must preserve it bit for bit.
    flat = dict(PARAMS["rich"], eps=(PARAMS["rich"]["q"][0] ** 2,
                                     PARAMS["rich"]["q"][1] ** 2),
                c=(0.0, 0.0))
    for builder in (closed_system, limiting_system, open_system):
        rhs, terminal = builder(flat)
        snaps, _ = refine(rhs, terminal, flat["T"], [])
        assert max(abs(v) for v in snaps[0.0]) == 0.0
    note("flat-cost zero solution preserved exactly")

    # Open-loop coefficients approach the limiting ones as N grows.
    wide = dict(PARAMS["benchmark"], N=(2 * 10**7, 8 * 10**7))
    rhs, terminal = open_system(wide)
    snaps, _ = refine(rhs, terminal, wide["T"], [])
    ovals = dict(zip(LABELS["open"], snaps[0.0]))
    drift = max(abs(ovals["etao1"] - bench_lim["etahat1"]),
                abs(ovals["etao2"] - bench_lim["etahat4"]),
                abs(ovals["etao3"] - bench_lim["etahat5"]),
                abs(ovals["phio1"] - bench_lim["phihat1"]),
                abs(ovals["phio2"] - bench_lim["phihat4"]),
                abs(ovals["phio3"] - bench_lim["phihat5"]))
    note(f"open vs limiting at N=1e8: {drift:.3e}")
    assert drift < 1e-6

    scalar = {
        "closed_n4": scalar_riccati_at_zero(1.0 - 1.0 / 16.0, 4.0, 1.0, 0.0, 1.0),
        "limiting": scalar_riccati_at_zero(1.0, 4.0, 1.0, 0.0, 1.0),
        "limiting_c": scalar_riccati_at_zero(1.0, 4.0, 1.0, 0.3, 1.0),
    }

    cdf_points = [-6.0, -3.7, -1.96, -1.2345, -0.5, 0.0, 0.31830988618,
                  1.0, 2.5, 5.5]
    cdf = [(x, float(mpmath.ncdf(x))) for x in cdf_points]
    exit_probs = {
        "d062_n10": float(2 * mpmath.ncdf(mpmath.mpf("-0.62") * mpmath.sqrt(10))),
        "d196": float(2 * mpmath.ncdf(mpmath.mpf("-1.96"))),
    }

    out = sys.stdout
    out.write('"""Frozen reference values.  Regenerate with _reference.py;'
              ' do not edit."""\n\n')
    out.write("# Step-halving gaps observed while generating: worst "
              f"{worst_gap:.3e}.\n\n")
    out.write("PARAMS = {\n")
    for name, par in {**PARAMS, "mfg3": PARAMS_MFG3}.items():
        out.write(f"    {name!r}: {par!r},\n")
    out.write("}\n\n")
    out.write("COEFFS = {\n")
    for key in sorted(coeffs, key=repr):
        out.write(f"    {key!r}: {{\n")
        for label, value in coeffs[key].items():
            out.write(f"        {label!r}: {value!r},\n")
        out.write("    },\n")
    out.write("}\n\n")
    out.write(f"SCALAR_RICCATI = {scalar!r}\n\n")
    out.write("NORMAL_CDF = (\n")
    for x, value in cdf:
        out.write(f"    ({x!r}, {value!r}),\n")
    out.write(")\n\n")
    out.write(f"EXIT_PROBS = {exit_probs!r}\n")
    note("all reference checks passed")


if __name__ == "__main__":
    main()
