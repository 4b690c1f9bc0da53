"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity at its stated tolerance.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg as sla
import yaml

from ksctl.adjoint import solve_adjoint
from ksctl.carleman_check import adjoint_reports, lemmaA1_report, weight_families
from ksctl.cli import main as cli_main
from ksctl.grid import build_grid, l2_norm, mass
from ksctl.hum_control import ControlProblem, SolverSettings, extract_control, solve_dual
from ksctl.ks_model import (
    Control,
    KSParams,
    smooth_cutoff,
    solve_forward_pp,
    solve_linearized,
)
from ksctl.nonlinear_control import eps_sweep
from ksctl.weights import build_eta0, refined_weights, weight_params

from conftest import OMEGA, OMEGA0, OMEGA_PRIME, lowfreq_field, lowfreq_space_time
from oracles import dense_dual_solve, duality_gap, duality_terms

A, B, M1, M2 = 10.0, 1.0, 1.0, 10.0
T_FINAL = 2.4
LAM = 1.5
SIGMA0 = 0.05


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def make_setup(n, m, eps=1.0, sigma0=SIGMA0):
    g = build_grid(1, 1.0, n, T_FINAL, m)
    p = KSParams(a=A, b=B, eps=eps, M1=M1, M2=M2)
    eta = build_eta0(g, OMEGA0, OMEGA_PRIME, OMEGA)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    wt = refined_weights(eta, weight_params(g.T, LAM, sigma0=sigma0))
    return g, p, eta, chi, wt


def test_criterion_1_duality_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (24, 50):
        for m in (40, 100):
            g = build_grid(1, 1.0, n, T_FINAL, m)
            chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
            for eps in (1.0, 0.1, 0.01):
                p = KSParams(a=A, b=B, eps=eps, M1=M1, M2=M2)
                for _ in range(10):
                    z0 = lowfreq_field(g, rng, zero_mean=True)
                    w0 = lowfreq_field(g, rng)
                    h1 = lowfreq_space_time(g, rng, zero_mean=True)
                    h2 = lowfreq_space_time(g, rng)
                    ctl = Control(g=lowfreq_space_time(g, rng), chi=chi)
                    primal = solve_linearized(p, z0, w0, ctl, h1, h2, g)
                    phiT = lowfreq_field(g, rng, zero_mean=True)
                    xiT = lowfreq_field(g, rng)
                    f1, f2 = lowfreq_space_time(g, rng), lowfreq_space_time(g, rng)
                    adj = solve_adjoint(p, phiT, xiT, f1, f2, g)
                    gap = duality_gap(primal, adj, ctl, h1, h2, f1, f2)
                    _, _, scale = duality_terms(primal, adj, ctl, h1, h2, f1, f2)
                    worst = max(worst, gap / scale)
    wall = time.time() - t0
    assert worst < 1e-10
    assert wall < 60.0
    report(1, f"duality gap <= {worst:.2e} relative over the 2x2x3 matrix "
              f"x10 data sets ({wall:.1f}s)")


def test_criterion_2_mass_conservation():
    g, p, eta, chi, wt = make_setup(50, 100)
    x = g.axes[0]
    u0 = M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, M2)
    rng = np.random.default_rng(7)
    gctl = Control(g=0.05 * lowfreq_space_time(g, rng), chi=chi)

    drifts = {}
    traj = solve_forward_pp(p, u0, v0, gctl, g)
    m0 = mass(u0, g)
    drifts["nonlinear"] = max(abs(mass(traj.u[k], g) - m0) for k in range(g.m + 1))
    traj = solve_forward_pp(p, u0, v0, gctl, g, coupling="elliptic")
    drifts["parabolic-elliptic"] = max(
        abs(mass(traj.u[k], g) - m0) for k in range(g.m + 1))
    h1 = lowfreq_space_time(g, rng, zero_mean=True)
    lin = solve_linearized(p, u0 - M1, v0 - M2, gctl, h1, None, g)
    drifts["linearized"] = max(abs(mass(lin.u[k], g)) for k in range(g.m + 1))

    prob = ControlProblem(params=p, grid=g, weights=wt, chi=chi,
                          z0=u0 - M1, w0=v0 - M2)
    res = extract_control(solve_dual(prob), prob)
    ctrl_traj = solve_forward_pp(p, u0, v0, res.control, g, coupling="implicit")
    drifts["controlled"] = max(
        abs(mass(ctrl_traj.u[k], g) - m0) for k in range(g.m + 1))

    worst = max(drifts.values()) / abs(m0)
    assert worst < 1e-11
    report(2, "relative mass drift " + ", ".join(
        f"{k}={v / abs(m0):.2e}" for k, v in drifts.items()))


def test_criterion_3_steady_state_exactness():
    g = build_grid(1, 1.0, 50, T_FINAL, 200)
    p = KSParams(a=A, b=B, eps=1.0, M1=M1, M2=M2)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    c = Control.zero(g, chi)
    u0 = np.full(g.num_nodes, M1)
    v0 = np.full(g.num_nodes, M2)
    pp = solve_forward_pp(p, u0, v0, c, g)
    pe = solve_forward_pp(p, u0, v0, c, g, coupling="elliptic")
    dev = max(
        np.abs(pp.u - M1).max() / M1, np.abs(pp.v - M2).max() / M2,
        np.abs(pe.u - M1).max() / M1, np.abs(pe.v - M2).max() / M2,
    )
    assert dev < 1e-12
    report(3, f"constant state fixed to {dev:.2e} relative over 200 steps")


def test_criterion_4_eigenmode_oracle():
    p = KSParams(a=A, b=B, eps=0.5, M1=M1, M2=M2)
    mu = np.pi**2
    Af = np.array([[-mu, p.M1 * mu], [p.a / p.eps, -(p.b + mu) / p.eps]])
    Bb = np.array([[-mu, p.a], [p.M1 * mu / p.eps, -(p.b + mu) / p.eps]])

    def forward_err(n, m):
        g = build_grid(1, 1.0, n, 1.0, m)
        chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
        x = g.axes[0]
        cosx = np.cos(np.pi * x)
        traj = solve_linearized(p, 0.01 * cosx, np.zeros_like(x),
                                Control.zero(g, chi), None, None, g)
        nrm = np.dot(cosx, cosx)
        got = np.array([np.dot(traj.u[-1], cosx), np.dot(traj.v[-1], cosx)]) / nrm
        want = sla.expm(Af * g.T) @ np.array([0.01, 0.0])
        return np.abs(got - want).max()

    def adjoint_err(n, m):
        g = build_grid(1, 1.0, n, 1.0, m)
        x = g.axes[0]
        cosx = np.cos(np.pi * x)
        adj = solve_adjoint(p, 0.01 * cosx, 0.02 * cosx, None, None, g)
        nrm = np.dot(cosx, cosx)
        got = np.array([np.dot(adj.phi[0], cosx), np.dot(adj.xi[0], cosx)]) / nrm
        want = sla.expm(Bb * g.T) @ np.array([0.01, 0.02])
        return np.abs(got - want).max()

    lines = []
    for name, err in (("linearized", forward_err), ("adjoint", adjoint_err)):
        # halving dt on a fine space grid: first-order factor ~2
        e_dt = [err(400, m) for m in (50, 100)]
        f_dt = e_dt[0] / e_dt[1]
        # halving h with a fine time grid: second-order factor ~4
        e_h = [err(n, 25600) for n in (12, 24)]
        f_h = e_h[0] / e_h[1]
        assert 1.5 < f_dt < 3.0, (name, f_dt)
        assert 3.0 < f_h < 5.5, (name, f_h)
        lines.append(f"{name}: dt-halving x{f_dt:.2f}, h-halving x{f_h:.2f}")
    report(4, "; ".join(lines))


def test_criterion_5_carleman_non_falsification():
    t0 = time.time()
    g, p, eta, chi, wt = make_setup(50, 100)
    s_base = 0.02 * (g.T**4 + g.T**8)
    s_list = [s_base, 2 * s_base, 4 * s_base]
    lam = 1.2
    counts = 0
    logs = {}
    alpha, beta = weight_families(eta, s_list, lam)
    thm, rep31 = adjoint_reports(p, alpha, beta, eta, chi,
                                 eps_list=(1.0, 0.1, 0.01), n_samples=20, seed=5)
    for eps, rep in zip((1.0, 0.1, 0.01), thm, strict=True):
        assert rep.ok
        counts += len(rep.rows)
        assert all(np.isfinite(r["log_ratio"]) for r in rep.rows)
        logs[f"thm2.2(eps={eps})"] = max(rep.c_emp_log.values())
    assert rep31.ok
    counts += len(rep31.rows)
    assert all(np.isfinite(r["log_ratio"]) for r in rep31.rows)
    logs["lem3.1"] = max(rep31.c_emp_log.values())
    repA = lemmaA1_report(alpha, eta, n_samples=20, seed=5)
    assert repA.ok
    counts += len(repA.rows)
    logs["lemA.1"] = max(repA.c_emp_log.values())
    wall = time.time() - t0
    assert wall < 300.0
    report(5, f"{counts} samples, zero falsifications; max log-constants "
              + ", ".join(f"{k}={v:.1f}" for k, v in logs.items())
              + f" ({wall:.1f}s)")


def test_criterion_6_linearized_null_control():
    t0 = time.time()
    g, p, eta, chi, wt = make_setup(50, 100)
    x = g.axes[0]
    z0 = 0.01 * np.cos(np.pi * x)
    w0 = np.zeros_like(x)
    free = solve_linearized(p, z0, w0, Control.zero(g, chi), None, None, g)
    free_term = l2_norm(free.u[-1], g)

    terminals = {}
    for tau in (1e-4, 1e-6, 1e-8):
        prob = ControlProblem(params=p, grid=g, weights=wt, chi=chi,
                              z0=z0, w0=w0, settings=SolverSettings(tau=tau))
        res = extract_control(solve_dual(prob), prob)
        terminals[tau] = res.terminal_u
    wall = time.time() - t0
    ratio = terminals[1e-8] / free_term
    assert ratio <= 1e-3
    assert terminals[1e-4] > terminals[1e-6] > terminals[1e-8]
    assert wall < 600.0
    report(6, f"|u(T)| = {terminals[1e-8]:.2e} vs free {free_term:.2e} "
              f"(ratio {ratio:.1e} <= 1e-3); tau-scan "
              + " > ".join(f"{terminals[t]:.2e}" for t in (1e-4, 1e-6, 1e-8))
              + f" ({wall:.1f}s)")


@pytest.fixture(scope="module")
def sweep_result():
    g, p, eta, chi, wt = make_setup(50, 100)
    x = g.axes[0]
    u0 = M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, M2)
    return eps_sweep(p, u0, v0, wt, chi, g,
                     eps_list=(1.0, 0.5, 0.1, 0.01, 0.001),
                     settings=SolverSettings(tol=1e-6, maxit=20))


def test_criterion_7_nonlinear_local_control(sweep_result):
    assert not sweep_result.excluded
    for row in sweep_result.rows:
        assert row["iterations"] <= 20
        assert row["forward_residual"] < 2e-6
    report(7, "picard converged at every eps: " + ", ".join(
        f"eps={r['eps']:g}:{r['iterations']}it/fwd={r['forward_residual']:.1e}"
        for r in sweep_result.rows))


def test_criterion_8_eps_uniformity(sweep_result):
    ratio = sweep_result.uniformity_ratio
    norms = {r["eps"]: r["g_l2h1"] for r in sweep_result.rows}
    assert len(sweep_result.rows) == 5
    assert ratio <= 10.0
    report(8, f"uniformity ratio {ratio:.2f} <= 10; |g| = "
              + ", ".join(f"{e:g}:{v:.3f}" for e, v in norms.items()))


def test_criterion_9_dense_oracle():
    g, p, eta, chi, wt = make_setup(24, 40, eps=0.3)
    x = g.axes[0]
    prob = ControlProblem(params=p, grid=g, weights=wt, chi=chi,
                          z0=0.01 * np.cos(np.pi * x), w0=np.zeros_like(x),
                          settings=SolverSettings(tau=1e-8, cg_tol=1e-14,
                                                  weight_floor=1e-4))
    dual = solve_dual(prob)
    zd, wd = dense_dual_solve(prob)
    num = np.linalg.norm(np.concatenate([(dual.zhat - zd).ravel(),
                                         (dual.what - wd).ravel()]))
    den = np.linalg.norm(np.concatenate([zd.ravel(), wd.ravel()]))
    assert num / den < 1e-8
    report(9, f"CG vs dense direct solve: {num / den:.2e} relative "
              f"({dual.iterations} CG iterations)")


def test_criterion_10_determinism(tmp_path):
    outdirs = [tmp_path / "r1", tmp_path / "r2"]
    digests = {}
    for cmd in ("simulate", "control-linear"):
        blobs = []
        for out in outdirs:
            cfgp = tmp_path / f"{cmd}-{out.name}.yaml"
            cfgp.write_text(yaml.safe_dump({
                "grid": {"n": 24, "m": 32},
                "io": {"outdir": str(out)},
            }))
            assert cli_main([cmd, "--config", str(cfgp)]) == 0
            csv = [f for f in os.listdir(out) if f.startswith(cmd)
                   and f.endswith(".csv")][0]
            blobs.append((out / csv).read_bytes())
        assert blobs[0] == blobs[1]
        digests[cmd] = len(blobs[0])
    report(10, "byte-identical CSVs across reruns: " + ", ".join(
        f"{k} ({v} bytes)" for k, v in digests.items()))
