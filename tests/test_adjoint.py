import numpy as np
import pytest
import scipy.linalg as sla

from ksctl.adjoint import solve_adjoint, solve_backward_heat
from ksctl.grid import build_grid, mass
from ksctl.ks_model import Control, KSParams, smooth_cutoff, solve_linearized

from conftest import lowfreq_field, lowfreq_space_time
from oracles import DualityMismatchError, duality_gap, duality_terms


def test_zero_data_gives_zero(params, grid_small, chi_small):
    z = np.zeros(grid_small.num_nodes)
    adj = solve_adjoint(params, z, z, None, None, grid_small)
    assert np.abs(adj.phi).max() == 0.0
    assert np.abs(adj.xi).max() == 0.0
    # the transposition identity on all-zero data is exactly 0 = 0
    primal = solve_linearized(params, z, z, Control.zero(grid_small, chi_small),
                              None, None, grid_small)
    assert duality_gap(primal, adj, Control.zero(grid_small, chi_small),
                       None, None, None, None) == 0.0


def _random_problem(grid, p, rng, chi):
    z0 = lowfreq_field(grid, rng, zero_mean=True)
    w0 = lowfreq_field(grid, rng)
    h1 = lowfreq_space_time(grid, rng, zero_mean=True)
    h2 = lowfreq_space_time(grid, rng)
    gctl = Control(g=lowfreq_space_time(grid, rng), chi=chi)
    primal = solve_linearized(p, z0, w0, gctl, h1, h2, grid)
    return primal, gctl, h1, h2


def test_duality_gap_machine_precision(grid_small, chi_small):
    rng = np.random.default_rng(21)
    p = KSParams(a=10.0, b=1.0, eps=0.3, M1=1.0, M2=10.0)
    primal, gctl, h1, h2 = _random_problem(grid_small, p, rng, chi_small)
    phiT, xiT = lowfreq_field(grid_small, rng, zero_mean=True), lowfreq_field(grid_small, rng)
    f1, f2 = lowfreq_space_time(grid_small, rng), lowfreq_space_time(grid_small, rng)
    adj = solve_adjoint(p, phiT, xiT, f1, f2, grid_small)
    gap = duality_gap(primal, adj, gctl, h1, h2, f1, f2)
    _, _, scale = duality_terms(primal, adj, gctl, h1, h2, f1, f2)
    assert gap < 1e-10 * scale


def test_duality_gap_2d(grid_2d):
    rng = np.random.default_rng(4)
    p = KSParams(a=2.0, b=1.0, eps=0.5, M1=1.0, M2=2.0)
    chi = smooth_cutoff(grid_2d, ((0.25, 0.45), (0.25, 0.45)),
                        ((0.2, 0.5), (0.2, 0.5)))
    primal, gctl, h1, h2 = _random_problem(grid_2d, p, rng, chi)
    phiT, xiT = lowfreq_field(grid_2d, rng, zero_mean=True), lowfreq_field(grid_2d, rng)
    f1 = lowfreq_space_time(grid_2d, rng)
    adj = solve_adjoint(p, phiT, xiT, f1, None, grid_2d)
    gap = duality_gap(primal, adj, gctl, h1, h2, f1, None)
    _, _, scale = duality_terms(primal, adj, gctl, h1, h2, f1, None)
    assert gap < 1e-10 * scale


def test_eps_mismatch_raises(grid_small, chi_small):
    rng = np.random.default_rng(2)
    p1 = KSParams(a=10.0, b=1.0, eps=0.5, M1=1.0, M2=10.0)
    p2 = KSParams(a=10.0, b=1.0, eps=0.25, M1=1.0, M2=10.0)
    primal, gctl, h1, h2 = _random_problem(grid_small, p1, rng, chi_small)
    adj = solve_adjoint(p2, np.zeros(grid_small.num_nodes),
                        np.zeros(grid_small.num_nodes), None, None, grid_small)
    with pytest.raises(DualityMismatchError):
        duality_gap(primal, adj, gctl, h1, h2, None, None)


def test_grid_mismatch_raises(params, grid_small, chi_small, grid_std):
    rng = np.random.default_rng(2)
    primal, gctl, h1, h2 = _random_problem(grid_small, params, rng, chi_small)
    adj = solve_adjoint(params, np.zeros(grid_std.num_nodes),
                        np.zeros(grid_std.num_nodes), None, None, grid_std)
    with pytest.raises(DualityMismatchError):
        duality_gap(primal, adj, gctl, h1, h2, None, None)


def test_terminal_mean_projection_warns(params, grid_small):
    phiT = np.ones(grid_small.num_nodes)      # mean 1, far above tolerance
    with pytest.warns(UserWarning, match="projected"):
        adj = solve_adjoint(params, phiT, np.zeros_like(phiT), None, None,
                            grid_small)
    assert abs(mass(adj.phi[-1], grid_small)) < 1e-13


def test_adjoint_mass_conserved_for_zero_mean_terminal_data(params, grid_small):
    rng = np.random.default_rng(8)
    phiT = lowfreq_field(grid_small, rng, zero_mean=True)
    xiT = lowfreq_field(grid_small, rng, zero_mean=True)
    adj = solve_adjoint(params, phiT, xiT, None, None, grid_small)
    worst = max(abs(mass(adj.phi[k], grid_small)) for k in range(grid_small.m + 1))
    assert worst < 1e-11
    # a mean-carrying xiT feeds mass into phi through the coupling; that
    # drift is measured, not bounded
    adj2 = solve_adjoint(params, phiT, xiT + 1.0, None, None, grid_small)
    drift = max(abs(mass(adj2.phi[k], grid_small)) for k in range(grid_small.m + 1))
    assert np.isfinite(drift)


def test_adjoint_linearity(params, grid_small):
    rng = np.random.default_rng(9)
    datas = []
    for _ in range(2):
        datas.append((
            lowfreq_field(grid_small, rng, zero_mean=True),
            lowfreq_field(grid_small, rng),
            lowfreq_space_time(grid_small, rng),
            lowfreq_space_time(grid_small, rng),
        ))
    a1 = solve_adjoint(params, *datas[0], grid_small)
    a2 = solve_adjoint(params, *datas[1], grid_small)
    summed = solve_adjoint(
        params,
        datas[0][0] + datas[1][0], datas[0][1] + datas[1][1],
        datas[0][2] + datas[1][2], datas[0][3] + datas[1][3],
        grid_small,
    )
    scale = np.abs(summed.phi).max() + np.abs(summed.xi).max()
    assert np.abs(summed.phi - a1.phi - a2.phi).max() < 1e-12 * scale
    assert np.abs(summed.xi - a1.xi - a2.xi).max() < 1e-12 * scale


def test_adjoint_matches_transposed_mode_oracle():
    p = KSParams(a=10.0, b=1.0, eps=0.5, M1=1.0, M2=10.0)
    g = build_grid(1, 1.0, 200, 1.0, 400)
    x = g.axes[0]
    cosx = np.cos(np.pi * x)
    adj = solve_adjoint(p, 0.02 * cosx, 0.01 * cosx, None, None, g)
    mu = np.pi**2
    B = np.array([[-mu, p.a], [p.M1 * mu / p.eps, -(p.b + mu) / p.eps]])
    # backward solution at t=0 equals exp(B T) applied to the terminal pair
    vals = sla.expm(B * g.T) @ np.array([0.02, 0.01])
    nrm = np.dot(cosx, cosx)
    pm = np.dot(adj.phi[0], cosx) / nrm
    qm = np.dot(adj.xi[0], cosx) / nrm
    assert abs(pm - vals[0]) + abs(qm - vals[1]) < 5e-5


def test_backward_heat_zero_case(grid_small):
    z = np.zeros((grid_small.m + 1, grid_small.num_nodes))
    phi = solve_backward_heat(np.zeros(grid_small.num_nodes), z, grid_small)
    assert np.abs(phi).max() == 0.0
